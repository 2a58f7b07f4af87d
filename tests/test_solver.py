"""Homotopy-path solver: certificates, closed forms, degenerate and
realistic designs, determinism.  ``max_sweeps`` and ``sweeps_used``
count path steps."""

import numpy as np
import pytest

from basiq.dictionary import build_dictionary
from basiq.errors import BasiqError, InvalidInputError, ShapeError, UnsupportedConfigError
from basiq.solver import (
    _SPAN_GATE,
    _SPAN_TOL,
    LassoConfig,
    SparseSolution,
    _gap_from_residual,
    _homotopy,
    duality_gap,
    lambda_max,
    solve_lasso,
)

from conftest import (
    near_duplicate_pairs, orthogonal_dictionary, question_records, unit_columns,
    unit_columns_of_rank,
)


def kkt_violation(a, b, lam, x):
    """Stationarity residual of the penalized least-squares problem.

    Active coordinates must have gradient equal to the (signed) penalty;
    inactive ones must have gradient within the penalty band.  Written
    against the optimality conditions directly, independent of how the
    solver iterates.
    """
    g = a.T @ (b - a @ x)
    worst = 0.0
    for j in range(a.shape[1]):
        gj = float(g[j])
        if x[j] > 0:
            worst = max(worst, abs(gj - lam))
        elif x[j] < 0:
            worst = max(worst, abs(gj + lam))
        else:
            worst = max(worst, max(0.0, abs(gj) - lam))
    return worst


def dual_objective(a, b, lam, x):
    """Value of the dual at the residual-scaled feasible point."""
    r = b - a @ x
    grad_norm = float(np.max(np.abs(a.T @ r))) if a.shape[1] else 0.0
    scale = 1.0 if grad_norm <= lam else lam / grad_norm
    theta = scale * r
    return 0.5 * float(b @ b) - 0.5 * float((theta - b) @ (theta - b))


def primal_objective(a, b, lam, x):
    r = a @ x - b
    return 0.5 * float(r @ r) + lam * float(np.sum(np.abs(x)))


def test_lambda_max_identity_columns():
    a = np.eye(2)
    assert lambda_max(a, np.array([0.5, -0.3])) == 0.5


def test_lambda_max_zero_query():
    assert lambda_max(np.eye(3), np.zeros(3)) == 0.0


def test_lambda_max_matches_dense_oracle(rng):
    a = unit_columns(rng, 8, 20)
    b = rng.standard_normal(8)
    expected = max(abs(float(a[:, j] @ b)) for j in range(20))
    assert lambda_max(a, b) == pytest.approx(expected, abs=0.0, rel=1e-15)


def test_identity_design_closed_form():
    a = np.asfortranarray(np.eye(3))
    b = np.array([1.0, 0.5, 0.1])
    sol = solve_lasso(a, b, LassoConfig.absolute(0.2))
    assert np.allclose(sol.coefficients, [0.8, 0.3, 0.0], atol=1e-12)
    assert sol.converged


def test_identity_design_matches_soft_threshold(rng):
    for n in (1, 2, 4, 8, 16, 32, 64):
        a = np.asfortranarray(np.eye(n))
        b = rng.standard_normal(n)
        lam = 0.3 * float(np.max(np.abs(b)))
        if lam == 0.0:
            continue
        sol = solve_lasso(a, b, LassoConfig.absolute(lam))
        expected = np.sign(b) * np.maximum(np.abs(b) - lam, 0.0)
        assert np.max(np.abs(sol.coefficients - expected)) <= 1e-9


def test_zero_solution_law_exact(rng):
    for trial in range(20):
        a = unit_columns(rng, 10, 25)
        b = rng.standard_normal(10)
        lam = 1.0001 * lambda_max(a, b)
        sol = solve_lasso(a, b, LassoConfig.absolute(lam))
        assert np.all(sol.coefficients == 0.0)
        assert sol.converged and sol.duality_gap == 0.0


def test_lambda_exactly_at_max_gives_zero(rng):
    a = unit_columns(rng, 6, 12)
    b = rng.standard_normal(6)
    sol = solve_lasso(a, b, LassoConfig.absolute(lambda_max(a, b)))
    assert np.all(sol.coefficients == 0.0)


def test_random_instance_kkt(rng):
    a = unit_columns(rng, 32, 128)
    b = rng.standard_normal(32)
    lam = 0.1 * lambda_max(a, b)
    sol = solve_lasso(a, b, LassoConfig.absolute(lam, tol=1e-6))
    assert sol.converged and sol.duality_gap <= 1e-6
    assert kkt_violation(a, b, lam, sol.coefficients) <= 1e-6


def test_objective_matches_recompute(rng):
    a = unit_columns(rng, 16, 40)
    b = rng.standard_normal(16)
    lam = 0.2 * lambda_max(a, b)
    sol = solve_lasso(a, b, LassoConfig.absolute(lam))
    direct = primal_objective(a, b, lam, sol.coefficients)
    assert sol.objective == pytest.approx(direct, rel=1e-10)


def test_objective_history_nonincreasing(rng):
    # The objective at lam after each path step, traced by the oracle,
    # which takes the solver's path bit for bit.
    for trial in range(10):
        a = unit_columns(rng, 12, 48)
        b = rng.standard_normal(12)
        lam = 0.05 * lambda_max(a, b)
        _, history, *_ = _reference_solve(a, b, LassoConfig.absolute(lam))
        assert np.all(np.diff(history) <= 1e-12)


def test_duality_gap_at_identity_optimum():
    a = np.asfortranarray(np.eye(3))
    b = np.array([1.0, 0.5, 0.1])
    x = np.array([0.8, 0.3, 0.0])
    assert duality_gap(a, b, 0.2, x) <= 1e-12


def test_duality_gap_at_origin_above_lambda_max(rng):
    a = unit_columns(rng, 5, 9)
    b = rng.standard_normal(5)
    lam = 1.5 * lambda_max(a, b)
    assert duality_gap(a, b, lam, np.zeros(9)) <= 1e-12


def test_duality_gap_positive_off_optimum():
    a = np.asfortranarray(np.eye(3))
    b = np.array([1.0, 0.5, 0.1])
    x = np.array([0.9, 0.3, 0.0])  # first coordinate pushed off the optimum
    lam = 0.2
    gap = duality_gap(a, b, lam, x)
    direct = primal_objective(a, b, lam, x) - dual_objective(a, b, lam, x)
    assert gap > 0.0
    assert gap == pytest.approx(direct, rel=1e-12)


def test_duality_gap_matches_primal_minus_dual(rng):
    for trial in range(10):
        a = unit_columns(rng, 9, 17)
        b = rng.standard_normal(9)
        lam = 0.3 * lambda_max(a, b)
        x = rng.standard_normal(17) * 0.1
        gap = duality_gap(a, b, lam, x)
        direct = primal_objective(a, b, lam, x) - dual_objective(a, b, lam, x)
        assert gap == pytest.approx(direct, rel=1e-11, abs=1e-13)


def test_duality_gap_rejects_zero_lambda():
    a = np.eye(2)
    with pytest.raises(UnsupportedConfigError):
        duality_gap(a, np.ones(2), 0.0, np.zeros(2))


def test_solver_rejects_zero_lambda():
    a = np.asfortranarray(np.eye(2))
    with pytest.raises(UnsupportedConfigError):
        solve_lasso(a, np.ones(2), LassoConfig.absolute(0.0))


@pytest.mark.parametrize("make", [
    lambda: LassoConfig.absolute(0.0),
    lambda: LassoConfig.absolute(-0.0),
    lambda: LassoConfig.relative(0),
], ids=["lambda_abs-0", "lambda_abs-negative-0", "lambda_rel-0"])
def test_config_rejects_zero_lambda(make):
    message = "lambda = 0 is rejected: unpenalized least squares is out of scope"
    with pytest.raises(UnsupportedConfigError, match=f"^{message}$"):
        make()


def test_solver_rejects_zero_query_under_relative_penalty():
    a = np.asfortranarray(np.eye(2))
    with pytest.raises(UnsupportedConfigError, match="^lambda = 0 is rejected"):
        solve_lasso(a, np.zeros(2), LassoConfig.relative(0.1))


def test_config_requires_exactly_one_lambda():
    with pytest.raises(UnsupportedConfigError):
        LassoConfig(lambda_abs=0.1, lambda_rel=0.1)
    with pytest.raises(UnsupportedConfigError):
        LassoConfig(lambda_abs=None, lambda_rel=None)


def test_config_validation():
    with pytest.raises(InvalidInputError, match="^lambda_abs must be nonnegative$"):
        LassoConfig.absolute(-0.1)
    with pytest.raises(InvalidInputError, match="^lambda_abs must be nonnegative$"):
        LassoConfig.absolute(-np.inf)
    with pytest.raises(InvalidInputError, match="^lambda_rel must be nonnegative$"):
        LassoConfig.relative(-0.1)
    with pytest.raises(InvalidInputError, match="^tol must be positive$"):
        LassoConfig.relative(0.1, tol=0.0)
    with pytest.raises(InvalidInputError, match="^tol must be positive$"):
        LassoConfig.relative(0.1, tol=np.nan)
    with pytest.raises(InvalidInputError, match="^max_sweeps must be >= 1$"):
        LassoConfig.relative(0.1, max_sweeps=0)
    # A NaN cap ran no path step.
    for cap in (np.nan, np.inf, 2.5, 3.0, True, "3"):
        with pytest.raises(InvalidInputError) as info:
            LassoConfig.relative(0.1, max_sweeps=cap)
        assert str(info.value) == f"max_sweeps must be an integer, got {cap!r}"
    # A bool is not a penalty or a tolerance, and a string is not a number.
    for name, make, value in [("lambda_abs", LassoConfig.absolute, True),
                              ("lambda_abs", LassoConfig.absolute, "0.1"),
                              ("lambda_rel", LassoConfig.relative, False),
                              ("lambda_rel", LassoConfig.relative, np.True_),
                              ("tol", lambda v: LassoConfig.relative(0.1, tol=v), True),
                              ("tol", lambda v: LassoConfig.relative(0.1, tol=v), "1e-6"),
                              ("tol", lambda v: LassoConfig.relative(0.1, tol=v), None)]:
        with pytest.raises(InvalidInputError) as info:
            make(value)
        assert str(info.value) == f"{name} must be a real number, got {value!r}"
    config = LassoConfig.absolute(np.float32(0.5), tol=np.int64(1))
    assert (config.lambda_abs, config.tol) == (0.5, 1)
    config = LassoConfig.relative(0.1, max_sweeps=np.int32(7))
    assert type(config.max_sweeps) is int and config.max_sweeps == 7
    assert LassoConfig._fields == ("lambda_abs", "lambda_rel", "tol", "max_sweeps")


@pytest.mark.parametrize("make, name, value", [
    (lambda v: LassoConfig.absolute(v), "lambda_abs", np.nan),
    (lambda v: LassoConfig.absolute(v), "lambda_abs", np.inf),
    (lambda v: LassoConfig.relative(v), "lambda_rel", np.nan),
    (lambda v: LassoConfig.relative(v), "lambda_rel", np.inf),
    (lambda v: LassoConfig.relative(0.1, tol=v), "tol", np.inf),  # a NaN tol is not positive
], ids=["lambda_abs-nan", "lambda_abs-inf", "lambda_rel-nan", "lambda_rel-inf", "tol-inf"])
def test_config_rejects_non_finite(make, name, value):
    with pytest.raises(InvalidInputError, match=f"^{name} must be finite, got {value!r}$"):
        make(value)


_MAKE = {"lambda_abs": LassoConfig.absolute, "lambda_rel": LassoConfig.relative,
         "tol": lambda v: LassoConfig.relative(0.1, tol=v)}


_SINGLE_FAULTS = [
    ("lambda_abs", -1, "lambda_abs must be nonnegative"),
    ("lambda_abs", -np.inf, "lambda_abs must be nonnegative"),
    ("lambda_abs", np.inf, "lambda_abs must be finite, got inf"),
    ("lambda_abs", np.nan, "lambda_abs must be finite, got nan"),
    ("lambda_abs", True, "lambda_abs must be a real number, got True"),
    ("lambda_abs", "1", "lambda_abs must be a real number, got '1'"),
    ("lambda_rel", -1, "lambda_rel must be nonnegative"),
    ("lambda_rel", -np.inf, "lambda_rel must be nonnegative"),
    ("lambda_rel", np.inf, "lambda_rel must be finite, got inf"),
    ("lambda_rel", np.nan, "lambda_rel must be finite, got nan"),
    ("lambda_rel", True, "lambda_rel must be a real number, got True"),
    ("lambda_rel", "1", "lambda_rel must be a real number, got '1'"),
    ("tol", -1, "tol must be positive"),
    ("tol", -np.inf, "tol must be positive"),
    ("tol", np.inf, "tol must be finite, got inf"),
    ("tol", np.nan, "tol must be positive"),
    ("tol", True, "tol must be a real number, got True"),
    ("tol", "1", "tol must be a real number, got '1'"),
    ("tol", 0, "tol must be positive"),
]


@pytest.mark.parametrize("name, value, message", _SINGLE_FAULTS,
                         ids=[f"{name}={value!r}" for name, value, _ in _SINGLE_FAULTS])
def test_config_single_fault_messages(name, value, message):
    # One bad field, every other at its default: the message names it.
    with pytest.raises(InvalidInputError) as info:
        _MAKE[name](value)
    assert str(info.value) == message


def _degenerate_design(rng, kind):
    a = unit_columns(rng, 12, 30)
    if kind == "duplicate":
        a[:, 5] = a[:, 17]
    elif kind == "antipodal":
        a[:, 8] = -a[:, 2]
    else:
        a[:, 11] = 0.0
    return a


@pytest.mark.parametrize("kind", ["duplicate", "antipodal", "zero"])
def test_degenerate_design_certifies(rng, kind):
    # A column in the span of the active set must never enter: its Gram
    # matrix would be singular.
    for trial in range(20):
        a = _degenerate_design(rng, kind)
        b = rng.standard_normal(12)
        for frac in (0.02, 0.1, 0.5):
            lam = frac * lambda_max(a, b)
            sol = solve_lasso(a, b, LassoConfig.absolute(lam))
            assert sol.converged and sol.duality_gap <= 1e-6
            assert kkt_violation(a, b, lam, sol.coefficients) <= 1e-6


def test_column_in_active_span_does_not_enter():
    # Columns about 1e-8 apart, whose Gram matrix is singular to working
    # precision.  The second of a pair to reach its edge lies in the active
    # span, so it does not enter, and the solve certifies.
    a, b = near_duplicate_pairs(116)
    config = LassoConfig.relative(1e-3)
    sol = solve_lasso(a, b, config)
    lam = config.resolve_lambda(lambda_max(a, b))
    assert sol.converged and sol.duality_gap <= 1e-6
    assert kkt_violation(a, b, lam, sol.coefficients) <= 1e-6
    support = np.flatnonzero(sol.coefficients)
    assert len(set(support // 2)) == len(support)  # at most one column of each pair


def test_near_duplicate_pairs_never_raise():
    # Before the span test, 21 raw solves of these 300 designs raised on a
    # singular Gram matrix.
    config = LassoConfig.relative(1e-3)
    for seed in range(300):
        a, b = near_duplicate_pairs(seed)
        for design in (a, build_dictionary(question_records(a))):
            sol = solve_lasso(design, b, config)
            assert sol.converged == (sol.duality_gap <= config.tol)


def _zero_step_cycles():
    """Near-duplicate designs, rebuilt as dictionaries, whose signed paths at
    ``lambda_rel = 1e-3`` reach a penalty where zero-length steps enter and
    drop the same coordinates in turn."""
    for seed in (196, 197):
        a, b = near_duplicate_pairs(seed)
        yield build_dictionary(question_records(a)).matrix, b


def test_zero_length_steps_do_not_cycle():
    # Every cell dropped at one penalty stays out until the penalty moves.
    # Keeping out only the last one let these paths cycle at one penalty
    # (enter 4, enter 6, drop 4, drop 6 on the first) until max_sweeps.
    config = LassoConfig.relative(1e-3)
    for a, b in _zero_step_cycles():
        sol = solve_lasso(a, b, config)
        lam = config.resolve_lambda(lambda_max(a, b))
        assert sol.converged and sol.sweeps_used <= 100
        assert kkt_violation(a, b, lam, sol.coefficients) <= 1e-6


def test_dropped_coefficient_may_reenter_with_opposite_sign():
    # Tall designs at a small penalty drop coefficients that come back
    # with the other sign on the very next step.
    for seed in range(10):
        rng = np.random.default_rng(seed)
        a = unit_columns(rng, 64, 20)
        b = rng.standard_normal(64)
        lam = 1e-3 * lambda_max(a, b)
        sol = solve_lasso(a, b, LassoConfig.absolute(lam))
        assert sol.converged and sol.duality_gap <= 1e-6
        assert kkt_violation(a, b, lam, sol.coefficients) <= 1e-6


def test_overcomplete_dictionary_at_default_config():
    # n >> dim at the default penalty: the support fills all 64 dimensions.
    rng = np.random.default_rng(1002)
    a = unit_columns(rng, 64, 4096)
    b = rng.standard_normal(64)
    sol = solve_lasso(a, b, LassoConfig())
    lam = LassoConfig().resolve_lambda(lambda_max(a, b))
    assert sol.converged and sol.duality_gap <= 1e-6
    assert kkt_violation(a, b, lam, sol.coefficients) <= 1e-6


def test_long_path_certifies():
    # About a hundred path steps: the correlations carried from step to
    # step must not drift far enough to misplace an event.
    rng = np.random.default_rng(7)
    a = unit_columns(rng, 64, 512)
    b = rng.standard_normal(64)
    config = LassoConfig.relative(1e-3)
    sol = solve_lasso(a, b, config)
    lam = config.resolve_lambda(lambda_max(a, b))
    assert sol.sweeps_used > 64
    assert sol.converged and sol.duality_gap <= 1e-6
    assert kkt_violation(a, b, lam, sol.coefficients) <= 1e-6


def test_determinism_bit_identical(rng):
    a = unit_columns(rng, 14, 50)
    b = rng.standard_normal(14)
    lam = 0.15 * lambda_max(a, b)
    first = solve_lasso(a, b, LassoConfig.absolute(lam))
    second = solve_lasso(a, b, LassoConfig.absolute(lam))
    assert np.array_equal(first.coefficients, second.coefficients)
    assert first.duality_gap == second.duality_gap
    assert first.sweeps_used == second.sweeps_used


def test_solve_lasso_resolves_relative_lambda(rng):
    d = orthogonal_dictionary(12, 6, seed=4)
    b = d.matrix[:, 3].copy()
    sol = solve_lasso(d, b, LassoConfig.relative(0.024))
    # query equals a column, remainder orthogonal: coefficient 1 - lambda
    assert sol.coefficients[3] == pytest.approx(0.976, abs=1e-9)
    assert np.sum(sol.coefficients != 0.0) == 1


def test_solve_lasso_absolute_lambda(rng):
    d = orthogonal_dictionary(8, 4, seed=5)
    b = 0.5 * d.matrix[:, 1]
    sol = solve_lasso(d, b, LassoConfig.absolute(0.1))
    assert sol.coefficients[1] == pytest.approx(0.4, abs=1e-9)


def test_shape_mismatch_rejected(rng):
    a = unit_columns(rng, 6, 9)
    with pytest.raises(ShapeError):
        solve_lasso(a, np.zeros(5), LassoConfig.absolute(0.1))


def test_non_finite_query_rejected(rng):
    a = unit_columns(rng, 4, 7)
    b = np.array([1.0, np.nan, 0.0, 0.0])
    with pytest.raises(InvalidInputError):
        solve_lasso(a, b, LassoConfig.absolute(0.1))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_design_rejected(rng, bad):
    a = unit_columns(rng, 4, 7)
    a[2, 5] = bad
    b = rng.standard_normal(4)
    with pytest.raises(InvalidInputError, match="design matrix contains non-finite"):
        solve_lasso(a, b, LassoConfig.absolute(0.1))
    with pytest.raises(InvalidInputError, match="design matrix contains non-finite"):
        lambda_max(a, b)
    with pytest.raises(InvalidInputError, match="design matrix contains non-finite"):
        duality_gap(a, b, 0.1, np.zeros(7))


def test_max_sweeps_reports_honest_gap(rng):
    a = unit_columns(rng, 24, 96)
    b = rng.standard_normal(24)
    lam = 0.01 * lambda_max(a, b)
    sol = solve_lasso(a, b, LassoConfig.absolute(lam, tol=1e-14, max_sweeps=2))
    assert not sol.converged
    assert sol.sweeps_used == 2
    # reported certificate must describe the returned coefficients
    assert sol.duality_gap == pytest.approx(
        duality_gap(a, b, lam, sol.coefficients), rel=1e-12, abs=1e-15
    )


def test_lambda_abs_above_lambda_max_exits_in_one_step(rng):
    a = unit_columns(rng, 10, 25)
    b = rng.standard_normal(10)
    # At the critical penalty itself the target wins the tie with the first entry.
    for scale in (1.5, 1.0):
        config = LassoConfig.absolute(scale * lambda_max(a, b))
        sol = solve_lasso(a, b, config)
        assert np.all(sol.coefficients == 0.0)
        assert sol.sweeps_used == 1
        assert sol.duality_gap == 0.0 and sol.converged


def test_one_step_below_lambda_max_only_enters_the_first_column(rng):
    # The first step is the entry of the most correlated column at zero
    # length, so a one-step cap returns x = 0, honestly uncertified.
    a = unit_columns(rng, 10, 25)
    b = rng.standard_normal(10)
    config = LassoConfig.relative(0.5, max_sweeps=1)
    for design in (a, build_dictionary(question_records(a))):
        sol = solve_lasso(design, b, config)
        assert np.all(sol.coefficients == 0.0)
        assert sol.sweeps_used == 1
        assert not sol.converged and sol.duality_gap > config.tol


def _near_full_support_designs():
    """Seeded designs whose supports at small penalties reach the rank of
    the design: dim in {8, 16, 32}, n of 4 and 32 columns a dimension, full
    rank and rank dim/2, each with five Gaussian queries."""
    for dim in (8, 16, 32):
        for n in (4 * dim, 32 * dim):
            for rank in (dim, dim // 2):
                rng = np.random.default_rng([dim, n, rank])
                yield unit_columns_of_rank(rng, dim, n, rank), rng.standard_normal((5, dim))


def test_support_near_dim_certifies_or_raises_a_basiq_error():
    # Before the full-rank entry rule and the float32 fallback, two of these
    # Dictionary solves (8x256 and 32x1024 at rank dim/2) raised LinAlgError.
    for a, queries in _near_full_support_designs():
        designs = (a, build_dictionary(question_records(a)))
        for b in queries:
            for frac in (1e-6, 1e-3, 0.024):
                config = LassoConfig.relative(frac)
                for design in designs:
                    try:
                        sol = solve_lasso(design, b, config)
                    except BasiqError:
                        continue
                    assert sol.converged and sol.duality_gap <= config.tol


def test_full_rank_active_set_admits_no_entry():
    # Once the active set spans R^8, float32 rounding of the slope put some
    # entry times just before the target, and the 9th column made the Gram
    # matrix singular (query 4 raised).  No column enters now, so the float32
    # search takes the float64 path's events.
    rng = np.random.default_rng(2)
    a = unit_columns(rng, 8, 32)
    d = build_dictionary(question_records(a))
    config = LassoConfig.relative(1e-6)
    for b in rng.standard_normal((5, 8)):
        sol, exact = solve_lasso(d, b, config), solve_lasso(d.matrix, b, config)
        assert sol.converged and sol.re_solved is False
        assert np.count_nonzero(sol.coefficients) == 8
        assert np.array_equal(sol.coefficients, exact.coefficients)
        assert (sol.duality_gap, sol.sweeps_used) == (exact.duality_gap, exact.sweeps_used)


def test_float32_search_that_raises_is_re_solved_in_float64():
    # Columns of rank 8 in R^16: the active set never reaches dim, and a
    # float32 entry makes the Gram matrix singular.  That search is a miss,
    # like an uncertified one, and the float64 path certifies.
    rng = np.random.default_rng(1)
    a = unit_columns_of_rank(rng, 16, 512, 8)
    d = build_dictionary(question_records(a))
    b = rng.standard_normal((5, 16))[1]
    config = LassoConfig.relative(1e-6)
    corr = d.matrix.T @ b
    lam_max = float(np.max(np.abs(corr)))
    with pytest.raises(np.linalg.LinAlgError):
        _homotopy(d.matrix, d.search_matrix, b, corr, lam_max, 1e-6 * lam_max, config)
    sol, exact = solve_lasso(d, b, config), solve_lasso(d.matrix, b, config)
    assert sol.re_solved is True and sol.converged
    assert np.array_equal(sol.coefficients, exact.coefficients)
    assert (sol.duality_gap, sol.sweeps_used) == (exact.duality_gap, exact.sweeps_used)


def _reference_solve(a, b, config):
    """The homotopy step loop written plainly, one pass per band edge.

    An oracle for ``solve_lasso``: same events, same tie order (lowest
    column, then the upper edge) and the same floating-point operations,
    so every result must agree bit for bit.
    """
    def entry_times(num, den, free):
        t = np.full(num.shape, np.inf)
        np.divide(np.maximum(num, 0.0), den, out=t, where=free & (den > 0.0))
        return t

    def in_span(j, cols, gram):
        res = a[:, j] - cols @ np.linalg.solve(gram, cols.T @ a[:, j])
        return float(res @ res) <= _SPAN_TOL * _SPAN_TOL * float(a[:, j] @ a[:, j])

    corr = a.T @ b
    lam = config.resolve_lambda(float(np.max(np.abs(corr))))
    n = a.shape[1]
    x = np.zeros(n)
    lam_cur = float(np.max(np.abs(corr)))
    active = []
    sign = np.zeros(n)
    left = []  # (column, sign) of the coordinates dropped since lam_cur last moved
    r = b
    history = []
    steps = 0
    while steps < config.max_sweeps:
        steps += 1
        cols = a[:, active]
        signs = sign[active]
        gram = cols.T @ cols
        d = np.linalg.solve(gram, signs) if active else signs
        slope = a.T @ (cols @ d)

        free = np.ones(n, dtype=bool)
        free[active] = False
        t_up = entry_times(lam_cur - corr, 1.0 - slope, free)
        t_down = entry_times(lam_cur + corr, 1.0 + slope, free)
        for col, left_sign in left:
            (t_up if left_sign > 0 else t_down)[col] = np.inf

        t_out, k = np.inf, -1
        if active:
            xs = x[active]
            t_drop = np.full(len(active), np.inf)
            np.divide(-xs, d, out=t_drop, where=signs * d < 0)
            i = int(np.argmin(t_drop))
            t_out, k = float(t_drop[i]), active[i]

        # A column that would enter with a denominator at most _SPAN_GATE is
        # passed over this step if it lies in the active span.
        t_target = lam_cur - lam
        while True:
            t_enter = np.minimum(t_up, t_down)
            j = int(np.argmin(t_enter))
            t_in = float(t_enter[j])
            if t_target <= min(t_in, t_out):
                event, t = "target", t_target
            elif t_out < t_in or (t_out == t_in and k < j):
                event, t = "drop", t_out
            else:
                event, t = "enter", t_in
                den_j = 1.0 - slope[j] if t_up[j] == t_in else 1.0 + slope[j]
                if den_j <= _SPAN_GATE and in_span(j, cols, gram):
                    t_up[j] = t_down[j] = np.inf
                    continue
            break
        if active:
            x[active] += t * d
        lam_cur -= t
        if t > 0:
            left = []

        if event == "target":
            if active:
                x[active] = np.linalg.solve(gram, cols.T @ b - lam * signs)
        elif event == "drop":
            active.remove(k)
            left.append((k, sign[k]))
            sign[k] = x[k] = 0.0
        else:
            active = sorted(active + [j])
            sign[j] = 1.0 if t_up[j] == t_in else -1.0
        r = b - a[:, active] @ x[active]
        history.append(0.5 * float(r @ r) + lam * float(np.sum(np.abs(x))))
        if event == "target":
            break
        corr = corr - t * slope

    r_norm2 = float(r @ r)
    l1 = float(np.sum(np.abs(x)))
    gap = _gap_from_residual(a, b, lam, r, r_norm2, l1)
    return x, history, steps, gap <= config.tol, float(gap), 0.5 * r_norm2 + lam * l1


def _reference_pool():
    rng = np.random.default_rng(2024)
    for _ in range(12):
        a, b = unit_columns(rng, 32, 128), rng.standard_normal(32)
        yield a, b, LassoConfig.relative(0.1)
    for _ in range(3):
        yield unit_columns(rng, 64, 1024), rng.standard_normal(64), LassoConfig()
    for kind in ("duplicate", "antipodal", "zero"):
        for _ in range(3):
            a, b = _degenerate_design(rng, kind), rng.standard_normal(12)
            for frac in (0.02, 0.1, 0.5):
                yield a, b, LassoConfig.relative(frac)
    for seed in range(10):
        reentry = np.random.default_rng(seed)
        a, b = unit_columns(reentry, 64, 20), reentry.standard_normal(64)
        yield a, b, LassoConfig.absolute(1e-3 * lambda_max(a, b))
    # Near-duplicate pairs: on these seeds a dropped coordinate's slope
    # rounds just below 1, so it would re-enter at once on the edge it
    # left if that cell were not cleared.
    for seed in (38, 80, 106):
        near = np.random.default_rng(seed)
        a = unit_columns(near, 8, 16)
        a[:, 3] = a[:, 9] + 1e-8 * near.standard_normal(8)
        a[:, 3] /= np.linalg.norm(a[:, 3])
        b = near.standard_normal(8)
        yield a, b, LassoConfig.relative(0.02)
    for a, b in _zero_step_cycles():
        yield a, b, LassoConfig.relative(1e-3)


def test_path_matches_reference_bit_for_bit():
    for a, b, config in _reference_pool():
        x, _, steps, converged, gap, objective = _reference_solve(a, b, config)
        sol = solve_lasso(a, b, config)
        assert np.array_equal(sol.coefficients, x)
        assert sol.sweeps_used == steps
        assert sol.converged == converged
        assert sol.duality_gap == gap
        assert sol.objective == objective


def test_sparse_solution_leaves_the_callers_array_writable():
    a = np.zeros(3)
    sol = SparseSolution(a, 0.0, 1, 0.0, True)
    a[0] = 1.0
    assert sol.coefficients[0] == 0.0 and not sol.coefficients.flags.writeable
    assert sol.re_solved is False


def _planted_near_duplicate_dictionary():
    """A 64x4096 dictionary whose columns 2k and 2k+1 (k < 16) differ by
    about 1e-8, and queries planted at single columns (near-duplicate ones
    included, under noise of norm 0.1 or 0.25) or drawn at random.
    Returns the dictionary, the queries and the near-duplicate columns."""
    rng = np.random.default_rng(4096)
    a = unit_columns(rng, 64, 4096)
    a[:, 1:32:2] = a[:, 0:32:2] + 1e-8 * rng.standard_normal((64, 16))
    d = build_dictionary(question_records(a))
    queries = [d.matrix[:, j] + noise * rng.standard_normal(64) / 8
               for j in (0, 7, 100, 1000, 2047, 4095, 3, 30) for noise in (0.1, 0.25)]
    queries += list(rng.standard_normal((8, 64)))
    return d, queries, np.arange(32)


def test_float32_search_matches_float64_search():
    # On a Dictionary the events are placed from a float32 copy; the
    # support, the coefficients and the gap stay float64.  Where no
    # near-duplicate column is in either support, the two searches give
    # the same bits.
    d, queries, near = _planted_near_duplicate_dictionary()
    assert d.search_matrix.dtype == np.float32 and d.matrix.dtype == np.float64
    config = LassoConfig()
    compared = 0
    for b in queries:
        fast, exact = solve_lasso(d, b, config), solve_lasso(d.matrix, b, config)
        assert fast.converged and fast.duality_gap <= config.tol
        assert exact.converged and exact.duality_gap <= config.tol
        if not np.any(fast.coefficients[near]) and not np.any(exact.coefficients[near]):
            compared += 1
            assert np.array_equal(fast.coefficients, exact.coefficients)
            assert (fast.duality_gap, fast.sweeps_used) == (exact.duality_gap, exact.sweeps_used)
    assert compared >= len(queries) // 2


def test_float32_search_miss_is_re_solved_in_float64():
    # On this design the float32 search misses the certificate; the float64
    # re-solve on the same matrix certifies and says it was needed.
    a, b = near_duplicate_pairs(5)
    d = build_dictionary(question_records(a))
    config = LassoConfig.relative(1e-3)
    sol = solve_lasso(d, b, config)
    exact = solve_lasso(d.matrix, b, config)
    assert sol.re_solved and not exact.re_solved
    assert sol.converged and sol.duality_gap <= config.tol
    assert np.array_equal(sol.coefficients, exact.coefficients)
    assert (sol.duality_gap, sol.sweeps_used) == (exact.duality_gap, exact.sweeps_used)
