"""Homotopy-path solver: certificates, closed forms, degenerate and
realistic designs, determinism.  ``max_sweeps`` and ``sweeps_used``
count path steps."""

import numpy as np
import pytest

from basiq.errors import InvalidInputError, ShapeError, UnsupportedConfigError
from basiq.solver import (
    LassoConfig,
    duality_gap,
    lambda_max,
    soft_threshold,
    solve_lasso,
)

from conftest import orthogonal_dictionary, unit_columns


def kkt_violation(a, b, lam, x, nonnegative=False):
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
        elif nonnegative:
            worst = max(worst, max(0.0, gj - lam))
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


def test_soft_threshold_values():
    assert soft_threshold(1.0, 0.2) == 0.8
    assert soft_threshold(-1.0, 0.2) == -0.8
    assert soft_threshold(0.15, 0.2) == 0.0
    assert soft_threshold(-0.15, 0.2) == 0.0


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
    for trial in range(10):
        a = unit_columns(rng, 12, 48)
        b = rng.standard_normal(12)
        lam = 0.05 * lambda_max(a, b)
        sol = solve_lasso(a, b, LassoConfig.absolute(lam))
        history = sol.objective_history
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


def test_config_requires_exactly_one_lambda():
    with pytest.raises(UnsupportedConfigError):
        LassoConfig(lambda_abs=0.1, lambda_rel=0.1)
    with pytest.raises(UnsupportedConfigError):
        LassoConfig(lambda_abs=None, lambda_rel=None)


def test_config_validation():
    with pytest.raises(InvalidInputError):
        LassoConfig.absolute(-0.1)
    with pytest.raises(InvalidInputError):
        LassoConfig.relative(0.1, tol=0.0)
    with pytest.raises(InvalidInputError):
        LassoConfig.relative(0.1, max_sweeps=0)


def test_nonnegative_mode(rng):
    for trial in range(10):
        a = unit_columns(rng, 10, 30)
        b = rng.standard_normal(10)
        lam = 0.1 * lambda_max(a, b)
        sol = solve_lasso(a, b, LassoConfig.absolute(lam, nonnegative=True))
        x = sol.coefficients
        assert np.all(x >= 0.0)
        assert kkt_violation(a, b, lam, x, nonnegative=True) <= 1e-6
        assert sol.converged and sol.duality_gap <= 1e-6
        assert sol.duality_gap == pytest.approx(
            duality_gap(a, b, lam, x, nonnegative=True), rel=1e-12, abs=1e-15
        )


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
        for nonnegative in (False, True):
            for frac in (0.02, 0.1, 0.5):
                lam = frac * lambda_max(a, b)
                sol = solve_lasso(a, b, LassoConfig.absolute(lam, nonnegative=nonnegative))
                assert sol.converged and sol.duality_gap <= 1e-6
                assert kkt_violation(a, b, lam, sol.coefficients, nonnegative) <= 1e-6


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
