"""L1-penalized least squares over a dictionary, solved along the homotopy path.

The problem is  min_x  0.5 * ||A x - b||^2 + lambda * ||x||_1.  Its
solution is piecewise linear in lambda (Osborne, Presnell & Turlach 2000;
Efron et al. 2004), so the solver follows that path exactly: it starts
at the critical penalty, where x = 0, with the most correlated column
already active, and moves from event to event (a column enters the
active set or a coefficient reaches zero and leaves) until the penalty
reaches lambda.  Each step is one small Gram solve on the active set.
Once the active set holds as many columns as the dimension, it spans
every column, and no column enters.  At lambda the KKT system on the
final support is solved exactly, and the duality gap at the returned
coefficients certifies the result; it is the gap, not the path, that
callers rely on.

Events are resolved in a fixed order, with ties going to the lowest
column index, so identical inputs give bit-identical solutions.

Precision: against a ``Dictionary`` the events are placed from a float32
copy of its matrix; the support, the coefficients and the gap are
float64, and a float32 pass that fails to certify, by a gap that misses
the tolerance or by raising on a singular Gram matrix, triggers one
float64 re-solve, which the solution reports.  A column in the span of
the active set never enters, whatever the search precision.
"""

import numpy as np

from .dictionary import Dictionary
from .errors import InvalidInputError, ShapeError, UnsupportedConfigError
from .immutable import checked_tuple, is_real

DEFAULT_LAMBDA_REL = 0.024
DEFAULT_TOL = 1e-6
DEFAULT_MAX_SWEEPS = 1000
_ZERO_LAMBDA = "lambda = 0 is rejected: unpenalized least squares is out of scope"

# An entering column whose denominator ``1 -+ a_j^T u`` is at or below
# _SPAN_GATE may lie in the span of the active set, where the denominator
# of a duplicate is zero in exact arithmetic; the gate covers float32
# rounding of the slope.  Such a column is projected onto the active span
# in float64.  If its residual is at most _SPAN_TOL of its norm, it may
# not enter: the Gram matrix holds the square of that residual next to
# unit diagonal entries, so below about sqrt(eps) it is lost to rounding
# and the Gram matrix is singular to working precision.
_SPAN_GATE = 1e-3
_SPAN_TOL = 2.0 * float(np.sqrt(np.finfo(np.float64).eps))


class LassoConfig(checked_tuple("LassoConfig", "lambda_abs lambda_rel tol max_sweeps")):
    """Solve configuration; exactly one of lambda_abs / lambda_rel is set.

    ``lambda_rel`` scales ``max |A^T b|``, the critical penalty (smallest
    with an all-zero solution).  The default 0.024 makes a planted
    self-match against an orthogonal remainder score 0.976.  Penalties
    and the tolerance are kept as Python floats, so ``_asdict()`` is JSON.
    """

    __slots__ = ()

    def __new__(cls, lambda_abs=None, lambda_rel=DEFAULT_LAMBDA_REL, tol=DEFAULT_TOL,
                max_sweeps=DEFAULT_MAX_SWEEPS):
        if (lambda_abs is None) == (lambda_rel is None):
            raise UnsupportedConfigError(
                "exactly one of lambda_abs / lambda_rel must be set"
            )
        # Each field's kind, then its sign, then finiteness; a NaN tol is not positive.
        for name, value in (("lambda_abs", lambda_abs), ("lambda_rel", lambda_rel), ("tol", tol)):
            if value is None and name != "tol":
                continue
            if not is_real(value):
                raise InvalidInputError(f"{name} must be a real number, got {value!r}")
            if name == "tol" and not value > 0:
                raise InvalidInputError("tol must be positive")
            if value < 0:
                raise InvalidInputError(f"{name} must be nonnegative")
            if not np.isfinite(value):
                raise InvalidInputError(f"{name} must be finite, got {value!r}")
        # bool is an int subclass, but True is not a count of sweeps.
        if isinstance(max_sweeps, bool) or not isinstance(max_sweeps, (int, np.integer)):
            raise InvalidInputError(f"max_sweeps must be an integer, got {max_sweeps!r}")
        if max_sweeps < 1:
            raise InvalidInputError("max_sweeps must be >= 1")
        if 0 in (lambda_abs, lambda_rel):
            raise UnsupportedConfigError(_ZERO_LAMBDA)
        lambda_abs, lambda_rel = (None if v is None else float(v) for v in (lambda_abs, lambda_rel))
        return tuple.__new__(cls, (lambda_abs, lambda_rel, float(tol), int(max_sweeps)))

    @classmethod
    def absolute(cls, lam, **kwargs):
        return cls(lambda_abs=lam, lambda_rel=None, **kwargs)

    @classmethod
    def relative(cls, frac, **kwargs):
        return cls(lambda_abs=None, lambda_rel=frac, **kwargs)

    def resolve_lambda(self, lam_max):
        """Absolute penalty for a query whose critical penalty is ``lam_max``."""
        if self.lambda_abs is not None:
            return self.lambda_abs
        return self.lambda_rel * float(lam_max)


class SparseSolution(checked_tuple(
        "SparseSolution", "coefficients duality_gap sweeps_used objective converged re_solved")):
    """Coefficients plus the convergence certificate that produced them.

    ``sweeps_used`` counts homotopy path steps.  ``re_solved`` says the
    float32 event search missed the certificate, so the path was solved
    again in float64; the other fields describe that second solve.
    """

    __slots__ = ()

    def __new__(cls, coefficients, duality_gap, sweeps_used, objective, converged,
                re_solved=False):
        arr = np.array(coefficients, dtype=np.float64)  # a copy: the caller's array stays writable
        arr.setflags(write=False)
        return tuple.__new__(cls, (arr, duality_gap, sweeps_used, objective, converged, re_solved))


def _as_matrix(dict_or_matrix):
    """The design as a float array; a Dictionary's unit columns are finite already."""
    if isinstance(dict_or_matrix, Dictionary):
        return dict_or_matrix.matrix
    a = np.asarray(dict_or_matrix, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"design must be 2-D, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError("design matrix contains non-finite values")
    return a


def _check_query(a, b):
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 1 or b.shape[0] != a.shape[0]:
        raise ShapeError(
            f"query has shape {b.shape}, expected ({a.shape[0]},) to match the dictionary"
        )
    if not np.all(np.isfinite(b)):
        raise InvalidInputError("query contains non-finite values")
    return b


def lambda_max(dict_or_matrix, b):
    """max |A^T b|: the smallest penalty with a zero solution."""
    a = _as_matrix(dict_or_matrix)
    b = _check_query(a, b)
    return float(np.max(np.abs(a.T @ b)))


def _gap_from_residual(a, b, lam, r, r_norm2, l1):
    """Primal minus dual objective at the residual-scaled dual point."""
    primal = 0.5 * r_norm2 + lam * l1
    dual_norm = float(np.max(np.abs(a.T @ r)))
    const = 1.0 if dual_norm <= lam else lam / dual_norm
    dual = const * float(r @ b) - 0.5 * const * const * r_norm2
    return primal - dual


def duality_gap(dict_or_matrix, b, lam, x):
    """Certificate of near-optimality for a candidate coefficient vector.

    Nonnegative up to rounding; zero exactly at an optimum.  The penalty
    must be positive: the certificate is undefined in this form at
    lambda = 0.
    """
    a = _as_matrix(dict_or_matrix)
    b = _check_query(a, b)
    if lam <= 0:
        raise UnsupportedConfigError("duality gap requires lambda > 0")
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (a.shape[1],):
        raise ShapeError(f"x has shape {x.shape}, expected ({a.shape[1]},)")
    r = b - a @ x
    return _gap_from_residual(a, b, lam, r, float(r @ r), float(np.sum(np.abs(x))))


def solve_lasso(d, b, config=None):
    """Solve against a Dictionary or raw design, along the exact homotopy path.

    The penalty is resolved per the config (``LassoConfig()`` if None).
    The path starts at the critical penalty with ``x = 0`` and lowers the
    penalty to ``lam``.  Below the critical penalty its first step is a
    fact: the column of largest ``|A^T b|`` (the lowest on a tie) is
    active with that correlation's sign.  Each later step solves the Gram
    system of the active set for the direction and moves to the first
    event: an inactive column enters, an active coefficient reaches zero
    and drops, or the penalty reaches ``lam``; ties go to the lowest
    column index.  No column enters an active set of ``dim`` columns,
    which spans them all.  At ``lam`` the KKT system on the final support
    is solved exactly.

    Precision: for a Dictionary, events are placed from its float32
    ``search_matrix``; only each step's slope ``A^T u`` reads it, and is
    cast back to float64.  The correlations ``A^T b``, the Gram solves,
    the final KKT solve on the support and the gap (from a fresh float64
    ``A^T r``) are float64, so the support, the coefficients and the gap
    are too.  If that pass fails to certify, because the gap misses
    ``config.tol`` or because a float32 event made a Gram matrix singular
    and the pass raised, the path is solved once more entirely in float64
    and the solution says so (``re_solved``).  A raw design is searched
    in its own float64.

    ``config.max_sweeps`` caps the number of path steps and
    ``sweeps_used`` counts them, the first entry and the zero solution
    each as one.  The returned gap is always evaluated at the returned
    coefficients, and ``converged`` says it is at most ``config.tol``.
    A cell (column and band edge) that drops may not re-enter until the
    penalty moves, so zero-length steps cannot cycle.  A column about to
    enter with a denominator of at most ``_SPAN_GATE`` is projected onto
    the active span in float64; if it lies there (a duplicate or a
    combination of active columns, which would make the Gram matrix
    singular), it is passed over until the active set changes, and the
    next candidate is taken.

    The correlations ``A^T r`` are linear along a path segment, so each
    step updates them by ``t * slope`` (the running correlation of LARS,
    Efron et al. 2004) rather than recomputing them; drift in them can
    only move event times, never the result, which comes from the exact
    KKT solve and a fresh ``A^T r``.  One fused pass over ``(n, 2)``
    buffers, the upper band edge in column 0 and the lower in column 1,
    gives every entry time, and one flat ``argmin`` takes the lowest
    column, then the upper edge.  The active columns are gathered once
    per event, indexed from a bool mask (an O(n) scan that is far cheaper
    on bools than on the float signs), for the next step's Gram matrix
    and, after the last step, the residual.  ``d`` is solved afresh each
    step: an updated inverse costs as many small calls here and changes
    its bits.

    Returns a SparseSolution; after a re-solve its ``sweeps_used`` counts
    the float64 steps only.  A zero penalty, a different problem, is
    rejected.
    """
    if config is None:
        config = LassoConfig()
    a = _as_matrix(d)
    b = _check_query(a, b)
    corr = a.T @ b
    lam_max = float(np.max(np.abs(corr)))
    lam = config.resolve_lambda(lam_max)
    if lam == 0:  # a zero query under a relative penalty
        raise UnsupportedConfigError(_ZERO_LAMBDA)
    if not isinstance(d, Dictionary):
        return _homotopy(a, a, b, corr, lam_max, lam, config)
    try:
        solution = _homotopy(a, d.search_matrix, b, corr.copy(), lam_max, lam, config)
        if solution.converged:
            return solution
    except np.linalg.LinAlgError:  # a float32 event the float64 path need not take
        pass
    return _homotopy(a, a, b, corr, lam_max, lam, config)._replace(re_solved=True)


def _in_span(col, cols, gram):
    """Whether ``col`` is within _SPAN_TOL of the span of ``cols``, whose Gram matrix is ``gram``."""
    res = col - cols @ np.linalg.solve(gram, cols.T @ col)
    return float(res @ res) <= _SPAN_TOL * _SPAN_TOL * float(col @ col)


def _homotopy(a, search, b, corr, lam_cur, lam, config):
    """The path of ``solve_lasso`` from ``corr = a.T @ b``, which it updates
    in place, and ``lam_cur = max |corr|`` down to ``lam``; slopes are read
    from ``search``, ``a`` or a lower-precision copy of it."""
    n = a.shape[1]
    num, den, times = np.empty((3, n, 2))
    mask = np.empty((n, 2), dtype=bool)
    x = np.zeros(n)
    sign = np.zeros(n)  # +-1 on the active set
    active = np.zeros(n, dtype=bool)
    if lam < lam_cur:  # the first step: the most correlated column enters at once
        j = int(np.abs(corr).argmax())
        sign[j] = 1.0 if corr[j] > 0 else -1.0
        active[j] = True
    idx = active.nonzero()[0]  # the active set, ascending, so drop ties go to the lowest
    cols, signs = a[:, idx], sign[idx]
    left = []  # the (column, edge) cells dropped since the penalty last moved

    steps = 1
    while idx.size and steps < config.max_sweeps:  # a lone coefficient never drops
        steps += 1
        gram = cols.T @ cols
        d = np.linalg.solve(gram, signs)
        u = (cols @ d).astype(search.dtype, copy=False)
        slope = (search.T @ u).astype(np.float64, copy=False)
        xs = x[idx]
        t_drop = np.full(idx.size, np.inf)
        np.divide(-xs, d, out=t_drop, where=signs * d < 0)
        i = int(t_drop.argmin())
        t_out, k = float(t_drop[i]), int(idx[i])

        # Active columns and those with a denominator of at most zero (moving
        # away) never enter; a negative numerator (past the edge by rounding)
        # enters at once.  A coordinate dropped at this penalty may re-enter
        # only on the other edge, with the other sign.
        np.subtract(lam_cur, corr, out=num.T[0])
        np.add(lam_cur, corr, out=num.T[1])
        np.subtract(1.0, slope, out=den.T[0])
        np.add(1.0, slope, out=den.T[1])
        np.greater(den, 0.0, out=mask)
        if idx.size >= a.shape[0]:  # a full-rank active set spans every column
            mask.fill(False)
        mask[idx] = False
        for dropped in left:
            mask[dropped] = False
        times.fill(np.inf)
        np.maximum(num, 0.0, out=num)
        np.divide(num, den, out=times, where=mask)

        t_target = lam_cur - lam
        while True:
            cell = int(times.argmin())
            t_in = times.item(cell)
            j, side = divmod(cell, 2)
            if t_target <= min(t_in, t_out):
                event, t = "target", t_target
            elif t_out < t_in or (t_out == t_in and k < j):
                event, t = "drop", t_out
            else:
                event, t = "enter", t_in
                if den.item(cell) <= _SPAN_GATE and _in_span(a[:, j], cols, gram):
                    times[j] = np.inf  # until this step's event changes the active set
                    continue
            break
        if event == "target":
            x[idx] = np.linalg.solve(gram, cols.T @ b - lam * signs)
            break
        x[idx] = xs + t * d
        lam_cur -= t
        if t > 0:
            left.clear()

        if event == "drop":
            left.append((k, 0 if sign[k] > 0 else 1))
            sign[k] = x[k] = 0.0
            active[k] = False
        else:
            sign[j] = 1.0 if side == 0 else -1.0
            active[j] = True
        idx = active.nonzero()[0]
        cols, signs = a[:, idx], sign[idx]
        corr -= t * slope

    r = b - cols @ x[idx]
    r_norm2 = float(r @ r)
    l1 = float(np.sum(np.abs(x)))
    gap = _gap_from_residual(a, b, lam, r, r_norm2, l1)
    return SparseSolution(
        coefficients=x,
        duality_gap=float(gap),
        sweeps_used=steps,
        objective=0.5 * r_norm2 + lam * l1,
        converged=gap <= config.tol,
    )
