"""L1-penalized least squares over a dictionary, solved along the homotopy path.

The problem is  min_x  0.5 * ||A x - b||^2 + lambda * ||x||_1.  Its
solution is piecewise linear in lambda (Osborne, Presnell & Turlach 2000;
Efron et al. 2004), so the solver follows that path exactly: it starts
at the critical penalty, where x = 0, and moves from event to event (a
column enters the active set or a coefficient reaches zero and leaves)
until the penalty reaches lambda.  Each step is one small Gram solve on
the active set.  At lambda the KKT system on the final support is solved
exactly, and the duality gap at the returned coefficients certifies the
result; it is the gap, not the path, that callers rely on.

Events are resolved in a fixed order, with ties going to the lowest
column index, so identical inputs give bit-identical solutions.
"""

import bisect
from dataclasses import dataclass

import numpy as np

from .dictionary import Dictionary
from .errors import InvalidInputError, ShapeError, UnsupportedConfigError

DEFAULT_LAMBDA_REL = 0.024
DEFAULT_TOL = 1e-6
DEFAULT_MAX_SWEEPS = 1000

# Entry denominators ``1 -+ a_j^T u`` at or below this mark a column in
# the span of the active set, which cannot enter without making the Gram
# matrix singular.
_SPAN_EPS = 1e-9


@dataclass(frozen=True)
class LassoConfig:
    """Solve configuration; exactly one of lambda_abs / lambda_rel is set.

    ``lambda_rel`` scales the per-query critical penalty (the smallest
    value at which the solution is identically zero), so the effective
    penalty adapts to each query.  The default 0.024 makes a planted
    self-match against an orthogonal remainder score 1 - 0.024 = 0.976.
    """

    lambda_abs: float | None = None
    lambda_rel: float | None = DEFAULT_LAMBDA_REL
    tol: float = DEFAULT_TOL
    max_sweeps: int = DEFAULT_MAX_SWEEPS
    nonnegative: bool = False

    def __post_init__(self):
        if (self.lambda_abs is None) == (self.lambda_rel is None):
            raise UnsupportedConfigError(
                "exactly one of lambda_abs / lambda_rel must be set"
            )
        if self.lambda_abs is not None and self.lambda_abs < 0:
            raise InvalidInputError("lambda_abs must be nonnegative")
        if self.lambda_rel is not None and self.lambda_rel < 0:
            raise InvalidInputError("lambda_rel must be nonnegative")
        if not self.tol > 0:
            raise InvalidInputError("tol must be positive")
        if self.max_sweeps < 1:
            raise InvalidInputError("max_sweeps must be >= 1")

    @classmethod
    def absolute(cls, lam, **kwargs):
        return cls(lambda_abs=lam, lambda_rel=None, **kwargs)

    @classmethod
    def relative(cls, frac, **kwargs):
        return cls(lambda_abs=None, lambda_rel=frac, **kwargs)

    def resolve_lambda(self, lam_max):
        """Absolute penalty for a query whose critical penalty is ``lam_max``."""
        if self.lambda_abs is not None:
            return float(self.lambda_abs)
        return float(self.lambda_rel) * float(lam_max)


@dataclass(frozen=True)
class SparseSolution:
    """Coefficients plus the convergence certificate that produced them.

    ``sweeps_used`` counts homotopy path steps.
    """

    coefficients: np.ndarray
    duality_gap: float
    sweeps_used: int
    objective: float
    converged: bool
    objective_history: np.ndarray

    def __post_init__(self):
        for name in ("coefficients", "objective_history"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


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


def soft_threshold(v, t):
    """sign(v) * max(|v| - t, 0), elementwise."""
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def lambda_max(dict_or_matrix, b):
    """Smallest penalty at which the solution is exactly zero: max |A^T b|."""
    a = _as_matrix(dict_or_matrix)
    b = _check_query(a, b)
    return float(np.max(np.abs(a.T @ b)))


def _gap_from_residual(a, b, lam, r, r_norm2, l1, nonnegative=False):
    """Primal minus dual objective at the residual-scaled dual point.

    With ``nonnegative`` the dual feasible set is one-sided,
    ``max(A^T r) <= lam``, so only positive correlations are scaled away.
    """
    primal = 0.5 * r_norm2 + lam * l1
    corr = a.T @ r
    dual_norm = max(float(np.max(corr)), 0.0) if nonnegative else float(np.max(np.abs(corr)))
    const = 1.0 if dual_norm <= lam else lam / dual_norm
    dual = const * float(r @ b) - 0.5 * const * const * r_norm2
    return primal - dual


def duality_gap(dict_or_matrix, b, lam, x, nonnegative=False):
    """Certificate of near-optimality for a candidate coefficient vector.

    Nonnegative up to rounding; zero exactly at an optimum.  The penalty
    must be positive: the certificate is undefined in this form at
    lambda = 0.  ``nonnegative`` certifies against the problem with
    ``x >= 0``, whose dual feasible set is one-sided.
    """
    a = _as_matrix(dict_or_matrix)
    b = _check_query(a, b)
    if lam <= 0:
        raise UnsupportedConfigError("duality gap requires lambda > 0")
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (a.shape[1],):
        raise ShapeError(f"x has shape {x.shape}, expected ({a.shape[1]},)")
    r = b - a @ x
    return _gap_from_residual(
        a, b, lam, r, float(r @ r), float(np.sum(np.abs(x))), nonnegative
    )


def _entry_times(num, den, free):
    """Penalty decrease at which each free column reaches one band edge.

    Columns that are not free, or whose denominator is at most
    ``_SPAN_EPS`` (moving along or away from the edge, or in the span of
    the active set), never reach that edge and get infinity.  A negative
    numerator (a column a rounding error past the edge) enters at once.
    """
    t = np.full(num.shape, np.inf)
    np.divide(np.maximum(num, 0.0), den, out=t, where=free & (den > _SPAN_EPS))
    return t


def solve_lasso(d, b, config=None):
    """Solve against a Dictionary or raw design, along the exact homotopy path.

    The penalty is resolved per the config (``LassoConfig()`` if None).
    The path starts at the critical penalty with ``x = 0`` and lowers the
    penalty to ``lam``.  Each step solves the Gram system of the active
    set for the direction and moves to the first event: an inactive
    column enters, an active coefficient reaches zero and drops, or the
    penalty reaches ``lam``; ties go to the lowest column index.  At
    ``lam`` the KKT system on the final support is solved exactly.

    ``config.max_sweeps`` caps the number of path steps and
    ``sweeps_used`` counts them; ``objective_history`` holds the
    objective at ``lam`` after each step, which never increases along
    the path.  The returned gap is always evaluated at the returned
    coefficients, and ``converged`` says it is at most ``config.tol``.

    The correlations ``A^T r`` are linear in the step length along a
    path segment, so after each step they are updated by ``t * slope``
    (the running correlation of LARS, Efron et al. 2004) instead of
    being recomputed: one full ``A^T v`` product per step, not two.
    Rounding drift in them can only move event times, never the
    result: the returned coefficients come from the exact KKT solve on
    the final support, and the gap from a fresh ``A^T r``.

    Returns a SparseSolution.  The resolved penalty must be strictly
    positive; a zero penalty is a different problem and is rejected.
    """
    if config is None:
        config = LassoConfig()
    a = _as_matrix(d)
    b = _check_query(a, b)
    corr = a.T @ b
    lam = config.resolve_lambda(float(np.max(np.abs(corr))))
    if lam == 0:
        raise UnsupportedConfigError(
            "lambda = 0 is rejected: unpenalized least squares is out of scope"
        )
    n = a.shape[1]
    x = np.zeros(n)
    lam_cur = float(np.max(corr)) if config.nonnegative else float(np.max(np.abs(corr)))
    active = []  # ascending column indices, so drop ties go to the lowest
    sign = np.zeros(n)  # +-1 on the active set
    left, left_sign = -1, 0.0  # the coordinate that just dropped, and its sign

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

        # Entry times, one per side of the penalty band.  The coordinate
        # that just dropped sits on the edge it left, moving inward; a
        # rounding error must not let it re-enter there at once.  It may
        # still enter on the other edge, with the opposite sign.
        free = np.ones(n, dtype=bool)
        free[active] = False
        t_up = _entry_times(lam_cur - corr, 1.0 - slope, free)
        if config.nonnegative:
            t_down = np.full(n, np.inf)
        else:
            t_down = _entry_times(lam_cur + corr, 1.0 + slope, free)
        if left >= 0:
            (t_up if left_sign > 0 else t_down)[left] = np.inf
        t_enter = np.minimum(t_up, t_down)
        j = int(np.argmin(t_enter))
        t_in = float(t_enter[j])

        t_out, k = np.inf, -1
        if active:
            xs = x[active]
            t_drop = np.full(len(active), np.inf)
            np.divide(-xs, d, out=t_drop, where=signs * d < 0)
            i = int(np.argmin(t_drop))
            t_out, k = float(t_drop[i]), active[i]

        t_target = lam_cur - lam
        if t_target <= min(t_in, t_out):
            event, t = "target", t_target
        elif t_out < t_in or (t_out == t_in and k < j):
            event, t = "drop", t_out
        else:
            event, t = "enter", t_in
        if active:
            x[active] += t * d
        lam_cur -= t

        if event == "target":
            if active:
                x[active] = np.linalg.solve(gram, cols.T @ b - lam * signs)
        elif event == "drop":
            active.remove(k)
            left, left_sign = k, sign[k]
            sign[k] = x[k] = 0.0
        else:
            bisect.insort(active, j)
            sign[j] = 1.0 if t_up[j] == t_in else -1.0
            left = -1
        r = b - a[:, active] @ x[active]
        history.append(0.5 * float(r @ r) + lam * float(np.sum(np.abs(x))))
        if event == "target":
            break
        corr = corr - t * slope

    r_norm2 = float(r @ r)
    l1 = float(np.sum(np.abs(x)))
    gap = _gap_from_residual(a, b, lam, r, r_norm2, l1, config.nonnegative)
    return SparseSolution(
        coefficients=x,
        duality_gap=float(gap),
        sweeps_used=steps,
        objective=0.5 * r_norm2 + lam * l1,
        converged=gap <= config.tol,
        objective_history=np.array(history),
    )
