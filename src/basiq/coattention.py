"""Attention operator and the three-step alternating co-attention procedure.

The operator takes a feature matrix X (one feature vector per column)
and a guider vector g, and produces a probability distribution over the
columns plus the weighted column sum:

    H = tanh(W_x X + (W_g g) 1^T)
    a = softmax(w_hx^T H)
    attended = sum_i a_i x_i

The alternating procedure runs the operator three times: summarize the
question features with a zero guider, attend the image features guided
by that summary, then attend the question features again guided by the
attended image vector.  Parameters are a checked tuple of read-only
arrays, given as arrays or drawn from a seeded generator; there is no
bias term and no training loop.  All functions are pure.
"""

from typing import NamedTuple

import numpy as np

from .errors import ShapeError
from .immutable import checked_tuple, readonly_array


class AttentionParameters(checked_tuple("AttentionParameters", "w_x w_g w_hx")):
    """Projection matrices into the k-dim attention space plus the scoring vector.

    w_x: (k x d) feature projection; w_g: (k x d_g) guider projection;
    w_hx: (k,) scoring vector.
    """

    __slots__ = ()

    def __new__(cls, w_x, w_g, w_hx):
        w_x = readonly_array(w_x, "w_x", 2)
        w_g = readonly_array(w_g, "w_g", 2)
        w_hx = readonly_array(w_hx, "w_hx", 1)
        k = w_x.shape[0]
        if w_g.shape[0] != k:
            raise ShapeError(f"w_g has {w_g.shape[0]} rows, expected {k} to match w_x")
        if w_hx.shape != (k,):
            raise ShapeError(f"w_hx has length {w_hx.shape[0]}, expected {k}")
        return tuple.__new__(cls, (w_x, w_g, w_hx))

    @property
    def attention_dim(self):
        return self.w_x.shape[0]

    @property
    def feature_dim(self):
        return self.w_x.shape[1]

    @property
    def guider_dim(self):
        return self.w_g.shape[1]

    @classmethod
    def random(cls, attention_dim, feature_dim, guider_dim, seed=0, scale=0.5):
        rng = np.random.default_rng(seed)
        return cls(
            w_x=scale * rng.standard_normal((attention_dim, feature_dim)),
            w_g=scale * rng.standard_normal((attention_dim, guider_dim)),
            w_hx=scale * rng.standard_normal(attention_dim),
        )


class AttentionResult(NamedTuple):
    """Softmax weights over the feature columns and their weighted sum."""

    weights: np.ndarray
    attended: np.ndarray


def _check_features(x, name="features"):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"{name} must be a (d x T) matrix, got shape {x.shape}")
    if x.shape[1] < 1:
        raise ShapeError(f"{name} must have at least one column")
    return x


def softmax(logits):
    """Stable softmax: shift by the max before exponentiating."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - np.max(logits)
    e = np.exp(shifted)
    return e / np.sum(e)


def attention_op(x, g, params):
    """Apply the attention operator to feature columns ``x`` under guider ``g``."""
    x = _check_features(x)
    g = np.asarray(g, dtype=np.float64)
    d, t = x.shape
    if params.feature_dim != d:
        raise ShapeError(
            f"features have dim {d} but w_x expects {params.feature_dim}"
        )
    if g.shape != (params.guider_dim,):
        raise ShapeError(f"guider has shape {g.shape}, expected ({params.guider_dim},)")
    h = np.tanh(params.w_x @ x + (params.w_g @ g)[:, None])
    weights = softmax(params.w_hx @ h)
    attended = x @ weights
    return AttentionResult(weights=weights, attended=attended)


def alternating_coattention(q, v, params_per_step):
    """Three attention passes: summarize question, attend image, re-attend question.

    Step 1 runs on the question features with a zero guider and yields
    the summary s_hat; step 2 runs on the image features guided by
    s_hat and yields v_hat; step 3 runs on the question features guided
    by v_hat and yields q_hat.  Returns (s_hat, v_hat, q_hat).
    """
    q = _check_features(q, "question features")
    v = _check_features(v, "image features")
    p1, p2, p3 = params_per_step

    def step(i, label, features, guider, params):
        try:
            return attention_op(features, guider, params)
        except ShapeError as exc:
            raise ShapeError(f"step {i} ({label}): {exc}") from None

    s_hat = step(1, "question summary", q, np.zeros(p1.guider_dim), p1).attended
    v_hat = step(2, "image attention", v, s_hat, p2).attended
    q_hat = step(3, "question attention", q, v_hat, p3).attended
    return s_hat, v_hat, q_hat
