"""Attention operator and the three-step alternating procedure."""

import numpy as np
import pytest

from basiq.coattention import (
    AttentionParameters,
    alternating_coattention,
    attention_op,
    softmax,
)
from basiq.errors import InvalidInputError, ShapeError


def straight_line_attention(x, g, params):
    """Direct dense evaluation, written without the library's helpers."""
    k, t = params.w_x.shape[0], x.shape[1]
    h = np.empty((k, t))
    guider_part = params.w_g @ g
    for i in range(t):
        h[:, i] = np.tanh(params.w_x @ x[:, i] + guider_part)
    logits = np.array([float(params.w_hx @ h[:, i]) for i in range(t)])
    exp = np.exp(logits - logits.max())
    weights = exp / exp.sum()
    attended = sum(weights[i] * x[:, i] for i in range(t))
    return weights, attended


def random_instance(seed, d=4, t=3, k=5, d_g=4):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((d, t))
    g = rng.standard_normal(d_g)
    params = AttentionParameters.random(k, d, d_g, seed=seed + 1)
    return x, g, params


def test_single_column_is_returned_unchanged():
    x, g, params = random_instance(0, t=1)
    result = attention_op(x, g, params)
    assert np.array_equal(result.weights, np.array([1.0]))
    assert np.allclose(result.attended, x[:, 0], atol=1e-15)


def test_zero_scorer_gives_uniform_weights():
    x, g, params = random_instance(1, t=5)
    params = AttentionParameters(w_x=params.w_x, w_g=params.w_g,
                                 w_hx=np.zeros(params.attention_dim))
    result = attention_op(x, g, params)
    assert np.allclose(result.weights, np.full(5, 0.2), atol=1e-15)
    assert np.allclose(result.attended, x.mean(axis=1), atol=1e-12)


def test_matches_straight_line_oracle():
    for seed in range(25):
        x, g, params = random_instance(seed)
        result = attention_op(x, g, params)
        weights, attended = straight_line_attention(x, g, params)
        assert np.allclose(result.weights, weights, atol=1e-12)
        assert np.allclose(result.attended, attended, atol=1e-12)


def test_weights_form_probability_distribution():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        d, t, k = rng.integers(1, 7), rng.integers(1, 8), rng.integers(1, 6)
        x = 5.0 * rng.standard_normal((d, t))
        g = rng.standard_normal(d)
        params = AttentionParameters.random(k, d, d, seed=seed, scale=2.0)
        result = attention_op(x, g, params)
        assert np.all(result.weights >= 0.0)
        assert abs(float(result.weights.sum()) - 1.0) <= 1e-12


def test_attended_in_convex_hull_componentwise():
    for seed in range(50):
        x, g, params = random_instance(seed, d=6, t=4)
        result = attention_op(x, g, params)
        lo = x.min(axis=1) - 1e-12
        hi = x.max(axis=1) + 1e-12
        assert np.all(result.attended >= lo) and np.all(result.attended <= hi)


def test_permutation_equivariance():
    x, g, params = random_instance(7, t=6)
    perm = np.array([3, 0, 5, 1, 4, 2])
    base = attention_op(x, g, params)
    permuted = attention_op(x[:, perm], g, params)
    assert np.allclose(permuted.weights, base.weights[perm], atol=1e-15)
    assert np.allclose(permuted.attended, base.attended, atol=1e-13)


def test_softmax_shift_invariance():
    logits = np.array([0.3, -1.2, 2.0, 0.0])
    assert np.allclose(softmax(logits), softmax(logits + 123.456), atol=1e-15)


def test_softmax_handles_large_logits():
    weights = softmax(np.array([1000.0, 0.0, -1000.0]))
    assert np.isfinite(weights).all()
    assert weights[0] == pytest.approx(1.0, abs=1e-12)


def test_zero_guider_allowed():
    x, _, params = random_instance(9)
    result = attention_op(x, np.zeros(params.guider_dim), params)
    assert result.weights.shape == (x.shape[1],)


def test_alternating_uniform_gives_column_means():
    rng = np.random.default_rng(11)
    q = rng.standard_normal((4, 5))
    v = rng.standard_normal((4, 7))
    steps = []
    for _ in range(3):
        p = AttentionParameters.random(3, 4, 4, seed=1)
        steps.append(AttentionParameters(w_x=p.w_x, w_g=p.w_g, w_hx=np.zeros(3)))
    s_hat, v_hat, q_hat = alternating_coattention(q, v, steps)
    assert np.allclose(s_hat, q.mean(axis=1), atol=1e-12)
    assert np.allclose(v_hat, v.mean(axis=1), atol=1e-12)
    assert np.allclose(q_hat, q.mean(axis=1), atol=1e-12)


def test_alternating_single_columns():
    rng = np.random.default_rng(12)
    q = rng.standard_normal((4, 1))
    v = rng.standard_normal((4, 1))
    steps = [AttentionParameters.random(3, 4, 4, seed=s) for s in range(3)]
    s_hat, v_hat, q_hat = alternating_coattention(q, v, steps)
    assert np.allclose(s_hat, q[:, 0], atol=1e-15)
    assert np.allclose(v_hat, v[:, 0], atol=1e-15)
    assert np.allclose(q_hat, q[:, 0], atol=1e-15)


def test_alternating_equals_composed_calls():
    rng = np.random.default_rng(13)
    q = rng.standard_normal((5, 4))
    v = rng.standard_normal((5, 6))
    steps = [AttentionParameters.random(3, 5, 5, seed=20 + s) for s in range(3)]
    s_hat, v_hat, q_hat = alternating_coattention(q, v, steps)
    first = attention_op(q, np.zeros(5), steps[0])
    second = attention_op(v, first.attended, steps[1])
    third = attention_op(q, second.attended, steps[2])
    assert np.array_equal(s_hat, first.attended)
    assert np.array_equal(v_hat, second.attended)
    assert np.array_equal(q_hat, third.attended)


def test_alternating_shape_error_names_step():
    rng = np.random.default_rng(14)
    q = rng.standard_normal((5, 4))
    v = rng.standard_normal((3, 6))  # image features of a different width
    steps = [AttentionParameters.random(3, 5, 5, seed=s) for s in range(3)]
    with pytest.raises(ShapeError, match="step 2"):
        alternating_coattention(q, v, steps)


# Each case replaces one field of valid k=3 parameters.
@pytest.mark.parametrize("field, value, error, message", [
    ("w_g", np.zeros((2, 4)), ShapeError, "w_g has 2 rows, expected 3 to match w_x"),
    ("w_hx", np.zeros(4), ShapeError, "w_hx has length 4, expected 3"),
    ("w_hx", np.zeros((1, 3)), ShapeError, "w_hx must be 1-D, got shape (1, 3)"),
    ("w_x", np.array([[0.0, 1.0, np.inf, 0.0]] * 3), InvalidInputError,
     "w_x contains non-finite values"),
], ids=["w_g rows", "w_hx length", "one-row w_hx", "non-finite w_x"])
def test_parameters_shape_validation(field, value, error, message):
    fields = {"w_x": np.zeros((3, 4)), "w_g": np.zeros((3, 4)), "w_hx": np.zeros(3)}
    with pytest.raises(error) as info:
        AttentionParameters(**{**fields, field: value})
    assert str(info.value) == message
