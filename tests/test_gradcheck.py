"""Central-difference validation of every layer exposing a backward rule."""

import numpy as np
import pytest

from pan.backbone import EnhancerConfig, enhance_input_grad, init_enhancer, self_attention, self_attention_input_grad
from pan.layers import (
    BatchNormStats,
    batch_norm2d,
    batch_norm2d_backward_inference,
    conv2d,
    conv2d_backward,
    gelu,
    gelu_backward,
    grad_check,
    init_linear,
    layer_norm,
    layer_norm_backward,
    linear,
    linear_backward,
    relu,
    relu_backward,
    softmax_rows,
    softmax_rows_backward,
)
from pan.pillars import TokenBatch
from pan.tensor import Rng

TOL = 1e-5


def test_linear_grad():
    p = init_linear(4, 3, Rng(0))

    def f(x):
        y = linear(x, p)
        return y.sum(), linear_backward(np.ones_like(y), p)

    x = Rng(1).normal(size=(3, 4))
    assert grad_check(f, x) < 1e-7


def test_softmax_grad_of_sum_is_zero():
    # rows sum to one, so sum(softmax(x)) is constant in x
    def f(x):
        y = softmax_rows(x)
        return y.sum(), softmax_rows_backward(np.ones_like(y), y)

    x = Rng(2).normal(size=(3, 5))
    assert grad_check(f, x) < TOL


def test_softmax_grad_weighted():
    w = Rng(3).normal(size=(3, 5))

    def f(x):
        y = softmax_rows(x)
        return float((y * w).sum()), softmax_rows_backward(w, y)

    x = Rng(4).normal(size=(3, 5))
    assert grad_check(f, x) < TOL


def test_layer_norm_grad():
    gamma = Rng(5).normal(size=(6,))
    beta = Rng(6).normal(size=(6,))
    w = Rng(7).normal(size=(4, 6))

    def f(x):
        y = layer_norm(x, gamma, beta)
        return float((y * w).sum()), layer_norm_backward(w, x, gamma)

    x = Rng(8).normal(size=(4, 6))
    assert grad_check(f, x) < TOL


def test_gelu_grad():
    def f(x):
        y = gelu(x)
        return y.sum(), gelu_backward(np.ones_like(y), x)

    x = Rng(9).normal(size=(5, 4))
    assert grad_check(f, x) < 1e-6


def test_relu_grad_away_from_kink():
    x = Rng(10).normal(size=(5, 4))
    x[np.abs(x) < 0.01] = 0.5  # keep clear of the non-differentiable point

    def f(x):
        y = relu(x)
        return y.sum(), relu_backward(np.ones_like(y), x)

    assert grad_check(f, x) < TOL


def test_conv2d_grad():
    rng = Rng(11)
    # a square kernel, then a non-square one with cin != cout: the backward
    # flips both spatial axes and swaps the channel axes
    for kernel_shape, w_shape, x_shape in [((3, 3, 2, 3), (4, 4, 3), (4, 4, 2)),
                                           ((3, 5, 3, 2), (5, 4, 2), (5, 4, 3))]:
        kernel = rng.normal(size=kernel_shape)
        w = rng.normal(size=w_shape)

        def f(x):
            y = conv2d(x, kernel)
            return float((y * w).sum()), conv2d_backward(w, kernel)

        x = rng.normal(size=x_shape)
        assert grad_check(f, x) < TOL


def test_batch_norm_inference_grad():
    rng = Rng(13)
    stats = BatchNormStats(mean=rng.normal(size=2), var=np.abs(rng.normal(size=2)) + 0.5)
    gamma = rng.normal(size=2)
    beta = rng.normal(size=2)

    def f(x):
        y = batch_norm2d(x, stats, gamma, beta, training=False)
        return y.sum(), batch_norm2d_backward_inference(np.ones_like(y), stats, gamma)

    x = rng.normal(size=(3, 3, 2))
    assert grad_check(f, x) < TOL


def test_self_attention_grad():
    cfg = EnhancerConfig(embed_dim=8, num_heads=2, dropout_p=0.0, conv_enabled=False)
    params = init_enhancer(4, cfg, Rng(14))

    def f(x):
        y = self_attention(x, params, cfg)
        return y.sum(), self_attention_input_grad(x, params, cfg, np.ones_like(y))

    x = Rng(15).normal(size=(3, 8))
    assert grad_check(f, x) < TOL


# C + 1 = 5 against d_k = 8 at one head of 8, 4 at two heads of 8 and 8 at
# two heads of 16, so both kinds of head factors are differentiated: token
# width, projected, and token width with the identity maps' heads summed
@pytest.mark.parametrize("width, heads", [(8, 1), (8, 2), (16, 2)], ids=["1", "2", "16-2"])
def test_enhance_grad(width, heads):
    cfg = EnhancerConfig(embed_dim=width, num_heads=heads, dropout_p=0.0, conv_enabled=False)
    params = init_enhancer(4, cfg, Rng(16))
    coords = np.array([[0, 0], [0, 1], [1, 0]])

    def f(tokens):
        from pan.backbone import enhance

        out = enhance(TokenBatch(tokens=tokens, coords=coords), params, cfg)
        dy = np.ones_like(out.tokens)
        return out.tokens.sum(), enhance_input_grad(tokens, params, cfg, dy)

    tokens = Rng(17).normal(size=(3, 4))
    assert grad_check(f, tokens) < TOL


def test_zero_tokens_input_grad():
    cfg = EnhancerConfig(embed_dim=8, num_heads=2, dropout_p=0.0, conv_enabled=False)
    params = init_enhancer(4, cfg, Rng(18))
    grad = enhance_input_grad(np.zeros((0, 4)), params, cfg, np.zeros((0, 4)))
    assert grad.shape == (0, 4)
    grad = self_attention_input_grad(np.zeros((0, 8)), params, cfg, np.zeros((0, 8)))
    assert grad.shape == (0, 8)
