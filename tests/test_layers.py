"""Core layer tests against hand values and brute-force loop oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.integrate import quad

import pan.layers as layers
from pan.layers import (
    BatchNormStats,
    LinearParams,
    batch_norm2d,
    conv2d,
    dropout,
    _erf,
    _erf_chunk,
    _exp_rows,
    gelu,
    gelu_backward,
    init_linear,
    layer_norm,
    linear,
    relu,
    softmax_rows,
)
from pan.tensor import Rng


def conv2d_oracle(x, kernel, bias=None):
    """Nested-loop 'same' cross-correlation, the independent reference."""
    kh, kw, cin, cout = kernel.shape
    ph, pw = kh // 2, kw // 2
    xp = np.pad(x, ((ph, ph), (pw, pw), (0, 0)))
    out = np.zeros((x.shape[0], x.shape[1], cout))
    for i in range(out.shape[0]):
        for j in range(out.shape[1]):
            for d in range(cout):
                acc = 0.0
                for a in range(kh):
                    for b in range(kw):
                        for c in range(cin):
                            acc += xp[i + a, j + b, c] * kernel[a, b, c, d]
                out[i, j, d] = acc
    if bias is not None:
        out += bias
    return out


def conv2d_im2col(x, kernel, bias=None):
    """'Same' cross-correlation as one contraction over a strided window view:
    the dense reference for grids too large for ``conv2d_oracle``."""
    kh, kw = kernel.shape[:2]
    xp = np.pad(x, ((kh // 2, kh // 2), (kw // 2, kw // 2), (0, 0)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(0, 1))
    out = np.einsum("xycij,ijcd->xyd", windows, kernel, optimize=True)
    return out if bias is None else out + bias


def max_pool_oracle(x, window=2, stride=2):
    h, w, c = x.shape
    oh, ow = h // window, w // window
    out = np.zeros((oh, ow, c))
    for i in range(oh):
        for j in range(ow):
            for d in range(c):
                out[i, j, d] = x[i * stride:i * stride + window,
                                 j * stride:j * stride + window, d].max()
    return out


def max_pool2d(x, window=2, stride=2):
    """Channelwise window maximum, the dense pooling ``conv_refine`` reproduces.

    Odd trailing rows/cols are padded with -inf, so the output is ceil-sized;
    ``max_pool_oracle`` floors them instead.
    """
    x = np.asarray(x, dtype=float)
    h, w, c = x.shape
    oh = -(-max(h - window, 0) // stride) + 1
    ow = -(-max(w - window, 0) // stride) + 1
    need_h = (oh - 1) * stride + window
    need_w = (ow - 1) * stride + window
    if need_h > h or need_w > w:
        x = np.pad(x, ((0, need_h - h), (0, need_w - w), (0, 0)),
                   constant_values=-np.inf)
    out = np.full((oh, ow, c), -np.inf)
    for di in range(window):
        for dj in range(window):
            out = np.maximum(out, x[di:di + (oh - 1) * stride + 1:stride,
                                    dj:dj + (ow - 1) * stride + 1:stride])
    return out


class TestLinear:
    def test_identity_weights(self):
        p = LinearParams(weight=[[1.0, 0.0], [0.0, 1.0]], bias=[0.0, 0.0])
        assert np.array_equal(linear(np.array([[1.0, 2.0]]), p), [[1.0, 2.0]])

    def test_hand_matrix_multiply(self):
        p = LinearParams(weight=[[2.0, 3.0], [4.0, 5.0]], bias=[1.0, 1.0])
        assert np.allclose(linear(np.array([[1.0, 1.0]]), p), [[7.0, 9.0]], atol=0)

    def test_empty_batch(self):
        p = init_linear(3, 5, Rng(0))
        assert linear(np.zeros((0, 3)), p).shape == (0, 5)

    def test_shape_mismatch(self):
        p = init_linear(3, 5, Rng(0))
        with pytest.raises(ValueError):
            linear(np.zeros((2, 4)), p)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_additive_in_x(self, seed):
        rng = Rng(seed)
        p = init_linear(4, 3, rng)
        a = rng.normal(size=(5, 4))
        b = rng.normal(size=(5, 4))
        lhs = linear(a + b, p)
        rhs = linear(a, p) + linear(b, p) - p.bias
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestSoftmax:
    def test_uniform_row(self):
        out = softmax_rows(np.array([[0.0, 0.0, 0.0]]))
        assert np.allclose(out, [[1 / 3] * 3], atol=1e-15)

    def test_stabilized_large_values(self):
        out = softmax_rows(np.array([[1000.0, 0.0]]))
        assert np.all(np.isfinite(out))
        assert out[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert out[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_direct_evaluation(self):
        # independent: scalar math.exp, explicit sum
        row = [1.0, 2.0, 3.0]
        exps = [math.exp(v) for v in row]
        expected = [e / sum(exps) for e in exps]
        assert np.allclose(softmax_rows(np.array([row])), [expected], atol=1e-15)

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_rows_sum_to_one_and_shift_invariance(self, n, m, seed):
        rng = Rng(seed)
        x = rng.normal(size=(n, m)) * 5
        out = softmax_rows(x)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(out >= 0)
        # adding a per-row constant leaves the softmax unchanged
        shifts = rng.uniform(-50, 50, size=(n, 1))
        assert np.allclose(out, softmax_rows(x + shifts), atol=1e-9)

    def test_non_finite_input_is_an_error(self):
        with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError):
            softmax_rows(np.array([[np.inf, 0.0]]))

    @pytest.mark.parametrize("row", [[np.inf, 0.0], [np.nan, 0.0], [-np.inf, -np.inf]])
    def test_non_finite_row_fails_at_the_row_max(self, row):
        # no errstate: a NaN computed before the check would warn, and warnings fail
        with pytest.raises(FloatingPointError, match="row max"):
            softmax_rows(np.array([row]))

    def test_minus_inf_score_gets_zero_weight(self):
        assert np.array_equal(softmax_rows(np.array([[-np.inf, 1.0]])), [[0.0, 1.0]])

    def test_leaves_input_unchanged(self):
        x = Rng(31).normal(size=(4, 6))
        before = x.copy()
        softmax_rows(x)
        assert np.array_equal(x, before)

    def test_exp_rows_writes_into_its_argument(self):
        x = Rng(32).normal(size=(4, 6)) * 10
        want = np.exp(x - x.max(axis=1, keepdims=True))
        e, sums = _exp_rows(x)
        assert e is x
        assert np.array_equal(x, want)
        assert np.array_equal(sums, want.sum(axis=1, keepdims=True))
        assert np.all(sums >= 1.0)


class TestLayerNorm:
    def test_constant_row_absorbed_by_eps(self):
        out = layer_norm(np.full((2, 4), 3.0), gamma=np.ones(4), beta=np.zeros(4))
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_hand_two_values(self):
        out = layer_norm(np.array([[1.0, 3.0]]), gamma=np.ones(2), beta=np.zeros(2), eps=0.0)
        assert np.allclose(out, [[-1.0, 1.0]], atol=1e-12)

    def test_zero_gamma_gives_beta(self):
        beta = np.array([1.0, 2.0, 3.0])
        out = layer_norm(np.random.default_rng(0).normal(size=(4, 3)),
                         gamma=np.zeros(3), beta=beta)
        assert np.allclose(out, np.tile(beta, (4, 1)), atol=0)

    @given(st.integers(1, 5), st.integers(2, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_normalizes_rows(self, n, f, seed):
        x = Rng(seed).normal(size=(n, f)) * 3 + 1
        out = layer_norm(x, gamma=np.ones(f), beta=np.zeros(f), eps=1e-12)
        assert np.allclose(out.mean(axis=1), 0.0, atol=1e-9)
        assert np.allclose(out.var(axis=1), 1.0, atol=1e-6)


class TestActivations:
    def test_gelu_zero(self):
        assert gelu(np.array([0.0]))[0] == 0.0

    def test_relu(self):
        assert relu(np.array([-2.0]))[0] == 0.0
        assert relu(np.array([3.0]))[0] == 3.0

    def test_gelu_via_quadrature_cdf(self):
        # Phi(1) from integrating the normal pdf, independent of erf
        phi1, _ = quad(lambda t: math.exp(-t * t / 2) / math.sqrt(2 * math.pi), -12, 1.0)
        assert gelu(np.array([1.0]))[0] == pytest.approx(1.0 * phi1, abs=1e-9)
        assert phi1 == pytest.approx(0.8413, abs=5e-5)


class TestErf:
    def test_sweep_matches_math_and_scipy(self):
        x = np.linspace(-30.0, 30.0, 1_200_001)
        got = _erf(x)
        want = np.array([math.erf(v) for v in x])
        np.testing.assert_allclose(got, want, rtol=0, atol=3e-16)
        np.testing.assert_allclose(got, special.erf(x), rtol=0, atol=4e-16)

    def test_range_edges_within_a_few_ulps(self):
        # both sides of the Cody range limits 0.46875 and 4, and of the
        # saturation at 8
        edges = []
        for edge in (0.46875, 4.0, 8.0):
            for side in (-np.inf, np.inf):
                v = edge
                for _ in range(4):
                    edges.append(v)
                    v = np.nextafter(v, side)
        x = np.array(edges + [-e for e in edges])
        got = _erf(x)
        want = np.array([math.erf(v) for v in x])
        assert np.all(np.abs(got - want) <= 6 * np.spacing(np.abs(want)))

    def test_small_and_subnormal_inputs(self):
        tiny = np.geomspace(5e-324, 1e-3, 2000)
        x = np.concatenate([tiny, -tiny, [2.2250738585072014e-308, np.nextafter(0.0, 1.0)]])
        got = _erf(x)
        want = np.array([math.erf(v) for v in x])
        assert np.all(np.abs(got - want) <= 2 * np.spacing(np.abs(want)))
        assert np.all(np.sign(got) == np.sign(x))

    def test_special_values(self):
        got = _erf(np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300]))
        assert got[0] == 0.0 and not np.signbit(got[0])
        assert got[1] == 0.0 and np.signbit(got[1])
        assert got[2] == 1.0 and got[3] == -1.0
        assert np.isnan(got[4])
        assert got[5] == 1.0 and got[6] == -1.0

    def test_shape_and_chunks(self):
        # more elements than one chunk, in a 2-D shape
        x = Rng(40).normal(size=(300, 129)) * 3
        np.testing.assert_allclose(_erf(x), special.erf(x), rtol=0, atol=4e-16)
        assert _erf(x).shape == x.shape
        assert _erf(np.zeros((0, 3))).shape == (0, 3)

    def test_gelu_and_backward_match_math_erf(self):
        x = np.linspace(-12.0, 12.0, 4001)
        cdf = np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in x])
        np.testing.assert_allclose(gelu(x), x * cdf, rtol=0, atol=4e-15)
        pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        np.testing.assert_allclose(gelu_backward(np.ones_like(x), x), cdf + x * pdf,
                                   rtol=0, atol=1e-15)


def erf_chunk_unsplit(x):
    """Both of Cody's branches on every element, then one select: the
    unsplit ``_erf_chunk`` that the index split must match bit for bit."""
    xs = np.clip(x, -0.46875, 0.46875)
    small = xs * layers._rational(xs * xs, layers._ERF_A, layers._ERF_B)
    y = np.minimum(np.abs(x), layers._ERF_SATURATE)
    r = layers._rational(y, layers._ERF_C, layers._ERF_D)
    tail = y > 4.0
    if tail.any():
        yt = y[tail]
        z = 1.0 / (yt * yt)
        r[tail] = (layers._INV_SQRTPI - z * layers._rational(z, layers._ERF_P, layers._ERF_Q)) / yt
    r *= np.exp(-y * y)
    big = np.copysign((0.5 - r) + 0.5, x)
    return np.where(y <= 0.46875, small, big)


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _steps_around(edge, count=6):
    """``edge`` and ``count`` nextafter steps below and above it, both signs."""
    below, above = [edge], [edge]
    for _ in range(count):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    side = np.array(below[::-1] + above[1:])
    return np.concatenate([side, -side])


class TestErfSplit:
    """``_erf_chunk`` runs each branch only on its own elements and matches
    the both-branches-then-select form bit for bit."""

    @pytest.mark.parametrize("edge", [0.46875, 4.0, 8.0])
    def test_branch_and_saturation_edges(self, edge):
        x = _steps_around(edge)
        assert_same_bits(_erf_chunk(x), erf_chunk_unsplit(x))

    def test_special_values_keep_their_bits(self):
        sub = np.nextafter(0.0, 1.0)
        x = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, sub, -sub,
                      2.2250738585072014e-308, -2.2250738585072014e-308, 1e-310, -1e-310])
        got = _erf_chunk(x)
        assert_same_bits(got, erf_chunk_unsplit(x))
        assert not np.signbit(got[0]) and np.signbit(got[1])
        assert np.isnan(got[2]) and np.isnan(got[3])

    @pytest.mark.parametrize("case", ["small", "large", "empty"])
    def test_one_sided_and_empty_chunks(self, case):
        rng = Rng(41)
        x = {"small": rng.uniform(-0.46875, 0.46875, size=500),
             "large": np.concatenate([rng.uniform(0.47, 9.0, size=250),
                                      -rng.uniform(0.47, 9.0, size=250)]),
             "empty": np.zeros(0)}[case]
        assert_same_bits(_erf_chunk(x), erf_chunk_unsplit(x))

    def test_erf_and_gelu_over_chunks_match_the_unsplit_form(self):
        # LayerNorm-like values over several chunks and a partial last one,
        # then a sweep past every edge
        x = np.concatenate([Rng(42).normal(size=3 * layers._ERF_CHUNK) * 2,
                            np.linspace(-10.0, 10.0, 2001)]).reshape(-1, 3)
        n = layers._ERF_CHUNK

        def unsplit_erf(v):
            flat = v.reshape(-1)
            return np.concatenate([erf_chunk_unsplit(flat[lo:lo + n])
                                   for lo in range(0, flat.size, n)]).reshape(v.shape)

        assert_same_bits(_erf(x), unsplit_erf(x))
        assert_same_bits(gelu(x), x * (0.5 * (1.0 + unsplit_erf(x * (1.0 / math.sqrt(2.0))))))


class TestDropout:
    def test_p_zero_identity(self):
        x = Rng(0).normal(size=(4, 4))
        assert dropout(x, 0.0, Rng(1), training=True) is x

    def test_inference_identity_bit_exact(self):
        x = Rng(0).normal(size=(4, 4))
        out = dropout(x, 0.9, Rng(1), training=False)
        assert np.array_equal(out, x)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            dropout(np.zeros((2, 2)), 1.0, Rng(0), training=True)

    def test_monte_carlo_zero_fraction(self):
        x = np.ones((100_000,))
        out = dropout(x, 0.5, Rng(42), training=True)
        zero_frac = float((out == 0.0).mean())
        assert abs(zero_frac - 0.5) < 0.01
        # survivors are rescaled by 1/(1-p)
        assert np.all(out[out != 0] == 2.0)

    def test_fixed_seed_deterministic(self):
        x = np.ones((1000,))
        a = dropout(x, 0.3, Rng(9), training=True)
        b = dropout(x, 0.3, Rng(9), training=True)
        assert np.array_equal(a, b)


class TestConv2d:
    def test_one_by_one_identity_kernel(self):
        c = 3
        kernel = np.eye(c).reshape(1, 1, c, c)
        x = Rng(5).normal(size=(4, 6, c))
        assert np.allclose(conv2d(x, kernel), x, atol=1e-15)

    def test_box_sum_on_one_hot(self):
        x = np.zeros((5, 5, 1))
        x[2, 2, 0] = 1.0
        kernel = np.ones((3, 3, 1, 1))
        out = conv2d(x, kernel)
        assert np.array_equal(out, conv2d_oracle(x, kernel))
        # the one-hot spreads into a 3x3 plateau of ones, zero around it
        plateau = np.zeros((5, 5))
        plateau[1:4, 1:4] = 1.0
        assert np.array_equal(out[:, :, 0], plateau)

    def test_kernel_larger_than_input(self):
        # 'same' padding keeps the output at the input's size, whatever the kernel
        rng = Rng(7)
        kernel = rng.normal(size=(5, 5, 2, 3))
        bias = rng.normal(size=(3,))
        for size in (2, 1, 0):
            x = rng.normal(size=(size, size, 2))
            got = conv2d(x, kernel, bias)
            assert got.shape == (size, size, 3)
            np.testing.assert_allclose(got, conv2d_oracle(x, kernel, bias), rtol=0, atol=1e-12)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([(3, 3), (3, 5), (5, 1)]))
    @settings(max_examples=25, deadline=None)
    def test_matches_loop_oracle(self, seed, kernel_hw):
        rng = Rng(seed)
        x = rng.normal(size=(7, 6, 2))
        kernel = rng.normal(size=(*kernel_hw, 2, 3))
        bias = rng.normal(size=(3,))
        got = conv2d(x, kernel, bias)
        want = conv2d_oracle(x, kernel, bias)
        assert np.allclose(got, want, atol=1e-12)


class TestBatchNorm:
    def test_identity_on_normalized_input(self):
        rng = Rng(3)
        x = rng.normal(size=(64, 64, 2))
        x = (x - x.mean(axis=(0, 1))) / x.std(axis=(0, 1))
        stats = BatchNormStats.fresh(2)
        out = batch_norm2d(x, stats, np.ones(2), np.zeros(2), training=True)
        assert np.allclose(out, x, atol=1e-5)

    def test_inference_subtracts_running_mean(self):
        x = Rng(4).normal(size=(3, 3, 2))
        stats = BatchNormStats(mean=np.array([1.0, -2.0]), var=np.ones(2))
        out = batch_norm2d(x, stats, np.ones(2), np.zeros(2), training=False, eps=0.0)
        assert np.allclose(out, x - stats.mean, atol=1e-12)

    def test_training_constant_channel_gives_zeros(self):
        x = np.full((4, 4, 1), 7.0)
        stats = BatchNormStats.fresh(1)
        out = batch_norm2d(x, stats, np.ones(1), np.zeros(1), training=True)
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_training_updates_running_stats(self):
        x = Rng(5).normal(size=(8, 8, 2)) + 3.0
        stats = BatchNormStats.fresh(2)
        batch_norm2d(x, stats, np.ones(2), np.zeros(2), training=True, momentum=0.1)
        expected_mean = 0.9 * 0.0 + 0.1 * x.mean(axis=(0, 1))
        assert np.allclose(stats.mean, expected_mean, atol=1e-12)


class TestMaxPool:
    def test_constant_input(self):
        out = max_pool2d(np.full((4, 4, 2), 5.0))
        assert out.shape == (2, 2, 2)
        assert np.all(out == 5.0)

    def test_single_window(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(2, 2, 1)
        assert max_pool2d(x)[0, 0, 0] == 4.0

    def test_odd_dims_pad_high_side(self):
        x = np.arange(9, dtype=float).reshape(3, 3, 1)
        out = max_pool2d(x)
        assert out.shape == (2, 2, 1)
        assert out[1, 1, 0] == 8.0  # bottom-right window holds only x[2, 2]

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_matches_loop_oracle(self, seed):
        x = Rng(seed).normal(size=(6, 6, 2))
        assert np.array_equal(max_pool2d(x), max_pool_oracle(x))
