"""Primitive network layers with explicit backward rules.

Every operation is a pure function of float64 arrays (plus explicit generator
state for dropout). There is no autograd graph: each differentiable layer
ships a companion ``*_backward`` that maps the upstream gradient to the
input gradient, and compositions chain those by hand. ``grad_check``
validates any such chain against central differences.

The library holds one convolution, ``_tap_scatter``: a 'same' conv that
multiplies only the masked cells, which the backbone's conv refine runs.
``conv2d`` is its case with every cell active, and ``conv2d_backward`` is
``conv2d`` with the flipped kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import DTYPE, check_finite

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# linear
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class LinearParams:
    """Affine map parameters: weight [in, out], bias [out]."""

    weight: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=DTYPE)
        self.bias = np.asarray(self.bias, dtype=DTYPE)
        if self.weight.ndim != 2 or self.bias.ndim != 1:
            raise ValueError("weight must be [in, out], bias must be [out]")
        if self.bias.shape[0] != self.weight.shape[1]:
            raise ValueError(
                f"bias size {self.bias.shape[0]} != out dim {self.weight.shape[1]}"
            )

    @property
    def in_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[1]


def init_linear(in_dim: int, out_dim: int, rng: np.random.Generator) -> LinearParams:
    # fan-in rule: uniform(-1/sqrt(in), 1/sqrt(in)) for weight and bias
    bound = 1.0 / math.sqrt(in_dim)
    return LinearParams(
        weight=rng.uniform(-bound, bound, size=(in_dim, out_dim)),
        bias=rng.uniform(-bound, bound, size=(out_dim,)),
    )


def linear(x: np.ndarray, p: LinearParams) -> np.ndarray:
    """out[i, j] = sum_k x[i, k] * w[k, j] + b[j]."""
    x = np.asarray(x, dtype=DTYPE)
    if x.ndim != 2 or x.shape[1] != p.in_dim:
        raise ValueError(f"linear: input shape {x.shape} incompatible with in dim {p.in_dim}")
    return check_finite(x @ p.weight + p.bias, "linear output")


def linear_backward(dy: np.ndarray, p: LinearParams) -> np.ndarray:
    """Input gradient of ``linear``."""
    return dy @ p.weight.T


# ---------------------------------------------------------------------------
# softmax / normalization / activations
# ---------------------------------------------------------------------------

def _exp_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(x - row max) written into the float64 [rows, n] array ``x``.

    Returns ``(x, row sums)``; each sum is in [1, n]. A NaN or +inf in a row,
    or a row of only -inf, makes that row's max non-finite, and no finite max
    gives a non-finite exp, so checking the [rows, 1] max covers the output.
    """
    x -= check_finite(x.max(axis=1, keepdims=True), "softmax row max")
    np.exp(x, out=x)
    return x, x.sum(axis=1, keepdims=True)


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stabilized by row-max subtraction."""
    e = np.array(x, dtype=DTYPE)
    if e.ndim != 2 or e.shape[1] < 1:
        raise ValueError(f"softmax_rows: need a 2-D input with columns, got shape {e.shape}")
    e, sums = _exp_rows(e)
    e /= sums
    return e


def softmax_rows_backward(dy: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Input gradient of ``softmax_rows`` given its output ``y``."""
    return y * (dy - (dy * y).sum(axis=1, keepdims=True))


def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
               eps: float = 1e-5) -> np.ndarray:
    """Per-row normalization to zero mean / unit variance, then affine."""
    x = np.asarray(x, dtype=DTYPE)
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    xhat = (x - mu) / np.sqrt(var + eps)
    return check_finite(gamma * xhat + beta, "layer_norm output")


def layer_norm_backward(dy: np.ndarray, x: np.ndarray, gamma: np.ndarray,
                        eps: float = 1e-5) -> np.ndarray:
    """Input gradient of ``layer_norm`` (gamma/beta held fixed)."""
    f = x.shape[1]
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv_std
    dxhat = dy * gamma
    return inv_std / f * (
        f * dxhat
        - dxhat.sum(axis=1, keepdims=True)
        - xhat * (dxhat * xhat).sum(axis=1, keepdims=True)
    )


# W. J. Cody, "Rational Chebyshev approximations for the error function",
# Math. Comp. 23 (1969): erf(x) = x P(x^2) / Q(x^2) for |x| <= 0.46875 and
# erf(x) = 1 - erfc(|x|) beyond, with erfc(y) = exp(-y^2) R(y) and R rational
# in y. Coefficients as in Netlib's CALERF. Cody fits R for y up to 4 and
# uses a rational in 1 / y^2 above; on (4, 8] the fit for y <= 4 is within
# 4e-23 of erfc, far below half an ulp of 1 - erfc, so it serves up to the
# saturation at 8 with no float64 result changed.
_ERF_A = (3.16112374387056560e00, 1.13864154151050156e02, 3.77485237685302021e02,
          3.20937758913846947e03, 1.85777706184603153e-1)
_ERF_B = (2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
          2.84423683343917062e03)
_ERF_C = (5.64188496988670089e-1, 8.88314979438837594e00, 6.61191906371416295e01,
          2.98635138197400131e02, 8.81952221241769090e02, 1.71204761263407058e03,
          2.05107837782607147e03, 1.23033935479799725e03, 2.15311535474403846e-8)
_ERF_D = (1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
          1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
          3.43936767414372164e03, 1.23033935480374942e03)
# erfc(8) < 1e-28, so erf rounds to +-1 from here on, and inf stays out of y * y
_ERF_SATURATE = 8.0
# elements per pass: a chunk's temporaries stay in cache
_ERF_CHUNK = 1 << 14


def _rational(z: np.ndarray, num: tuple, den: tuple) -> np.ndarray:
    """Cody's nested form: num[-1] leads the numerator, the denominator is monic."""
    n, d = num[-1] * z, z.copy()
    for a, b in zip(num, den[:-1]):
        n += a
        n *= z
        d += b
        d *= z
    n += num[len(den) - 1]
    d += den[-1]
    n /= d
    return n


def _erf_chunk(x: np.ndarray) -> np.ndarray:
    # each branch runs on its own elements, split by index; NaN takes the erfc one
    out = np.empty_like(x)
    near = np.abs(x) <= 0.46875
    small, big = np.flatnonzero(near), np.flatnonzero(~near)
    xs = x[small]
    out[small] = xs * _rational(xs * xs, _ERF_A, _ERF_B)
    xb = x[big]
    y = np.minimum(np.abs(xb), _ERF_SATURATE)  # NaN propagates
    r = _rational(y, _ERF_C, _ERF_D)
    # erfc(y) = exp(-y^2) R(y); erf = 1 - erfc, summed as Cody does
    r *= np.exp(-y * y)
    out[big] = np.copysign((0.5 - r) + 0.5, xb)
    return out


def _erf(x: np.ndarray) -> np.ndarray:
    """float64 erf, within 3e-16 of ``math.erf``: erf(-0) = -0, erf(+-inf) = +-1, NaN stays."""
    x = np.asarray(x, dtype=DTYPE)
    out = np.empty_like(x)
    flat, into = x.reshape(-1), out.reshape(-1)
    for lo in range(0, flat.size, _ERF_CHUNK):
        into[lo:lo + _ERF_CHUNK] = _erf_chunk(flat[lo:lo + _ERF_CHUNK])
    return out


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + _erf(x * _INV_SQRT2))


def gelu(x: np.ndarray) -> np.ndarray:
    """Exact GeLU: x * Phi(x) with the Gaussian CDF via erf (no tanh approximation)."""
    x = np.asarray(x, dtype=DTYPE)
    return x * _normal_cdf(x)


def gelu_backward(dy: np.ndarray, x: np.ndarray) -> np.ndarray:
    """d/dx gelu = Phi(x) + x * pdf(x)."""
    pdf = _INV_SQRT2PI * np.exp(-0.5 * x * x)
    return dy * (_normal_cdf(x) + x * pdf)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(np.asarray(x, dtype=DTYPE), 0.0)


def relu_backward(dy: np.ndarray, x: np.ndarray) -> np.ndarray:
    return dy * (x > 0)


def dropout(x: np.ndarray, p: float, rng: np.random.Generator, training: bool) -> np.ndarray:
    """Zero each element with probability ``p`` and rescale survivors by 1/(1-p).

    Inference mode (``training=False``) is the identity, bit-exact; no draw
    is consumed from ``rng`` in that case or when ``p == 0``.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    keep = rng.random(size=x.shape) >= p
    return np.where(keep, x / (1.0 - p), 0.0)


# ---------------------------------------------------------------------------
# 2-D ops: conv / batch norm
# ---------------------------------------------------------------------------

def _half_widths(kernel: np.ndarray) -> tuple[int, int]:
    kh, kw = kernel.shape[:2]
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError("conv kernel dims must be odd")
    return kh // 2, kw // 2


def _tap_scatter(values: np.ndarray, mask: np.ndarray,
                 kernel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bias-free 'same' convolution of the grid that holds ``values`` on
    ``mask`` (in row-major order) and zero elsewhere, at the cells its taps reach.

    Returns ``(cells, acc)``: the ascending flat indices of the cells within
    the kernel of a masked cell, and one output row per cell plus a spare
    last row, which takes the taps that land off the grid and is left for
    the caller to overwrite. Every other cell's output is zero. The cost is
    k*k small GEMMs over the masked cells; the cells are unique, so no row
    but the spare repeats within one tap.
    """
    kh, kw, _, cout = kernel.shape
    ph, pw = _half_widths(kernel)
    h, w = mask.shape
    wp = w + 2 * pw
    # output (i, j) reads input (i + a - ph, j + b - pw) through tap (a, b), so
    # input (i', j') reaches output (i' - a + ph, j' - b + pw), padded by (ph, pw)
    ii, jj = np.nonzero(mask)
    base = (ii + 2 * ph) * wp + jj + 2 * pw
    taps = [base - a * wp - b for a in range(kh) for b in range(kw)]
    reach = np.zeros((h + 2 * ph) * wp, dtype=bool)
    for t in taps:
        reach[t] = True
    cells = np.flatnonzero(reach.reshape(-1, wp)[ph:ph + h, pw:pw + w])
    rows = np.full(reach.size, cells.size, dtype=np.intp)
    rows[(cells // w + ph) * wp + cells % w + pw] = np.arange(cells.size)
    acc = np.zeros((cells.size + 1, cout), dtype=DTYPE)
    for t, tap in zip(taps, kernel.reshape(kh * kw, -1, cout)):
        acc[rows[t]] += values @ tap
    return cells, acc


def _sparse_conv(active: np.ndarray, values: np.ndarray, bg: np.ndarray,
                 kernel: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """'Same' convolution of the [H, W, Cin] grid that holds ``values`` on
    ``active`` (in row-major order) and ``bg`` everywhere else.

    By linearity conv(x) = conv(bg everywhere) + conv(x - bg). The first term
    is the bias plus bg @ kernel[a, b] over the taps that land inside the
    grid; tap validity is separable, so it costs O(H W k Cout). The second is
    ``_tap_scatter`` of values - bg, added at the cells its taps reach.
    """
    h, w = active.shape
    kh, kw, _, cout = kernel.shape
    ph, pw = _half_widths(kernel)
    rows = np.arange(h)[:, None] + np.arange(kh) - ph
    cols = np.arange(w)[:, None] + np.arange(kw) - pw
    row_in = ((rows >= 0) & (rows < h)).astype(DTYPE)
    col_in = ((cols >= 0) & (cols < w)).astype(DTYPE)
    bg_cols = np.einsum("jb,c,abcd->ajd", col_in, bg, kernel, optimize=True)
    out = (row_in @ bg_cols.reshape(kh, w * cout)).reshape(h, w, cout)
    out += bias
    cells, acc = _tap_scatter(values - bg, active, kernel)
    out.reshape(-1, cout)[cells] += acc[:-1]
    return check_finite(out, "conv output")


def conv2d(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """'Same' cross-correlation of [H, W, Cin] with kernel [kh, kw, Cin, Cout],
    kernel dims odd: ``_tap_scatter`` with every cell active."""
    x = np.asarray(x, dtype=DTYPE)
    kernel = np.asarray(kernel, dtype=DTYPE)
    if x.ndim != 3 or kernel.ndim != 4 or x.shape[2] != kernel.shape[2]:
        raise ValueError(f"conv2d: input shape {x.shape} incompatible with kernel {kernel.shape}")
    h, w, cin = x.shape
    _, acc = _tap_scatter(x.reshape(-1, cin), np.ones((h, w), dtype=bool), kernel)
    out = acc[:-1].reshape(h, w, kernel.shape[3])
    if bias is not None:
        out += bias
    return check_finite(out, "conv2d output")


def conv2d_backward(dy: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Input gradient of ``conv2d``: the conv of ``dy`` with the kernel flipped
    in both spatial axes and its channel axes swapped."""
    kernel = np.asarray(kernel, dtype=DTYPE)
    return conv2d(dy, kernel[::-1, ::-1].transpose(0, 1, 3, 2))


@dataclass(eq=False)
class BatchNormStats:
    """Running per-channel statistics used at inference time."""

    mean: np.ndarray
    var: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=DTYPE)
        self.var = np.asarray(self.var, dtype=DTYPE)

    @classmethod
    def fresh(cls, channels: int) -> "BatchNormStats":
        return cls(mean=np.zeros(channels), var=np.ones(channels))

    def fold(self, mean: np.ndarray, var: np.ndarray, momentum: float = 0.1) -> None:
        """running = (1 - momentum) * running + momentum * batch."""
        self.mean = (1.0 - momentum) * self.mean + momentum * mean
        self.var = (1.0 - momentum) * self.var + momentum * var


def batch_norm2d(x: np.ndarray, stats: BatchNormStats, gamma: np.ndarray,
                 beta: np.ndarray, training: bool, momentum: float = 0.1,
                 eps: float = 1e-5) -> np.ndarray:
    """Per-channel normalization over all leading axes of [..., C].

    Training mode normalizes by the batch statistics of ``x`` and folds them
    into ``stats`` as running = (1 - momentum) * running + momentum * batch.
    Inference mode normalizes by the running statistics unchanged.
    """
    x = np.asarray(x, dtype=DTYPE)
    axes = tuple(range(x.ndim - 1))
    if training:
        mu = x.mean(axis=axes)
        var = x.var(axis=axes)
        stats.fold(mu, var, momentum)
    else:
        mu, var = stats.mean, stats.var
    xhat = (x - mu) / np.sqrt(var + eps)
    return check_finite(gamma * xhat + beta, "batch_norm output")


def batch_norm2d_backward_inference(dy: np.ndarray, stats: BatchNormStats,
                                    gamma: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Input gradient of inference-mode ``batch_norm2d`` (a fixed affine map)."""
    return dy * gamma / np.sqrt(stats.var + eps)


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

def grad_check(f, x: np.ndarray, h: float = 1e-5) -> float:
    """Compare an analytic gradient with central differences.

    ``f`` maps an array to ``(scalar value, gradient array)``. Returns the
    max over coordinates of |analytic - numeric| / max(1, |numeric|).
    """
    x = np.asarray(x, dtype=DTYPE)
    _, grad = f(x)
    grad = np.asarray(grad, dtype=DTYPE)
    if grad.shape != x.shape:
        raise ValueError("gradient shape does not match input shape")
    worst = 0.0
    flat = x.reshape(-1)
    for idx in range(flat.size):
        xp = flat.copy()
        xp[idx] += h
        fp, _ = f(xp.reshape(x.shape))
        xm = flat.copy()
        xm[idx] -= h
        fm, _ = f(xm.reshape(x.shape))
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise FloatingPointError("non-finite value during grad_check")
        numeric = (fp - fm) / (2.0 * h)
        err = abs(grad.reshape(-1)[idx] - numeric) / max(1.0, abs(numeric))
        worst = max(worst, err)
    return worst
