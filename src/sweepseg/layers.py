"""Differentiable primitives with hand-written backward passes.

Conventions used throughout:

* feature maps are channel-last ndarrays (h, w, c); vectors are 1-D
* convolution means cross-correlation (no kernel flip)
* every forward returns (output, OpRecord); `backward(record, upstream)`
  returns (input_gradient, {param_name: gradient})
* ops preserve the input dtype, so the gradient-check harness can run the
  exact same code in float64

The fractionally strided (transposed) convolution is deliberately computed
as a sparse-matrix / flattened-input product: the matrix rows enumerate
output cells, the columns enumerate input cells, and the stored values are
kernel elements. Its backward pass multiplies by the transpose of the same
matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidTargetError, ShapeError

BCE_EPS = 1e-7


@dataclass
class ConvSpec:
    in_channels: int
    out_channels: int
    kernel: tuple[int, int]
    stride: int = 1
    padding: int = 0

    def out_dim(self, in_dim: int, axis: int) -> int:
        k = self.kernel[axis]
        out = (in_dim + 2 * self.padding - k) // self.stride + 1
        if out < 1:
            raise ShapeError(
                f"conv output dim < 1 for input {in_dim}, kernel {k}, "
                f"stride {self.stride}, padding {self.padding}"
            )
        return out


@dataclass
class OpRecord:
    """Cached values one op needs for its backward pass; single consumer."""

    kind: str
    out_shape: tuple
    saved: dict = field(default_factory=dict)


def _record(kind: str, out_shape, **saved) -> OpRecord:
    return OpRecord(kind=kind, out_shape=tuple(out_shape), saved=saved)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def _im2col(padded: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """(h, w, c) -> (out_h*out_w, kh*kw*c) patch matrix, kh-major layout."""
    windows = sliding_window_view(padded, (kh, kw), axis=(0, 1))[::stride, ::stride]
    oh, ow = windows.shape[:2]
    cols = np.ascontiguousarray(windows.transpose(0, 1, 3, 4, 2))
    return cols.reshape(oh * ow, kh * kw * padded.shape[2]), oh, ow


def conv2d_forward(x: np.ndarray, weights: np.ndarray, bias: np.ndarray,
                   spec: ConvSpec) -> tuple[np.ndarray, OpRecord]:
    """Cross-correlation plus bias. x: (h,w,c_in), weights: (kh,kw,c_in,c_out)."""
    if x.ndim != 3 or x.shape[2] != spec.in_channels:
        raise ShapeError(f"conv input shape {x.shape} does not match in_channels={spec.in_channels}")
    kh, kw = spec.kernel
    if weights.shape != (kh, kw, spec.in_channels, spec.out_channels):
        raise ShapeError(f"conv weights shape {weights.shape} != {(kh, kw, spec.in_channels, spec.out_channels)}")
    if bias.shape != (spec.out_channels,):
        raise ShapeError(f"conv bias shape {bias.shape} != ({spec.out_channels},)")
    oh = spec.out_dim(x.shape[0], 0)
    ow = spec.out_dim(x.shape[1], 1)

    p = spec.padding
    padded = np.pad(x, ((p, p), (p, p), (0, 0))) if p else x
    cols, oh2, ow2 = _im2col(padded, kh, kw, spec.stride)
    assert (oh2, ow2) == (oh, ow)
    out = cols @ weights.reshape(kh * kw * spec.in_channels, spec.out_channels)
    out += bias
    out = out.reshape(oh, ow, spec.out_channels)
    rec = _record("conv2d", out.shape, cols=cols, weights=weights,
                  in_shape=x.shape, spec=spec)
    return out, rec


def _conv2d_backward(rec: OpRecord, up: np.ndarray):
    cols = rec.saved["cols"]
    weights = rec.saved["weights"]
    spec: ConvSpec = rec.saved["spec"]
    h, w, ci = rec.saved["in_shape"]
    kh, kw = spec.kernel
    oh, ow, co = rec.out_shape
    s, p = spec.stride, spec.padding

    up_mat = up.reshape(oh * ow, co)
    d_weights = (cols.T @ up_mat).reshape(kh, kw, ci, co)
    d_bias = up_mat.sum(axis=0)

    d_cols = (up_mat @ weights.reshape(-1, co).T).reshape(oh, ow, kh, kw, ci)
    dxp = np.zeros((h + 2 * p, w + 2 * p, ci), dtype=up.dtype)
    for ki in range(kh):
        for kj in range(kw):
            dxp[ki:ki + s * (oh - 1) + 1:s, kj:kj + s * (ow - 1) + 1:s] += d_cols[:, :, ki, kj]
    dx = dxp[p:p + h, p:p + w] if p else dxp
    return dx, {"weights": d_weights, "bias": d_bias}


# ---------------------------------------------------------------------------
# max pooling
# ---------------------------------------------------------------------------

def maxpool2x2_forward(x: np.ndarray) -> tuple[np.ndarray, OpRecord]:
    """Disjoint 2x2 window max per channel; ties go to the first cell row-major."""
    if x.ndim != 3:
        raise ShapeError(f"maxpool expects (h,w,c), got {x.shape}")
    h, w, c = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool needs even spatial dims, got {h}x{w}")
    windows = x.reshape(h // 2, 2, w // 2, 2, c).transpose(0, 2, 1, 3, 4).reshape(h // 2, w // 2, 4, c)
    argmax = windows.argmax(axis=2)
    out = np.take_along_axis(windows, argmax[:, :, None, :], axis=2)[:, :, 0, :]
    rec = _record("maxpool2x2", out.shape, argmax=argmax, in_shape=x.shape)
    return out, rec


def _maxpool_backward(rec: OpRecord, up: np.ndarray):
    h, w, c = rec.saved["in_shape"]
    argmax = rec.saved["argmax"]
    scattered = np.zeros((h // 2, w // 2, 4, c), dtype=up.dtype)
    np.put_along_axis(scattered, argmax[:, :, None, :], up[:, :, None, :], axis=2)
    dx = scattered.reshape(h // 2, w // 2, 2, 2, c).transpose(0, 2, 1, 3, 4).reshape(h, w, c)
    return dx, {}


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

def activation_forward(x: np.ndarray, kind: str) -> tuple[np.ndarray, OpRecord]:
    if kind == "relu":
        out = np.maximum(x, 0)
        rec = _record("activation", out.shape, act=kind, mask=x > 0)
    elif kind == "tanh":
        out = np.tanh(x)
        rec = _record("activation", out.shape, act=kind, out=out)
    elif kind == "sigmoid":
        out = _sigmoid(x)
        rec = _record("activation", out.shape, act=kind, out=out)
    else:
        raise ValueError(f"unknown activation kind {kind!r}")
    return out, rec


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _activation_backward(rec: OpRecord, up: np.ndarray):
    kind = rec.saved["act"]
    if kind == "relu":
        return up * rec.saved["mask"], {}
    out = rec.saved["out"]
    if kind == "tanh":
        return up * (1.0 - out * out), {}
    return up * out * (1.0 - out), {}


# ---------------------------------------------------------------------------
# fractionally strided convolution as an explicit sparse matrix
# ---------------------------------------------------------------------------

@dataclass
class SparseMatrix:
    """COO triplets sorted by (row, col), duplicate-free.

    For a transposed convolution the rows enumerate flattened output cells
    (row-major spatial, then channel), the columns enumerate flattened input
    cells, and `kernel_idx` remembers which flat kernel element each entry
    carries, so the kernel gradient can be accumulated from the same
    structure.
    """

    rows: int
    cols: int
    row: np.ndarray
    col: np.ndarray
    val: np.ndarray
    kernel_idx: np.ndarray | None = None
    kernel_shape: tuple | None = None
    stride: int = 1
    in_dims: tuple | None = None
    out_dims: tuple | None = None

    def __post_init__(self):
        self._csr = None
        self._csr_t = None

    @property
    def nnz(self) -> int:
        return self.row.size

    def _matrix(self):
        if self._csr is None or self._csr.dtype != self.val.dtype:
            indptr = np.searchsorted(self.row, np.arange(self.rows + 1))
            self._csr = sp.csr_matrix((self.val, self.col, indptr),
                                      shape=(self.rows, self.cols))
            self._csr_t = self._csr.T
        return self._csr

    def matvec(self, x: np.ndarray) -> np.ndarray:
        if x.shape != (self.cols,):
            raise ShapeError(f"matvec expects vector of length {self.cols}, got {x.shape}")
        return self._matrix() @ x

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """Multiply by the transpose (used by the backward pass)."""
        if y.shape != (self.rows,):
            raise ShapeError(f"rmatvec expects vector of length {self.rows}, got {y.shape}")
        self._matrix()
        return self._csr_t @ y

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.rows, self.cols), dtype=self.val.dtype)
        dense[self.row, self.col] = self.val
        return dense


# sorted index structure per (kernel, stride, input dims, channels); the
# values change every optimizer step but the sparsity pattern never does
_STRUCTURE_CACHE: dict[tuple, tuple] = {}


def _tconv_structure(k: int, in_h: int, in_w: int, ci: int, co: int, stride: int):
    key = (k, in_h, in_w, ci, co, stride)
    cached = _STRUCTURE_CACHE.get(key)
    if cached is not None:
        return cached

    out_h = (in_h - 1) * stride + k
    out_w = (in_w - 1) * stride + k
    i, j, ki, kj, c_in, c_out = np.meshgrid(
        np.arange(in_h), np.arange(in_w), np.arange(k), np.arange(k),
        np.arange(ci), np.arange(co), indexing="ij", sparse=True)
    full = (in_h, in_w, k, k, ci, co)
    row = np.broadcast_to(((i * stride + ki) * out_w + (j * stride + kj)) * co + c_out,
                          full).reshape(-1)
    col = np.broadcast_to((i * in_w + j) * ci + c_in, full).reshape(-1)
    kidx = np.broadcast_to(((ki * k + kj) * ci + c_in) * co + c_out, full).reshape(-1)
    order = np.lexsort((col, row))
    structure = (row[order].astype(np.int64), col[order].astype(np.int64),
                 kidx[order].astype(np.int64), (out_h, out_w))
    _STRUCTURE_CACHE[key] = structure
    return structure


def tconv_sparse_matrix(weights: np.ndarray, in_dims: tuple[int, int],
                        stride: int) -> SparseMatrix:
    """Build the (out cells) x (in cells) matrix of a transposed convolution.

    weights: (k, k, c_in, c_out); output spatial size is (in-1)*stride + k per
    axis. Every structural entry is stored even when the kernel value is 0.
    """
    if weights.ndim != 4 or weights.shape[0] != weights.shape[1]:
        raise ShapeError(f"tconv weights must be (k,k,c_in,c_out), got {weights.shape}")
    if stride < 1:
        raise ShapeError("stride must be >= 1")
    k, _, ci, co = weights.shape
    in_h, in_w = in_dims
    row, col, kidx, (out_h, out_w) = _tconv_structure(k, in_h, in_w, ci, co, stride)
    return SparseMatrix(
        rows=out_h * out_w * co,
        cols=in_h * in_w * ci,
        row=row, col=col,
        val=weights.reshape(-1)[kidx],
        kernel_idx=kidx,
        kernel_shape=weights.shape,
        stride=stride,
        in_dims=(in_h, in_w, ci),
        out_dims=(out_h, out_w, co),
    )


def tconv_forward(x: np.ndarray, matrix: SparseMatrix, bias: np.ndarray,
                  out_dims: tuple[int, int, int]) -> tuple[np.ndarray, OpRecord]:
    """reshape(matrix @ flatten(x)) + bias; the inner product form of upsampling."""
    oh, ow, co = out_dims
    if x.size != matrix.cols:
        raise ShapeError(f"input size {x.size} != matrix cols {matrix.cols}")
    if oh * ow * co != matrix.rows:
        raise ShapeError(f"output dims {out_dims} != matrix rows {matrix.rows}")
    if bias.shape != (co,):
        raise ShapeError(f"tconv bias shape {bias.shape} != ({co},)")
    out = matrix.matvec(x.reshape(-1)).reshape(oh, ow, co) + bias
    rec = _record("tconv", out.shape, x=x, matrix=matrix)
    return out, rec


def _tconv_backward(rec: OpRecord, up: np.ndarray):
    matrix: SparseMatrix = rec.saved["matrix"]
    x = rec.saved["x"]
    dx = matrix.rmatvec(up.reshape(-1)).reshape(x.shape)
    d_bias = up.sum(axis=(0, 1))

    grads = {"bias": d_bias}
    if matrix.kernel_shape is not None:
        k = matrix.kernel_shape[0]
        s = matrix.stride
        in_h, in_w, ci = matrix.in_dims
        co = matrix.kernel_shape[3]
        x_mat = x.reshape(in_h * in_w, ci)
        d_weights = np.empty(matrix.kernel_shape, dtype=up.dtype)
        for ki in range(k):
            for kj in range(k):
                sub = up[ki:ki + s * (in_h - 1) + 1:s, kj:kj + s * (in_w - 1) + 1:s]
                d_weights[ki, kj] = x_mat.T @ sub.reshape(in_h * in_w, co)
        grads["weights"] = d_weights
    return dx, grads


# ---------------------------------------------------------------------------
# symmetric crop (decoder trims transposed-conv overshoot)
# ---------------------------------------------------------------------------

def crop2d_forward(x: np.ndarray, margin: int) -> tuple[np.ndarray, OpRecord]:
    h, w, _ = x.shape
    if h <= 2 * margin or w <= 2 * margin:
        raise ShapeError(f"cannot crop {margin} from {h}x{w}")
    out = x[margin:h - margin, margin:w - margin]
    rec = _record("crop2d", out.shape, in_shape=x.shape, margin=margin)
    return out, rec


def _crop2d_backward(rec: OpRecord, up: np.ndarray):
    h, w, c = rec.saved["in_shape"]
    m = rec.saved["margin"]
    dx = np.zeros((h, w, c), dtype=up.dtype)
    dx[m:h - m, m:w - m] = up
    return dx, {}


# ---------------------------------------------------------------------------
# binary cross-entropy
# ---------------------------------------------------------------------------

def bce_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, OpRecord]:
    """Mean of -[t ln p + (1-t) ln(1-p)] with p clamped to [1e-7, 1-1e-7].

    The reduction runs in float64 regardless of input dtype.
    """
    if pred.shape != target.shape:
        raise ShapeError(f"pred shape {pred.shape} != target shape {target.shape}")
    if not np.all((target == 0) | (target == 1)):
        raise InvalidTargetError("bce target must contain only 0 and 1")
    p = np.clip(pred.astype(np.float64), BCE_EPS, 1.0 - BCE_EPS)
    t = target.astype(np.float64)
    loss = float(-np.mean(t * np.log(p) + (1.0 - t) * np.log1p(-p)))
    rec = _record("bce", (), pred=pred, target=target)
    return loss, rec


def _bce_backward(rec: OpRecord, up):
    pred = rec.saved["pred"]
    target = rec.saved["target"]
    p = np.clip(pred, BCE_EPS, 1.0 - BCE_EPS).astype(pred.dtype)
    inside = (pred > BCE_EPS) & (pred < 1.0 - BCE_EPS)
    dpred = (p - target) / (p * (1.0 - p)) / pred.size
    dpred = np.where(inside, dpred, 0.0).astype(pred.dtype)
    return dpred * up, {}


# ---------------------------------------------------------------------------
# backward dispatch and finite differences
# ---------------------------------------------------------------------------

_BACKWARD: dict[str, Callable] = {
    "conv2d": _conv2d_backward,
    "maxpool2x2": _maxpool_backward,
    "activation": _activation_backward,
    "tconv": _tconv_backward,
    "crop2d": _crop2d_backward,
    "bce": _bce_backward,
}


def register_backward(kind: str, fn: Callable) -> None:
    """Let other modules plug their composite ops into the same dispatcher."""
    _BACKWARD[kind] = fn


def backward(rec: OpRecord, upstream) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Run one op's backward pass. `upstream` must match the recorded output shape."""
    if rec.kind == "bce":
        up = float(upstream)
    else:
        up = np.asarray(upstream)
        if up.shape != rec.out_shape:
            raise ShapeError(f"upstream shape {up.shape} != recorded output shape {rec.out_shape}")
    fn = _BACKWARD.get(rec.kind)
    if fn is None:
        raise ValueError(f"no backward registered for op kind {rec.kind!r}")
    return fn(rec, up)


def finite_diff_check(f: Callable[[], float], arrays: list[np.ndarray],
                      grads: list[np.ndarray], h: float = 1e-3,
                      elements: list[tuple[int, int]] | None = None) -> float:
    """Max relative error between analytic grads and central differences.

    `f` re-evaluates the scalar objective from the current contents of
    `arrays`, which are perturbed in place one element at a time. The
    relative error denominator is max(|analytic|, |numeric|, 1e-8).
    Run with float64 arrays, otherwise rounding noise drowns the signal.
    """
    if elements is None:
        elements = [(ai, fi) for ai, arr in enumerate(arrays) for fi in range(arr.size)]
    worst = 0.0
    for ai, fi in elements:
        arr = arrays[ai]
        orig = arr.flat[fi]
        arr.flat[fi] = orig + h
        f_plus = f()
        arr.flat[fi] = orig - h
        f_minus = f()
        arr.flat[fi] = orig
        numeric = (f_plus - f_minus) / (2.0 * h)
        analytic = float(grads[ai].flat[fi])
        err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
        worst = max(worst, err)
    return worst
