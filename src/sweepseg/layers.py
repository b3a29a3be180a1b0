"""Differentiable primitives with hand-written backward passes.

Conventions used throughout:

* every op runs on a batch: feature maps are channel-last ndarrays
  (N, h, w, c), one sample per index of the leading axis; vectors are 1-D
* convolution means cross-correlation (no kernel flip)
* every forward returns (output, OpRecord); `backward(record, upstream)`
  returns (input_gradient, {param_name: gradient}), with each parameter
  gradient summed over the batch
* ops preserve the input dtype, so the gradient-check harness can run the
  exact same code in float64

A convolution is an implicit GEMM. The zero-padded batch, flattened to
one row of c_in values per padded cell, puts the input cell that kernel
tap (ki, kj) reads for output row r at row r + ki*(w+2p) + kj. So each
tap is one GEMM over a contiguous block of rows, accumulated into one
buffer, and no patch matrix is ever copied; the rows that straddle a
border or two samples are junk and are sliced off at the end.

The fractionally strided (transposed) convolution is, by definition, a
sparse matrix times the flattened input: the rows enumerate output cells,
the columns enumerate input cells and the stored values are kernel
elements. `tconv_sparse_matrix` builds that matrix literally and the tests
keep it as the oracle. `tconv_forward` computes the same map as one GEMM
per kernel tap, accumulated into a strided slice of the output; its
backward pass, the product with the matrix's transpose, gathers all the
taps' slices into one block and needs one GEMM per gradient. Neither holds
an array the size of the matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import as_strided

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


def _check_batch(x: np.ndarray, op: str) -> None:
    if x.ndim != 4:
        raise ShapeError(f"{op} expects an (N, h, w, c) batch, got {x.shape}")


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def _tap_rows(spec: ConvSpec, in_shape) -> tuple[list[tuple[int, int, int]], int]:
    """Each tap's (ki, kj, row offset) and the row count every tap GEMM spans."""
    n, h, w, _ = in_shape
    kh, kw = spec.kernel
    hp, wp = h + 2 * spec.padding, w + 2 * spec.padding
    taps = [(ki, kj, ki * wp + kj) for ki in range(kh) for kj in range(kw)]
    return taps, n * hp * wp - taps[-1][2]


def _strided_cells(grid: np.ndarray, oh: int, ow: int, s: int) -> np.ndarray:
    """The (N, oh, ow, c) cells of a stride-1 map that a stride-s conv keeps."""
    return grid[:, :s * (oh - 1) + 1:s, :s * (ow - 1) + 1:s]


def conv2d_forward(x: np.ndarray, weights: np.ndarray, bias: np.ndarray,
                   spec: ConvSpec) -> tuple[np.ndarray, OpRecord]:
    """Cross-correlation plus bias. x: (N,h,w,c_in), weights: (kh,kw,c_in,c_out).

    One GEMM per kernel tap over the flattened padded batch (see the module
    docstring); stride s keeps every s-th cell of the stride-1 map.
    """
    _check_batch(x, "conv")
    if x.shape[3] != spec.in_channels:
        raise ShapeError(f"conv input shape {x.shape} does not match in_channels={spec.in_channels}")
    kh, kw = spec.kernel
    ci, co = spec.in_channels, spec.out_channels
    if weights.shape != (kh, kw, ci, co):
        raise ShapeError(f"conv weights shape {weights.shape} != {(kh, kw, ci, co)}")
    if bias.shape != (co,):
        raise ShapeError(f"conv bias shape {bias.shape} != ({co},)")
    n, h, w, _ = x.shape
    oh = spec.out_dim(h, 0)
    ow = spec.out_dim(w, 1)

    p = spec.padding
    dtype = np.result_type(x, weights)
    padded = np.zeros((n, h + 2 * p, w + 2 * p, ci), dtype=x.dtype)
    padded[:, p:p + h, p:p + w] = x
    rows = padded.reshape(-1, ci)
    taps, length = _tap_rows(spec, x.shape)
    acc = np.empty((rows.shape[0], co), dtype=dtype)
    prod = np.empty((length, co), dtype=dtype)
    for t, (ki, kj, off) in enumerate(taps):
        np.matmul(rows[off:off + length], weights[ki, kj], out=acc[:length] if t == 0 else prod)
        if t:
            acc[:length] += prod
    out = _strided_cells(acc.reshape(padded.shape[:3] + (co,)), oh, ow, spec.stride)
    out += bias
    rec = _record("conv2d", out.shape, rows=rows, weights=weights,
                  in_shape=x.shape, spec=spec)
    return out, rec


def _conv2d_backward(rec: OpRecord, up: np.ndarray, input_grad: bool = True):
    rows = rec.saved["rows"]
    weights = rec.saved["weights"]
    spec: ConvSpec = rec.saved["spec"]
    n, h, w, ci = rec.saved["in_shape"]
    _, oh, ow, co = rec.out_shape
    p = spec.padding
    taps, length = _tap_rows(spec, (n, h, w, ci))

    # the upstream gradient on the padded grid, zero on every junk row
    grid = np.zeros((n, h + 2 * p, w + 2 * p, co), dtype=up.dtype)
    _strided_cells(grid, oh, ow, spec.stride)[...] = up
    up_rows = grid.reshape(-1, co)[:length]
    d_weights = np.empty(weights.shape, dtype=up.dtype)
    for ki, kj, off in taps:
        d_weights[ki, kj] = rows[off:off + length].T @ up_rows
    grads = {"weights": d_weights, "bias": up.sum(axis=(0, 1, 2))}
    if not input_grad:
        return None, grads

    d_rows = np.zeros((rows.shape[0], ci), dtype=up.dtype)
    prod = np.empty((length, ci), dtype=up.dtype)
    for ki, kj, off in taps:
        np.matmul(up_rows, weights[ki, kj].T, out=prod)
        d_rows[off:off + length] += prod
    dx = d_rows.reshape(n, h + 2 * p, w + 2 * p, ci)[:, p:p + h, p:p + w]
    return dx, grads


# ---------------------------------------------------------------------------
# max pooling
# ---------------------------------------------------------------------------

def _window_cells(x: np.ndarray) -> list[np.ndarray]:
    """The four cells of every disjoint 2x2 window, in row-major order."""
    return [x[:, i::2, j::2] for i in (0, 1) for j in (0, 1)]


# the row-major index of each cell of a window, laid out as (row, ., col, .)
_CELL_INDEX = np.arange(4, dtype=np.uint8).reshape(2, 1, 2, 1)


def maxpool2x2_forward(x: np.ndarray) -> tuple[np.ndarray, OpRecord]:
    """Disjoint 2x2 window max per channel; ties go to the first cell row-major."""
    _check_batch(x, "maxpool")
    _, h, w, _ = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool needs even spatial dims, got {h}x{w}")
    cells = _window_cells(x)
    out = np.maximum(np.maximum(cells[0], cells[1]), np.maximum(cells[2], cells[3]))
    winner = np.full(out.shape, 3, dtype=np.uint8)
    for k in (2, 1, 0):  # descending, so the first maximal cell has the last word
        winner[cells[k] == out] = k
    rec = _record("maxpool2x2", out.shape, winner=winner, in_shape=x.shape)
    return out, rec


def _maxpool_backward(rec: OpRecord, up: np.ndarray):
    n, h, w, c = rec.saved["in_shape"]
    winner = rec.saved["winner"][:, :, None, :, None, :]
    dx = (winner == _CELL_INDEX) * up[:, :, None, :, None, :]
    return dx.reshape(n, h, w, c), {}


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

def activation_forward(x: np.ndarray, kind: str) -> tuple[np.ndarray, OpRecord]:
    """Elementwise relu, tanh or sigmoid of an array of any shape."""
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
# fractionally strided convolution
# ---------------------------------------------------------------------------

@dataclass
class SparseMatrix:
    """COO triplets sorted by (row, col), duplicate-free.

    For a transposed convolution the rows enumerate flattened output cells
    (row-major spatial, then channel) and the columns enumerate input
    cells, both of one sample.
    """

    rows: int
    cols: int
    row: np.ndarray
    col: np.ndarray
    val: np.ndarray
    out_dims: tuple

    @property
    def nnz(self) -> int:
        return self.row.size

    def matvec(self, x: np.ndarray) -> np.ndarray:
        if x.shape != (self.cols,):
            raise ShapeError(f"matvec expects vector of length {self.cols}, got {x.shape}")
        return np.bincount(self.row, weights=self.val * x[self.col],
                           minlength=self.rows).astype(x.dtype)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.rows, self.cols), dtype=self.val.dtype)
        dense[self.row, self.col] = self.val
        return dense


def _check_tconv_weights(weights: np.ndarray, stride: int) -> None:
    if weights.ndim != 4 or weights.shape[0] != weights.shape[1]:
        raise ShapeError(f"tconv weights must be (k,k,c_in,c_out), got {weights.shape}")
    if stride < 1:
        raise ShapeError("stride must be >= 1")


def tconv_sparse_matrix(weights: np.ndarray, in_dims: tuple[int, int],
                        stride: int) -> SparseMatrix:
    """Build the (out cells) x (in cells) matrix of a transposed convolution.

    weights: (k, k, c_in, c_out); output spatial size is (in-1)*stride + k per
    axis. Every structural entry is stored even when the kernel value is 0.
    This is the literal definition of the op on one sample; `tconv_forward`
    computes the same map without materializing it.
    """
    _check_tconv_weights(weights, stride)
    k, _, ci, co = weights.shape
    in_h, in_w = in_dims
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
    return SparseMatrix(
        rows=out_h * out_w * co,
        cols=in_h * in_w * ci,
        row=row[order], col=col[order],
        val=weights.reshape(-1)[kidx[order]],
        out_dims=(out_h, out_w, co),
    )


def _tap(up: np.ndarray, ki: int, kj: int, s: int, in_h: int, in_w: int) -> np.ndarray:
    """The strided (N, in_h, in_w, c) slice of an output batch that tap (ki, kj) writes."""
    return up[:, ki:ki + s * (in_h - 1) + 1:s, kj:kj + s * (in_w - 1) + 1:s]


def tconv_forward(x: np.ndarray, weights: np.ndarray, bias: np.ndarray,
                  stride: int) -> tuple[np.ndarray, OpRecord]:
    """Transposed convolution: out[s*i+ki, s*j+kj] += x[i, j] @ weights[ki, kj], plus bias.

    x: (N, h, w, c_in), weights: (k, k, c_in, c_out); the output is
    (N, (h-1)*s + k, (w-1)*s + k, c_out). One GEMM per kernel tap,
    accumulated into the tap's strided slice of the output.
    """
    _check_tconv_weights(weights, stride)
    k, _, ci, co = weights.shape
    _check_batch(x, "tconv")
    if x.shape[3] != ci:
        raise ShapeError(f"tconv input shape {x.shape} does not match c_in={ci}")
    if bias.shape != (co,):
        raise ShapeError(f"tconv bias shape {bias.shape} != ({co},)")
    n, h, w, _ = x.shape
    s = stride
    out = np.zeros((n, (h - 1) * s + k, (w - 1) * s + k, co),
                   dtype=np.result_type(x, weights))
    x_mat = x.reshape(n * h * w, ci)
    for ki in range(k):
        for kj in range(k):
            _tap(out, ki, kj, s, h, w)[...] += (x_mat @ weights[ki, kj]).reshape(n, h, w, co)
    out += bias
    rec = _record("tconv", out.shape, x=x, weights=weights, stride=stride)
    return out, rec


def _tconv_backward(rec: OpRecord, up: np.ndarray):
    x = rec.saved["x"]
    weights = rec.saved["weights"]
    s = rec.saved["stride"]
    k, _, ci, co = weights.shape
    n, in_h, in_w, _ = x.shape
    # taps[n, i, j, ki, kj] = up[n, s*i + ki, s*j + kj]: every tap's slice of
    # the upstream gradient, gathered into one block by a single copy
    sn, sh, sw, sc = up.strides
    taps = as_strided(up, (n, in_h, in_w, k, k, co), (sn, s * sh, s * sw, sh, sw, sc),
                      writeable=False)
    taps = np.ascontiguousarray(taps).reshape(n * in_h * in_w, k * k * co)
    dx = taps @ weights.transpose(0, 1, 3, 2).reshape(k * k * co, ci)
    d_weights = (x.reshape(-1, ci).T @ taps).reshape(ci, k, k, co).transpose(1, 2, 0, 3)
    return dx.reshape(x.shape), {"weights": np.ascontiguousarray(d_weights),
                                 "bias": up.sum(axis=(0, 1, 2))}


# ---------------------------------------------------------------------------
# symmetric crop (decoder trims transposed-conv overshoot)
# ---------------------------------------------------------------------------

def crop2d_forward(x: np.ndarray, margin: int) -> tuple[np.ndarray, OpRecord]:
    _check_batch(x, "crop")
    _, h, w, _ = x.shape
    if h <= 2 * margin or w <= 2 * margin:
        raise ShapeError(f"cannot crop {margin} from {h}x{w}")
    out = x[:, margin:h - margin, margin:w - margin]
    rec = _record("crop2d", out.shape, in_shape=x.shape, margin=margin)
    return out, rec


def _crop2d_backward(rec: OpRecord, up: np.ndarray):
    _, h, w, _ = rec.saved["in_shape"]
    m = rec.saved["margin"]
    dx = np.zeros(rec.saved["in_shape"], dtype=up.dtype)
    dx[:, m:h - m, m:w - m] = up
    return dx, {}


# ---------------------------------------------------------------------------
# binary cross-entropy
# ---------------------------------------------------------------------------

def bce_loss(pred: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, OpRecord]:
    """Per-sample mean of -[t ln p + (1-t) ln(1-p)] with p clamped to [1e-7, 1-1e-7].

    pred and target are (N, ...) batches; the result is a float64 array of
    N losses, one mean over each sample's entries. The reductions run in
    float64 regardless of input dtype. `backward(record, g)` is the
    gradient of g times the sum of the N losses.
    """
    if pred.shape != target.shape:
        raise ShapeError(f"pred shape {pred.shape} != target shape {target.shape}")
    if pred.ndim < 2:
        raise ShapeError(f"bce expects an (N, ...) batch, got {pred.shape}")
    if not np.all((target == 0) | (target == 1)):
        raise InvalidTargetError("bce target must contain only 0 and 1")
    p = np.clip(pred.astype(np.float64), BCE_EPS, 1.0 - BCE_EPS)
    t = target.astype(np.float64)
    terms = t * np.log(p) + (1.0 - t) * np.log1p(-p)
    losses = -np.mean(terms.reshape(len(pred), -1), axis=1)
    rec = _record("bce", (), pred=pred, target=target)
    return losses, rec


def _bce_backward(rec: OpRecord, up):
    pred = rec.saved["pred"]
    target = rec.saved["target"]
    p = np.clip(pred, BCE_EPS, 1.0 - BCE_EPS).astype(pred.dtype)
    inside = (pred > BCE_EPS) & (pred < 1.0 - BCE_EPS)
    dpred = (p - target) / (p * (1.0 - p)) / (pred.size // len(pred))
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


def backward(rec: OpRecord, upstream,
             input_grad: bool = True) -> tuple[np.ndarray | None, dict[str, np.ndarray]]:
    """Run one op's backward pass. `upstream` must match the recorded output shape.

    With input_grad=False a conv computes only its parameter gradients and
    returns None for the input's: a network's first conv reads the images,
    whose gradient nothing uses.
    """
    if rec.kind == "bce":
        up = float(upstream)
    else:
        up = np.asarray(upstream)
        if up.shape != rec.out_shape:
            raise ShapeError(f"upstream shape {up.shape} != recorded output shape {rec.out_shape}")
    if not input_grad:
        if rec.kind != "conv2d":
            raise ValueError(f"op kind {rec.kind!r} always returns its input gradient")
        return _conv2d_backward(rec, up, input_grad=False)
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
