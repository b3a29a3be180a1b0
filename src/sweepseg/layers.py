"""Differentiable primitives with hand-written backward passes.

Conventions used throughout:

* every op runs on a batch: feature maps are channel-last ndarrays
  (N, h, w, c), one sample per index of the leading axis; vectors are 1-D
* convolution means cross-correlation (no kernel flip)
* every forward returns (output, OpRecord), and the record names its own
  backward function (`record.grad`); `backward(record, upstream)` runs it
  and returns (input_gradient, {param_name: gradient}), with each
  parameter gradient summed over the batch
* ops preserve the input dtype, so the gradient-check harness can run the
  exact same code in float64
* a conv or transposed conv can end in a fused relu (conv+bias+activation
  in one op); its record then keeps the relu's mask, and `backward`
  applies the mask to the upstream gradient before the op's own backward

A convolution, `conv2d_forward(x, weights, bias, padding, relu)`, is
stride 1 with its kernel size and channels read from the (k, k, c_in,
c_out) weights, and it is an implicit GEMM. The zero-padded batch,
flattened to one row of c_in values per padded cell, puts the input cell
that kernel tap (ki, kj) reads for output row r at row r + ki*(w+2p) + kj.
So each tap is one GEMM over a contiguous block of rows, accumulated into
one buffer, and no patch matrix is ever copied; the rows that straddle a
border or two samples are junk and are sliced off at the end. The input
gradient is the same tap loop run on the upstream gradient with the
flipped, transposed kernel at padding k-1-p: a stride-1 conv's input
gradient is a full correlation (Dumoulin & Visin, arXiv:1603.07285).

The fractionally strided (transposed) convolution is, by definition, a
sparse matrix times the flattened input: the rows enumerate output cells,
the columns enumerate input cells and the stored values are kernel
elements. `tconv_sparse_matrix` builds that matrix literally and the tests
keep it as the oracle. `tconv_forward` computes the same map as a phase-
split convolution: a stride-s transposed conv is a stride-1 conv whose
s*s output channel blocks are the s*s phases of the output grid, followed
by a depth-to-space shuffle (the sub-pixel convolution); padding p cuts
p cells from each side of its (i-1)*s + k output. Its backward pass, the
product with the matrix's transpose, gathers all the taps' slices of the
upstream gradient into one block and needs one GEMM per gradient. Neither
holds an array the size of the matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import InvalidTargetError, ShapeError

BCE_EPS = 1e-7


@dataclass
class OpRecord:
    """One op's backward function and the cached values it needs; single consumer."""

    kind: str
    out_shape: tuple
    grad: Callable
    saved: dict = field(default_factory=dict)


def _record(kind: str, out_shape, grad: Callable, **saved) -> OpRecord:
    return OpRecord(kind=kind, out_shape=tuple(out_shape), grad=grad, saved=saved)


def _check_batch(x: np.ndarray, op: str) -> None:
    if x.ndim != 4:
        raise ShapeError(f"{op} expects an (N, h, w, c) batch, got {x.shape}")


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

# Rows per block of the conv forward's tap loop: one block's input rows,
# product and accumulator stay in L2 across its taps. A 16->16 conv, one
# BLAS thread on a 2-vCPU Xeon VM, best of 5x30 calls, took 3.8 ms
# unblocked and 2.5 / 2.0 / 2.9 ms with blocks of 1024 / 2048 / 4096 rows
# at N=4, 64 px (3.9 ms and 3.1 / 2.7 / 3.4 ms at N=1, 128 px).
_BLOCK_ROWS = 2048


def _tap_rows(k: int, padding: int, in_shape) -> tuple[list[tuple[int, int, int]], int]:
    """Each tap's (ki, kj, row offset) and the row count every tap GEMM spans."""
    n, h, w, _ = in_shape
    hp, wp = h + 2 * padding, w + 2 * padding
    taps = [(ki, kj, ki * wp + kj) for ki in range(k) for kj in range(k)]
    return taps, n * hp * wp - taps[-1][2]


def _check_kernel(weights: np.ndarray, stride: int = 1) -> None:
    if weights.ndim != 4 or weights.shape[0] != weights.shape[1]:
        raise ShapeError(f"kernel weights must be (k,k,c_in,c_out), got {weights.shape}")
    if stride < 1:
        raise ShapeError("stride must be >= 1")


def conv2d_forward(x: np.ndarray, weights: np.ndarray, bias: np.ndarray,
                   padding: int, relu: bool = False) -> tuple[np.ndarray, OpRecord]:
    """Stride-1 cross-correlation plus bias. x: (N,h,w,c_in), weights: (k,k,c_in,c_out).

    The output is (N, h+2p-k+1, w+2p-k+1, c_out). One GEMM per kernel tap
    over the flattened padded batch (see the module docstring), run block
    by block of _BLOCK_ROWS rows, each block then relu'd in place if asked.
    """
    _check_kernel(weights)
    _check_batch(x, "conv")
    k, _, ci, co = weights.shape
    if x.shape[3] != ci:
        raise ShapeError(f"conv input shape {x.shape} does not match c_in={ci}")
    if bias.shape != (co,):
        raise ShapeError(f"conv bias shape {bias.shape} != ({co},)")
    n, h, w, _ = x.shape
    p = padding
    if p < 0 or min(h, w) + 2 * p < k:
        raise ShapeError(f"conv output dim < 1 for input {h}x{w}, kernel {k}, padding {p}")

    dtype = np.result_type(x, weights)
    padded = np.zeros((n, h + 2 * p, w + 2 * p, ci), dtype=x.dtype)
    padded[:, p:p + h, p:p + w] = x
    rows = padded.reshape(-1, ci)
    taps, length = _tap_rows(k, p, x.shape)
    acc = np.empty((rows.shape[0], co), dtype=dtype)
    prod = np.empty((min(length, _BLOCK_ROWS), co), dtype=dtype)
    for start in range(0, length, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, length)
        block = acc[start:stop]
        for t, (ki, kj, off) in enumerate(taps):
            np.matmul(rows[start + off:stop + off], weights[ki, kj],
                      out=block if t == 0 else prod[:stop - start])
            if t:
                block += prod[:stop - start]
        block += bias
        if relu:
            np.maximum(block, 0, out=block)
    out = acc.reshape(padded.shape[:3] + (co,))[:, :h + 2 * p - k + 1, :w + 2 * p - k + 1]
    rec = _record("conv2d", out.shape, _conv2d_backward, rows=rows, weights=weights,
                  in_shape=x.shape, padding=p, relu_mask=out > 0 if relu else None)
    return out, rec


def _bias_grad(up: np.ndarray) -> np.ndarray:
    """The channel sums of an (N, h, w, c) gradient, as one GEMV."""
    rows = up.reshape(-1, up.shape[-1])
    return np.ones(rows.shape[0], dtype=up.dtype) @ rows


def _conv2d_backward(rec: OpRecord, up: np.ndarray, input_grad: bool = True):
    rows = rec.saved["rows"]
    weights = rec.saved["weights"]
    p = rec.saved["padding"]
    n, h, w, ci = rec.saved["in_shape"]
    k, _, _, co = weights.shape
    taps, length = _tap_rows(k, p, (n, h, w, ci))

    # the upstream gradient on the padded grid, zero on every junk row
    grid = np.zeros((n, h + 2 * p, w + 2 * p, co), dtype=up.dtype)
    grid[:, :up.shape[1], :up.shape[2]] = up
    up_rows = grid.reshape(-1, co)[:length]
    d_weights = np.empty(weights.shape, dtype=up.dtype)
    for ki, kj, off in taps:
        d_weights[ki, kj] = rows[off:off + length].T @ up_rows
    grads = {"weights": d_weights, "bias": _bias_grad(up)}
    if not input_grad:
        return None, grads

    # `up` fully correlated with the flipped, transposed kernel at padding
    # k-1-p; for p > k-1 that padding is negative: run at 0, crop p-(k-1)
    flipped = weights[::-1, ::-1].transpose(0, 1, 3, 2)
    q = k - 1 - p
    dx, _ = conv2d_forward(up, flipped, np.zeros(ci, dtype=up.dtype), max(q, 0))
    if q < 0:
        dx = dx[:, -q:h - q, -q:w - q]
    return dx, grads


# ---------------------------------------------------------------------------
# max pooling
# ---------------------------------------------------------------------------

def _window_cells(x: np.ndarray) -> list[np.ndarray]:
    """The four cells of every disjoint 2x2 window, in row-major order."""
    return [x[:, i::2, j::2] for i in (0, 1) for j in (0, 1)]


def maxpool2x2_forward(x: np.ndarray) -> tuple[np.ndarray, OpRecord]:
    """Disjoint 2x2 window max per channel; ties go to the first cell row-major."""
    _check_batch(x, "maxpool")
    _, h, w, _ = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool needs even spatial dims, got {h}x{w}")
    cells = _window_cells(x)
    out = np.maximum(np.maximum(cells[0], cells[1]), np.maximum(cells[2], cells[3]))
    rec = _record("maxpool2x2", out.shape, _maxpool_backward, x=x, out=out)
    return out, rec


def _maxpool_backward(rec: OpRecord, up: np.ndarray):
    """Each window's gradient goes to its first maximal cell in row-major
    order, or to its last cell when none matches (a NaN window)."""
    out = rec.saved["out"]
    cells = _window_cells(rec.saved["x"])
    dx = np.empty(rec.saved["x"].shape, dtype=up.dtype)
    d_cells = _window_cells(dx)
    free = np.ones(out.shape, dtype=bool)  # windows whose winner is still open
    for k in range(3):
        won = np.equal(cells[k], out)
        won &= free
        np.multiply(up, won, out=d_cells[k])
        free ^= won
    np.multiply(up, free, out=d_cells[3])
    return dx, {}


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

def activation_forward(x: np.ndarray) -> tuple[np.ndarray, OpRecord]:
    """Elementwise sigmoid, the network's output head (relus run inside the convs)."""
    # e = exp(-|x|) never overflows: 1/(1+e^-x) for x >= 0, e^x/(1+e^x)
    # below; min(x, -x) is -|x| with a NaN's sign kept, as exp(x) keeps it
    e = np.exp(np.minimum(x, -x))
    out = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return out, _record("activation", out.shape, _activation_backward, out=out)


def _activation_backward(rec: OpRecord, up: np.ndarray):
    out = rec.saved["out"]
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


def tconv_sparse_matrix(weights: np.ndarray, in_dims: tuple[int, int],
                        stride: int) -> SparseMatrix:
    """Build the (out cells) x (in cells) matrix of a transposed convolution.

    weights: (k, k, c_in, c_out); output spatial size is (in-1)*stride + k per
    axis. Every structural entry is stored even when the kernel value is 0.
    This is the literal definition of the op on one sample; `tconv_forward`
    computes the same map without materializing it.
    """
    _check_kernel(weights, stride)
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


def tconv_forward(x: np.ndarray, weights: np.ndarray, bias: np.ndarray, stride: int,
                  padding: int, relu: bool = False) -> tuple[np.ndarray, OpRecord]:
    """Transposed convolution: full[s*i+ki, s*j+kj] += x[i, j] @ weights[ki, kj], plus bias.

    The output is full cut by p cells per side, then relu if asked: for x
    (N, h, w, c_in) and weights (k, k, c_in, c_out) it is
    (N, (h-1)*s + k - 2p, (w-1)*s + k - 2p, c_out). Computed as a stride-1
    conv with s*s output phases (see `_phase_kernel`), padding q-1 with
    q = ceil(k/s), then a depth-to-space shuffle and one slice.
    """
    _check_kernel(weights, stride)
    k, _, ci, co = weights.shape
    _check_batch(x, "tconv")
    if x.shape[3] != ci:
        raise ShapeError(f"tconv input shape {x.shape} does not match c_in={ci}")
    if bias.shape != (co,):
        raise ShapeError(f"tconv bias shape {bias.shape} != ({co},)")
    n, h, w, _ = x.shape
    s, p = stride, padding
    if p < 0 or (min(h, w) - 1) * s + k <= 2 * p:
        raise ShapeError(f"tconv output dim < 1 for input {h}x{w}, kernel {k}, "
                         f"stride {s}, padding {p}")
    q = -(-k // s)
    phases, _ = conv2d_forward(x, _phase_kernel(weights, s), np.tile(bias, s * s), q - 1)
    # depth to space: phase (rh, rw) of cell (m, l) is output cell (s*m+rh, s*l+rw)
    ph, pw = phases.shape[1:3]
    full = phases.reshape(n, ph, pw, s, s, co).transpose(0, 1, 3, 2, 4, 5)
    full = full.reshape(n, ph * s, pw * s, co)
    out = full[:, p:(h - 1) * s + k - p, p:(w - 1) * s + k - p]
    if relu:
        np.maximum(out, 0, out=out)
    rec = _record("tconv", out.shape, _tconv_backward, x=x, weights=weights, stride=s, padding=p,
                  relu_mask=out > 0 if relu else None)
    return out, rec


def _phase_kernel(weights: np.ndarray, s: int) -> np.ndarray:
    """The (q, q, c_in, s*s*c_out) conv kernel of a stride-s transposed conv.

    With the kernel zero-padded to q*s taps per axis and tap a = s*u + r,
    output cell s*m + r sums x[m-u] @ weights[s*u+r] over u: a correlation,
    at padding q-1, of x with the u-flipped kernel, one output channel
    block per phase (r_h, r_w).
    """
    k, _, ci, co = weights.shape
    q = -(-k // s)
    padded = np.zeros((q * s, q * s, ci, co), dtype=weights.dtype)
    padded[:k, :k] = weights
    split = padded.reshape(q, s, q, s, ci, co)[::-1, :, ::-1]
    return split.transpose(0, 2, 4, 1, 3, 5).reshape(q, q, ci, s * s * co)


def _tconv_backward(rec: OpRecord, up: np.ndarray):
    x = rec.saved["x"]
    weights = rec.saved["weights"]
    s, p = rec.saved["stride"], rec.saved["padding"]
    k, _, ci, co = weights.shape
    n, in_h, in_w, _ = x.shape
    up = np.pad(up, ((0, 0), (p, p), (p, p), (0, 0)))  # 0 on the p cells cut per side
    # taps[n, i, j, ki, kj] = up[n, s*i + ki, s*j + kj]: every tap's slice of
    # the upstream gradient, gathered into one block by a single copy
    sn, sh, sw, sc = up.strides
    taps = as_strided(up, (n, in_h, in_w, k, k, co), (sn, s * sh, s * sw, sh, sw, sc),
                      writeable=False)
    taps = np.ascontiguousarray(taps).reshape(n * in_h * in_w, k * k * co)
    dx = taps @ weights.transpose(0, 1, 3, 2).reshape(k * k * co, ci)
    d_weights = (x.reshape(-1, ci).T @ taps).reshape(ci, k, k, co).transpose(1, 2, 0, 3)
    return dx.reshape(x.shape), {"weights": np.ascontiguousarray(d_weights),
                                 "bias": _bias_grad(up)}


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
    rec = _record("bce", (), _bce_backward, pred=pred, target=target)
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
# backward and finite differences
# ---------------------------------------------------------------------------

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
        if rec.saved.get("relu_mask") is not None:  # a fused relu's gradient first
            up = up * rec.saved["relu_mask"]
    if input_grad:
        return rec.grad(rec, up)
    if rec.kind != "conv2d":
        raise ValueError(f"op kind {rec.kind!r} always returns its input gradient")
    return rec.grad(rec, up, input_grad=False)


def central_difference(f: Callable[[], float], arr: np.ndarray, fi: int,
                       h: float = 1e-3) -> float:
    """(f at arr.flat[fi] + h  -  f at arr.flat[fi] - h) / 2h; arr is restored."""
    orig = arr.flat[fi]
    arr.flat[fi] = orig + h
    f_plus = f()
    arr.flat[fi] = orig - h
    f_minus = f()
    arr.flat[fi] = orig
    return (f_plus - f_minus) / (2.0 * h)


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
        numeric = central_difference(f, arrays[ai], fi, h)
        analytic = float(grads[ai].flat[fi])
        err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
        worst = max(worst, err)
    return worst
