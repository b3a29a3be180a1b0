"""Differentiable primitives with hand-written backward passes.

Conventions used throughout:

* every op runs on a batch: feature maps are channel-last ndarrays
  (N, h, w, c), one sample per index of the leading axis; vectors are 1-D
* convolution means cross-correlation (no kernel flip)
* every forward returns (output, OpRecord), and the record names its own
  backward function (`record.grad`); `backward(record, upstream)` runs it
  and returns (input_gradient, {param_name: gradient}), with each
  parameter gradient summed over the batch; the loss, which ends the tape,
  returns its gradient in place of a record
* ops preserve the input dtype, so the gradient-check harness can run the
  exact same code in float64
* a conv can end in a fused relu (conv+bias+activation in one op, run in
  its tap loop), whose mask its own backward multiplies into the upstream
  gradient; its record keeps the mask, or, for an output on a padded grid
  that the next op holds anyway, that output, and reads `> 0` from it; a
  transposed conv's relu and mask are its phase conv's

A convolution, `conv2d_forward(x, weights, bias, padding, relu)`, is
stride 1 with its kernel size and channels read from the (k, k, c_in,
c_out) weights and its padding p from 0 to k-1, and it is an implicit GEMM.
The zero-padded batch, flattened to one row of c_in values per padded
cell, puts the input cell that kernel tap (ki, kj) reads for output row r
at row r + ki*(w+2p) + kj.
So each tap is one GEMM over a contiguous block of rows, accumulated into
one buffer, and no patch matrix is ever copied; the rows that straddle a
border or two samples are junk. The backward's upstream gradient lies on
the same padded grid with 0 on its junk rows; the weight gradient is one
GEMM per tap over those rows, and the input gradient is the same blocked
tap loop run on them with the flipped, transposed kernel, starting k-1-p
rows and columns early: a stride-1 conv's input gradient is a full
correlation (Dumoulin & Visin, arXiv:1603.07285).

The encoder chains its ops on zero-padded grids, one buffer per
activation. Shifted by p*(w+2p+1) rows (w+3 for a 3x3 conv), a same-size
conv's output cell r sits at its own cell of the next conv's padded grid,
and the junk rows, each sample's last 2p rows and columns, land exactly
on that grid's border, which is then zeroed: the output is the next
conv's padded input (`grid_out`), read in place (`grid_in`) with no pad
copy. The pool has this one form, between two convs: it reads the first
one's grid, applies that conv's relu (relu commutes with max bit for
bit), writes into the interior of a zeroed grid and keeps one uint8
winner per window instead of its input, so the conv's output is freed
once it is pooled. The backward mirrors this: a conv's input gradient is
written, by the same shift, onto the grid that the previous op's
backward reads, its border zeroed, and that backward masks it in place,
so no chained conv zeroes a fresh gradient buffer or copies its upstream
gradient into one. Every conv's bias gradient, a transposed conv's
included, is one GEMV over the rows that its weight-gradient GEMMs read,
zero junk rows and all; a same-size conv's output cell r lies at the same
one of those rows on either layout, so both sum the same values in the
same order.

The fractionally strided (transposed) convolution is, by definition, a
sparse matrix times the flattened input: the rows enumerate output cells,
the columns enumerate input cells and the stored values are kernel
elements. `tconv_sparse_matrix` builds that matrix literally and the tests
keep it as the oracle. `tconv_forward` computes the same map as a phase-
split convolution: a stride-s transposed conv is a stride-1 conv whose
s*s output channel blocks are the s*s phases of the output grid, followed
by a depth-to-space shuffle (the sub-pixel convolution); padding p cuts
p cells from each side of its (i-1)*s + k output; a fused relu runs in
the phase conv, as relu commutes with both. Its backward pass, the
product with the matrix's transpose, is that conv's backward: the
upstream gradient goes phase by phase into the conv's gradient buffer (a
space-to-depth write), takes the phase conv's relu mask there, and the
phase kernel's gradient maps back onto the kernel. Neither pass holds an
array the size of the matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

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


def _zero_border(grid: np.ndarray, p: int) -> None:
    """Zero the p cells along every side of an (N, H, W, c) grid, in place."""
    _, hp, wp, _ = grid.shape
    grid[:, :p] = 0
    grid[:, hp - p:] = 0
    grid[:, p:hp - p, :p] = 0
    grid[:, p:hp - p, wp - p:] = 0


def _tap_gemms(rows: np.ndarray, kernel: np.ndarray, taps, out: np.ndarray,
               bias: np.ndarray | None = None, relu: bool = False) -> None:
    """The blocked tap loop that a conv's forward and its input gradient share.

    Fills each row r of the (length, c_out) `out` with the sum over `taps`
    (ki, kj, offset) of rows[r + offset] @ kernel[ki, kj], plus bias and
    then relu if asked. The loop runs block by block of _BLOCK_ROWS rows,
    all taps per block.
    """
    length, co = out.shape
    prod = np.empty((min(length, _BLOCK_ROWS), co), dtype=out.dtype)
    for start in range(0, length, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, length)
        block = out[start:stop]
        for t, (ki, kj, off) in enumerate(taps):
            np.matmul(rows[start + off:stop + off], kernel[ki, kj],
                      out=block if t == 0 else prod[:stop - start])
            if t:
                block += prod[:stop - start]
        if bias is not None:
            block += bias
        if relu:
            np.maximum(block, 0, out=block)


def conv2d_forward(x: np.ndarray, weights: np.ndarray, bias: np.ndarray, padding: int,
                   relu: bool = False, grid_in: bool = False,
                   grid_out: bool = False) -> tuple[np.ndarray, OpRecord]:
    """Stride-1 cross-correlation plus bias. x: (N,h,w,c_in), weights: (k,k,c_in,c_out).

    The output is (N, h+2p-k+1, w+2p-k+1, c_out). One GEMM per kernel tap
    over the flattened padded batch (see the module docstring), run block
    by block of _BLOCK_ROWS rows, each block then relu'd in place if asked.

    With grid_in, x comes already on its zero-padded grid, (N, h+2p, w+2p,
    c_in), and is read in place; the input gradient then comes back on
    that grid, its border 0. With grid_out, which needs a same-size conv
    (k = 2p+1), the output is written straight onto the next conv's
    zero-padded grid, (N, h+2p, w+2p, c_out), and the upstream gradient
    must lie on that grid with its border 0; the backward takes it over
    and masks it in place.
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
    if grid_in:
        h, w = h - 2 * p, w - 2 * p
    if not 0 <= p < k:
        raise ShapeError(f"conv padding must lie in [0, {k - 1}] for kernel {k}, got {p}")
    if min(h, w) + 2 * p < k or (grid_in and min(h, w) < 1):
        raise ShapeError(f"conv output dim < 1 for input {h}x{w}, kernel {k}, padding {p}")
    if grid_out and k != 2 * p + 1:
        raise ShapeError(f"only a same-size conv (k = 2p+1) writes its output on the "
                         f"padded grid, got kernel {k} and padding {p}")

    hp, wp = h + 2 * p, w + 2 * p
    if grid_in:
        rows = x.reshape(-1, ci)
    else:
        padded = np.zeros((n, hp, wp, ci), dtype=x.dtype)
        padded[:, p:p + h, p:p + w] = x
        rows = padded.reshape(-1, ci)
    taps, length = _tap_rows(k, p, (n, h, w, ci))
    # output cell r sits at row r of the padded layout; shifted p*(wp+1)
    # rows on, it sits at its own cell of the next grid, and the junk rows
    # between land exactly on that grid's border
    shift = p * (wp + 1) if grid_out else 0
    acc = np.empty((n * hp * wp, co), dtype=np.result_type(rows, weights))
    _tap_gemms(rows, weights, taps, acc[shift:shift + length], bias, relu)
    grid = acc.reshape(n, hp, wp, co)
    if grid_out:
        _zero_border(grid, p)
        out = grid
    else:
        out = grid[:, :hp - k + 1, :wp - k + 1]
    # the relu's mask is `out > 0`: a grid output is the next conv's `rows`
    # anyway, so its record keeps the output; a compact one keeps the mask
    kept = (out if grid_out else out > 0) if relu else None
    rec = _record("conv2d", out.shape, _conv2d_backward, rows=rows, weights=weights,
                  in_shape=(n, h, w, ci), padding=p, grid_in=grid_in, grid_out=grid_out,
                  relu=kept)
    return out, rec


def _grad_buffer(rec: OpRecord, dtype) -> tuple[np.ndarray, np.ndarray]:
    """A conv's zero gradient buffer and its (N, h+2p, w+2p, c_out) grid view.

    The grid is the forward's padded grid, so output cell r of the conv
    sits at grid row r, as its input cell did in `rows`. It follows
    q * (w+2p+1) zero rows, q = k-1-p, which the input gradient's tap loop
    reads when it starts q rows and q columns before the grid.
    """
    n, h, w, _ = rec.saved["in_shape"]
    p = rec.saved["padding"]
    k, _, _, co = rec.saved["weights"].shape
    hp, wp = h + 2 * p, w + 2 * p
    front = (k - 1 - p) * (wp + 1)
    buf = np.zeros((front + n * hp * wp, co), dtype=dtype)
    return buf, buf[front:].reshape(n, hp, wp, co)


def _conv_grads(rec: OpRecord, buf: np.ndarray, input_grad: bool):
    """dx (or None) and {"weights", "bias"} of a conv whose upstream
    gradient fills `buf`'s grid: one GEMM per tap for dW, and the bias
    gradient as one GEMV over the same rows, whose junk rows are 0."""
    rows = rec.saved["rows"]
    weights = rec.saved["weights"]
    p = rec.saved["padding"]
    n, h, w, ci = rec.saved["in_shape"]
    k = weights.shape[0]
    hp, wp = h + 2 * p, w + 2 * p
    q = k - 1 - p
    taps, length = _tap_rows(k, p, rec.saved["in_shape"])

    up_rows = buf[q * (wp + 1):][:length]  # zero on every junk row
    d_weights = np.empty(weights.shape, dtype=buf.dtype)
    for ki, kj, off in taps:
        d_weights[ki, kj] = rows[off:off + length].T @ up_rows
    grads = {"weights": d_weights, "bias": np.ones(length, dtype=buf.dtype) @ up_rows}
    if not input_grad:
        return None, grads

    # padded input row t gets grid row t - (ki*wp + kj) times weights[ki, kj].T
    # from each tap: the tap loop with the flipped, transposed kernel, read
    # from (k-1)*(wp+1) rows before t. Input cell r sits at t = r + p*(wp+1),
    # so its reads start q*(wp+1) rows before grid row r; on a grid input,
    # row r of the loop is written to row t, as the forward shifts its output
    flipped = np.ascontiguousarray(weights[::-1, ::-1].transpose(0, 1, 3, 2))
    shift = p * (wp + 1) if rec.saved["grid_in"] else 0
    dx = np.empty((n * hp * wp, ci), dtype=np.result_type(buf, flipped))
    _tap_gemms(buf, flipped, taps, dx[shift:shift + n * hp * wp - 2 * p * (wp + 1)])
    dx = dx.reshape(n, hp, wp, ci)
    if rec.saved["grid_in"]:
        _zero_border(dx, p)
        return dx, grads
    return dx[:, :h, :w], grads


def _conv2d_backward(rec: OpRecord, up: np.ndarray, input_grad: bool = True):
    """The upstream gradient, times the relu's mask, lies once on the
    output's padded grid, and `_conv_grads` reads it there.

    A grid output's gradient already lies on that grid and is masked in
    place; a compact one is written, masked, into a zero gradient buffer.
    """
    relu = rec.saved["relu"]
    if rec.saved["grid_out"]:
        if relu is not None:
            np.multiply(up, relu > 0, out=up)
        buf = up.reshape(-1, up.shape[-1])
    else:
        buf, grid = _grad_buffer(rec, up.dtype)
        dst = grid[:, :up.shape[1], :up.shape[2]]
        if relu is None:
            dst[...] = up
        else:
            np.multiply(up, relu, out=dst)
    return _conv_grads(rec, buf, input_grad)


# ---------------------------------------------------------------------------
# max pooling
# ---------------------------------------------------------------------------

def _window_cells(x: np.ndarray) -> list[np.ndarray]:
    """The four cells of every disjoint 2x2 window, in row-major order."""
    return [x[:, i::2, j::2] for i in (0, 1) for j in (0, 1)]


def maxpool2x2_forward(x: np.ndarray, keep_winner: bool = True) -> tuple[np.ndarray, OpRecord]:
    """Relu, then disjoint 2x2 window max per channel, of a conv's output grid.

    x is the zero-padded output grid (N, h+2, w+2, c) of the conv before
    the pool, whose relu the pool applies (relu commutes with max bit for
    bit); the relu'd max of its interior is written into the interior of a
    zeroed (N, h/2+2, w/2+2, c) grid for the next conv. The record keeps
    one uint8 winner per window instead of x, so the conv's output is
    freed once it is pooled; ties go to the first cell row-major. The
    upstream gradient lies on the output grid and the input gradient on
    x's, border 0. A forward that no backward follows passes
    keep_winner=False, and the pool then skips the winners, so its record
    has no backward.
    """
    _check_batch(x, "maxpool")
    inner = x[:, 1:-1, 1:-1]
    n, h, w, c = inner.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool needs even spatial dims, got {h}x{w}")
    cells = _window_cells(inner)
    top = np.maximum(np.maximum(cells[0], cells[1]), np.maximum(cells[2], cells[3]))
    saved = {"winner": _winners(cells, top)} if keep_winner else {}
    out = np.empty((n, h // 2 + 2, w // 2 + 2, c), dtype=x.dtype)
    _zero_border(out, 1)
    np.maximum(top, 0, out=out[:, 1:-1, 1:-1])
    return out, _record("maxpool2x2", out.shape, _maxpool_backward, in_shape=x.shape, **saved)


def _winners(cells: list[np.ndarray], top: np.ndarray) -> np.ndarray:
    """Each window's winner: the first cell equal to the window's max `top`
    in row-major order, or cell 3 when none is (a NaN window), plus 4
    where that cell is not above 0, so that the relu passes the window no
    gradient."""
    # with n_k = (cell k != top), the first match is n0 * (1 + n1 * (1 + n2))
    winner = np.not_equal(cells[2], top).view(np.uint8)
    winner += 1
    winner *= np.not_equal(cells[1], top).view(np.uint8)
    winner += 1
    winner *= np.not_equal(cells[0], top).view(np.uint8)
    # the winner is above 0 iff the max is, or, in a NaN window, cell 3 is;
    # elsewhere cell 3 above 0 means the max is too
    alive = np.greater(top, 0)
    alive |= np.greater(cells[3], 0)
    winner += np.logical_not(alive).view(np.uint8) * np.uint8(4)
    return winner


def _maxpool_backward(rec: OpRecord, up: np.ndarray):
    """Each window's gradient goes to its winner cell, to none where the
    relu cut it (a winner of 4 or more); dx lies on the conv's output grid,
    border 0."""
    winner = rec.saved["winner"]
    dx = np.empty(rec.saved["in_shape"], dtype=up.dtype)
    _zero_border(dx, 1)
    d_cells = _window_cells(dx[:, 1:-1, 1:-1])
    inner = up[:, 1:-1, 1:-1]
    for k in range(4):
        np.multiply(inner, winner == k, out=d_cells[k])
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

    The output is full cut by p cells per side, relu'd if asked: for x
    (N, h, w, c_in) and weights (k, k, c_in, c_out) it is
    (N, (h-1)*s + k - 2p, (w-1)*s + k - 2p, c_out). Computed as a stride-1
    conv with s*s output phases (see `_phase_kernel`) and the fused relu,
    padding q-1 with q = ceil(k/s), then a depth-to-space shuffle and one slice.
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
    phases, phase = conv2d_forward(x, _phase_kernel(weights, s), np.tile(bias, s * s), q - 1,
                                   relu=relu)
    # depth to space: phase (rh, rw) of cell (m, l) is output cell (s*m+rh, s*l+rw)
    ph, pw = phases.shape[1:3]
    full = phases.reshape(n, ph, pw, s, s, co).transpose(0, 1, 3, 2, 4, 5)
    full = full.reshape(n, ph * s, pw * s, co)
    out = full[:, p:(h - 1) * s + k - p, p:(w - 1) * s + k - p]
    rec = _record("tconv", out.shape, _tconv_backward, phase=phase, kernel=k, stride=s,
                  padding=p)
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
    """The phase conv's backward: the upstream gradient goes phase by phase
    straight into the phase conv's gradient buffer (a space-to-depth write;
    the p cells cut per side stay 0), then takes the phase conv's relu mask;
    dW is the phase kernel's gradient with `_phase_kernel` undone and the
    bias gradient the sum of the s*s phases' bias gradients."""
    phase = rec.saved["phase"]
    s, p, k = rec.saved["stride"], rec.saved["padding"], rec.saved["kernel"]
    n, ph, pw, c = phase.out_shape
    co = c // (s * s)
    buf, grid = _grad_buffer(phase, up.dtype)
    cells = grid.reshape(grid.shape[:3] + (s, s, co))
    for rh in range(s):
        for rw in range(s):
            # output cell (y, x) is phase (rh, rw) of cell ((y+p) // s, (x+p) // s)
            y0, x0 = (rh - p) % s, (rw - p) % s
            src = up[:, y0::s, x0::s]
            m0, l0 = (y0 + p) // s, (x0 + p) // s
            cells[:, m0:m0 + src.shape[1], l0:l0 + src.shape[2], rh, rw] = src
    mask = phase.saved["relu"]
    if mask is not None:
        np.multiply(grid[:, :ph, :pw], mask, out=grid[:, :ph, :pw])
    dx, grads = _conv_grads(phase, buf, input_grad=True)
    d_phase = grads["weights"]
    d_bias = grads["bias"].reshape(s * s, co).sum(axis=0)
    # invert _phase_kernel's selection: every kernel tap is one phase tap
    q, _, ci, _ = d_phase.shape
    split = d_phase.reshape(q, q, ci, s, s, co).transpose(0, 3, 1, 4, 2, 5)[::-1, :, ::-1]
    d_weights = np.ascontiguousarray(split.reshape(q * s, q * s, ci, co)[:k, :k])
    return dx, {"weights": d_weights, "bias": d_bias}


# ---------------------------------------------------------------------------
# binary cross-entropy
# ---------------------------------------------------------------------------

def bce_loss(pred: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample mean of -[t ln p + (1-t) ln(1-p)] with p clamped to [1e-7, 1-1e-7].

    pred and target are (N, ...) batches. Returns (losses, dpred): a float64
    array of N losses, one mean over each sample's entries, with the
    reductions in float64 regardless of input dtype, and the gradient of
    the sum of the N losses with respect to pred, in pred's dtype. The loss
    ends the tape, so it keeps no record.
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
    p = np.clip(pred, BCE_EPS, 1.0 - BCE_EPS).astype(pred.dtype)
    inside = (pred > BCE_EPS) & (pred < 1.0 - BCE_EPS)
    dpred = (p - target) / (p * (1.0 - p)) / (pred.size // len(pred))
    return losses, np.where(inside, dpred, 0.0).astype(pred.dtype)


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
    up = np.asarray(upstream)
    if up.shape != rec.out_shape:
        raise ShapeError(f"upstream shape {up.shape} != recorded output shape {rec.out_shape}")
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
