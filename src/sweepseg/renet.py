"""Recurrent sweeps over a patch grid, one coupled pair of directions per op.

Every sample's feature map is cut into non-overlapping PATCH x PATCH
patches, each flattened to a vector. A sweep runs a vanilla tanh
recurrence along every column (down, up) or every row (right, left) of
every sample; the directions of one axis run as one stacked recurrence
and their outputs are coupled by channel concatenation. A block is a
vertical pair over the patches, then a horizontal pair over its result
read as 1x1 patches.

A sweep's record keeps its input, its k directions' hidden states and
their stacked weights, none larger than the input in the network. The
step-ordered input, k copies of it, is rebuilt by the backward for its
one weight-gradient GEMM, with the same call and so the same bytes.
"""

from __future__ import annotations

import functools
from typing import Mapping

import numpy as np

from .errors import ShapeError
from .layers import OpRecord, _record, backward as op_backward

DIRECTIONS = ("down", "up", "right", "left")
_AXIS = {"down": 0, "up": 0, "right": 1, "left": 1}
_STEP = {"down": 1, "up": -1, "right": 1, "left": -1}
# the one patch side: the decoder upsamples exactly 8x, which undoes the
# encoder's two 2x2 pools and a 2x2 patch grid
PATCH = 2


def split_patches(feature: np.ndarray) -> np.ndarray:
    """Cut an (N, h, w, c) batch into an (N, h/P, w/P, P*P*c) grid of flattened patches.

    With P = PATCH, patch (i, j) holds input rows [i*P, (i+1)*P) x cols
    [j*P, (j+1)*P), flattened row-major over space with channels innermost.
    The flattening order is load-bearing: checkpoints assume it.
    """
    if feature.ndim != 4:
        raise ShapeError(f"expected an (N, h, w, c) feature batch, got {feature.shape}")
    batch, h, w, c = feature.shape
    if h % PATCH or w % PATCH:
        raise ShapeError(f"feature {h}x{w} not divisible into {PATCH}x{PATCH} patches")
    n, m = h // PATCH, w // PATCH
    patches = feature.reshape(batch, n, PATCH, m, PATCH, c).transpose(0, 1, 3, 2, 4, 5)
    return np.ascontiguousarray(patches).reshape(batch, n, m, PATCH * PATCH * c)


def merge_patches(patches: np.ndarray) -> np.ndarray:
    """Inverse of split_patches: (N, n, m, P*P*c) back to (N, n*P, m*P, c), P = PATCH."""
    if patches.ndim != 4 or patches.shape[3] % (PATCH * PATCH):
        raise ShapeError(f"patch array {patches.shape} is not a batch of {PATCH}x{PATCH} grids")
    batch, n, m, length = patches.shape
    c = length // (PATCH * PATCH)
    x = patches.reshape(batch, n, m, PATCH, PATCH, c).transpose(0, 1, 3, 2, 4, 5)
    return np.ascontiguousarray(x).reshape(batch, n * PATCH, m * PATCH, c)


def _to_steps(arrays, axis: int, directions) -> np.ndarray:
    """One (N, n, m, c) map per direction -> (k, steps, sequences, c), each in its step order.

    A vertical sweep (axis 0) has n steps over N*m column sequences, a
    horizontal one (axis 1) m steps over N*n row sequences; up and left
    step backwards.
    """
    seq = np.stack([np.moveaxis(a, 1 + axis, 0)[::_STEP[d]] for a, d in zip(arrays, directions)])
    return seq.reshape(seq.shape[:2] + (-1, seq.shape[-1]))


def _from_steps(seq: np.ndarray, axis: int, directions, shape) -> list[np.ndarray]:
    """Inverse of _to_steps: one view of the given (N, n, m, c) shape per direction."""
    steps_first = (shape[1 + axis],) + tuple(d for i, d in enumerate(shape) if i != 1 + axis)
    return [np.moveaxis(s.reshape(steps_first)[::_STEP[d]], 0, 1 + axis)
            for s, d in zip(seq, directions)]


def sweep(x: np.ndarray, directions, params: Mapping[str, np.ndarray]
          ) -> tuple[np.ndarray, OpRecord]:
    """Run one or two directions of one axis over an (N, n, m, len) batch: (N, n, m, k*U) out.

    Direction d's cell is z = tanh(x @ params[f"{d}.wx"] + z_prev @
    params[f"{d}.wz"] + params[f"{d}.bias"]), with wx (len, U), wz (U, U)
    and bias (U,), one U for all k directions. Every column (down, up) or
    row (right, left) of every sample is one sequence. The directions run
    as one stacked recurrence: the input projections of all steps are one
    GEMM up front, and each step advances every sequence of every
    direction with one batched product. The outputs are concatenated along
    channels in the order of `directions`.
    """
    if len(set(directions)) != len(directions) or \
            {_AXIS.get(d) for d in directions} not in ({0}, {1}):
        raise ShapeError(f"directions {directions!r} must be distinct and of one axis, "
                         f"out of {DIRECTIONS}")
    if x.ndim != 4:
        raise ShapeError(f"sweep input must be (N,n,m,len), got {x.shape}")
    cells = [[params[f"{d}.{key}"] for key in ("wx", "wz", "bias")] for d in directions]
    for wx, wz, bias in cells:
        u = wz.shape[0] if wz.ndim == 2 else -1
        if wz.shape != (u, u) or wx.ndim != 2 or wx.shape[1] != u or bias.shape != (u,):
            raise ShapeError(f"inconsistent sweep params: wx {wx.shape}, wz {wz.shape}, "
                             f"bias {bias.shape}")
    if len({wx.shape for wx, _, _ in cells}) > 1:
        raise ShapeError(f"directions {directions} differ in width or input length: "
                         f"wx {[wx.shape for wx, _, _ in cells]}")
    wx, wz, bias = (np.stack(arrays) for arrays in zip(*cells))
    k, length, u = wx.shape
    if x.shape[3] != length:
        raise ShapeError(f"patch length {x.shape[3]} != input-weight rows {length}")
    axis = _AXIS[directions[0]]
    seq = _to_steps([x] * k, axis, directions)
    steps, sequences = seq.shape[1:3]
    pre = (seq.reshape(k, -1, length) @ wx + bias[:, None]).reshape(k, steps, sequences, u)
    zs = np.empty_like(pre)
    zs[:, 0] = np.tanh(pre[:, 0])
    for t in range(1, steps):
        zs[:, t] = np.tanh(pre[:, t] + zs[:, t - 1] @ wz)
    out = np.concatenate(_from_steps(zs, axis, directions, x.shape[:3] + (u,)), axis=3)
    rec = _record("sweep", out.shape, _sweep_backward, x=x, zs=zs, directions=directions,
                  wx=wx, wz=wz)
    return out, rec


def _sweep_backward(rec: OpRecord, up: np.ndarray):
    x, zs, wx, wz = (rec.saved[key] for key in ("x", "zs", "wx", "wz"))
    directions = rec.saved["directions"]
    axis = _AXIS[directions[0]]
    k, steps, _, u = zs.shape
    length = x.shape[3]

    d_out = _to_steps(np.split(up, k, axis=3), axis, directions)
    d_pre = np.empty(zs.shape, dtype=up.dtype)
    wz_t = wz.transpose(0, 2, 1)
    carry = 0.0
    for t in range(steps - 1, -1, -1):
        z = zs[:, t]
        d_pre[:, t] = (d_out[:, t] + carry) * (1.0 - z * z)
        if t:
            carry = d_pre[:, t] @ wz_t
    d_flat = d_pre.reshape(k, -1, u)
    d_wx = _to_steps([x] * k, axis, directions).reshape(k, -1, length).transpose(0, 2, 1) @ d_flat
    d_wz = zs[:, :-1].reshape(k, -1, u).transpose(0, 2, 1) @ d_pre[:, 1:].reshape(k, -1, u)
    dxs = _from_steps(d_flat @ wx.transpose(0, 2, 1), axis, directions, x.shape)
    grads = {}
    for d, g_wx, g_wz, g_flat in zip(directions, d_wx, d_wz, d_flat):
        grads.update({f"{d}.wx": g_wx, f"{d}.wz": g_wz, f"{d}.bias": g_flat.sum(axis=0)})
    return functools.reduce(np.add, dxs), grads


def renet_block(feature: np.ndarray,
                params: Mapping[str, np.ndarray]) -> tuple[np.ndarray, OpRecord]:
    """Vertical coupled sweeps over patches, then horizontal ones over the result.

    feature: (N, h, w, c); params holds "down.wx", "down.wz", "down.bias" and
    the same for up, right and left, the names its backward returns their
    gradients under. The output is (N, h/PATCH, w/PATCH, 2U). The
    horizontal pair reads the vertical pair's coupled map cell by cell
    (1x1 patches, vector length 2U).
    """
    vertical, rec_vertical = sweep(split_patches(feature), ("down", "up"), params)
    out, rec_horizontal = sweep(vertical, ("right", "left"), params)
    rec = _record("renet_block", out.shape, _block_backward,
                  vertical=rec_vertical, horizontal=rec_horizontal)
    return out, rec


def _block_backward(rec: OpRecord, up: np.ndarray):
    d_vertical, g_horizontal = op_backward(rec.saved["horizontal"], up)
    d_grid, g_vertical = op_backward(rec.saved["vertical"], d_vertical)
    return merge_patches(d_grid), {**g_vertical, **g_horizontal}
