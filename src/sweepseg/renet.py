"""Four-direction recurrent sweeps over a patch grid.

Every sample's feature map is cut into non-overlapping PATCH x PATCH
patches, each flattened to a vector. A directional sweep runs a vanilla
tanh recurrence along every column (down, up) or every row (right, left);
the parallel sequences of one sweep, over all samples of the batch, are
independent, so each step processes all of them as one matrix product.
Opposite directions of the same axis are coupled by channel concatenation,
and a full block chains a vertical coupled pair with a horizontal coupled
pair run over the result as 1x1 patches.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .errors import ShapeError
from .layers import OpRecord, _record, backward as op_backward

DIRECTIONS = ("down", "up", "right", "left")
_AXIS = {"down": 0, "up": 0, "right": 1, "left": 1}
_REVERSED = frozenset(("up", "left"))
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


def _to_steps(a: np.ndarray, direction: str) -> np.ndarray:
    """(N, n, m, c) -> (steps, sequences, c) in the sweep's step order.

    A vertical sweep has n steps over N*m column sequences, a horizontal
    one m steps over N*n row sequences; up and left step backwards.
    """
    seq = np.moveaxis(a, 1 + _AXIS[direction], 0)
    if direction in _REVERSED:
        seq = seq[::-1]
    return np.ascontiguousarray(seq).reshape(seq.shape[0], -1, a.shape[3])


def _from_steps(seq: np.ndarray, direction: str, shape) -> np.ndarray:
    """Inverse of _to_steps for a batch of the given (N, n, m, c) shape."""
    axis = 1 + _AXIS[direction]
    steps_first = (shape[axis],) + tuple(d for i, d in enumerate(shape) if i != axis)
    seq = seq.reshape(steps_first)
    if direction in _REVERSED:
        seq = seq[::-1]
    return np.moveaxis(seq, 0, axis)


def directional_sweep(x: np.ndarray, direction: str,
                      params: Mapping[str, np.ndarray]) -> tuple[np.ndarray, OpRecord]:
    """Run one direction's recurrence over an (N, n, m, len) batch: (N, n, m, U) out.

    The cell is z = tanh(x @ params["wx"] + z_prev @ params["wz"] + params["bias"]),
    with wx (len, U), wz (U, U) and bias (U,). Every column (down, up) or
    row (right, left) of every sample is one sequence, and each step
    advances all of them with one matrix product. The input projections of
    all steps are one GEMM up front.
    """
    if direction not in DIRECTIONS:
        raise ShapeError(f"unknown direction {direction!r}")
    if x.ndim != 4:
        raise ShapeError(f"sweep input must be (N,n,m,len), got {x.shape}")
    wx, wz, bias = params["wx"], params["wz"], params["bias"]
    u = wz.shape[0] if wz.ndim == 2 else -1
    if wz.shape != (u, u) or wx.ndim != 2 or wx.shape[1] != u or bias.shape != (u,):
        raise ShapeError(f"inconsistent sweep params: wx {wx.shape}, wz {wz.shape}, "
                         f"bias {bias.shape}")
    length = x.shape[3]
    if wx.shape[0] != length:
        raise ShapeError(f"patch length {length} != input-weight rows {wx.shape[0]}")
    seq = _to_steps(x, direction)
    steps, sequences, _ = seq.shape
    pre = (seq.reshape(-1, length) @ wx + bias).reshape(steps, sequences, u)
    zs = np.empty_like(pre)
    zs[0] = np.tanh(pre[0])
    for t in range(1, steps):
        zs[t] = np.tanh(pre[t] + zs[t - 1] @ wz)
    out = _from_steps(zs, direction, x.shape[:3] + (u,))
    rec = _record("sweep", out.shape, _sweep_backward, seq=seq, zs=zs, direction=direction,
                  wx=wx, wz=wz, in_shape=x.shape)
    return out, rec


def _sweep_backward(rec: OpRecord, up: np.ndarray):
    seq = rec.saved["seq"]
    zs = rec.saved["zs"]
    direction = rec.saved["direction"]
    wx, wz = rec.saved["wx"], rec.saved["wz"]
    steps, _, length = seq.shape
    u = zs.shape[2]

    d_out = _to_steps(up, direction)
    d_pre = np.empty(zs.shape, dtype=up.dtype)
    carry = 0.0
    for t in range(steps - 1, -1, -1):
        z = zs[t]
        d_pre[t] = (d_out[t] + carry) * (1.0 - z * z)
        if t:
            carry = d_pre[t] @ wz.T
    d_flat = d_pre.reshape(-1, u)
    d_wx = seq.reshape(-1, length).T @ d_flat
    d_wz = zs[:-1].reshape(-1, u).T @ d_pre[1:].reshape(-1, u)
    dx = _from_steps(d_flat @ wx.T, direction, rec.saved["in_shape"])
    return dx, {"wx": d_wx, "wz": d_wz, "bias": d_flat.sum(axis=0)}


def _cell(params: Mapping[str, np.ndarray], direction: str) -> dict[str, np.ndarray]:
    """One direction's "wx", "wz" and "bias" out of the block's mapping."""
    return {key: params[f"{direction}.{key}"] for key in ("wx", "wz", "bias")}


def renet_block(feature: np.ndarray,
                params: Mapping[str, np.ndarray]) -> tuple[np.ndarray, OpRecord]:
    """Vertical coupled sweeps over patches, then horizontal ones over the result.

    feature: (N, h, w, c); params holds "down.wx", "down.wz", "down.bias" and
    the same for up, right and left, the names its backward returns their
    gradients under. The output is (N, h/PATCH, w/PATCH, U_right + U_left).
    The horizontal stage reads the vertical stage's coupled map cell by
    cell (1x1 patches, vector length U_down + U_up).
    """
    grid = split_patches(feature)
    down, rec_down = directional_sweep(grid, "down", _cell(params, "down"))
    upo, rec_up = directional_sweep(grid, "up", _cell(params, "up"))
    vertical = np.concatenate([down, upo], axis=3)
    right, rec_right = directional_sweep(vertical, "right", _cell(params, "right"))
    left, rec_left = directional_sweep(vertical, "left", _cell(params, "left"))
    out = np.concatenate([right, left], axis=3)
    rec = _record("renet_block", out.shape, _block_backward,
                  rec_down=rec_down, rec_up=rec_up, rec_right=rec_right, rec_left=rec_left)
    return out, rec


def _block_backward(rec: OpRecord, up: np.ndarray):
    # each coupled pair splits at the output width of its first sweep
    u = rec.saved["rec_right"].out_shape[3]
    d_vert_r, g_right = op_backward(rec.saved["rec_right"], up[..., :u])
    d_vert_l, g_left = op_backward(rec.saved["rec_left"], up[..., u:])
    d_vertical = d_vert_r + d_vert_l
    u = rec.saved["rec_down"].out_shape[3]
    d_grid_d, g_down = op_backward(rec.saved["rec_down"], d_vertical[..., :u])
    d_grid_u, g_up = op_backward(rec.saved["rec_up"], d_vertical[..., u:])
    d_feature = merge_patches(d_grid_d + d_grid_u)
    grads = {}
    for name, sub in [("down", g_down), ("up", g_up), ("right", g_right), ("left", g_left)]:
        for key, val in sub.items():
            grads[f"{name}.{key}"] = val
    return d_feature, grads
