"""Four-direction recurrent sweeps over a patch grid.

The feature map is cut into non-overlapping patches, each flattened to a
vector. A directional sweep runs a vanilla tanh recurrence along every
column (down, up) or every row (right, left); the parallel sequences of one
sweep are independent, so each step processes all of them as one matrix
product. Opposite directions of the same axis are coupled by channel
concatenation, and a full block chains a vertical coupled pair with a
horizontal coupled pair run over the result as 1x1 patches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .layers import OpRecord, _record, backward as op_backward, register_backward

DIRECTIONS = ("down", "up", "right", "left")
_AXIS = {"down": 0, "up": 0, "right": 1, "left": 1}
_REVERSED = frozenset(("up", "left"))


def split_patches(feature: np.ndarray, w_p: int, h_p: int) -> np.ndarray:
    """Cut an (h, w, c) map into an (n, m, h_p*w_p*c) grid of flattened patches.

    Patch (i, j) holds input rows [i*h_p, (i+1)*h_p) x cols [j*w_p, (j+1)*w_p),
    flattened row-major over space with channels innermost. The flattening
    order is load-bearing: checkpoints assume it.
    """
    if feature.ndim != 3:
        raise ShapeError(f"expected (h,w,c) feature map, got {feature.shape}")
    h, w, c = feature.shape
    if h % h_p or w % w_p:
        raise ShapeError(f"feature {h}x{w} not divisible into {h_p}x{w_p} patches")
    n, m = h // h_p, w // w_p
    patches = feature.reshape(n, h_p, m, w_p, c).transpose(0, 2, 1, 3, 4)
    return np.ascontiguousarray(patches).reshape(n, m, h_p * w_p * c)


def merge_patches(patches: np.ndarray, w_p: int, h_p: int) -> np.ndarray:
    """Inverse of split_patches: (n, m, h_p*w_p*c) back to (n*h_p, m*w_p, c)."""
    if patches.ndim != 3 or patches.shape[2] % (h_p * w_p):
        raise ShapeError(f"patch array {patches.shape} is not a grid of {h_p}x{w_p} patches")
    n, m, length = patches.shape
    c = length // (h_p * w_p)
    x = patches.reshape(n, m, h_p, w_p, c).transpose(0, 2, 1, 3, 4)
    return np.ascontiguousarray(x).reshape(n * h_p, m * w_p, c)


@dataclass
class SweepParams:
    """One direction's cell: z = tanh(x @ wx + z_prev @ wz + bias)."""

    wx: np.ndarray
    wz: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        u = self.wz.shape[0] if self.wz.ndim == 2 else -1
        if self.wz.shape != (u, u) or self.wx.ndim != 2 or self.wx.shape[1] != u \
                or self.bias.shape != (u,):
            raise ShapeError(
                f"inconsistent sweep params: wx {self.wx.shape}, wz {self.wz.shape}, "
                f"bias {self.bias.shape}")

    @property
    def units(self) -> int:
        return self.wz.shape[0]


def directional_sweep(x: np.ndarray, direction: str,
                      params: SweepParams) -> tuple[np.ndarray, OpRecord]:
    """Run one direction's recurrence over an (n, m, len) map: (n, m, U) out.

    Every column (down, up) or row (right, left) is one sequence.
    """
    if direction not in DIRECTIONS:
        raise ShapeError(f"unknown direction {direction!r}")
    if x.ndim != 3:
        raise ShapeError(f"sweep input must be (n,m,len), got {x.shape}")
    n, m, length = x.shape
    if params.wx.shape[0] != length:
        raise ShapeError(f"patch length {length} != input-weight rows {params.wx.shape[0]}")
    u = params.units
    axis = _AXIS[direction]
    steps = list(range(x.shape[axis]))
    if direction in _REVERSED:
        steps.reverse()

    dtype = np.result_type(x, params.wx)
    out = np.empty((n, m, u), dtype=dtype)
    z = np.zeros((x.shape[1 - axis], u), dtype=dtype)
    for idx in steps:
        step_in = x[idx] if axis == 0 else x[:, idx]
        z = np.tanh(step_in @ params.wx + z @ params.wz + params.bias)
        if axis == 0:
            out[idx] = z
        else:
            out[:, idx] = z
    rec = _record("sweep", out.shape, x=x, out=out, direction=direction, params=params)
    return out, rec


def _sweep_backward(rec: OpRecord, up: np.ndarray):
    x = rec.saved["x"]
    out = rec.saved["out"]
    direction = rec.saved["direction"]
    params: SweepParams = rec.saved["params"]
    axis = _AXIS[direction]
    steps = list(range(x.shape[axis]))
    if direction in _REVERSED:
        steps.reverse()

    def take(arr, idx):
        return arr[idx] if axis == 0 else arr[:, idx]

    dx = np.zeros_like(x, dtype=up.dtype)
    d_wx = np.zeros_like(params.wx, dtype=up.dtype)
    d_wz = np.zeros_like(params.wz, dtype=up.dtype)
    d_bias = np.zeros_like(params.bias, dtype=up.dtype)
    carry = np.zeros((x.shape[1 - axis], params.units), dtype=up.dtype)
    for pos in range(len(steps) - 1, -1, -1):
        idx = steps[pos]
        z = take(out, idx)
        d_pre = (take(up, idx) + carry) * (1.0 - z * z)
        d_wx += take(x, idx).T @ d_pre
        d_bias += d_pre.sum(axis=0)
        if pos > 0:
            d_wz += take(out, steps[pos - 1]).T @ d_pre
        step_dx = d_pre @ params.wx.T
        if axis == 0:
            dx[idx] = step_dx
        else:
            dx[:, idx] = step_dx
        carry = d_pre @ params.wz.T
    return dx, {"wx": d_wx, "wz": d_wz, "bias": d_bias}


@dataclass
class RenetParams:
    down: SweepParams
    up: SweepParams
    right: SweepParams
    left: SweepParams


def renet_block(feature: np.ndarray, params: RenetParams, w_p: int,
                h_p: int) -> tuple[np.ndarray, OpRecord]:
    """Vertical coupled sweeps over patches, then horizontal ones over the result.

    Output is (h/h_p, w/w_p, 2U). The horizontal stage reads the vertical
    stage's coupled map cell by cell (1x1 patches, vector length 2U).
    """
    grid = split_patches(feature, w_p, h_p)
    down, rec_down = directional_sweep(grid, "down", params.down)
    upo, rec_up = directional_sweep(grid, "up", params.up)
    vertical = np.concatenate([down, upo], axis=2)
    right, rec_right = directional_sweep(vertical, "right", params.right)
    left, rec_left = directional_sweep(vertical, "left", params.left)
    out = np.concatenate([right, left], axis=2)
    rec = _record("renet_block", out.shape, w_p=w_p, h_p=h_p, units=params.down.units,
                  rec_down=rec_down, rec_up=rec_up, rec_right=rec_right,
                  rec_left=rec_left)
    return out, rec


def _block_backward(rec: OpRecord, up: np.ndarray):
    u = rec.saved["units"]
    d_vert_r, g_right = op_backward(rec.saved["rec_right"], up[:, :, :u])
    d_vert_l, g_left = op_backward(rec.saved["rec_left"], up[:, :, u:])
    d_vertical = d_vert_r + d_vert_l
    d_grid_d, g_down = op_backward(rec.saved["rec_down"], d_vertical[:, :, :u])
    d_grid_u, g_up = op_backward(rec.saved["rec_up"], d_vertical[:, :, u:])
    d_feature = merge_patches(d_grid_d + d_grid_u, rec.saved["w_p"], rec.saved["h_p"])
    grads = {}
    for name, sub in [("down", g_down), ("up", g_up), ("right", g_right), ("left", g_left)]:
        for key, val in sub.items():
            grads[f"{name}.{key}"] = val
    return d_feature, grads


register_backward("sweep", _sweep_backward)
register_backward("renet_block", _block_backward)
