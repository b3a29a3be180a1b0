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

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .layers import OpRecord, _record, backward as op_backward

DIRECTIONS = ("down", "up", "right", "left")
_AXIS = {"down": 0, "up": 0, "right": 1, "left": 1}
_REVERSED = frozenset(("up", "left"))
# the one patch side: the decoder upsamples exactly 8x, which undoes the
# encoder's two 2x2 pools and a 2x2 patch grid
PATCH = 2


def split_patches(feature: np.ndarray, w_p: int, h_p: int) -> np.ndarray:
    """Cut an (N, h, w, c) batch into an (N, n, m, h_p*w_p*c) grid of flattened patches.

    Patch (i, j) holds input rows [i*h_p, (i+1)*h_p) x cols [j*w_p, (j+1)*w_p),
    flattened row-major over space with channels innermost. The flattening
    order is load-bearing: checkpoints assume it.
    """
    if feature.ndim != 4:
        raise ShapeError(f"expected an (N, h, w, c) feature batch, got {feature.shape}")
    batch, h, w, c = feature.shape
    if h % h_p or w % w_p:
        raise ShapeError(f"feature {h}x{w} not divisible into {h_p}x{w_p} patches")
    n, m = h // h_p, w // w_p
    patches = feature.reshape(batch, n, h_p, m, w_p, c).transpose(0, 1, 3, 2, 4, 5)
    return np.ascontiguousarray(patches).reshape(batch, n, m, h_p * w_p * c)


def merge_patches(patches: np.ndarray, w_p: int, h_p: int) -> np.ndarray:
    """Inverse of split_patches: (N, n, m, h_p*w_p*c) back to (N, n*h_p, m*w_p, c)."""
    if patches.ndim != 4 or patches.shape[3] % (h_p * w_p):
        raise ShapeError(f"patch array {patches.shape} is not a batch of {h_p}x{w_p} patch grids")
    batch, n, m, length = patches.shape
    c = length // (h_p * w_p)
    x = patches.reshape(batch, n, m, h_p, w_p, c).transpose(0, 1, 3, 2, 4, 5)
    return np.ascontiguousarray(x).reshape(batch, n * h_p, m * w_p, c)


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
                      params: SweepParams) -> tuple[np.ndarray, OpRecord]:
    """Run one direction's recurrence over an (N, n, m, len) batch: (N, n, m, U) out.

    Every column (down, up) or row (right, left) of every sample is one
    sequence, and each step advances all of them with one matrix product.
    The input projections of all steps are one GEMM up front.
    """
    if direction not in DIRECTIONS:
        raise ShapeError(f"unknown direction {direction!r}")
    if x.ndim != 4:
        raise ShapeError(f"sweep input must be (N,n,m,len), got {x.shape}")
    length = x.shape[3]
    if params.wx.shape[0] != length:
        raise ShapeError(f"patch length {length} != input-weight rows {params.wx.shape[0]}")
    u = params.units
    seq = _to_steps(x, direction)
    steps, sequences, _ = seq.shape
    pre = (seq.reshape(-1, length) @ params.wx + params.bias).reshape(steps, sequences, u)
    zs = np.empty_like(pre)
    zs[0] = np.tanh(pre[0])
    for t in range(1, steps):
        zs[t] = np.tanh(pre[t] + zs[t - 1] @ params.wz)
    out = _from_steps(zs, direction, x.shape[:3] + (u,))
    rec = _record("sweep", out.shape, _sweep_backward, seq=seq, zs=zs, direction=direction,
                  params=params, in_shape=x.shape)
    return out, rec


def _sweep_backward(rec: OpRecord, up: np.ndarray):
    seq = rec.saved["seq"]
    zs = rec.saved["zs"]
    direction = rec.saved["direction"]
    params: SweepParams = rec.saved["params"]
    steps, _, length = seq.shape
    u = params.units

    d_out = _to_steps(up, direction)
    d_pre = np.empty(zs.shape, dtype=up.dtype)
    carry = 0.0
    for t in range(steps - 1, -1, -1):
        z = zs[t]
        d_pre[t] = (d_out[t] + carry) * (1.0 - z * z)
        if t:
            carry = d_pre[t] @ params.wz.T
    d_flat = d_pre.reshape(-1, u)
    d_wx = seq.reshape(-1, length).T @ d_flat
    d_wz = zs[:-1].reshape(-1, u).T @ d_pre[1:].reshape(-1, u)
    dx = _from_steps(d_flat @ params.wx.T, direction, rec.saved["in_shape"])
    return dx, {"wx": d_wx, "wz": d_wz, "bias": d_flat.sum(axis=0)}


@dataclass
class RenetParams:
    down: SweepParams
    up: SweepParams
    right: SweepParams
    left: SweepParams


def renet_block(feature: np.ndarray, params: RenetParams) -> tuple[np.ndarray, OpRecord]:
    """Vertical coupled sweeps over patches, then horizontal ones over the result.

    feature: (N, h, w, c); output is (N, h/PATCH, w/PATCH, 2U). The horizontal
    stage reads the vertical stage's coupled map cell by cell (1x1 patches,
    vector length 2U).
    """
    grid = split_patches(feature, PATCH, PATCH)
    down, rec_down = directional_sweep(grid, "down", params.down)
    upo, rec_up = directional_sweep(grid, "up", params.up)
    vertical = np.concatenate([down, upo], axis=3)
    right, rec_right = directional_sweep(vertical, "right", params.right)
    left, rec_left = directional_sweep(vertical, "left", params.left)
    out = np.concatenate([right, left], axis=3)
    rec = _record("renet_block", out.shape, _block_backward, units=params.down.units,
                  rec_down=rec_down, rec_up=rec_up, rec_right=rec_right, rec_left=rec_left)
    return out, rec


def _block_backward(rec: OpRecord, up: np.ndarray):
    u = rec.saved["units"]
    d_vert_r, g_right = op_backward(rec.saved["rec_right"], up[..., :u])
    d_vert_l, g_left = op_backward(rec.saved["rec_left"], up[..., u:])
    d_vertical = d_vert_r + d_vert_l
    d_grid_d, g_down = op_backward(rec.saved["rec_down"], d_vertical[..., :u])
    d_grid_u, g_up = op_backward(rec.saved["rec_up"], d_vertical[..., u:])
    d_feature = merge_patches(d_grid_d + d_grid_u, PATCH, PATCH)
    grads = {}
    for name, sub in [("down", g_down), ("up", g_up), ("right", g_right), ("left", g_left)]:
        for key, val in sub.items():
            grads[f"{name}.{key}"] = val
    return d_feature, grads
