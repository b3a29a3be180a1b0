"""Dense tensor values, seeded RNG, parameter init, checkpoint serialization.

Tensors are plain numpy float32 arrays in row-major (C) order; float64 is
used transiently by the gradient-check harness. All randomness in the
package flows through the xorshift64* generator below, which is bit-exact
across platforms, so identical seeds give identical models, shuffles and
synthetic datasets.
"""

from __future__ import annotations

import math
import struct
from typing import BinaryIO, Iterable, Mapping

import numpy as np

from .errors import (
    BadMagicError,
    CheckpointError,
    InvalidSeedError,
    ShapeError,
    TruncatedStreamError,
    VersionMismatchError,
)

_MASK64 = (1 << 64) - 1
_MULTIPLIER = 2685821657736338717
_INV_2_53 = 2.0 ** -53
_U1, _U11, _U12, _U25, _U27 = (np.uint64(v) for v in (1, 11, 12, 25, 27))
_UMULTIPLIER = np.uint64(_MULTIPLIER)
_BIT_INDEX = np.arange(64, dtype=np.uint64)
_JUMP_BLOCK = 128  # states per (block, 64) bit table in _jump
_LANE_BITS = 6
_LANE = 1 << _LANE_BITS  # consecutive draws per lane in fill()
# fill() steps lanes from this many draws up and runs the serial loop below
# it. The two cost the same near 800 draws: the serial loop takes 0.40 us a
# draw, the lanes about 0.31 ms whatever the count up to a few thousand
# (0.31 vs 0.32 ms at 768 draws, 0.36 vs 0.32 ms at 896; medians of 9
# calls, one Xeon core, numpy 2.4).
_VECTOR_MIN = 800

CHECKPOINT_MAGIC = b"RSEG"
CHECKPOINT_VERSION = 1
_READ_CHUNK = 1 << 20  # largest single read, whatever size a header declares


class Rng:
    """Mutable xorshift64* state.

    Update: x ^= x>>12; x ^= x<<25; x ^= x>>27; output = x * 2685821657736338717
    (all mod 2^64). A draw is the top 53 bits of the output scaled to [0,1).
    `next()` advances the stream by one draw; `fill(n)` advances it by n
    draws. Consumption order is what makes every downstream artifact
    reproducible, so callers must draw in a fixed, documented order.

    `fill(n)` returns exactly the draws, and leaves exactly the state, of n
    calls to `next()`. From _VECTOR_MIN draws up it cuts the stream into
    n // 64 lanes of 64 consecutive draws and steps every lane at once in
    uint64 arithmetic (the multiply wraps mod 2^64), writing lane k's draws
    to positions 64k..64k+63; the last n % 64 draws continue the last lane
    one at a time. The update is linear over GF(2), so lane k starts from
    M^(64k) applied to the state, where M is the 64x64 bit matrix of one
    update: the lane starts double level by level, each level applying the
    jump M^(64 * 2^level) from the fixed table _LANE_JUMPS to the starts
    found so far (Haramoto et al., "Efficient jump ahead for F2-linear
    random number generators", INFORMS JoC 2008).
    """

    def __init__(self, seed: int):
        if seed == 0:
            raise InvalidSeedError("rng seed must be nonzero")
        self.state = seed & _MASK64
        if self.state == 0:
            raise InvalidSeedError("rng seed must be nonzero modulo 2^64")

    def next(self) -> float:
        x = self.state
        x ^= x >> 12
        x = (x ^ (x << 25)) & _MASK64
        x ^= x >> 27
        self.state = x
        return (((x * _MULTIPLIER) & _MASK64) >> 11) * _INV_2_53

    def fill(self, count: int) -> np.ndarray:
        """Draw `count` uniforms into a float64 array (row-major order)."""
        out = np.empty(count, dtype=np.float64)
        lanes = count // _LANE if count >= _VECTOR_MIN else 0
        state = self.state
        if lanes:
            state = _fill_lanes(state, out[:lanes * _LANE].reshape(lanes, _LANE))
        self.state = _fill_serial(state, out[lanes * _LANE:])
        out *= _INV_2_53
        return out


def _fill_serial(state: int, out: np.ndarray) -> int:
    """Write the top 53 bits of each next output to `out`; return the state."""
    for i in range(len(out)):
        state ^= state >> 12
        state = (state ^ (state << 25)) & _MASK64
        state ^= state >> 27
        out[i] = ((state * _MULTIPLIER) & _MASK64) >> 11
    return state


def _step(s: np.ndarray, tmp: np.ndarray) -> None:
    """One xorshift update of every state in `s`, in place."""
    np.right_shift(s, _U12, out=tmp)
    s ^= tmp
    np.left_shift(s, _U25, out=tmp)
    s ^= tmp
    np.right_shift(s, _U27, out=tmp)
    s ^= tmp


def _jump(states: np.ndarray, columns: np.ndarray, out: np.ndarray) -> None:
    """Write to `out` the GF(2) matrix with these 64 column words times each state.

    Works in blocks, so the (block, 64) table of state bits stays small.
    """
    for i in range(0, len(states), _JUMP_BLOCK):
        bits = states[i:i + _JUMP_BLOCK, None] >> _BIT_INDEX
        bits &= _U1
        bits *= columns
        np.bitwise_xor.reduce(bits, axis=1, out=out[i:i + _JUMP_BLOCK])


def _fill_lanes(state: int, grid: np.ndarray) -> int:
    """Fill `grid` (lanes, _LANE) with the draws' top 53 bits; return the state."""
    lanes = grid.shape[0]
    s = np.empty(lanes, dtype=np.uint64)
    s[0] = state
    known = 1  # lane starts found so far; each level doubles them
    for columns in _LANE_JUMPS[:(lanes - 1).bit_length()]:
        new = min(known, lanes - known)
        _jump(s[:new], columns, s[known:known + new])
        known += new
    tmp = np.empty_like(s)
    for t in range(_LANE):
        _step(s, tmp)
        np.multiply(s, _UMULTIPLIER, out=tmp)
        np.right_shift(tmp, _U11, out=grid[:, t])
    return int(s[-1])


def _lane_jumps() -> np.ndarray:
    """Row k: the column words of M^(_LANE * 2^k), M being one update."""
    columns = np.left_shift(_U1, _BIT_INDEX)
    _step(columns, np.empty_like(columns))
    table = np.empty((_LANE_BITS + 64, 64), dtype=np.uint64)
    table[0] = columns
    for k in range(1, len(table)):  # square: M^(2^k)
        _jump(table[k - 1], table[k - 1], table[k])
    return table[_LANE_BITS:]  # 64 levels: up to 2^64 lanes


_LANE_JUMPS = _lane_jumps()


def glorot_init(shape: Iterable[int], fan_in: int, fan_out: int, rng: Rng) -> np.ndarray:
    """Uniform(-a, a) init with a = sqrt(6/(fan_in+fan_out)), row-major draws.

    Advances `rng` by exactly prod(shape) draws.
    """
    dims = list(shape)
    if not dims or any(int(d) < 1 for d in dims):
        raise ShapeError(f"invalid shape {dims}")
    if fan_in < 1 or fan_out < 1:
        raise ShapeError("fan_in and fan_out must be >= 1")
    a = math.sqrt(6.0 / (fan_in + fan_out))
    u = rng.fill(int(np.prod(dims)))
    return ((u * 2.0 - 1.0) * a).astype(np.float32).reshape(dims)


def save_checkpoint(entries: Mapping[str, np.ndarray], sink: BinaryIO) -> int:
    """Write named tensors to `sink` in the fixed binary format; returns bytes written.

    Layout: magic "RSEG", u32 version, u32 entry count, then per entry
    u32 name length, name bytes, u32 rank, u32 per dim, raw little-endian
    float32 data. Everything little-endian; load(save(x)) is bit-exact.
    """
    written = 0

    def put(data: bytes) -> None:
        nonlocal written
        sink.write(data)
        written += len(data)

    put(CHECKPOINT_MAGIC)
    put(struct.pack("<II", CHECKPOINT_VERSION, len(entries)))
    for name, tensor in entries.items():
        arr = np.ascontiguousarray(tensor, dtype=np.float32)
        name_bytes = name.encode("utf-8")
        put(struct.pack("<I", len(name_bytes)))
        put(name_bytes)
        put(struct.pack("<I", arr.ndim))
        put(struct.pack(f"<{arr.ndim}I", *arr.shape))
        put(arr.astype("<f4", copy=False).tobytes())
    return written


def load_checkpoint(source: BinaryIO) -> dict[str, np.ndarray]:
    """Read a checkpoint stream back into an ordered name->tensor mapping."""

    def take(n: int, what: str) -> bytes:
        # bounded reads: a declared size larger than the stream ends in
        # TruncatedStreamError rather than in one allocation of that size
        parts = []
        while n:
            part = source.read(min(n, _READ_CHUNK))
            if not part:
                raise TruncatedStreamError(f"checkpoint stream truncated while reading {what}")
            parts.append(part)
            n -= len(part)
        return b"".join(parts)

    magic = take(4, "magic")
    if magic != CHECKPOINT_MAGIC:
        raise BadMagicError(f"bad checkpoint magic {magic!r}")
    (version,) = struct.unpack("<I", take(4, "version"))
    if version != CHECKPOINT_VERSION:
        raise VersionMismatchError(f"unsupported checkpoint version {version}")
    (count,) = struct.unpack("<I", take(4, "entry count"))

    entries: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4, "name length"))
        raw_name = take(name_len, "name")
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"entry name {raw_name!r} is not UTF-8") from None
        if name in entries:
            raise CheckpointError(f"duplicate entry name in stream: {name!r}")
        (rank,) = struct.unpack("<I", take(4, "rank"))
        dims = struct.unpack(f"<{rank}I", take(4 * rank, "dims"))
        if not dims or any(d < 1 for d in dims):
            raise CheckpointError(f"invalid shape {dims} for entry {name!r}")
        n_elem = math.prod(dims)
        raw = take(4 * n_elem, f"data of {name!r}")
        entries[name] = np.frombuffer(raw, dtype="<f4").astype(np.float32).reshape(dims)
    return entries
