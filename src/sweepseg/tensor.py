"""Dense tensor values, seeded RNG, parameter init, checkpoint serialization,
and the one writer of every output file.

Tensors are plain numpy float32 arrays in row-major (C) order; float64 is
used transiently by the gradient-check harness. All randomness in the
package flows through the xorshift64* generator below, which is bit-exact
across platforms, so identical seeds give identical models, shuffles and
synthetic datasets. Its batch draw works through L2-sized chunks of
16-draw lanes stepped together, and starts each lane by jumping ahead
through byte tables; see `Rng`.
"""

from __future__ import annotations

import math
import os
import stat
import struct
from contextlib import contextmanager
from typing import BinaryIO, Iterable, Iterator, Mapping

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
_BYTE_INDEX = np.arange(8)
_CHUNK_BITS = 17
_CHUNK = 1 << _CHUNK_BITS  # most draws per chunk in fill(): 1 MB of output stays in L2
_LANE_BITS = 4
_LANE = 1 << _LANE_BITS  # draws per lane in fill()
# a jump of up to this many states gathers all 8 bytes in one indexing call;
# a longer one takes byte by byte, which costs less per state (about 30 ns
# against 70) but about 20 us more per call (16 calls instead of 2)
_GATHER_MAX = 256

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
    calls to `next()`. It works through chunks of at most _CHUNK draws,
    whose output stays in L2. Each chunk is cut into lanes of L = _LANE
    consecutive draws, and every lane is stepped at once in uint64
    arithmetic (the multiply wraps mod 2^64), writing lane k's draws to the
    chunk's positions kL..kL+L-1; the last n % L draws continue the last
    lane one at a time (a fill of fewer than L draws is all tail). The
    update is linear over GF(2), so lane k starts from M^(kL) applied to
    the chunk's start, where M is the 64x64 bit matrix of one update. The
    first chunk's lane starts double level by level, each level applying
    M^(L * 2^level) to the starts found so far; each later chunk's lanes
    start M^_CHUNK past the previous chunk's. A jump M^(2^j) is applied
    through its byte table in _JUMPS: 8 lookups, one per byte of the state
    read little-endian, and 7 XORs (Haramoto et al., "Efficient jump ahead
    for F2-linear random number generators", INFORMS JoC 2008).
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
        bits = out.view(np.uint64)  # a chunk's top 53 bits, scaled in place
        state = self.state
        done = 0
        if count >= _LANE:
            starts = _lane_starts(state, min(count, _CHUNK) // _LANE)
            for at in range(0, count, _CHUNK):
                lanes = min(_CHUNK, count - at) // _LANE
                if not lanes:
                    break
                if at:
                    starts = _jump(_JUMPS[_CHUNK_BITS], starts[:lanes])
                done = at + lanes * _LANE
                state = _fill_lanes(starts[:lanes], bits[at:done].reshape(lanes, _LANE))
                chunk = out[at:done]
                chunk[...] = bits[at:done]
                chunk *= _INV_2_53
        self.state = _fill_serial(state, out[done:])
        return out


def _fill_serial(state: int, out: np.ndarray) -> int:
    """Write each next draw to `out`; return the state."""
    for i in range(len(out)):
        state ^= state >> 12
        state = (state ^ (state << 25)) & _MASK64
        state ^= state >> 27
        out[i] = (((state * _MULTIPLIER) & _MASK64) >> 11) * _INV_2_53
    return state


def _step(s: np.ndarray, tmp: np.ndarray) -> None:
    """One xorshift update of every state in `s`, in place."""
    np.right_shift(s, _U12, out=tmp)
    s ^= tmp
    np.left_shift(s, _U25, out=tmp)
    s ^= tmp
    np.right_shift(s, _U27, out=tmp)
    s ^= tmp


def _jump(table: np.ndarray, states: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The jump whose (8, 256) byte table is `table` applied to each state.

    Row k of the table maps a byte v to the jump of v << 8k, so a state's
    jump is the XOR of its 8 bytes' rows. `out` must not overlap `states`.
    """
    b = states.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
    if out is None:
        out = np.empty(len(states), dtype=np.uint64)
    if len(states) <= _GATHER_MAX:
        np.bitwise_xor.reduce(table[_BYTE_INDEX, b], axis=1, out=out)
        return out
    tmp = np.empty_like(out)
    table[0].take(b[:, 0], out=out)
    for k in range(1, 8):
        table[k].take(b[:, k], out=tmp)
        out ^= tmp
    return out


def _lane_starts(state: int, lanes: int) -> np.ndarray:
    """States M^(_LANE * k) applied to `state`, for k < lanes."""
    s = np.empty(lanes, dtype=np.uint64)
    s[0] = state
    known = 1  # lane starts found so far; each level doubles them
    for table in _JUMPS[_LANE_BITS:_LANE_BITS + (lanes - 1).bit_length()]:
        new = min(known, lanes - known)
        _jump(table, s[:new], s[known:known + new])
        known += new
    return s


def _fill_lanes(starts: np.ndarray, grid: np.ndarray) -> int:
    """Fill `grid` (lanes, length) with the top 53 bits of each lane's
    outputs, lane k starting from starts[k]; return the last lane's end state."""
    s = starts.copy()
    tmp = np.empty_like(s)
    for t in range(grid.shape[1]):
        _step(s, tmp)
        np.multiply(s, _UMULTIPLIER, out=grid[:, t])
    grid >>= _U11
    return int(s[-1])


def _byte_table(columns: np.ndarray) -> np.ndarray:
    """Byte table of the GF(2) matrix whose 64 column words are `columns`."""
    table = np.zeros((8, 256), dtype=np.uint64)
    bit_columns = columns.reshape(8, 8)  # [byte, bit]
    for bit in range(8):
        np.bitwise_xor(table[:, :1 << bit], bit_columns[:, bit:bit + 1],
                       out=table[:, 1 << bit:2 << bit])
    return table


def _jump_tables() -> np.ndarray:
    """Row j: the byte table of M^(2^j), M being one update, up to M^_CHUNK."""
    columns = np.left_shift(_U1, np.arange(64, dtype=np.uint64))
    _step(columns, np.empty_like(columns))
    tables = np.empty((_CHUNK_BITS + 1, 8, 256), dtype=np.uint64)
    for j in range(len(tables)):
        tables[j] = _byte_table(columns)
        columns = _jump(tables[j], columns)  # square: M^(2^(j+1))
    return tables


_JUMPS = _jump_tables()


def glorot_init(shape: Iterable[int], fan_in: int, fan_out: int, rng: Rng) -> np.ndarray:
    """Uniform(-a, a) init with a = sqrt(6/(fan_in+fan_out)), row-major draws.

    Advances `rng` by exactly prod(shape) draws.
    """
    dims = list(shape)
    if not dims or any(int(d) < 1 for d in dims):
        raise ShapeError(f"invalid shape {dims}")
    _check_fans(fan_in, fan_out)  # before drawing: a rejected call leaves `rng` as it was
    return glorot_scale(rng.fill(int(np.prod(dims))), fan_in, fan_out).reshape(dims)


def glorot_scale(draws: np.ndarray, fan_in: int, fan_out: int) -> np.ndarray:
    """Map uniform draws in [0,1) to float32 Uniform(-a, a), a = sqrt(6/(fan_in+fan_out))."""
    _check_fans(fan_in, fan_out)
    a = math.sqrt(6.0 / (fan_in + fan_out))
    return ((draws * 2.0 - 1.0) * a).astype(np.float32)


def _check_fans(fan_in: int, fan_out: int) -> None:
    if fan_in < 1 or fan_out < 1:
        raise ShapeError("fan_in and fan_out must be >= 1")


@contextmanager
def overwrite(path) -> Iterator[BinaryIO]:
    """A buffered binary file that writes `path` from its first byte.

    The file is opened without O_TRUNC (created with mode 0o666 less the
    umask if it is new). An existing regular file is cut to its first byte
    instead of to zero: emptying a file makes ext4 start writeback when it
    is closed (its auto_da_alloc rule), so each overwrite would pay for a
    flush, while a cut to one byte does not. The first byte written replaces
    the one kept, so the file holds exactly the bytes written so far: a run
    killed mid-write leaves a short file that fails to load, as after
    O_TRUNC, never new bytes followed by an older file's tail. A body that
    writes nothing leaves an empty file. A symlink or hard link is written
    through and keeps its inode. A target that is not a regular file
    (/dev/stdout, a pipe, /dev/null) is never cut.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with os.fdopen(fd, "wb") as fh:
        st = os.fstat(fd)
        kept = stat.S_ISREG(st.st_mode) and st.st_size > 0
        if kept:
            os.ftruncate(fd, 1)
        try:
            yield fh
        finally:
            if kept and fh.tell() == 0:
                os.ftruncate(fd, 0)  # nothing written: drop the kept byte


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
