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
        state = self.state
        for i in range(count):
            state ^= state >> 12
            state = (state ^ (state << 25)) & _MASK64
            state ^= state >> 27
            out[i] = ((state * _MULTIPLIER) & _MASK64) >> 11
        self.state = state
        out *= _INV_2_53
        return out


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


def _normalize_entries(entries) -> list[tuple[str, np.ndarray]]:
    if isinstance(entries, Mapping):
        pairs = list(entries.items())
    else:
        pairs = list(entries)
    seen = set()
    for name, _ in pairs:
        if name in seen:
            raise CheckpointError(f"duplicate checkpoint entry name: {name!r}")
        seen.add(name)
    return pairs


def save_checkpoint(entries, sink: BinaryIO) -> int:
    """Write named tensors to `sink` in the fixed binary format; returns bytes written.

    Layout: magic "RSEG", u32 version, u32 entry count, then per entry
    u32 name length, name bytes, u32 rank, u32 per dim, raw little-endian
    float32 data. Everything little-endian; load(save(x)) is bit-exact.
    """
    pairs = _normalize_entries(entries)
    written = 0

    def put(data: bytes) -> None:
        nonlocal written
        sink.write(data)
        written += len(data)

    put(CHECKPOINT_MAGIC)
    put(struct.pack("<II", CHECKPOINT_VERSION, len(pairs)))
    for name, tensor in pairs:
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
        name = take(name_len, "name").decode("utf-8")
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
