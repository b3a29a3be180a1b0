import io
import struct

import numpy as np
import pytest

from sweepseg.errors import (
    BadMagicError,
    CheckpointError,
    InvalidSeedError,
    ShapeError,
    TruncatedStreamError,
    VersionMismatchError,
)
from sweepseg.tensor import Rng, glorot_init, load_checkpoint, save_checkpoint


def reference_xorshift64star(seed, count):
    """Independent xorshift64* oracle on numpy uint64 arithmetic."""
    values = []
    state = np.uint64(seed)
    mult = np.uint64(2685821657736338717)
    with np.errstate(over="ignore"):
        for _ in range(count):
            state ^= state >> np.uint64(12)
            state ^= state << np.uint64(25)
            state ^= state >> np.uint64(27)
            out = state * mult
            values.append(float(out >> np.uint64(11)) * 2.0**-53)
    return values


class TestRng:
    def test_matches_reference_for_seed_1(self):
        rng = Rng(1)
        assert [rng.next() for _ in range(20)] == reference_xorshift64star(1, 20)

    def test_matches_reference_for_other_seeds(self):
        for seed in (2, 42, 123456789, (1 << 63) + 5):
            rng = Rng(seed)
            assert [rng.next() for _ in range(10)] == reference_xorshift64star(seed, 10)

    def test_same_seed_same_prefix(self):
        a = Rng(99).fill(1000)
        b = Rng(99).fill(1000)
        np.testing.assert_array_equal(a, b)

    def test_streams_equal_for_1e6_draws(self):
        a = Rng(1234).fill(1_000_000)
        b = Rng(1234).fill(1_000_000)
        np.testing.assert_array_equal(a, b)

    def test_zero_seed_rejected(self):
        with pytest.raises(InvalidSeedError):
            Rng(0)
        with pytest.raises(InvalidSeedError):
            Rng(1 << 64)  # zero modulo 2^64

    def test_values_in_unit_interval(self):
        u = Rng(5).fill(10000)
        assert np.all(u >= 0.0)
        assert np.all(u < 1.0)

    def test_fill_matches_next(self):
        r1, r2 = Rng(17), Rng(17)
        batch = r1.fill(32)
        singles = [r2.next() for _ in range(32)]
        np.testing.assert_array_equal(batch, np.array(singles))
        assert r1.state == r2.state


class TestGlorot:
    def test_unit_bound_when_fans_are_3(self):
        t = glorot_init([50, 50], 3, 3, Rng(11))
        assert np.all(t > -1.0)
        assert np.all(t < 1.0)

    def test_deterministic(self):
        a = glorot_init([4, 7], 10, 5, Rng(3))
        b = glorot_init([4, 7], 10, 5, Rng(3))
        np.testing.assert_array_equal(a, b)

    def test_sample_mean_near_zero(self):
        t = glorot_init([100_000], 3, 3, Rng(2024))
        assert abs(float(t.mean())) < 0.01

    def test_zero_fans_rejected(self):
        with pytest.raises(ShapeError):
            glorot_init([2, 2], 0, 3, Rng(1))
        with pytest.raises(ShapeError):
            glorot_init([2, 2], 3, 0, Rng(1))


class TestCheckpoint:
    def test_empty_checkpoint_is_12_bytes(self):
        sink = io.BytesIO()
        n = save_checkpoint({}, sink)
        assert n == 12
        assert len(sink.getvalue()) == 12
        assert load_checkpoint(io.BytesIO(sink.getvalue())) == {}

    def test_roundtrip_single_tensor(self):
        t = np.arange(4, dtype=np.float32).reshape(2, 2)
        sink = io.BytesIO()
        save_checkpoint({"w": t}, sink)
        loaded = load_checkpoint(io.BytesIO(sink.getvalue()))
        assert list(loaded) == ["w"]
        assert loaded["w"].tobytes() == t.tobytes()
        assert loaded["w"].shape == (2, 2)

    def test_roundtrip_many_random_tensors(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            entries = {}
            for k in range(rng.integers(1, 6)):
                shape = [int(d) for d in rng.integers(1, 5, size=rng.integers(1, 4))]
                entries[f"t{k}"] = rng.standard_normal(shape).astype(np.float32)
            sink = io.BytesIO()
            save_checkpoint(entries, sink)
            loaded = load_checkpoint(io.BytesIO(sink.getvalue()))
            assert list(loaded) == list(entries)
            for name in entries:
                assert loaded[name].tobytes() == entries[name].tobytes()
                assert loaded[name].shape == entries[name].shape

    def test_bad_magic(self):
        data = b"XXXX" + b"\x00" * 8
        with pytest.raises(BadMagicError):
            load_checkpoint(io.BytesIO(data))

    def test_version_mismatch(self):
        sink = io.BytesIO()
        save_checkpoint({"a": np.ones((1,), np.float32)}, sink)
        raw = bytearray(sink.getvalue())
        raw[4] = 9
        with pytest.raises(VersionMismatchError):
            load_checkpoint(io.BytesIO(bytes(raw)))

    def test_truncated_stream(self):
        sink = io.BytesIO()
        save_checkpoint({"a": np.ones((3, 3), np.float32)}, sink)
        raw = sink.getvalue()
        with pytest.raises(TruncatedStreamError):
            load_checkpoint(io.BytesIO(raw[:-5]))
        with pytest.raises(TruncatedStreamError):
            load_checkpoint(io.BytesIO(raw[:7]))

    def test_huge_declared_sizes_in_a_file(self, tmp_path):
        # a real file: its reader would allocate a whole oversized read up front
        header = b"RSEG" + struct.pack("<II", 1, 1)
        cases = {
            "data": struct.pack("<I", 1) + b"w" + struct.pack("<III", 2, 1 << 19, 1 << 19),
            "name": struct.pack("<I", 0xFFFFFFFF) + b"w",
            "dims": struct.pack("<I", 1) + b"w" + struct.pack("<I", 0xFFFFFFFF),
        }
        for what, body in cases.items():
            path = tmp_path / f"{what}.ckpt"
            path.write_bytes(header + body)
            with open(path, "rb") as fh, pytest.raises(TruncatedStreamError, match=what):
                load_checkpoint(fh)
        assert (tmp_path / "data.ckpt").stat().st_size == 29

    def test_duplicate_names_rejected(self):
        with pytest.raises(CheckpointError):
            save_checkpoint([("a", np.ones(1, np.float32)), ("a", np.ones(1, np.float32))], io.BytesIO())

    def test_byte_count_matches_stream(self):
        sink = io.BytesIO()
        n = save_checkpoint({"ab": np.ones((2, 3), np.float32)}, sink)
        assert n == len(sink.getvalue())
        # 12 header + (4 + 2 name + 4 rank + 8 dims + 24 data)
        assert n == 12 + 4 + 2 + 4 + 8 + 24
