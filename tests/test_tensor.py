import functools
import io
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sweepseg.errors import (
    BadMagicError,
    CheckpointError,
    InvalidSeedError,
    ShapeError,
    TruncatedStreamError,
    VersionMismatchError,
)
from sweepseg.tensor import (
    _CHUNK,
    _LANE,
    Rng,
    glorot_init,
    load_checkpoint,
    save_checkpoint,
)


def reference_xorshift64star(seed, count):
    """Independent xorshift64* oracle on numpy uint64 arithmetic."""
    return reference_stream(seed, count)[0]


def reference_stream(seed, count):
    """The oracle's `count` draws and the state it ends in."""
    values, states = reference_walk(seed, count)
    return values, states[-1]


def reference_walk(seed, count):
    """The oracle's `count` draws and its states: states[i] after i draws."""
    values, states = [], [seed]
    state = np.uint64(seed)
    mult = np.uint64(2685821657736338717)
    with np.errstate(over="ignore"):
        for _ in range(count):
            state ^= state >> np.uint64(12)
            state ^= state << np.uint64(25)
            state ^= state >> np.uint64(27)
            out = state * mult
            values.append(float(out >> np.uint64(11)) * 2.0**-53)
            states.append(int(state))
    return values, states


SEEDS = st.integers(1, (1 << 64) - 1)
# the serial loop alone, and the serial/lane crossover at one lane; 12
# lanes, a count that is no power of two; whole lane counts at each jump
# table level from one lane to one chunk (2^k and 2^k + 1 lanes, the second
# adding a level); and one and two chunks followed by nothing, by a serial
# tail alone, by whole lanes, and by lanes plus a serial tail; each with
# its neighbours
BOUNDARY_COUNTS = sorted(
    {0, 1, _LANE - 1, _LANE, _LANE + 1, 12 * _LANE - 1, 12 * _LANE, 12 * _LANE + 1}
    | {lanes * _LANE + d
       for k in range((_CHUNK // _LANE).bit_length())
       for lanes in (1 << k, (1 << k) + 1) for d in (-1, 0, 1)}
    | {k * _CHUNK + d for k in (1, 2)
       for d in (-1, 0, 1, _LANE - 1, _LANE, 2 * _LANE + 3)})
SEAM_SEED = (1 << 64) - 1


@functools.cache
def seam_walk():
    """SEAM_SEED's oracle walk, long enough for every boundary count."""
    return reference_walk(SEAM_SEED, max(BOUNDARY_COUNTS))


SMALL_COUNTS = st.one_of(st.sampled_from([c for c in BOUNDARY_COUNTS if c <= 5000]),
                         st.integers(0, 5000))
COUNTS = st.one_of(st.integers(0, 5000), st.integers(0, 600_000))


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

    @pytest.mark.parametrize("count", BOUNDARY_COUNTS)
    def test_fill_equals_the_scalar_recurrence_at_every_seam(self, count):
        values, states = seam_walk()
        rng = Rng(SEAM_SEED)
        got = rng.fill(count)
        assert got.dtype == np.float64 and got.shape == (count,)
        np.testing.assert_array_equal(got, np.array(values[:count], dtype=np.float64))
        assert rng.state == states[count]

    @settings(max_examples=40, deadline=None)
    @example(seed=1, count=0)
    @example(seed=(1 << 64) - 1, count=1)
    @example(seed=1, count=12 * 128 * 128 * 3 + 1)  # a 128 px synthetic image's fill, plus one
    @given(seed=SEEDS, count=COUNTS)
    def test_fill_equals_the_scalar_recurrence(self, seed, count):
        rng = Rng(seed)
        got = rng.fill(count)
        want, state = reference_stream(seed, count)
        assert got.dtype == np.float64 and got.shape == (count,)
        np.testing.assert_array_equal(got, np.array(want, dtype=np.float64))
        assert rng.state == state  # count 0: the seed itself

    def test_fill_holds_no_buffer_the_size_of_its_count(self):
        rng = Rng(3)
        rng.fill(1 << 20)  # warm every lazily allocated numpy buffer
        tracemalloc.start()
        try:
            rng.fill(1 << 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (1 << 20) + (1 << 20)  # the output plus a fixed 1 MB

    @settings(max_examples=30, deadline=None)
    @example(seed=1, calls=[None, 12 * _LANE, None, _LANE + 1, _CHUNK + _LANE - 1])
    @given(seed=SEEDS, calls=st.lists(st.one_of(st.none(), SMALL_COUNTS), max_size=8))
    def test_interleaved_next_and_fill_are_one_stream(self, seed, calls):
        """None is one next(); a number is one fill(number)."""
        rng = Rng(seed)
        got = []
        for call in calls:
            got.extend([rng.next()] if call is None else rng.fill(call).tolist())
        want, state = reference_stream(seed, len(got))
        assert got == want
        assert rng.state == state

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

    def test_rejected_fans_draw_nothing(self):
        rng = Rng(1)
        with pytest.raises(ShapeError):
            glorot_init([2, 2], 0, 3, rng)
        assert rng.state == 1


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
        # a mapping cannot hold a name twice, but a stream from elsewhere can
        entry = struct.pack("<I", 1) + b"a" + struct.pack("<II", 1, 1) + struct.pack("<f", 1.0)
        raw = b"RSEG" + struct.pack("<II", 1, 2) + entry + entry
        with pytest.raises(CheckpointError, match="duplicate entry name in stream: 'a'"):
            load_checkpoint(io.BytesIO(raw))

    def test_non_utf8_entry_name(self):
        raw = b"RSEG" + struct.pack("<III", 1, 1, 2) + b"\xff\xfe" \
            + struct.pack("<III", 1, 1, 0)
        with pytest.raises(CheckpointError, match="UTF-8"):
            load_checkpoint(io.BytesIO(raw))

    def test_byte_count_matches_stream(self):
        sink = io.BytesIO()
        n = save_checkpoint({"ab": np.ones((2, 3), np.float32)}, sink)
        assert n == len(sink.getvalue())
        # 12 header + (4 + 2 name + 4 rank + 8 dims + 24 data)
        assert n == 12 + 4 + 2 + 4 + 8 + 24


def _valid_checkpoint() -> bytes:
    sink = io.BytesIO()
    save_checkpoint({"enc1.weights": np.ones((2, 3), np.float32),
                     "b": np.arange(2, dtype=np.float32)}, sink)
    return sink.getvalue()


_HEADER = b"RSEG" + struct.pack("<I", 1)  # valid magic and version
_VALID_TAIL = _valid_checkpoint()[len(_HEADER):]


@st.composite
def mutated_tails(draw):
    """The body of a valid checkpoint with a few bytes overwritten, then cut."""
    tail = bytearray(_VALID_TAIL)
    for _ in range(draw(st.integers(1, 3))):
        tail[draw(st.integers(0, len(tail) - 1))] = draw(st.integers(0, 255))
    return bytes(tail[:draw(st.integers(0, len(tail)))])


class TestCheckpointFuzz:
    @settings(max_examples=300, deadline=None)
    @given(tail=st.one_of(st.binary(max_size=64), mutated_tails()))
    def test_arbitrary_body_raises_only_checkpoint_errors(self, tail):
        try:
            entries = load_checkpoint(io.BytesIO(_HEADER + tail))
        except CheckpointError:
            return
        for name, value in entries.items():
            assert isinstance(name, str)
            assert value.dtype == np.float32 and value.ndim >= 1
