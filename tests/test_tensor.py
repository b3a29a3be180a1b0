import ast
import functools
import io
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sweepseg.data import read_pnm_file, write_pnm
from sweepseg.errors import (
    BadMagicError,
    CheckpointError,
    InvalidSeedError,
    PnmTruncatedError,
    ShapeError,
    TruncatedStreamError,
    VersionMismatchError,
)
from sweepseg.model import ModelConfig, build_model, load_model, save_model
from sweepseg.tensor import (
    _CHUNK,
    _LANE,
    Rng,
    glorot_scale,
    load_checkpoint,
    overwrite,
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
        t = glorot_scale(Rng(11).fill(2500), 3, 3)
        assert t.dtype == np.float32
        assert np.all(t > -1.0)
        assert np.all(t < 1.0)

    def test_deterministic(self):
        a = glorot_scale(Rng(3).fill(28), 10, 5)
        b = glorot_scale(Rng(3).fill(28), 10, 5)
        np.testing.assert_array_equal(a, b)

    def test_sample_mean_near_zero(self):
        t = glorot_scale(Rng(2024).fill(100_000), 3, 3)
        assert abs(float(t.mean())) < 0.01

    def test_zero_fans_rejected(self):
        draws = Rng(1).fill(4)
        with pytest.raises(ShapeError):
            glorot_scale(draws, 0, 3)
        with pytest.raises(ShapeError):
            glorot_scale(draws, 3, 0)


class TestCheckpoint:
    def test_empty_checkpoint_is_12_bytes(self):
        sink = io.BytesIO()
        save_checkpoint({}, sink)
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

    def test_stream_length_follows_the_layout(self):
        sink = io.BytesIO()
        save_checkpoint({"ab": np.ones((2, 3), np.float32)}, sink)
        # 12 header + (4 + 2 name + 4 rank + 8 dims + 24 data)
        assert len(sink.getvalue()) == 12 + 4 + 2 + 4 + 8 + 24


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


def _run_child(code: str) -> int:
    """Run `code` in a fresh interpreter that imports this tree's sweepseg; its exit code."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-c", code], env=env, timeout=300).returncode


def _umask() -> int:
    mask = os.umask(0o022)
    os.umask(mask)
    return mask


class TestOverwrite:
    """The writer against what open(path, "wb") does."""

    def test_longer_file_ends_as_a_fresh_write(self, tmp_path):
        junk = np.random.default_rng(0).bytes(20_000)
        fresh, old = tmp_path / "fresh", tmp_path / "old"
        old.write_bytes(junk)
        for path in (fresh, old):
            with overwrite(path) as fh:
                fh.write(b"abc")
                fh.write(b"defg")
        assert fresh.read_bytes() == old.read_bytes() == b"abcdefg"

    def test_shorter_file_grows(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(b"xy")
        with overwrite(path) as fh:
            fh.write(b"0123456789")
        assert path.read_bytes() == b"0123456789"

    def test_empty_body_empties_the_file(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(b"old bytes")
        with overwrite(path):
            pass
        assert path.read_bytes() == b""

    def test_a_body_that_raises_before_writing_empties_the_file(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(b"old bytes")
        with pytest.raises(RuntimeError):
            with overwrite(path):
                raise RuntimeError("before any write")
        assert path.read_bytes() == b""

    def test_the_file_holds_only_the_bytes_written_so_far(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(b"x" * 5000)
        with overwrite(path) as fh:
            assert path.read_bytes() == b"x"  # the one old byte kept until the first write
            fh.write(b"new")
            fh.flush()
            assert path.read_bytes() == b"new"
            fh.write(b" bytes")
        assert path.read_bytes() == b"new bytes"

    def test_a_raising_body_leaves_the_prefix_it_wrote(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(b"a much longer old file")
        with pytest.raises(RuntimeError, match="mid-write"):
            with overwrite(path) as fh:
                fh.write(b"new")
                raise RuntimeError("mid-write")
        assert path.read_bytes() == b"new"

    def test_keeps_the_inode(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(bytes(5000))
        inode = path.stat().st_ino
        with overwrite(path) as fh:
            fh.write(b"new")
        assert path.stat().st_ino == inode
        assert path.read_bytes() == b"new"

    def test_writes_through_a_symlink_and_a_hard_link(self, tmp_path):
        target = tmp_path / "target"
        target.write_bytes(bytes(5000))
        link, hard = tmp_path / "link", tmp_path / "hard"
        link.symlink_to(target)
        os.link(target, hard)
        with overwrite(link) as fh:
            fh.write(b"via link")
        assert link.is_symlink()
        assert target.read_bytes() == hard.read_bytes() == b"via link"
        with overwrite(hard) as fh:
            fh.write(b"hard")
        assert target.read_bytes() == b"hard"

    def test_a_new_file_gets_the_mode_of_open_wb(self, tmp_path):
        with overwrite(tmp_path / "new") as fh:
            fh.write(b"x")
        with open(tmp_path / "by_open", "wb") as fh:
            fh.write(b"x")
        mode = (tmp_path / "new").stat().st_mode & 0o777
        assert mode == (tmp_path / "by_open").stat().st_mode & 0o777
        assert mode == 0o666 & ~_umask()

    @pytest.mark.skipif(os.name != "posix", reason="needs a POSIX null device")
    def test_a_device_gets_no_truncate(self):
        with overwrite(os.devnull) as fh:
            assert fh.write(b"discarded") == 9

    def test_a_directory_is_an_os_error(self, tmp_path):
        with pytest.raises(OSError):
            with overwrite(tmp_path):
                pass

    def test_a_checkpoint_killed_mid_write_fails_to_load(self, tmp_path):
        # over an older checkpoint of the same config, new bytes followed by
        # the old tail would load as a mix of two models
        path = tmp_path / "model.ckpt"
        config = ModelConfig()
        save_model(build_model(config, Rng(1)), config, path)
        size = path.stat().st_size
        code = f"""
import os
from sweepseg import model
from sweepseg.tensor import Rng, save_checkpoint

def dying(entries, fh):
    class Sink:
        written = 0
        def write(self, data):
            fh.write(data)
            Sink.written += len(data)
            if Sink.written > {size // 2}:
                fh.flush()
                os._exit(9)
    save_checkpoint(entries, Sink())

model.save_checkpoint = dying
config = model.ModelConfig()
model.save_model(model.build_model(config, Rng(2)), config, {str(path)!r})
"""
        assert _run_child(code) == 9
        assert size // 2 < path.stat().st_size < size
        with pytest.raises(TruncatedStreamError):
            load_model(path)

    def test_a_mask_killed_mid_write_fails_to_read(self, tmp_path):
        path = tmp_path / "mask.pgm"
        write_pnm(np.ones((64, 64, 1), np.float32), path)
        header = b"P5\n64 64\n255\n"
        code = f"""
import os
from sweepseg.tensor import overwrite
with overwrite({str(path)!r}) as fh:
    fh.write({header!r} + bytes(2048))
    fh.flush()
    os._exit(9)
"""
        assert _run_child(code) == 9
        assert path.read_bytes() == header + bytes(2048)
        with pytest.raises(PnmTruncatedError):
            read_pnm_file(path)


SRC = Path(__file__).resolve().parent.parent / "src" / "sweepseg"
_WRITE_MODE = set("wax+")


def _file_writes(tree: ast.AST, writer: ast.FunctionDef | None) -> list[str]:
    """Each file write in `tree` that bypasses `writer`, as "line: what"."""
    inside = set() if writer is None else {id(n) for n in ast.walk(writer)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        owner = getattr(func.value, "id", None) if isinstance(func, ast.Attribute) else None
        if name in ("write_bytes", "write_text"):
            found.append(f"{node.lineno}: {name}")
        elif owner == "os" and name in ("open", "fdopen"):
            if id(node) not in inside:
                found.append(f"{node.lineno}: os.{name}")
        elif name == "open":
            # open(file, mode) against path.open(mode)
            at = 0 if isinstance(func, ast.Attribute) else 1
            modes = [kw.value for kw in node.keywords if kw.arg == "mode"] + node.args[at:at + 1]
            for mode in modes:
                if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) \
                        or _WRITE_MODE & set(mode.value):
                    found.append(f"{node.lineno}: open with mode {ast.unparse(mode)}")
    return found


def test_every_file_write_in_src_goes_through_overwrite():
    files = sorted(SRC.glob("*.py"))
    assert files
    writers = 0
    bypasses = []
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        writer = None
        if path.name == "tensor.py":
            writer = next(n for n in tree.body
                          if isinstance(n, ast.FunctionDef) and n.name == "overwrite")
            writers += 1
            assert _file_writes(writer, None), "overwrite opens no file"
        bypasses += [f"{path.name}:{hit}" for hit in _file_writes(tree, writer)]
    assert writers == 1
    assert bypasses == []


def test_the_write_finder_sees_every_form():
    code = """
import os
from pathlib import Path
Path("a").write_bytes(b"")
Path("a").write_text("")
open("a", "wb")
open("a", mode="a")
open("a", "r+b")
Path("a").open("w")
open("a", some_mode)
os.open("a", os.O_WRONLY)
os.fdopen(3, "wb")
open("a")
open("a", "rb")
"""
    assert len(_file_writes(ast.parse(code), None)) == 9
