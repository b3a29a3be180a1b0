"""Tests for the command-line interface: flags, exit codes, artifacts."""

import csv
import dataclasses
import hashlib
import inspect
import json
import os
import re
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import sweepseg.data as data_module
import sweepseg.model as model_module
from sweepseg import cli, errors
from sweepseg.cli import CONFIG_KEYS, build_parser, load_config, run_cli
from sweepseg.data import read_pnm, write_pnm
from sweepseg.errors import CheckpointError, ConfigError
from sweepseg.gradcheck import CheckResult
from sweepseg.model import MAX_IMAGE_SIZE, MAX_RNN_UNITS, ModelConfig, load_model, save_model
from sweepseg.tensor import load_checkpoint, overwrite, save_checkpoint


def write_config(path, **overrides):
    doc = {"image_size": 16, "rnn_units": 8, "epochs": 2}
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return path


def make_dataset(tmp_path, name="data", count=3, seed=7, size=16):
    out = tmp_path / name
    assert run_cli(["synth", "--out", str(out), "--count", str(count),
                    "--seed", str(seed), "--size", str(size)]) == 0
    return out


class TestLoadConfig:
    def test_empty_document_gives_defaults(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{}")
        assert load_config(p) == ModelConfig()

    def test_every_key_is_honored(self, tmp_path):
        # the patch is fixed at 2, so naming it, even as 2, is an unknown key
        doc = {"seed": 9, "image_size": 32, "rnn_units": 16,
               "lr": 0.1, "momentum": 0.5, "batch_size": 2, "epochs": 7,
               "threshold": 0.25}
        assert set(doc) == set(CONFIG_KEYS)
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        assert load_config(p) == ModelConfig(**doc)
        p.write_text(json.dumps({"patch": 2}))
        with pytest.raises(ConfigError, match="unknown keys patch"):
            load_config(p)

    def test_readme_config_table_lists_every_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
        keys = re.findall(r"^\| `(\w+)` ", table, flags=re.MULTILINE)
        assert sorted(keys) == sorted(CONFIG_KEYS)

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{"epochs": 1, "banana": 2}')
        with pytest.raises(ConfigError, match="banana"):
            load_config(p)

    def test_malformed_json_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_non_object_root_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_non_numeric_value_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{"epochs": "ten"}')
        with pytest.raises(ConfigError, match="epochs"):
            load_config(p)

    def test_bool_value_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{"epochs": true}')
        with pytest.raises(ConfigError):
            load_config(p)

    @pytest.mark.parametrize("doc", [
        '{"lr": NaN}', '{"lr": Infinity}', '{"lr": 0}', '{"lr": -0.01}',
        '{"momentum": 5.0}', '{"momentum": 1}', '{"momentum": -0.1}',
        '{"momentum": NaN}', '{"momentum": -Infinity}'])
    def test_lr_and_momentum_out_of_range_rejected(self, tmp_path, doc):
        cfg = tmp_path / "c.json"
        cfg.write_text(doc)
        with pytest.raises(ConfigError):
            load_config(cfg)

    def test_sizes_above_the_caps_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"image_size": MAX_IMAGE_SIZE, "rnn_units": MAX_RNN_UNITS}))
        assert load_config(path).rnn_units == MAX_RNN_UNITS
        for doc in ({"image_size": 8000000}, {"image_size": MAX_IMAGE_SIZE + 8},
                    {"rnn_units": 100000000}, {"rnn_units": MAX_RNN_UNITS + 1}):
            path.write_text(json.dumps(doc))
            with pytest.raises(ConfigError, match="at most"):
                load_config(path)

    def test_lr_and_momentum_edges_accepted(self, tmp_path):
        for lr, momentum in [(1000, 0), (1e-30, 0.999)]:
            config = load_config(write_config(tmp_path / "c.json", lr=lr, momentum=momentum))
            assert (config.lr, config.momentum) == (lr, momentum)

    def test_every_field_accepted_and_int_fields_refuse_floats(self, tmp_path):
        p = tmp_path / "c.json"
        defaults = ModelConfig()
        for f in dataclasses.fields(ModelConfig):
            value = getattr(defaults, f.name)
            p.write_text(json.dumps({f.name: value}))
            assert load_config(p) == defaults
            if f.type == "int":
                p.write_text(json.dumps({f.name: float(value)}))
                with pytest.raises(ConfigError, match=f"{f.name} must be an integer"):
                    load_config(p)

    def test_fractional_int_key_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{"batch_size": 2.5}')
        with pytest.raises(ConfigError, match="batch_size"):
            load_config(p)


_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
    st.lists(st.integers(), max_size=2))
_DOCUMENTS = st.one_of(
    st.dictionaries(st.sampled_from(CONFIG_KEYS) | st.text(max_size=3), _JSON_VALUES,
                    max_size=4),
    _JSON_VALUES)


class TestLoadConfigFuzz:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @example(text='{"epochs": ' + "1" * 5000 + "}")  # past Python's int-parse limit
    @example(text='{"seed": "\u00e9"}')  # not ASCII
    @given(text=st.one_of(
        st.builds(json.dumps, _DOCUMENTS, ensure_ascii=st.booleans()),
        st.text(max_size=40)))
    def test_any_document_raises_only_config_errors(self, tmp_path, text):
        p = tmp_path / "c.json"
        p.write_text(text, encoding="utf-8")
        try:
            config = load_config(p)
        except ConfigError:
            return
        assert isinstance(config, ModelConfig)


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert run_cli(["bogus"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_no_subcommand(self, capsys):
        assert run_cli([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert run_cli(["gradcheck", "--bogus"]) == 1

    def test_missing_required_flag(self, capsys):
        assert run_cli(["synth", "--out", "d"]) == 1

    def test_non_integer_count(self, capsys):
        assert run_cli(["synth", "--out", "d", "--count", "x", "--seed", "1"]) == 1

    def test_help_exits_zero(self, capsys):
        assert run_cli(["--help"]) == 0
        assert "synth" in capsys.readouterr().out


class TestSynth:
    def test_writes_requested_pairs(self, tmp_path, capsys):
        out = make_dataset(tmp_path, count=3)
        assert len(list(out.glob("*.ppm"))) == 3
        assert len(list(out.glob("*_segmentation.pgm"))) == 3

    def test_two_runs_bit_identical(self, tmp_path, capsys):
        a = make_dataset(tmp_path, name="a", count=4, seed=11)
        b = make_dataset(tmp_path, name="b", count=4, seed=11)
        for pa in sorted(a.iterdir()):
            assert pa.read_bytes() == (b / pa.name).read_bytes()

    def test_seed_changes_content(self, tmp_path, capsys):
        a = make_dataset(tmp_path, name="a", seed=11)
        b = make_dataset(tmp_path, name="b", seed=12)
        assert any(pa.read_bytes() != (b / pa.name).read_bytes()
                   for pa in sorted(a.iterdir()))

    def test_zero_seed_is_a_data_error(self, tmp_path, capsys):
        assert run_cli(["synth", "--out", str(tmp_path / "d"),
                        "--count", "1", "--seed", "0"]) == 2

    def test_refuses_to_leave_an_older_sets_pairs_behind(self, tmp_path, capsys):
        # a smaller set over a larger one once left the larger set's extra
        # pairs in place, and a later load read them as part of it
        out = tmp_path / "d"
        flags = ["synth", "--out", str(out), "--size", "16"]
        assert run_cli(flags + ["--count", "4", "--seed", "1"]) == 0
        old = {p.name: p.read_bytes() for p in out.iterdir()}
        assert len(old) == 8
        capsys.readouterr()
        assert run_cli(flags + ["--count", "2", "--seed", "2"]) == 2
        err = capsys.readouterr().err
        for stem in ("synth002", "synth003"):
            assert f"{stem}.ppm" in err and f"{stem}_segmentation.pgm" in err
        assert "synth001" not in err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == old
        assert run_cli(flags + ["--count", "4", "--seed", "1"]) == 0
        assert {p.name: p.read_bytes() for p in out.iterdir()} == old


    # a size above the image cap once died in the lesion renderer with a
    # raw MemoryError (an 8000000 px side asked for 466 TiB)
    @pytest.mark.parametrize("flags", [["--size", "0"], ["--size", "-8"],
                                       ["--count", "0"], ["--count", "-2"],
                                       ["--size", str(MAX_IMAGE_SIZE + 8)],
                                       ["--size", "8000000"]])
    def test_unusable_size_or_count_exits_2_before_drawing(self, tmp_path, capsys, flags):
        out = tmp_path / "d"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's "Mean of empty slice" included
            assert run_cli(["synth", "--out", str(out), "--count", "1",
                            "--seed", "1"] + flags) == 2
        assert flags[0][2:] in capsys.readouterr().err
        assert not out.exists()


class TestTrain:
    def test_writes_checkpoint_and_trace(self, tmp_path, capsys):
        data = make_dataset(tmp_path)
        cfg = write_config(tmp_path / "c.json")
        ckpt = tmp_path / "m.ckpt"
        trace = tmp_path / "t.csv"
        assert run_cli(["train", "--data", str(data), "--config", str(cfg),
                        "--out", str(ckpt), "--trace", str(trace)]) == 0
        assert ckpt.read_bytes()[:4] == b"RSEG"
        lines = trace.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("1,")

    def test_trace_flag_optional(self, tmp_path, capsys):
        data = make_dataset(tmp_path)
        cfg = write_config(tmp_path / "c.json", epochs=1)
        assert run_cli(["train", "--data", str(data), "--config", str(cfg),
                        "--out", str(tmp_path / "m.ckpt")]) == 0

    def test_missing_data_dir(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        assert run_cli(["train", "--data", str(tmp_path / "nope"),
                        "--config", str(cfg),
                        "--out", str(tmp_path / "m.ckpt")]) == 2

    def test_bad_config_key(self, tmp_path, capsys):
        data = make_dataset(tmp_path)
        cfg = tmp_path / "c.json"
        cfg.write_text('{"mystery": 3}')
        assert run_cli(["train", "--data", str(data), "--config", str(cfg),
                        "--out", str(tmp_path / "m.ckpt")]) == 2

    def test_dead_network_exits_4_and_writes_nothing(self, tmp_path, capsys):
        # the quick-start set at lr 1000: every gradient is 0 from step 2 on
        data = make_dataset(tmp_path, count=8, seed=42, size=64)
        cfg = write_config(tmp_path / "c.json", image_size=64, rnn_units=32,
                           epochs=3, lr=1000)
        ckpt = tmp_path / "m.ckpt"
        trace = tmp_path / "t.csv"
        assert run_cli(["train", "--data", str(data), "--config", str(cfg),
                        "--out", str(ckpt), "--trace", str(trace)]) == 4
        assert "error: training died" in capsys.readouterr().err
        assert not ckpt.exists() and not trace.exists()

    def test_overlong_integer_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"epochs": ' + "1" * 5000 + "}")
        assert run_cli(["train", "--data", str(tmp_path), "--config", str(cfg),
                        "--out", str(tmp_path / "m.ckpt")]) == 2
        assert "4300 digits" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", ['{"lr": NaN}', '{"momentum": 5.0}'])
    def test_bad_lr_or_momentum_exits_2_and_writes_nothing(self, tmp_path, capsys, doc):
        data = make_dataset(tmp_path)
        cfg = tmp_path / "c.json"
        cfg.write_text(doc)
        ckpt, trace = tmp_path / "m.ckpt", tmp_path / "t.csv"
        assert run_cli(["train", "--data", str(data), "--config", str(cfg),
                        "--out", str(ckpt), "--trace", str(trace)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not ckpt.exists() and not trace.exists()

    def test_patch_other_than_2_exits_2_before_building(self, tmp_path, capsys, monkeypatch):
        # the patch is no config key: a config naming it, with any value,
        # exits 2 before anything is built
        monkeypatch.setattr(cli, "train", lambda *a: pytest.fail("training started"))
        monkeypatch.setattr(cli, "load_dataset", lambda *a: pytest.fail("data loaded"))
        ckpt = tmp_path / "m.ckpt"
        for patch in (4, 2):
            cfg = write_config(tmp_path / "c.json", image_size=32, patch=patch)
            assert run_cli(["train", "--data", str(tmp_path), "--config", str(cfg),
                            "--out", str(ckpt)]) == 2
            assert "unknown keys patch" in capsys.readouterr().err
        assert not ckpt.exists()

    def test_out_and_trace_naming_one_file_exit_1_and_write_nothing(self, tmp_path, capsys,
                                                                     monkeypatch):
        # the trace once overwrote the checkpoint, which infer then refused
        monkeypatch.setattr(cli, "load_dataset", lambda *a: pytest.fail("data loaded"))
        ckpt, loop = tmp_path / "m.ckpt", tmp_path / "loop"
        (tmp_path / "link.csv").symlink_to(ckpt)
        loop.symlink_to(tmp_path / "back")
        (tmp_path / "back").symlink_to(loop)
        for out, trace in ((ckpt, ckpt), (ckpt, tmp_path / "sub" / ".." / "m.ckpt"),
                           (ckpt, tmp_path / "link.csv"), (loop, loop)):
            assert run_cli(["train", "--data", str(tmp_path), "--config",
                            str(write_config(tmp_path / "c.json")), "--out", str(out),
                            "--trace", str(trace)]) == 1
            assert f"error: --out and --trace both name {trace}" in capsys.readouterr().err
        assert not ckpt.exists()

    def test_missing_mask_exits_2_naming_its_image(self, tmp_path, capsys):
        data = make_dataset(tmp_path, count=2)
        (data / "synth001_segmentation.pgm").unlink()
        ckpt = tmp_path / "m.ckpt"
        assert run_cli(["train", "--data", str(data), "--config",
                        str(write_config(tmp_path / "c.json")), "--out", str(ckpt)]) == 2
        assert ("error: synth001: training requires a mask for every image"
                in capsys.readouterr().err)
        assert not ckpt.exists()

    def test_three_channel_mask_exits_2_naming_it(self, tmp_path, capsys):
        data = make_dataset(tmp_path, count=2)
        write_pnm(np.zeros((16, 16, 3), np.float32), data / "synth001_segmentation.pgm")
        ckpt = tmp_path / "m.ckpt"
        assert run_cli(["train", "--data", str(data), "--config",
                        str(write_config(tmp_path / "c.json")), "--out", str(ckpt)]) == 2
        assert ("error: synth001_segmentation.pgm: expected a 1-channel mask, got 3 channels"
                in capsys.readouterr().err)
        assert not ckpt.exists()

    def test_mask_of_another_size_exits_2(self, tmp_path, capsys):
        data = make_dataset(tmp_path, count=1)
        write_pnm(np.zeros((8, 8, 1), np.float32), data / "synth000_segmentation.pgm")
        ckpt = tmp_path / "m.ckpt"
        assert run_cli(["train", "--data", str(data), "--config",
                        str(write_config(tmp_path / "c.json")), "--out", str(ckpt)]) == 2
        assert "is 8x8, but its image synth000.ppm is 16x16" in capsys.readouterr().err
        assert not ckpt.exists()

    def test_indivisible_image_size_config(self, tmp_path, capsys):
        data = make_dataset(tmp_path)
        cfg = write_config(tmp_path / "c.json", image_size=20)
        assert run_cli(["train", "--data", str(data), "--config", str(cfg),
                        "--out", str(tmp_path / "m.ckpt")]) == 2

    @pytest.mark.parametrize("doc", [{"image_size": 8000000}, {"rnn_units": 100000000}])
    def test_oversized_config_exits_2_and_writes_nothing(self, tmp_path, capsys, doc):
        # these once died in the resize (698 TiB) and in build_model (191 GiB)
        data = make_dataset(tmp_path)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        ckpt, trace = tmp_path / "m.ckpt", tmp_path / "t.csv"
        assert run_cli(["train", "--data", str(data), "--config", str(cfg),
                        "--out", str(ckpt), "--trace", str(trace)]) == 2
        assert f"error: {next(iter(doc))}" in capsys.readouterr().err
        assert not ckpt.exists() and not trace.exists()

    def test_same_checkpoint_at_any_blas_thread_count(self, tmp_path):
        # with 2 BLAS threads this set trained to other bytes before the
        # package pinned BLAS to one thread
        data = make_dataset(tmp_path, count=4, seed=42, size=32)
        cfg = tmp_path / "c.json"
        cfg.write_text('{"image_size": 32, "epochs": 1}')
        root = Path(__file__).resolve().parent.parent
        base = {k: v for k, v in os.environ.items()
                if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        base["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        hashes = set()
        for threads in (None, "1", "2"):
            env = dict(base) if threads is None else dict(base, OPENBLAS_NUM_THREADS=threads)
            ckpt = tmp_path / f"m{threads}.ckpt"
            subprocess.run([sys.executable, "-m", "sweepseg", "train", "--data", str(data),
                            "--config", str(cfg), "--out", str(ckpt)],
                           env=env, check=True, capture_output=True, timeout=300)
            hashes.add(hashlib.sha256(ckpt.read_bytes()).hexdigest())
        assert len(hashes) == 1


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One small trained model shared by the infer/eval tests."""
    root = tmp_path_factory.mktemp("trained")
    data = make_dataset(root)
    cfg = write_config(root / "c.json")
    ckpt = root / "m.ckpt"
    code = run_cli(["train", "--data", str(data), "--config", str(cfg),
                    "--out", str(ckpt)])
    assert code == 0
    return data, ckpt


def overflowing(ckpt, out):
    """A copy of the checkpoint `ckpt` at `out` whose dec1 biases are finite
    and load, but overflow float32 in the forward."""
    params, config = load_model(ckpt)
    params.values["dec1.bias"][:] = 3e38
    save_model(params, config, out)
    return out


class TestInfer:
    def test_writes_binary_p5_mask(self, trained, tmp_path, capsys):
        data, ckpt = trained
        out = tmp_path / "pred.pgm"
        assert run_cli(["infer", "--model", str(ckpt),
                        "--image", str(data / "synth000.ppm"),
                        "--out", str(out)]) == 0
        blob = out.read_bytes()
        assert blob.startswith(b"P5")
        mask = read_pnm(blob)
        assert set(np.unique(np.rint(mask * 255.0))) <= {0.0, 255.0}

    def test_indivisible_input_is_rejected(self, trained, tmp_path, capsys):
        _, ckpt = trained
        img = tmp_path / "odd.ppm"
        write_pnm(np.full((60, 60, 3), 0.5, dtype=np.float32), img)
        assert run_cli(["infer", "--model", str(ckpt), "--image", str(img),
                        "--out", str(tmp_path / "o.pgm")]) == 2
        assert "divisible" in capsys.readouterr().err

    # the cap counts pixels, whatever the sides: both sizes divide by 8 and
    # hold more than 1024 * 1024 pixels
    @pytest.mark.parametrize("width, height", [(1032, 1024), (MAX_IMAGE_SIZE ** 2 // 8 + 8, 8)])
    def test_image_above_the_pixel_cap_exits_2_before_any_conv(self, trained, tmp_path, capsys,
                                                               monkeypatch, width, height):
        _, ckpt = trained
        img = tmp_path / "big.ppm"
        img.write_bytes(f"P6\n{width} {height}\n255\n".encode() + bytes(width * height * 3))
        monkeypatch.setattr(model_module, "conv2d_forward",
                            lambda *a, **k: pytest.fail("a conv ran on an over-large image"))
        out = tmp_path / "o.pgm"
        assert run_cli(["infer", "--model", str(ckpt), "--image", str(img),
                        "--out", str(out)]) == 2
        assert f"at most {MAX_IMAGE_SIZE ** 2} pixels" in capsys.readouterr().err
        assert not out.exists()

    # the rule reads the header's (h, w), so a refused request holds the
    # file's bytes and little more: never its float32 decoding, which takes
    # 16x the bytes of a P5 payload once replicated to three channels
    @pytest.mark.parametrize("width, height, message", [
        (4096, 4096, f"at most {MAX_IMAGE_SIZE ** 2} pixels"), (4100, 4096, "divisible by 8")])
    def test_refused_image_is_never_decoded(self, trained, tmp_path, capsys,
                                            width, height, message):
        _, ckpt = trained
        img = tmp_path / "big.pgm"
        img.write_bytes(f"P5\n{width} {height}\n255\n".encode() + bytes(width * height))
        out = tmp_path / "o.pgm"
        tracemalloc.start()
        try:
            code = run_cli(["infer", "--model", str(ckpt), "--image", str(img),
                            "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert message in capsys.readouterr().err
        assert peak <= 1.2 * img.stat().st_size
        assert not out.exists()

    def test_largest_accepted_image_infers(self, trained, tmp_path, capsys):
        _, ckpt = trained
        img = tmp_path / "max.pgm"
        img.write_bytes(f"P5\n{MAX_IMAGE_SIZE} {MAX_IMAGE_SIZE}\n255\n".encode()
                        + bytes(range(256)) * (MAX_IMAGE_SIZE ** 2 // 256))
        out = tmp_path / "o.pgm"
        assert run_cli(["infer", "--model", str(ckpt), "--image", str(img),
                        "--out", str(out)]) == 0
        assert read_pnm(out.read_bytes()).shape == (MAX_IMAGE_SIZE, MAX_IMAGE_SIZE, 1)

    def test_grayscale_input_is_replicated(self, trained, tmp_path, capsys):
        _, ckpt = trained
        img = tmp_path / "gray.pgm"
        write_pnm(np.full((16, 16, 1), 0.4, dtype=np.float32), img)
        assert run_cli(["infer", "--model", str(ckpt), "--image", str(img),
                        "--out", str(tmp_path / "o.pgm")]) == 0

    def test_missing_model_file(self, tmp_path, capsys):
        img = tmp_path / "img.ppm"
        write_pnm(np.full((16, 16, 3), 0.5, dtype=np.float32), img)
        assert run_cli(["infer", "--model", str(tmp_path / "nope.ckpt"),
                        "--image", str(img),
                        "--out", str(tmp_path / "o.pgm")]) == 2

    def test_incomplete_checkpoint_exits_2(self, trained, tmp_path, capsys):
        data, ckpt = trained
        with open(ckpt, "rb") as fh:
            entries = load_checkpoint(fh)
        del entries["enc1.bias"]
        broken = tmp_path / "broken.ckpt"
        with open(broken, "wb") as fh:
            save_checkpoint(entries, fh)
        assert run_cli(["infer", "--model", str(broken),
                        "--image", str(data / "synth000.ppm"),
                        "--out", str(tmp_path / "o.pgm")]) == 2
        assert "enc1.bias" in capsys.readouterr().err

    def test_non_finite_parameter_exits_2_and_writes_no_mask(self, trained, tmp_path, capsys):
        # a NaN anywhere makes every probability NaN: an all-background mask
        data, ckpt = trained
        with open(ckpt, "rb") as fh:
            entries = load_checkpoint(fh)
        entries["dec1.bias"][0] = np.nan
        broken = tmp_path / "nan.ckpt"
        with open(broken, "wb") as fh:
            save_checkpoint(entries, fh)
        out = tmp_path / "o.pgm"
        assert run_cli(["infer", "--model", str(broken),
                        "--image", str(data / "synth000.ppm"), "--out", str(out)]) == 2
        assert "dec1.bias" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_forward_exits_2_and_writes_no_mask(self, trained, tmp_path, capsys):
        # the NaN probabilities would threshold to an all-background mask; the
        # overflow's RuntimeWarning, which the suite makes an error, stays silent
        data, ckpt = trained
        ckpt = overflowing(ckpt, tmp_path / "big.ckpt")
        out = tmp_path / "o.pgm"
        assert run_cli(["infer", "--model", str(ckpt),
                        "--image", str(data / "synth000.ppm"), "--out", str(out)]) == 2
        assert "probability map holds a non-finite value" in capsys.readouterr().err
        assert not out.exists()

    def test_huge_declared_tensor_exits_2(self, trained, tmp_path, capsys):
        data, _ = trained
        huge = tmp_path / "huge.ckpt"  # one 2^19 x 2^19 tensor, no payload
        huge.write_bytes(b"RSEG" + struct.pack("<III", 1, 1, 1) + b"w"
                         + struct.pack("<III", 2, 1 << 19, 1 << 19))
        assert run_cli(["infer", "--model", str(huge),
                        "--image", str(data / "synth000.ppm"),
                        "--out", str(tmp_path / "o.pgm")]) == 2
        assert "truncated" in capsys.readouterr().err

    def test_non_utf8_entry_name_exits_2(self, trained, tmp_path, capsys):
        data, _ = trained
        bad = tmp_path / "bad.ckpt"  # one 1-element tensor named b"\xff\xfe"
        bad.write_bytes(b"RSEG" + struct.pack("<III", 1, 1, 2) + b"\xff\xfe"
                        + struct.pack("<III", 1, 1, 0))
        assert run_cli(["infer", "--model", str(bad),
                        "--image", str(data / "synth000.ppm"),
                        "--out", str(tmp_path / "o.pgm")]) == 2
        assert "UTF-8" in capsys.readouterr().err

    def test_invalid_meta_threshold_exits_2(self, trained, tmp_path, capsys):
        data, ckpt = trained
        with open(ckpt, "rb") as fh:
            entries = load_checkpoint(fh)
        entries["meta.threshold"] = np.array([5.0], np.float32)
        broken = tmp_path / "broken.ckpt"
        with open(broken, "wb") as fh:
            save_checkpoint(entries, fh)
        out = tmp_path / "o.pgm"
        assert run_cli(["infer", "--model", str(broken),
                        "--image", str(data / "synth000.ppm"), "--out", str(out)]) == 2
        assert "threshold" in capsys.readouterr().err
        assert not out.exists()

    def test_deterministic_output(self, trained, tmp_path, capsys):
        data, ckpt = trained
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        for out in (a, b):
            assert run_cli(["infer", "--model", str(ckpt),
                            "--image", str(data / "synth001.ppm"),
                            "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestEval:
    def test_model_mode_writes_report(self, trained, tmp_path, capsys):
        data, ckpt = trained
        report = tmp_path / "r.txt"
        assert run_cli(["eval", "--model", str(ckpt), "--data", str(data),
                        "--report", str(report)]) == 0
        text = report.read_text()
        for label in ("macro", "micro"):
            for metric in ("ac", "se", "sp", "di", "ja"):
                assert f"{label}.{metric}=" in text
        table = capsys.readouterr().out
        assert table.splitlines()[0].startswith("Method")

    def test_overflowing_forward_exits_2_and_writes_no_report(self, trained, tmp_path, capsys):
        # the NaN probabilities would score as all-background masks
        data, ckpt = trained
        ckpt = overflowing(ckpt, tmp_path / "big.ckpt")
        assert run_cli(["eval", "--model", str(ckpt), "--data", str(data),
                        "--report", str(tmp_path / "r.txt"),
                        "--per-image", str(tmp_path / "rows.csv")]) == 2
        assert "probability map holds a non-finite value" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["big.ckpt"]

    def test_identical_dirs_report_all_ones(self, trained, tmp_path, capsys):
        data, _ = trained
        pred = tmp_path / "pred"
        pred.mkdir()
        for p in data.glob("*_segmentation.pgm"):
            (pred / p.name).write_bytes(p.read_bytes())
        report = tmp_path / "r.txt"
        assert run_cli(["eval", "--pred", str(pred), "--gt", str(data),
                        "--report", str(report)]) == 0
        for line in report.read_text().splitlines():
            assert line.endswith("=1.000000"), line

    def test_min_jaccard_failure_exits_3(self, trained, tmp_path, capsys):
        data, ckpt = trained
        assert run_cli(["eval", "--model", str(ckpt), "--data", str(data),
                        "--report", str(tmp_path / "r.txt"),
                        "--min-jaccard", "1.1"]) == 3
        assert "jaccard" in capsys.readouterr().err

    def test_min_jaccard_success_exits_0(self, trained, tmp_path, capsys):
        data, _ = trained
        pred = tmp_path / "pred"
        pred.mkdir()
        for p in data.glob("*_segmentation.pgm"):
            (pred / p.name).write_bytes(p.read_bytes())
        assert run_cli(["eval", "--pred", str(pred), "--gt", str(data),
                        "--report", str(tmp_path / "r.txt"),
                        "--min-jaccard", "0.99"]) == 0

    def test_non_finite_min_jaccard_is_usage_error(self, trained, tmp_path, capsys):
        # a NaN bound would compare False and pass every model
        data, _ = trained
        for bound in ("nan", "inf", "-inf"):
            report = tmp_path / "r.txt"
            assert run_cli(["eval", "--pred", str(data), "--gt", str(data),
                            "--report", str(report), "--min-jaccard", bound]) == 1
            assert "min-jaccard" in capsys.readouterr().err
            assert not report.exists()

    def test_mismatched_mask_sets(self, trained, tmp_path, capsys):
        data, _ = trained
        pred = tmp_path / "pred"
        pred.mkdir()
        masks = sorted(data.glob("*_segmentation.pgm"))
        (pred / masks[0].name).write_bytes(masks[0].read_bytes())
        assert run_cli(["eval", "--pred", str(pred), "--gt", str(data),
                        "--report", str(tmp_path / "r.txt")]) == 2

    def test_unparsable_mask_is_named(self, trained, tmp_path, capsys):
        data, _ = trained
        pred, gt = tmp_path / "pred", tmp_path / "gt"
        pred.mkdir()
        gt.mkdir()
        name = "synth000_segmentation.pgm"
        blob = (data / name).read_bytes()
        (pred / name).write_bytes(blob)
        (gt / name).write_bytes(blob[:-100])
        assert run_cli(["eval", "--pred", str(pred), "--gt", str(gt),
                        "--report", str(tmp_path / "r.txt")]) == 2
        assert f"error: {name}: payload has" in capsys.readouterr().err

    @staticmethod
    def _mask_dirs(data, tmp_path, pred_mask=None, gt_mask=None):
        """--pred and --gt dirs holding copies of data's first mask, or the given arrays."""
        name = "synth000_segmentation.pgm"
        for side, mask in (("pred", pred_mask), ("gt", gt_mask)):
            (tmp_path / side).mkdir()
            if mask is None:
                (tmp_path / side / name).write_bytes((data / name).read_bytes())
            else:
                write_pnm(mask, tmp_path / side / name)
        return ["eval", "--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "gt")]

    def test_prediction_of_another_size_exits_2_naming_it(self, trained, tmp_path, capsys):
        data, _ = trained
        args = self._mask_dirs(data, tmp_path, pred_mask=np.zeros((8, 8, 1), np.float32))
        assert run_cli(args + ["--report", str(tmp_path / "r.txt")]) == 2
        assert ("error: synth000_segmentation.pgm: the prediction is 8x8, "
                "the ground truth 16x16" in capsys.readouterr().err)
        assert not (tmp_path / "r.txt").exists()

    @pytest.mark.parametrize("side", ["pred", "gt"])
    def test_three_channel_mask_exits_2_naming_it(self, trained, tmp_path, capsys, side):
        data, _ = trained
        args = self._mask_dirs(data, tmp_path, **{f"{side}_mask": np.zeros((16, 16, 3),
                                                                            np.float32)})
        assert run_cli(args + ["--report", str(tmp_path / "r.txt")]) == 2
        assert ("error: synth000_segmentation.pgm: expected a 1-channel mask, got 3 channels"
                in capsys.readouterr().err)
        assert not (tmp_path / "r.txt").exists()

    def test_report_and_per_image_naming_one_file_exit_1_and_write_nothing(
            self, trained, tmp_path, capsys):
        # the per-image rows once overwrote the report
        data, ckpt = trained
        report = tmp_path / "r.txt"
        (tmp_path / "link.csv").symlink_to(report)
        for rows in (report, tmp_path / "sub" / ".." / "r.txt", tmp_path / "link.csv"):
            assert run_cli(["eval", "--model", str(ckpt), "--data", str(data),
                            "--report", str(report), "--per-image", str(rows)]) == 1
            assert f"error: --report and --per-image both name {rows}" in capsys.readouterr().err
            assert not report.exists()

    def test_both_modes_is_usage_error(self, trained, tmp_path, capsys):
        data, ckpt = trained
        assert run_cli(["eval", "--model", str(ckpt), "--data", str(data),
                        "--pred", str(data), "--gt", str(data),
                        "--report", str(tmp_path / "r.txt")]) == 1

    def test_incomplete_mode_is_usage_error(self, trained, tmp_path, capsys):
        _, ckpt = trained
        assert run_cli(["eval", "--model", str(ckpt),
                        "--report", str(tmp_path / "r.txt")]) == 1

    def test_no_mode_is_usage_error(self, tmp_path, capsys):
        assert run_cli(["eval", "--report", str(tmp_path / "r.txt")]) == 1

    @staticmethod
    def _per_image_means(path, report):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["id", "ac", "se", "sp", "di", "ja"]
        values = dict(line.split("=") for line in report.read_text().split())
        for k, metric in enumerate(rows[0][1:], start=1):
            mean = np.mean([float(row[k]) for row in rows[1:]])
            assert abs(mean - float(values[f"macro.{metric}"])) <= 1e-6, metric
        return [row[0] for row in rows[1:]]

    def test_per_image_rows_average_to_the_macro_report(self, trained, tmp_path, capsys):
        data, ckpt = trained
        report, rows = tmp_path / "r.txt", tmp_path / "rows.csv"
        assert run_cli(["eval", "--model", str(ckpt), "--data", str(data),
                        "--report", str(report), "--per-image", str(rows)]) == 0
        assert self._per_image_means(rows, report) == ["synth000", "synth001", "synth002"]

    def test_per_image_rows_name_the_masks_in_dir_mode(self, trained, tmp_path, capsys):
        data, _ = trained
        pred = tmp_path / "pred"
        pred.mkdir()
        for k, p in enumerate(sorted(data.glob("*_segmentation.pgm"))):
            # shift each mask by its own amount so that the rows differ
            write_pnm(np.roll(read_pnm(p.read_bytes()), k + 1, axis=1), pred / p.name)
        report, rows = tmp_path / "r.txt", tmp_path / "rows.csv"
        assert run_cli(["eval", "--pred", str(pred), "--gt", str(data),
                        "--report", str(report), "--per-image", str(rows)]) == 0
        names = self._per_image_means(rows, report)
        assert names == sorted(p.name for p in data.glob("*_segmentation.pgm"))
        assert len(set(rows.read_text().splitlines()[1:])) == 3

    def test_no_per_image_file_by_default(self, trained, tmp_path, capsys):
        data, ckpt = trained
        assert run_cli(["eval", "--model", str(ckpt), "--data", str(data),
                        "--report", str(tmp_path / "r.txt")]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.txt"]


def _junk(path, size=20_000):
    """Fill `path` with `size` random bytes, more than any output below."""
    path.write_bytes(np.random.default_rng(size).bytes(size))


class TestOverwriteOutputs:
    """Every output written over a longer file ends byte-equal to a fresh write."""

    def test_infer(self, trained, tmp_path, capsys):
        data, ckpt = trained
        fresh, old = tmp_path / "fresh.pgm", tmp_path / "old.pgm"
        _junk(old)
        for out in (fresh, old):
            assert run_cli(["infer", "--model", str(ckpt), "--image", str(data / "synth000.ppm"),
                            "--out", str(out)]) == 0
        assert old.read_bytes() == fresh.read_bytes()

    def test_synth(self, tmp_path, capsys):
        fresh = make_dataset(tmp_path, "fresh")
        old = tmp_path / "old"
        old.mkdir()
        for p in fresh.iterdir():
            _junk(old / p.name)
        make_dataset(tmp_path, "old")
        assert {p.name: p.read_bytes() for p in old.iterdir()} == \
            {p.name: p.read_bytes() for p in fresh.iterdir()}

    def test_train_checkpoint_and_trace(self, tmp_path, capsys):
        data = make_dataset(tmp_path)
        cfg = write_config(tmp_path / "c.json", epochs=1)
        outs = {}
        for side in ("fresh", "old"):
            ckpt, trace = tmp_path / f"{side}.ckpt", tmp_path / f"{side}.csv"
            if side == "old":
                _junk(ckpt, size=len(outs["fresh"][0]) + 4096)
                _junk(trace)
            assert run_cli(["train", "--data", str(data), "--config", str(cfg),
                            "--out", str(ckpt), "--trace", str(trace)]) == 0
            outs[side] = (ckpt.read_bytes(), trace.read_bytes())
        assert outs["old"] == outs["fresh"]

    def test_eval_report_and_per_image(self, trained, tmp_path, capsys):
        data, ckpt = trained
        outs = {}
        for side in ("fresh", "old"):
            report, rows = tmp_path / f"{side}.txt", tmp_path / f"{side}.csv"
            if side == "old":
                _junk(report)
                _junk(rows)
            assert run_cli(["eval", "--model", str(ckpt), "--data", str(data),
                            "--report", str(report), "--per-image", str(rows)]) == 0
            outs[side] = (report.read_bytes(), rows.read_bytes())
        assert outs["old"] == outs["fresh"]

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
    def test_infer_to_dev_stdout_and_dev_null(self, trained, tmp_path, capsys):
        data, ckpt = trained
        fresh = tmp_path / "fresh.pgm"
        args = ["infer", "--model", str(ckpt), "--image", str(data / "synth000.ppm"), "--out"]
        assert run_cli(args + [str(fresh)]) == 0
        assert run_cli(args + [os.devnull]) == 0
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run([sys.executable, "-m", "sweepseg"] + args + ["/dev/stdout"],
                              env=env, capture_output=True, check=True, timeout=300)
        assert proc.stdout == fresh.read_bytes()

    def test_write_pnm_to_dev_null(self):
        # a device is written through, never cut
        write_pnm(np.zeros((4, 6, 1), np.float32), os.devnull)


class TestOneWriter:
    def test_every_output_file_is_written_by_overwrite(self, tmp_path, tmp_path_factory,
                                                       monkeypatch, capsys):
        # the one writer of every file a command leaves behind: each
        # module's own name for it records the path it opens
        written = set()

        def recording(path):
            written.add(Path(path).resolve())
            return overwrite(path)

        for module in (cli, data_module, model_module):
            monkeypatch.setattr(module, "overwrite", recording)
        cfg = write_config(tmp_path_factory.mktemp("config") / "c.json", epochs=1)
        data = make_dataset(tmp_path)
        ckpt, out = tmp_path / "m.ckpt", tmp_path / "pred.pgm"
        for argv in (["train", "--data", str(data), "--config", str(cfg), "--out", str(ckpt),
                      "--trace", str(tmp_path / "trace.csv")],
                     ["infer", "--model", str(ckpt), "--image", str(data / "synth000.ppm"),
                      "--out", str(out)],
                     ["eval", "--model", str(ckpt), "--data", str(data),
                      "--report", str(tmp_path / "r.txt"),
                      "--per-image", str(tmp_path / "rows.csv")]):
            assert run_cli(argv) == 0
        files = {p.resolve() for p in tmp_path.rglob("*") if p.is_file()}
        assert len(files) == 6 + 5  # three pairs, a checkpoint, a trace, a mask, two reports
        assert written == files


def with_meta(ckpt, out, key, value):
    """A copy of the checkpoint `ckpt` at `out` with one meta entry replaced."""
    with open(ckpt, "rb") as fh:
        entries = load_checkpoint(fh)
    entries[f"meta.{key}"] = np.array([value], np.float32)
    with open(out, "wb") as fh:
        save_checkpoint(entries, fh)
    return out


# one rule for the JSON config, the checkpoint meta and a direct
# ModelConfig call: each bad value is refused by all three, naming its key
# (a patch is no config field, so only the two files can carry one)
BAD_VALUES = [("image_size", side) for side in (0, -8, 12, MAX_IMAGE_SIZE + 8)] + [
    ("image_size", 16.9), ("rnn_units", 8.7)]


class TestOneConfigRule:
    @pytest.mark.parametrize("key, value", BAD_VALUES + [("patch", 2.5)])
    def test_config_file_refuses(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path / "c.json", **{key: value})
        with pytest.raises(ConfigError, match=key):
            load_config(cfg)
        ckpt = tmp_path / "m.ckpt"
        assert run_cli(["train", "--data", str(tmp_path), "--config", str(cfg),
                        "--out", str(ckpt)]) == 2
        assert key in capsys.readouterr().err
        assert not ckpt.exists()

    @pytest.mark.parametrize("key, value", BAD_VALUES + [("patch", 2.5)])
    def test_checkpoint_meta_refuses(self, trained, tmp_path, capsys, key, value):
        data, ckpt = trained
        broken = with_meta(ckpt, tmp_path / "broken.ckpt", key, value)
        with pytest.raises(CheckpointError, match=key):
            load_model(broken)
        out = tmp_path / "o.pgm"
        assert run_cli(["infer", "--model", str(broken),
                        "--image", str(data / "synth000.ppm"), "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", BAD_VALUES + [
        ("epochs", True), ("lr", False), ("seed", 42.0), ("batch_size", "4"),
        ("threshold", None), ("momentum", [0.5])])
    def test_direct_construction_refuses(self, key, value):
        with pytest.raises(ConfigError, match=key):
            ModelConfig(**{key: value})

    def test_an_int_lr_beyond_the_float_range_is_refused(self):
        # math.isfinite would convert the int to float and overflow
        for lr in (10 ** 400, -10 ** 400):
            with pytest.raises(ConfigError, match="lr"):
                ModelConfig(lr=lr)
        assert ModelConfig(lr=10 ** 300).lr == 10 ** 300

    def test_an_int_lr_beyond_the_float_range_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"lr": 1' + "0" * 400 + "}")
        ckpt = tmp_path / "m.ckpt"
        assert run_cli(["train", "--data", str(tmp_path), "--config", str(cfg),
                        "--out", str(ckpt)]) == 2
        assert "lr must be a finite number" in capsys.readouterr().err
        assert not ckpt.exists()

    def test_numbers_of_any_kind_are_accepted(self):
        config = ModelConfig(image_size=np.int64(32), rnn_units=np.uint8(4),
                             lr=np.float32(0.5), momentum=0, threshold=1)
        assert config == ModelConfig(image_size=32, rnn_units=4, lr=0.5, momentum=0.0,
                                     threshold=1.0)

    def test_a_built_config_refuses_assignment(self):
        config = ModelConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.image_size = 0
        assert config == ModelConfig()

    def test_whole_meta_entries_keep_their_field_types(self, trained, tmp_path):
        _, ckpt = trained
        _, config = load_model(with_meta(ckpt, tmp_path / "t.ckpt", "threshold", 1.0))
        assert type(config.threshold) is float and config.threshold == 1.0
        assert type(config.image_size) is int and type(config.rnn_units) is int


class TestSharedParser:
    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_consecutive_calls_are_independent(self, trained, tmp_path, capsys):
        data, ckpt = trained
        pred, gt = tmp_path / "pred", tmp_path / "gt"
        pred.mkdir()
        gt.mkdir()
        name = "synth000_segmentation.pgm"
        (gt / name).write_bytes((data / name).read_bytes())
        infer = ["infer", "--model", str(ckpt), "--image", str(data / "synth000.ppm"),
                 "--out", str(pred / name)]
        assert run_cli(infer) == 0
        mask = (pred / name).read_bytes()
        evaluate = ["eval", "--pred", str(pred), "--gt", str(gt)]
        assert run_cli(evaluate + ["--report", str(tmp_path / "a.txt"),
                                   "--min-jaccard", "1.1"]) == 3
        # no --min-jaccard left over from the call before
        assert run_cli(evaluate + ["--report", str(tmp_path / "b.txt")]) == 0
        assert (tmp_path / "a.txt").read_text() == (tmp_path / "b.txt").read_text()
        assert run_cli(["infer", "--model", str(ckpt)]) == 1
        (pred / name).unlink()
        assert run_cli(infer) == 0
        assert (pred / name).read_bytes() == mask


class TestGradcheckCommand:
    def test_passes_and_prints_every_layer(self, capsys):
        assert run_cli(["gradcheck", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        for name in ("conv3x3", "tconv4x4_s2", "maxpool2x2",
                     "relu", "sigmoid", "bce", "sweep_down",
                     "renet_block"):
            assert name in out
        assert "FAIL" not in out

    def test_failing_suite_exits_3(self, monkeypatch, capsys):
        import sweepseg.cli as cli_module

        def fake_suite(seed):
            return [CheckResult("conv3x3", 0.5, 1e-6)]

        monkeypatch.setattr(cli_module, "run_suite", fake_suite)
        assert run_cli(["gradcheck"]) == 3
        assert "FAIL" in capsys.readouterr().out


class TestExitCodes:
    def test_every_error_class_exits_with_its_documented_code(self, monkeypatch, capsys):
        # the exit code that the cli docstring and README give each base class
        documented = {errors.InputError: 2, errors.TrainingDivergedError: 4}

        class NewInputError(errors.InputError):
            """A subclass that cli.py has never heard of."""

        classes = [c for _, c in inspect.getmembers(errors, inspect.isclass)
                   if c.__module__ == errors.__name__]
        assert {errors.ShapeError, errors.PnmTruncatedError,
                errors.TrainingDivergedError} <= set(classes)
        for cls in classes + [NewInputError]:
            codes = [documented[base] for base in cls.__mro__ if base in documented]
            assert len(codes) == 1, f"{cls.__name__} has no documented exit code"

            def failing(seed, cls=cls):
                raise cls(f"{cls.__name__} raised")

            monkeypatch.setattr(cli, "run_suite", failing)
            assert run_cli(["gradcheck"]) == codes[0], cls.__name__
            assert f"error: {cls.__name__} raised" in capsys.readouterr().err
