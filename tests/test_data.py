"""Tests for PNM IO, dataset loading, and the synthetic lesion generator."""

import dataclasses
import io
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sweepseg.data import (
    ImageRecord,
    _generate_one,
    binarize_mask,
    generate_synthetic,
    lesion_mask,
    load_dataset,
    read_pnm,
    resize_nearest,
    save_dataset,
    write_pnm,
)
from sweepseg.errors import (
    ConfigError,
    DataError,
    PnmError,
    PnmMagicError,
    PnmMaxvalError,
    PnmTruncatedError,
    ShapeError,
)
from sweepseg.metrics import confusion_counts, metrics_from_counts
from sweepseg.model import MAX_IMAGE_SIZE
from sweepseg.tensor import Rng


class TestReadPnm:
    def test_worked_p5_example(self):
        data = b"P5 2 2 255 " + bytes([0, 255, 128, 64])
        t = read_pnm(data)
        assert t.shape == (2, 2, 1)
        want = np.array([[0.0, 1.0], [128 / 255, 64 / 255]], dtype=np.float32)
        assert np.allclose(t[:, :, 0], want, atol=1e-6)

    def test_single_p6_pixel(self):
        t = read_pnm(b"P6 1 1 255 " + bytes([255, 0, 0]))
        assert t.shape == (1, 1, 3)
        assert np.array_equal(t[0, 0], [1.0, 0.0, 0.0])

    def test_comments_and_whitespace_tolerated(self):
        data = b"P5\n# a comment\n2 # trailing\n\t2\r\n255\n" + bytes([1, 2, 3, 4])
        t = read_pnm(data)
        assert t.shape == (2, 2, 1)
        assert np.allclose(t.reshape(-1) * 255, [1, 2, 3, 4], atol=1e-5)
        assert read_pnm(b"P5#c\n8 4 255\n" + bytes(32)).shape == (4, 8, 1)
        # but not in place of the one whitespace byte after the maxval, which
        # would then read as the byte that ends the header
        with pytest.raises(PnmError, match="comment follows the PNM maxval"):
            read_pnm(b"P5 2 2 255#" + bytes([10, 20, 30, 40]))

    def test_unsupported_magic(self):
        with pytest.raises(PnmMagicError):
            read_pnm(b"P4 2 2 255 \x00\x00\x00\x00")
        # the magic is a token of its own: read as P5 with a width of 8, the
        # payload's first token would become the maxval of a 4x255 image
        with pytest.raises(PnmMagicError, match="b'P58'"):
            read_pnm(b"P58 4 255\n255 " + bytes(4 * 255))

    def test_wrong_maxval(self):
        with pytest.raises(PnmMaxvalError):
            read_pnm(b"P5 2 2 65535 " + bytes(8))

    def test_truncated_payload(self):
        with pytest.raises(PnmTruncatedError):
            read_pnm(b"P5 2 2 255 " + bytes([1, 2, 3]))

    def test_truncated_header(self):
        with pytest.raises(PnmTruncatedError):
            read_pnm(b"P5 2 2")

    def test_malformed_dimension(self):
        with pytest.raises(PnmError):
            read_pnm(b"P5 two 2 255 " + bytes(4))
        # int() reads all four; a field is ASCII digits only
        for header in (b"P5 +8 4 255\n", b"P5 8 4 2_55\n", b"P5 -1 2 255\n", b"P5 2 2 -255\n"):
            with pytest.raises(PnmError, match="is not a decimal number"):
                read_pnm(header + bytes(32))

    def test_header_missing_a_field_fails_before_scanning_the_payload(self):
        # without its maxval, or the byte after it, or padded with whitespace
        # or an unterminated comment, the header runs into a payload of MBs,
        # which a header scan would walk byte by byte
        for data in (b"P6 1024 768\n" + bytes(10_000_000), b"P6 1024 768 255" + bytes(10_000_000),
                     b"P6 1024 768 " + b" " * (2 << 20), b"P6 1024 768 #" + b" " * (2 << 20)):
            start = time.perf_counter()
            with pytest.raises(PnmError, match="longer than 1024 bytes"):
                read_pnm(data)
            assert time.perf_counter() - start < 0.01


_TOKENS = st.one_of(
    st.integers(-3, 8).map(lambda v: str(v).encode()),
    st.sampled_from([b"255", b"65535", b"1" * 5000, b"+2", b"0x2", b"2.0", b"\xff", b""]),
    st.binary(max_size=3))
_SEPARATORS = st.sampled_from([b" ", b"\n", b"\t", b"\r\n", b"#c\n", b" #c", b""])


@st.composite
def pnm_headers(draw):
    """A P5/P6 (or other) magic, then up to four mutated fields, then payload bytes."""
    data = draw(st.sampled_from([b"P5", b"P6"]) | st.binary(max_size=2))
    for token in draw(st.lists(_TOKENS, max_size=4)):
        data += draw(_SEPARATORS) + token
    return data + draw(_SEPARATORS) + draw(st.binary(max_size=200))


class TestReadPnmFuzz:
    @settings(max_examples=400, deadline=None)
    @example(data=b"P6 2 2 " + b"9" * 5000 + b" ")
    @given(data=st.one_of(st.binary(max_size=64), pnm_headers()))
    def test_any_bytes_raise_only_pnm_errors(self, data):
        try:
            t = read_pnm(data)
        except PnmError:
            return
        assert t.dtype == np.float32 and t.ndim == 3 and t.shape[2] in (1, 3)
        assert t.min() >= 0.0 and t.max() <= 1.0


class TestWritePnm:
    def test_header_layout_width_before_height(self):
        sink = io.BytesIO()
        write_pnm(np.zeros((2, 3, 1), np.float32), sink)
        assert sink.getvalue().startswith(b"P5\n3 2\n255\n")

    def test_byte_count(self):
        sink = io.BytesIO()
        write_pnm(np.zeros((4, 5, 3), np.float32), sink)
        assert len(sink.getvalue()) == len(b"P6\n5 4\n255\n") + 4 * 5 * 3

    def test_roundtrip_error_bound(self):
        rng = np.random.default_rng(251)
        for c in (1, 3):
            x = rng.uniform(size=(6, 5, c)).astype(np.float32)
            sink = io.BytesIO()
            write_pnm(x, sink)
            back = read_pnm(sink.getvalue())
            assert np.max(np.abs(back - x)) <= 1.0 / 510 + 1e-7

    def test_binary_mask_roundtrips_exactly(self):
        rng = np.random.default_rng(257)
        mask = (rng.uniform(size=(8, 8, 1)) < 0.5).astype(np.float32)
        sink = io.BytesIO()
        write_pnm(mask, sink)
        assert np.array_equal(read_pnm(sink.getvalue()), mask)

    def test_two_channel_rejected(self):
        with pytest.raises(ShapeError):
            write_pnm(np.zeros((2, 2, 2), np.float32), io.BytesIO())


class TestBinarize:
    def test_boundary_rule(self):
        gray = np.array([[[127 / 255], [128 / 255]]], dtype=np.float32)
        assert np.array_equal(binarize_mask(gray)[0, :, 0], [0.0, 1.0])

    def test_all_zero(self):
        assert not binarize_mask(np.zeros((4, 4, 1), np.float32)).any()

    def test_matches_per_pixel_oracle(self):
        rng = np.random.default_rng(263)
        gray = rng.uniform(size=(8, 8, 1)).astype(np.float32)
        got = binarize_mask(gray)
        for i in range(8):
            for j in range(8):
                want = 1.0 if round(float(gray[i, j, 0]) * 255) >= 128 else 0.0
                assert got[i, j, 0] == want

    def test_wrong_channels_rejected(self):
        with pytest.raises(ShapeError):
            binarize_mask(np.zeros((4, 4, 3), np.float32))


class TestResize:
    def test_integer_upscale_replicates_blocks(self):
        x = np.array([[1, 2], [3, 4]], dtype=np.float32).reshape(2, 2, 1)
        out = resize_nearest(x, (4, 4))
        want = np.repeat(np.repeat(x, 2, axis=0), 2, axis=1)
        assert np.array_equal(out, want)

    def test_identity_dims(self):
        rng = np.random.default_rng(269)
        x = rng.uniform(size=(5, 7, 3)).astype(np.float32)
        assert np.array_equal(resize_nearest(x, (5, 7)), x)

    def test_downscale_floor_rule(self):
        x = np.arange(9, dtype=np.float32).reshape(3, 3, 1)
        out = resize_nearest(x, (2, 2))
        # floor(0*3/2)=0, floor(1*3/2)=1 per axis
        assert np.array_equal(out[:, :, 0], [[0, 1], [3, 4]])

    def test_matches_index_formula_oracle(self):
        rng = np.random.default_rng(271)
        for _ in range(10):
            h, w = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            oh, ow = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            x = rng.uniform(size=(h, w, 2)).astype(np.float32)
            out = resize_nearest(x, (oh, ow))
            for i in range(oh):
                for j in range(ow):
                    assert np.array_equal(out[i, j], x[(i * h) // oh, (j * w) // ow])

    def test_masks_stay_binary(self):
        rng = np.random.default_rng(277)
        mask = (rng.uniform(size=(8, 8, 1)) < 0.5).astype(np.float32)
        out = resize_nearest(mask, (5, 11))
        assert np.all((out == 0) | (out == 1))


class TestLoadDataset:
    def _write(self, path, array):
        with open(path, "wb") as f:
            write_pnm(array, f)

    def test_pairing_rule(self, tmp_path):
        rng = np.random.default_rng(281)
        self._write(tmp_path / "a.ppm", rng.uniform(size=(4, 4, 3)).astype(np.float32))
        self._write(tmp_path / "a_segmentation.pgm",
                    (rng.uniform(size=(4, 4, 1)) < 0.5).astype(np.float32))
        self._write(tmp_path / "b.ppm", rng.uniform(size=(4, 4, 3)).astype(np.float32))
        records = load_dataset(tmp_path, 4)
        assert [r.id for r in records] == ["a", "b"]
        assert records[0].mask is not None and records[1].mask is None

    def test_empty_directory(self, tmp_path):
        assert load_dataset(tmp_path, 8) == []

    def test_corrupt_file_names_culprit(self, tmp_path):
        (tmp_path / "bad.ppm").write_bytes(b"P6 2 2 255 xx")
        with pytest.raises(PnmError, match="bad.ppm"):
            load_dataset(tmp_path, 4)

    def test_orphan_mask_rejected(self, tmp_path):
        self._write(tmp_path / "ghost_segmentation.pgm", np.zeros((2, 2, 1), np.float32))
        with pytest.raises(DataError, match="ghost"):
            load_dataset(tmp_path, 4)

    def test_mask_of_another_size_rejected_before_resizing(self, tmp_path):
        # resizing each file on its own once trained on a 32 px mask
        # stretched over a 64 px image
        rng = np.random.default_rng(284)
        self._write(tmp_path / "x.ppm", rng.uniform(size=(8, 6, 3)).astype(np.float32))
        self._write(tmp_path / "x_segmentation.pgm", np.zeros((4, 6, 1), np.float32))
        with pytest.raises(DataError, match=r"x_segmentation.pgm is 6x4, .* x.ppm is 6x8"):
            load_dataset(tmp_path, 8)

    def test_resizes_and_binarizes(self, tmp_path):
        rng = np.random.default_rng(283)
        self._write(tmp_path / "x.ppm", rng.uniform(size=(4, 6, 3)).astype(np.float32))
        self._write(tmp_path / "x_segmentation.pgm", rng.uniform(size=(4, 6, 1)).astype(np.float32))
        rec, = load_dataset(tmp_path, 8)
        assert rec.image.shape == (8, 8, 3)
        assert rec.mask.shape == (8, 8, 1)
        assert np.all((rec.mask == 0) | (rec.mask == 1))
        # binarized before the resize: the same bits as binarizing after it
        gray = read_pnm((tmp_path / "x_segmentation.pgm").read_bytes())
        assert np.array_equal(rec.mask, binarize_mask(resize_nearest(gray, (8, 8))))

    def test_save_load_roundtrip(self, tmp_path):
        records = generate_synthetic(5, 2, 16)
        save_dataset(records, tmp_path / "out")
        back = load_dataset(tmp_path / "out", 16)
        assert [r.id for r in back] == [r.id for r in records]
        for a, b in zip(records, back):
            assert np.max(np.abs(a.image - b.image)) <= 1.0 / 510 + 1e-7
            assert np.array_equal(a.mask, b.mask)

    def test_save_refuses_a_mask_it_would_not_overwrite(self, tmp_path):
        records = generate_synthetic(5, 1, 16)
        save_dataset(records, tmp_path)
        (tmp_path / "notes.txt").write_text("kept")
        maskless = [dataclasses.replace(records[0], mask=None)]
        with pytest.raises(DataError, match="synth000_segmentation.pgm"):
            save_dataset(maskless, tmp_path)
        (tmp_path / "synth000_segmentation.pgm").unlink()
        save_dataset(maskless, tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["notes.txt", "synth000.ppm"]


class TestSynthetic:
    def test_deterministic(self):
        a = generate_synthetic(42, 3, 16)
        b = generate_synthetic(42, 3, 16)
        for ra, rb in zip(a, b):
            assert ra.id == rb.id
            assert np.array_equal(ra.image, rb.image)
            assert np.array_equal(ra.mask, rb.mask)

    def test_seed_changes_output(self):
        a = generate_synthetic(1, 1, 16)[0]
        b = generate_synthetic(2, 1, 16)[0]
        assert not np.array_equal(a.image, b.image)

    def test_foreground_fraction_bounds(self):
        for rec in generate_synthetic(9, 12, 32):
            frac = rec.mask.mean()
            assert 0.02 <= frac < 0.6, frac

    def test_all_foreground_baseline_jaccard_below_0_6(self):
        for rec in generate_synthetic(10, 8, 32):
            pred = np.ones_like(rec.mask)
            report = metrics_from_counts(confusion_counts(pred, rec.mask))
            assert report.ja < 0.6

    def test_mask_equals_pure_ellipse_oracle(self):
        # hairs must never touch the mask: regenerate it from the lesion
        # parameters alone and demand equality
        seed, count, size = 77, 6, 24
        records = generate_synthetic(seed, count, size)
        rng = Rng(seed)
        for k, rec in enumerate(records):
            redone, params = _generate_one(rng, size, k)
            assert np.array_equal(rec.image, redone.image)
            oracle = lesion_mask(size, params)[:, :, None].astype(np.float32)
            assert np.array_equal(rec.mask, oracle)

    def test_value_ranges_and_dtypes(self):
        for rec in generate_synthetic(3, 4, 16):
            assert rec.image.dtype == np.float32 and rec.mask.dtype == np.float32
            assert rec.image.min() >= 0.0 and rec.image.max() <= 1.0
            assert np.all((rec.mask == 0) | (rec.mask == 1))
            assert rec.image.shape == (16, 16, 3) and rec.mask.shape == (16, 16, 1)

    def test_indivisible_size_rejected(self):
        with pytest.raises(ConfigError):
            generate_synthetic(1, 1, 60)

    def test_sizes_above_the_image_cap_rejected_before_any_draw(self, monkeypatch):
        drew = lambda *args: pytest.fail("drew from the rng")
        monkeypatch.setattr(Rng, "fill", drew)
        monkeypatch.setattr(Rng, "next", drew)
        for size in (MAX_IMAGE_SIZE + 8, 8000000):
            with pytest.raises(ConfigError, match=f"at most {MAX_IMAGE_SIZE}"):
                generate_synthetic(1, 1, size)
