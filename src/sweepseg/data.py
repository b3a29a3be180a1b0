"""Dataset IO: binary PNM images, directory loading, resizing, and a
deterministic synthetic lesion generator.

All images are float32 in [0,1], channel-last. Grayscale masks are
(h, w, 1) with values exactly 0 or 1 after binarization. The synthetic
generator draws every random number from one xorshift stream in a fixed
order, so a (seed, count, size) triple always produces identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    PnmError,
    PnmMagicError,
    PnmMaxvalError,
    PnmTruncatedError,
    ShapeError,
)
from .model import check_side
from .tensor import Rng, overwrite

MASK_SUFFIX = "_segmentation"


@dataclass
class ImageRecord:
    """One dataset entry; mask is None for inference-only images."""

    id: str
    image: np.ndarray
    mask: np.ndarray | None = None


# ---------------------------------------------------------------------------
# PNM (P5 grayscale / P6 rgb), maxval 255, binary payload
# ---------------------------------------------------------------------------

# a header's fields must end within its first _MAX_HEADER bytes: a header
# that lacks a field, or pads with whitespace or an unterminated comment,
# would otherwise walk the binary payload byte by byte
_MAX_HEADER = 1024


def _read_header_tokens(data: bytes, count: int) -> tuple[list[bytes], int]:
    """Read whitespace-separated tokens, honoring # comments; returns (tokens, pos)."""
    head = data[:_MAX_HEADER]
    tokens = []
    pos = 0
    while len(tokens) < count:
        while pos < len(head) and head[pos:pos + 1].isspace():
            pos += 1
        if pos < len(head) and head[pos:pos + 1] == b"#":
            while pos < len(head) and head[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(head) and not head[pos:pos + 1].isspace() and head[pos:pos + 1] != b"#":
            pos += 1
        if pos == len(head) < len(data):
            raise PnmError(f"PNM header longer than {_MAX_HEADER} bytes")
        if pos == start:
            raise PnmTruncatedError("header ended before all fields were read")
        tokens.append(head[start:pos])
    return tokens, pos


def read_pnm(data: bytes) -> np.ndarray:
    """Decode binary PGM/PPM bytes to an (h, w, 1 or 3) float32 array in [0,1]."""
    if len(data) < 2:
        raise PnmTruncatedError("not enough bytes for a PNM magic number")
    magic = data[:2]
    if magic not in (b"P5", b"P6"):
        raise PnmMagicError(f"unsupported PNM magic {magic!r}; only binary P5/P6 are handled")
    channels = 1 if magic == b"P5" else 3
    tokens, pos = _read_header_tokens(data, 4)
    try:
        width, height, maxval = (int(t) for t in tokens[1:])
    except ValueError as e:
        raise PnmError(f"malformed PNM header field: {e}") from None
    if width < 1 or height < 1:
        raise PnmError(f"invalid PNM dimensions {width}x{height}")
    if maxval != 255:
        raise PnmMaxvalError(f"unsupported maxval {maxval}; only 255 is handled")
    pos += 1  # exactly one whitespace byte separates header and payload
    need = width * height * channels
    payload = data[pos:pos + need]
    if len(payload) < need:
        raise PnmTruncatedError(f"payload has {len(payload)} of {need} bytes")
    values = np.frombuffer(payload, dtype=np.uint8).astype(np.float32) / 255.0
    return values.reshape(height, width, channels)


def read_pnm_file(path: Path) -> np.ndarray:
    """read_pnm of a file's bytes; a parse error names the file."""
    try:
        return read_pnm(path.read_bytes())
    except PnmError as e:
        raise type(e)(f"{path.name}: {e}") from None


def write_pnm(t: np.ndarray, sink) -> int:
    """Encode an (h, w, 1 or 3) array in [0,1] as binary PGM/PPM; returns byte count."""
    if t.ndim != 3 or t.shape[2] not in (1, 3):
        raise ShapeError(f"can only write 1- or 3-channel images, got shape {t.shape}")
    h, w, c = t.shape
    magic = b"P5" if c == 1 else b"P6"
    header = magic + f"\n{w} {h}\n255\n".encode("ascii")
    payload = np.clip(np.rint(t * 255.0), 0, 255).astype(np.uint8).tobytes()
    blob = header + payload
    if hasattr(sink, "write"):
        sink.write(blob)
    else:
        with overwrite(sink) as fh:
            fh.write(blob)
    return len(blob)


def binarize_mask(gray: np.ndarray) -> np.ndarray:
    """Threshold a grayscale (h, w, 1) image at 128/255."""
    if gray.ndim != 3 or gray.shape[2] != 1:
        raise ShapeError(f"mask must be (h, w, 1), got {gray.shape}")
    return (np.rint(gray * 255.0) >= 128.0).astype(np.float32)


def resize_nearest(t: np.ndarray, out_dims: tuple[int, int]) -> np.ndarray:
    """Nearest-neighbor resize; source index = floor(dst*src/out) per axis."""
    out_h, out_w = out_dims
    if out_h < 1 or out_w < 1:
        raise ShapeError(f"invalid resize target {out_dims}")
    h, w = t.shape[:2]
    rows = (np.arange(out_h) * h) // out_h
    cols = (np.arange(out_w) * w) // out_w
    return t[rows][:, cols].copy()


# ---------------------------------------------------------------------------
# dataset directory: <id>.ppm plus optional <id>_segmentation.pgm
# ---------------------------------------------------------------------------

def load_dataset(directory, image_size: int) -> list[ImageRecord]:
    root = Path(directory)
    image_paths = {p.stem: p for p in root.glob("*.ppm")}
    mask_paths = {}
    for p in root.glob(f"*{MASK_SUFFIX}.pgm"):
        stem = p.stem[: -len(MASK_SUFFIX)]
        if stem not in image_paths:
            raise DataError(f"mask {p.name} has no matching image {stem}.ppm")
        mask_paths[stem] = p

    records = []
    for stem, path in sorted(image_paths.items()):
        image = read_pnm_file(path)
        if image.shape[2] != 3:
            raise DataError(f"{path.name}: expected a 3-channel image")
        mask = None
        if stem in mask_paths:
            gray = read_pnm_file(mask_paths[stem])
            if gray.shape[:2] != image.shape[:2]:
                raise DataError(f"{mask_paths[stem].name} is {gray.shape[1]}x{gray.shape[0]}, "
                                f"but its image {path.name} is {image.shape[1]}x{image.shape[0]}")
            mask = binarize_mask(resize_nearest(gray, (image_size, image_size)))
        image = resize_nearest(image, (image_size, image_size))
        records.append(ImageRecord(id=stem, image=image, mask=mask))
    return records


def save_dataset(records: list[ImageRecord], directory) -> None:
    """Write records back out in the same directory layout."""
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    for rec in records:
        write_pnm(rec.image, root / f"{rec.id}.ppm")
        if rec.mask is not None:
            write_pnm(rec.mask, root / f"{rec.id}{MASK_SUFFIX}.pgm")


# ---------------------------------------------------------------------------
# synthetic lesions: skin-tone background, one wobbly ellipse, optional hairs
# ---------------------------------------------------------------------------

_BG_RGB = np.array([200, 170, 150], dtype=np.float32) / 255.0
_LESION_RGB = np.array([90, 60, 50], dtype=np.float32) / 255.0
_HAIR_RGB = np.array([30, 25, 20], dtype=np.float32) / 255.0
_MAX_LESION_RETRIES = 64


def lesion_mask(size: int, params: dict) -> np.ndarray:
    """Pure boundary test: inside iff the elliptic radius stays under the
    wobbled unit circle 1 + 0.2*sin(5*theta + phi)."""
    rows = np.arange(size, dtype=np.float64)[:, None]
    cols = np.arange(size, dtype=np.float64)[None, :]
    dx = cols - params["cx"]
    dy = rows - params["cy"]
    theta = np.arctan2(dy, dx)
    rho = np.sqrt((dx / params["ax"]) ** 2 + (dy / params["by"]) ** 2)
    return rho <= 1.0 + 0.2 * np.sin(5.0 * theta + params["phi"])


def _draw_lesion_params(rng: Rng, size: int) -> dict:
    return {
        "cx": size * (0.25 + 0.5 * rng.next()),
        "cy": size * (0.25 + 0.5 * rng.next()),
        "ax": size * (0.125 + 0.25 * rng.next()),
        "by": size * (0.125 + 0.25 * rng.next()),
        "phi": 2.0 * np.pi * rng.next(),
    }


def _draw_segment(image: np.ndarray, p, q) -> None:
    steps = int(max(abs(q[0] - p[0]), abs(q[1] - p[1]))) + 1
    rr = np.rint(np.linspace(p[0], q[0], steps)).astype(int)
    cc = np.rint(np.linspace(p[1], q[1], steps)).astype(int)
    image[rr, cc] = _HAIR_RGB


def _generate_one(rng: Rng, size: int, index: int) -> tuple[ImageRecord, dict]:
    """One record plus its lesion parameters (the oracle seam for tests)."""
    for _ in range(_MAX_LESION_RETRIES):
        params = _draw_lesion_params(rng, size)
        inside = lesion_mask(size, params)
        fraction = inside.mean()
        if 0.02 <= fraction < 0.6:
            break
    else:
        raise DataError(f"no acceptable lesion after {_MAX_LESION_RETRIES} draws")

    # 12 summed uniforms approximate one gaussian per pixel per channel
    draws = rng.fill(12 * size * size * 3)
    noise = (draws.reshape(12, size, size, 3).sum(axis=0) - 6.0) * (10.0 / 255.0)
    image = np.where(inside[:, :, None], _LESION_RGB, _BG_RGB) + noise.astype(np.float32)

    hair_count = int(6.0 * rng.next())
    for _ in range(hair_count):
        segments = 2 + int(3.0 * rng.next())
        p = (rng.next() * (size - 1), rng.next() * (size - 1))
        for _ in range(segments):
            q = (min(max(p[0] + (rng.next() - 0.5) * 0.75 * size, 0.0), size - 1.0),
                 min(max(p[1] + (rng.next() - 0.5) * 0.75 * size, 0.0), size - 1.0))
            _draw_segment(image, p, q)
            p = q

    record = ImageRecord(id=f"synth{index:03d}",
                         image=np.clip(image, 0.0, 1.0).astype(np.float32),
                         mask=inside[:, :, None].astype(np.float32))
    return record, params


def generate_synthetic(seed: int, count: int, size: int) -> list[ImageRecord]:
    """Deterministic lesion images with exact masks; hairs touch the image only."""
    check_side("synthetic size", size)
    if count < 1:
        raise ConfigError(f"synthetic count must be at least 1, got {count}")
    rng = Rng(seed)
    return [_generate_one(rng, size, k)[0] for k in range(count)]
