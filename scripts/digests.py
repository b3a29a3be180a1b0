"""Print the sha256 prefixes of the README quick-start's outputs.

    python3 scripts/digests.py

Runs, in a fresh temporary directory and from this checkout's `src`:
`synth` of the training set (8 images, seed 42) and the test set (4
images, seed 43), `train` with {"epochs": 3}, `infer` on
data/test/synth000.ppm, `eval --model --data data/test`, and
`gradcheck --seed 42`, and `synth` of 2 images of 128 px (seed 7), each
of which takes 589,824 draws in one fill. Prints one line per output:
the first 16 hex digits of the sha256 of the checkpoint, the trace, the
mask, the report, gradcheck's standard output and the 128 px set (its
files' names and bytes, in name order). A seventh line names the
OpenBLAS core (kernel) that numpy loaded, or `unknown`: the same library
and kernel give the same bytes, and another kernel may not. A change that
must keep every byte prints the same seven lines before and after.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def sweepseg(cwd: Path, *args: str) -> bytes:
    """Run one CLI command in `cwd` and return its standard output."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "sweepseg", *args], cwd=cwd, env=env,
                          capture_output=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"sweepseg {' '.join(args)} exited {proc.returncode}:\n"
                 f"{proc.stderr.decode(errors='replace')}")
    return proc.stdout


def prefix(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


CORENAME_SYMBOLS = ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                    "openblas_get_corename")


def blas_core() -> str:
    """The core name that numpy's OpenBLAS reports, or "unknown".

    The library is found by symbol, not by file name: each shared object
    mapped into this process is asked for one of CORENAME_SYMBOLS.
    """
    import numpy  # noqa: F401  (maps its BLAS into this process)

    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({f[5] for f in map(str.split, fh) if len(f) == 6 and ".so" in f[5]})
    except OSError:
        return "unknown"
    for path in paths:
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        except OSError:
            continue
        for symbol in CORENAME_SYMBOLS:
            corename = getattr(lib, symbol, None)
            if corename is not None:
                corename.restype = ctypes.c_char_p
                return corename().decode(errors="replace")
    return "unknown"


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        sweepseg(d, "synth", "--out", "data/train", "--count", "8", "--seed", "42")
        sweepseg(d, "synth", "--out", "data/test", "--count", "4", "--seed", "43")
        (d / "config.json").write_text('{"epochs": 3}')
        sweepseg(d, "train", "--data", "data/train", "--config", "config.json",
                 "--out", "model.ckpt", "--trace", "trace.csv")
        sweepseg(d, "infer", "--model", "model.ckpt", "--image", "data/test/synth000.ppm",
                 "--out", "pred.pgm")
        sweepseg(d, "eval", "--model", "model.ckpt", "--data", "data/test",
                 "--report", "report.txt")
        gradcheck = sweepseg(d, "gradcheck", "--seed", "42")
        sweepseg(d, "synth", "--out", "synth128", "--count", "2", "--size", "128", "--seed", "7")
        synth = b"".join(f.name.encode() + b"\0" + f.read_bytes()
                         for f in sorted((d / "synth128").iterdir()))
        for name in ("model.ckpt", "trace.csv", "pred.pgm", "report.txt"):
            print(f"{prefix((d / name).read_bytes())}  {name}")
        print(f"{prefix(gradcheck)}  gradcheck --seed 42")
        print(f"{prefix(synth)}  synth --count 2 --size 128 --seed 7")
    print(f"{blas_core()}  OpenBLAS core")


if __name__ == "__main__":
    main()
