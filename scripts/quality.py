"""Print the held-out quality of the default config as one JSON line.

    python3 scripts/quality.py

Runs, in a fresh temporary directory and from this checkout's `src`:
`synth` of the training set (32 images, seed 42) and the test set (150
images, seed 43, the paper's test-set size), `train` with the default
config {}, and `eval --model --data` on the test set. Prints the macro
and micro Jaccard and Dice, the first epoch whose training Dice is at
least 0.95 (null if none is), the final training loss, and the wall
seconds of `train`. Every figure but the wall time is deterministic, so
a change that moves the checkpoint bytes reports its quality delta by
running this before and after.
"""

from __future__ import annotations

import json
import tempfile
import time
from pathlib import Path

from digests import sweepseg


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        sweepseg(d, "synth", "--out", "data/train", "--count", "32", "--seed", "42")
        sweepseg(d, "synth", "--out", "data/test", "--count", "150", "--seed", "43")
        (d / "config.json").write_text("{}")
        start = time.perf_counter()
        sweepseg(d, "train", "--data", "data/train", "--config", "config.json",
                 "--out", "model.ckpt", "--trace", "trace.csv")
        train_s = time.perf_counter() - start
        sweepseg(d, "eval", "--model", "model.ckpt", "--data", "data/test",
                 "--report", "report.txt")
        report = dict(line.split("=") for line in (d / "report.txt").read_text().split())
        trace = [line.split(",") for line in (d / "trace.csv").read_text().split()]
    print(json.dumps({
        "macro_jaccard": float(report["macro.ja"]),
        "micro_jaccard": float(report["micro.ja"]),
        "macro_dice": float(report["macro.di"]),
        "micro_dice": float(report["micro.di"]),
        "first_epoch_dice_0.95": next((int(e) for e, _, dice in trace if float(dice) >= 0.95),
                                      None),
        "final_loss": float(trace[-1][1]),
        "train_s": round(train_s, 1),
    }))


if __name__ == "__main__":
    main()
