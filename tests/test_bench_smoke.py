"""Smoke test of the benchmark harness against the current program.

`sweepbench/run.py` traces the program by replacing module globals by
name, so a renamed or bypassed function makes its per-layer metric read 0
without any error, and a broken call path ends the run with no result.
One short traced run per workload catches both.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

NONZERO = {
    "train64": ["layers.conv2d_forward.ms", "layers.conv2d_backward.ms",
                "layers.maxpool2x2_forward.ms", "layers.tconv_forward.ms",
                "layers.tconv_backward.ms", "layers.activation_forward.ms",
                "renet.renet_block.ms", "model.sgd_update.ms", "model.build_model.ms"],
    "infer_mixed": ["model.forward.ms_64", "model.forward.ms_128",
                    "layers.activation_forward.ms"],
    "synth_io": ["tensor.Rng.fill.draws_per_s", "data.generate_synthetic.ms",
                 "data.read_pnm.ms", "metrics.confusion_counts.ms"],
}


@pytest.mark.parametrize("workload", sorted(NONZERO))
def test_traced_run_is_correct_and_sees_every_layer(workload):
    proc = subprocess.run(
        [sys.executable, "sweepbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    metrics = result["metrics"]
    for name in NONZERO[workload]:
        assert metrics[name]["value"] > 0, name
