"""Fast self-tests of the benchmark harness (a few seconds, no timing).

    python3 sweepbench/test_harness.py        # or: python3 -m pytest sweepbench

They show that the forward oracle catches one perturbed weight, that the
synth_io check catches a corrupted round trip, and that the span
statistics are right on fixed span lists.
"""

from __future__ import annotations

import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import reference  # noqa: E402
import run  # noqa: E402
from spans import Span, self_times  # noqa: E402
from sweepseg import data, metrics, model, tensor  # noqa: E402


def _small_model():
    params = model.build_model(model.ModelConfig(), tensor.Rng(7))
    image = np.random.default_rng(0).random((16, 16, 3)).astype(np.float32)
    return params, image


def test_forward_oracle_agrees_with_the_program():
    params, image = _small_model()
    ref = reference.forward(image, params.values)
    assert run.forward_agrees(model.forward(image, params), ref)


def test_forward_oracle_catches_one_perturbed_weight():
    params, image = _small_model()
    perturbed = model.ModelParams(values={k: v.copy() for k, v in params.values.items()})
    perturbed.values["dec2.weights"][1, 2, 3, 4] += 0.5
    ref = reference.forward(image, params.values)
    assert not run.forward_agrees(model.forward(image, perturbed), ref)


def test_synth_io_check_catches_a_bad_round_trip():
    rec = data.generate_synthetic(5, 1, 16)[0]
    buf = io.BytesIO()
    data.write_pnm(rec.image, buf)
    image = data.read_pnm(buf.getvalue())
    shifted = np.zeros_like(rec.mask)
    shifted[:, 1:] = rec.mask[:, :-1]
    _, micro, _ = metrics.evaluate_dataset([(shifted, rec.mask)])
    assert run._synth_io_ok(rec, image, rec.mask, shifted, micro)
    image[0, 0, 0] += 1.0 / 255.0
    assert not run._synth_io_ok(rec, image, rec.mask, shifted, micro)


def _span(name, start, end, parent=-1, info=None):
    return Span(name, start, end, parent, 0, info)


def test_self_time_subtracts_direct_children_only():
    spans = [_span("a", 0.0, 10.0), _span("b", 1.0, 4.0, 0), _span("c", 2.0, 3.0, 1),
             _span("d", 5.0, 6.0, 0)]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_layer_metrics_on_a_fixed_span_list():
    spans = [
        _span("model.sgd_update", 0.0, 0.001),
        _span("model.sgd_update", 1.0, 1.001),
        _span("model.decoder_matrices", 2.0, 2.010),
        _span("layers.tconv_sparse_matrix", 2.001, 2.004, 2),
        _span("model.decoder_matrices", 3.0, 3.010),
        _span("model.decoder_matrices", 4.0, 4.010),
        _span("tensor.Rng.fill", 5.0, 5.5, info=1000),
        _span("tensor.Rng.fill", 6.0, 6.5, info=3000),
        _span("model.forward", 7.0, 7.030, info=64),
        _span("layers.conv2d_forward", 7.001, 7.011, 8),
        _span("model.forward", 8.0, 8.050, info=128),
        _span("model.forward", 9.0, 9.070, info=128),
    ]
    m = run.layer_metrics(spans, cache_mb=12.5)
    assert abs(m["model.decoder_matrices.ms"] - 10.0) < 1e-9   # median of 7, 10 and 10 ms
    assert abs(m["layers.tconv_sparse_matrix.ms"] - 3.0) < 1e-9
    assert m["model.decoder_matrices.per_step"] == 1.5
    assert m["tensor.Rng.fill.draws_per_s"] == 4000.0
    assert abs(m["model.forward.ms_64"] - 30.0) < 1e-9        # whole call, child included
    assert abs(m["model.forward.ms_128"] - 60.0) < 1e-9
    assert abs(m["layers.conv2d_forward.ms"] - 10.0) < 1e-9
    assert m["layers.conv2d_backward.ms"] == 0.0              # never ran
    assert m["layers.decoder_index_mb"] == 12.5


def test_end_to_end_median_and_throughput():
    rounds = [run.Round([0.1, 0.3], 2, 8, 1.0), run.Round([0.2], 1, 2, 0.25)]
    e2e = run.end_to_end(rounds, [3.0, 1.0, 2.0], 100.0)
    assert e2e["setup_s"] == (2.0, "s")
    assert e2e["items_per_s"] == (8.0, "images/s")
    assert abs(e2e["op_ms"][0] - 200.0) < 1e-9
    assert e2e["peak_rss_mb"] == (100.0, "MB")


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_"):
            fn()
            print("ok", name)
