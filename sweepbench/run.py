"""Benchmark of sweepseg: one named workload, one process, one BLAS thread.

    python3 sweepbench/run.py --workload train64 --seed 1 --seconds 30 --trace 0

Runs from a plain checkout: the package is imported from `src`, nothing
is installed. The workload is set up afresh before each of a few equal
blocks of whole rounds of ops, run in a closed loop for `--seconds` in
all; then its outputs are checked against the oracles in `reference.py`. The last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with `--trace 0`, the per-layer metrics with
`--trace 1`. A traced run alternates traced and untraced rounds, so the
line before the result also gives the tracing overhead, and it writes its
spans to `sweepbench/out/`. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import reference  # noqa: E402
from spans import Tracer, median_ms, self_times, throughput  # noqa: E402

try:
    from sweepseg import cli, data, layers, metrics, model, renet, tensor
except ImportError as _e:  # a directory without the program: no result
    _IMPORT_ERROR = _e
else:
    _IMPORT_ERROR = None

TRAIN_DATA_SEED = 42  # the README quick-start set: 8 synthetic 64 px images
TRAIN_IMAGES = 8
TRAIN_EPOCHS = 4
CHECKPOINT_SEED = 42
INFER_SIZES = (64, 128)
INFER_IMAGES = 2  # distinct images per size, alternated round by round
SYNTH_SIZE = 64
FORWARD_TOL = 1e-4  # float32 forward vs float64 reference, probability units
MASK_MARGIN = 1e-3  # pixels this close to the threshold may go either way
# float64 central difference along one random direction at h=1e-6: relu and
# pool kinks limit agreement to about 1e-3 (seeds 0-29 gave at most 2e-4),
# so 2e-2 leaves a margin of 20
GRAD_H = 1e-6
GRAD_TOL = 2e-2
RNG_DRAWS = 4096
DRIFT_EVERY_S = 3.0


def _seed_base(seed: int, salt: int) -> int:
    """A nonzero program seed per (workload seed, use)."""
    return 1 + (seed % (1 << 24)) * 1000 + salt * 100


def _clear_decoder_cache() -> None:
    """Drop the decoder's index cache so each set-up pays the cold fill."""
    cache = getattr(layers, "_STRUCTURE_CACHE", None)
    if cache is not None:
        cache.clear()


def decoder_cache_mb() -> float:
    cache = getattr(layers, "_STRUCTURE_CACHE", None) or {}
    held = sum(part.nbytes for entry in cache.values() for part in entry
               if isinstance(part, np.ndarray))
    return held / 1e6


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _digest(params) -> str:
    h = hashlib.sha256()
    for name, value in params.values.items():
        h.update(name.encode())
        h.update(np.ascontiguousarray(value).tobytes())
    return h.hexdigest()


def _backward_name(args) -> str:
    kind = args[0].kind
    return f"renet.{kind}_backward" if kind in ("sweep", "renet_block") \
        else f"layers.{kind}_backward"


def layer_patches():
    """Every traced name, patched in the module where its caller looks it up."""
    return [
        (model, "conv2d_forward", "layers.conv2d_forward"),
        (model, "maxpool2x2_forward", "layers.maxpool2x2_forward"),
        (model, "activation_forward", "layers.activation_forward"),
        (model, "tconv_sparse_matrix", "layers.tconv_sparse_matrix"),
        (model, "tconv_forward", "layers.tconv_forward"),
        (model, "backward", _backward_name),
        (renet, "op_backward", _backward_name),
        (model, "renet_block", "renet.renet_block"),
        (model, "decoder_matrices", "model.decoder_matrices"),
        (model, "sgd_update", "model.sgd_update"),
        (model, "build_model", "model.build_model"),
        (model, "load_checkpoint", "tensor.load_checkpoint"),
        (model, "confusion_counts", "metrics.confusion_counts"),
        (metrics, "confusion_counts", "metrics.confusion_counts"),
        (cli, "run_cli", "cli.run_cli"),
        (cli, "load_model", "model.load_model"),
        (cli, "forward", "model.forward", lambda a: a[0].shape[0]),
        (cli, "read_pnm", "data.read_pnm"),
        (cli, "write_pnm", "data.write_pnm"),
        (data, "generate_synthetic", "data.generate_synthetic"),
        (data, "write_pnm", "data.write_pnm"),
        (data, "read_pnm", "data.read_pnm"),
        (tensor.Rng, "fill", "tensor.Rng.fill", lambda a: a[1]),
    ]


SELF_MS_LAYERS = (
    "layers.conv2d_forward", "layers.conv2d_backward",
    "layers.maxpool2x2_forward", "layers.maxpool2x2_backward",
    "layers.activation_forward", "layers.activation_backward",
    "layers.tconv_sparse_matrix", "layers.tconv_forward", "layers.tconv_backward",
    "renet.renet_block", "renet.renet_block_backward",
    "model.decoder_matrices", "model.sgd_update", "model.build_model",
    "model.load_model", "tensor.load_checkpoint",
    "data.generate_synthetic", "data.write_pnm", "data.read_pnm",
    "metrics.confusion_counts",
)


LAYER_UNITS = {
    "layers.decoder_index_mb": "MB",
    "model.decoder_matrices.per_step": "calls/step",
    "tensor.Rng.fill.draws_per_s": "draws/s",
}  # every other per-layer metric is in ms


def layer_metrics(spans, cache_mb: float) -> dict[str, float]:
    """Per-layer metrics from one run's spans; 0 for a layer that never ran."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for span, t in zip(spans, selfs):
        by_name[span.name].append(t)
    out = {f"{name}.ms": median_ms(by_name[name]) for name in SELF_MS_LAYERS}
    for size in INFER_SIZES:
        out[f"model.forward.ms_{size}"] = median_ms(
            [s.end - s.start for s in spans if s.name == "model.forward" and s.info == size])
    out["cli.run_cli.self_ms"] = median_ms(by_name["cli.run_cli"])
    fills = [(s.info, t) for s, t in zip(spans, selfs) if s.name == "tensor.Rng.fill"]
    out["tensor.Rng.fill.draws_per_s"] = throughput(sum(n for n, _ in fills),
                                                    sum(t for _, t in fills))
    steps = len(by_name["model.sgd_update"])
    out["model.decoder_matrices.per_step"] = \
        len(by_name["model.decoder_matrices"]) / steps if steps else 0.0
    out["layers.decoder_index_mb"] = cache_mb
    return out


@dataclass
class Round:
    """One round of a workload: its op samples in seconds, op and image counts."""

    samples: list[float]
    ops: int
    items: int
    wall: float
    traced: bool = False
    failed: bool = False
    result: object = None  # what the checks look at after the timed phase


def end_to_end(rounds, setup_times, rss_mb):
    samples = [t for r in rounds for t in r.samples]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "items_per_s": (throughput(sum(r.items for r in rounds),
                                   sum(r.wall for r in rounds)), "images/s"),
        "op_ms": (statistics.fmean(samples) * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


class Workload:
    """Set-up, rounds and checks of one workload; subclasses fill them in."""

    setup_repeats = 3

    def __init__(self, seed: int, workdir: Path, tracer: Tracer | None):
        self.seed, self.workdir, self.tracer = seed, workdir, tracer
        self.drift: list[dict[str, float]] = []

    def run(self, seconds: float):
        """Set up afresh before each of `setup_repeats` equal blocks of rounds.

        The machine drifts between a fast and a slow phase every few
        seconds; spreading the set-ups over the run keeps them from all
        landing in one phase. The drift kernel runs between rounds every
        DRIFT_EVERY_S seconds, outside every timing.
        """
        setup_times, rounds = [], []
        for _ in range(self.setup_repeats):
            self.drift.append(drift_kernel())
            with _traced(self.tracer):
                setup_times.append(self.setup())
            start = last_drift = perf_counter()
            while perf_counter() - start < seconds / self.setup_repeats:
                if perf_counter() - last_drift >= DRIFT_EVERY_S:
                    self.drift.append(drift_kernel())
                    last_drift = perf_counter()
                traced = self.tracer is not None and len(rounds) % 2 == 1
                with _traced(self.tracer if traced else None):
                    r = self.round(len(rounds))
                r.traced = traced
                rounds.append(r)
        rss = peak_rss_mb()
        cache_mb = decoder_cache_mb()
        self.drift.append(drift_kernel())
        self.check(rounds)
        return setup_times, rounds, rss, cache_mb


@contextmanager
def _traced(tracer: Tracer | None):
    if tracer is None:
        yield
        return
    tracer.install(layer_patches())
    try:
        yield
    finally:
        tracer.uninstall()


class Train64(Workload):
    """model.train, default config, on the quick-start set; op = one SGD step."""

    def __init__(self, seed, workdir, tracer):
        super().__init__(seed, workdir, tracer)
        self.config = model.ModelConfig(seed=_seed_base(seed, 1), epochs=TRAIN_EPOCHS)
        self.returns: list[float] = []
        original = model.sgd_update

        def timed_update(*args, **kwargs):
            out = original(*args, **kwargs)
            self.returns.append(perf_counter())
            if tracer is not None and tracer.op >= 0:
                tracer.op += 1
            return out

        model.sgd_update = timed_update  # the op boundary, traced or not
        self.retrain_digests: list[str] = []
        self.round_checks: list[tuple[str, float, float]] = []

    def setup(self) -> float:
        start = perf_counter()
        _clear_decoder_cache()
        self.records = data.generate_synthetic(TRAIN_DATA_SEED, TRAIN_IMAGES, 64)
        self.returns.clear()
        one_epoch = model.ModelConfig(seed=self.config.seed, epochs=1)
        params, _ = model.train(one_epoch, self.records, tensor.Rng(one_epoch.seed))
        self.retrain_digests.append(_digest(params))
        return self.returns[0] - start

    def round(self, k: int) -> Round:
        if self.tracer is not None:
            self.tracer.op = max(self.tracer.op, 0)
        self.returns.clear()
        start = perf_counter()
        params, trace = model.train(self.config, self.records, tensor.Rng(self.config.seed))
        wall = perf_counter() - start
        self.params = params
        self.round_checks.append((_digest(params), trace.entries[0][1], trace.entries[-1][1]))
        steps = len(self.returns)
        per_epoch = steps // TRAIN_EPOCHS
        r = self.returns
        # one sample per epoch after the first: the mean of its step
        # intervals, so the epoch-boundary decoder rebuild is spread over
        # the epoch's steps instead of splitting the samples into two modes
        samples = [(r[(e + 1) * per_epoch - 1] - r[e * per_epoch - 1]) / per_epoch
                   for e in range(1, TRAIN_EPOCHS)]
        return Round(samples, steps, steps * self.config.batch_size, wall)

    def check(self, rounds) -> None:
        ok = len(set(self.retrain_digests)) == 1 and self.gradient_check() <= GRAD_TOL
        first = self.round_checks[0][0]
        for r, (digest, loss_first, loss_last) in zip(rounds, self.round_checks):
            r.failed = not (ok and digest == first and loss_last < loss_first)

    def gradient_check(self) -> float:
        """Relative error of the directional derivative at the trained params."""
        values = {k: v.astype(np.float64) for k, v in self.params.values.items()}
        batch = [(rec.image.astype(np.float64), rec.mask.astype(np.float64))
                 for rec in self.records[:2]]
        rng = np.random.default_rng(self.config.seed)
        direction = {k: rng.standard_normal(v.shape) for k, v in values.items()}
        norm = np.sqrt(sum(float(np.sum(d * d)) for d in direction.values()))

        def loss(step):
            shifted = {k: v + step * direction[k] / norm for k, v in values.items()}
            return model.loss_and_gradients(batch, model.ModelParams(values=shifted))

        _, grads = loss(0.0)
        analytic = sum(float(np.sum(grads[k] * direction[k])) for k in values) / norm
        numeric = (loss(GRAD_H)[0] - loss(-GRAD_H)[0]) / (2 * GRAD_H)
        self.grad_error = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-12)
        return self.grad_error


class InferMixed(Workload):
    """`sweepseg infer` in process, alternating 64 px and 128 px requests."""

    def setup(self) -> float:
        start = perf_counter()
        _clear_decoder_cache()
        config = model.ModelConfig()
        self.params = model.build_model(config, tensor.Rng(CHECKPOINT_SEED))
        self.checkpoint = self.workdir / "model.ckpt"
        model.save_model(self.params, config, self.checkpoint)
        self.images, self.requests = {}, {}
        for salt, size in enumerate(INFER_SIZES, start=1):
            records = data.generate_synthetic(_seed_base(self.seed, salt), INFER_IMAGES, size)
            for i, rec in enumerate(records):
                src = self.workdir / f"in{size}_{i}.ppm"
                data.write_pnm(rec.image, src)
                self.images[size, i] = reference.pnm_quantized(rec.image)  # what infer reads
                self.requests[size, i] = (src, self.workdir / f"out{size}_{i}.pgm")
        for size in INFER_SIZES:
            if self.infer(size, 0) != 0:
                raise RuntimeError(f"first {size} px request failed")
        return perf_counter() - start

    def infer(self, size: int, i: int) -> int:
        src, dst = self.requests[size, i]
        return cli.run_cli(["infer", "--model", str(self.checkpoint),
                            "--image", str(src), "--out", str(dst)])

    def round(self, k: int) -> Round:
        i = k % INFER_IMAGES
        if self.tracer is not None:
            self.tracer.op = k
        start = perf_counter()
        codes = [self.infer(size, i) for size in INFER_SIZES]
        wall = perf_counter() - start
        outputs = [self.requests[size, i][1].read_bytes() for size in INFER_SIZES]
        return Round([wall], 1, len(INFER_SIZES), wall, result=(i, codes, outputs))

    def check(self, rounds) -> None:
        """Check (a): the reference forward, then every written mask against it."""
        threshold = model.ModelConfig().threshold
        good = {}
        self.forward_error = 0.0
        for (size, i), image in self.images.items():
            ref = reference.forward(image, self.params.values)
            prob = model.forward(image, self.params)
            self.forward_error = max(self.forward_error, float(np.max(np.abs(prob - ref))))
            header = f"P5\n{size} {size}\n255\n".encode()
            sure = np.abs(ref - threshold) > MASK_MARGIN
            expect = np.where(ref >= threshold, 255, 0).astype(np.uint8)
            good[size, i] = (forward_agrees(prob, ref), header, sure, expect)
        for r in rounds:
            i, codes, blobs = r.result
            r.failed = any(c != 0 for c in codes) or not all(
                _mask_matches(blob, *good[size, i])
                for size, blob in zip(INFER_SIZES, blobs))


def forward_agrees(prob, ref) -> bool:
    """Check (a): the program's probabilities against the float64 reference."""
    return prob.shape == ref.shape and float(np.max(np.abs(prob - ref))) <= FORWARD_TOL


def _mask_matches(blob: bytes, forward_ok: bool, header: bytes, sure, expect) -> bool:
    if not forward_ok or not blob.startswith(header) \
            or len(blob) != len(header) + expect.size:
        return False
    got = np.frombuffer(blob[len(header):], dtype=np.uint8).reshape(expect.shape)
    return bool(np.array_equal(got[sure], expect[sure]))


class SynthIo(Workload):
    """synth, then eval --pred --gt: one 64 px pair per op, from its own seed."""

    setup_repeats = 9  # a set-up is one cold op, about 0.1 s

    def __init__(self, seed, workdir, tracer):
        super().__init__(seed, workdir, tracer)
        self.next_seed = _seed_base(seed, 3)

    def setup(self) -> float:
        start = perf_counter()
        self.dir = Path(tempfile.mkdtemp(dir=self.workdir))
        self.op()
        return perf_counter() - start

    def op(self):
        seed = self.next_seed
        self.next_seed += 1
        records = data.generate_synthetic(seed, 1, SYNTH_SIZE)
        data.save_dataset(records, self.dir)
        rec = records[0]
        image = data.read_pnm((self.dir / f"{rec.id}.ppm").read_bytes())
        gt = data.binarize_mask(data.read_pnm(
            (self.dir / f"{rec.id}{data.MASK_SUFFIX}.pgm").read_bytes()))
        shifted = np.zeros_like(gt)
        shifted[:, 1:] = gt[:, :-1]
        _, micro, _ = metrics.evaluate_dataset([(shifted, gt)])
        return rec, image, gt, shifted, micro

    def round(self, k: int) -> Round:
        if self.tracer is not None:
            self.tracer.op = k
        start = perf_counter()
        rec, image, gt, shifted, micro = self.op()
        wall = perf_counter() - start
        return Round([wall], 1, 1, wall, failed=not _synth_io_ok(rec, image, gt, shifted, micro))

    def check(self, rounds) -> None:
        """Check (d): the reference xorshift64* against Rng.fill."""
        seed = _seed_base(self.seed, 3)
        ok = tensor.Rng(seed).fill(RNG_DRAWS).tolist() == \
            reference.xorshift64star(seed, RNG_DRAWS)
        for r in rounds:
            r.failed = r.failed or not ok


def _synth_io_ok(rec, image, gt, shifted, micro) -> bool:
    """Check (e): the PNM round trip and the confusion counts of one op."""
    if not (np.array_equal(image, reference.pnm_quantized(rec.image))
            and np.array_equal(gt, rec.mask)):
        return False
    tp, tn, fp, fn = reference.counts(shifted, gt)
    c = metrics.confusion_counts(shifted, gt)
    ratio = lambda num, den: num / den if den else 1.0
    return (c.tp, c.tn, c.fp, c.fn) == (tp, tn, fp, fn) and \
        (micro.di, micro.ja) == (ratio(2 * tp, 2 * tp + fp + fn), ratio(tp, tp + fp + fn))


WORKLOADS = {"train64": Train64, "infer_mixed": InferMixed, "synth_io": SynthIo}


def drift_kernel() -> dict[str, float]:
    """Median ms of a fixed pure-Python loop and of four 256^2 float32 GEMMs."""
    a = np.linspace(-1.0, 1.0, 256 * 256, dtype=np.float32).reshape(256, 256)
    loop, gemm = [], []
    for _ in range(3):
        start = perf_counter()
        x = 88172645463325252
        for _ in range(20000):
            x ^= (x << 13) & 0xFFFFFFFFFFFFFFFF
            x ^= x >> 7
        loop.append(perf_counter() - start)
        start = perf_counter()
        for _ in range(4):
            a @ a
        gemm.append(perf_counter() - start)
    return {"pyloop_ms": median_ms(loop), "gemm_ms": median_ms(gemm)}


def drift_summary(samples: list[dict[str, float]]) -> dict:
    """Min, median and max of each drift-kernel timing over a run."""
    out = {"samples": len(samples)}
    for key in samples[0]:
        values = [s[key] for s in samples]
        out[key] = {"min": min(values), "median": statistics.median(values), "max": max(values)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if _IMPORT_ERROR is not None:
        print(f"cannot import sweepseg from {ROOT / 'src'}: {_IMPORT_ERROR}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    tracer = Tracer() if args.trace else None
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, tracer)
        setup_times, rounds, rss, cache_mb = workload.run(args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.ops for r in rounds)
    failed = sum(r.ops for r in rounds if r.failed)
    diag = {"workload": args.workload, "seed": args.seed, "rounds": len(rounds),
            "setup_times_s": setup_times, "drift_kernel": drift_summary(workload.drift)}
    for key in ("grad_error", "forward_error"):
        if hasattr(workload, key):
            diag[key] = getattr(workload, key)
    if tracer is None:
        result = end_to_end(rounds, setup_times, rss)
    else:
        plain = end_to_end([r for r in rounds if not r.traced], setup_times, rss)
        traced = end_to_end([r for r in rounds if r.traced], setup_times, rss)
        diag["tracing_overhead"] = {
            k: {"traced": traced[k][0], "untraced": plain[k][0],
                "delta": traced[k][0] - plain[k][0]}
            for k in ("items_per_s", "op_ms")}
        result = {k: (v, LAYER_UNITS.get(k, "ms"))
                  for k, v in layer_metrics(tracer.spans, cache_mb).items()}
        dump = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(dump, diag)
        diag["span_dump"] = str(dump.relative_to(ROOT))
    print(json.dumps({"diagnostics": diag}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
