"""End-to-end acceptance gate.

Each test exercises one shipping criterion at its stated tolerance and
prints a single [PASS]/[FAIL] line (visible with pytest -s or -rA).
The slow full-training checks sit at the bottom of the file.
"""

import time

import numpy as np

from sweepseg.cli import run_cli
from sweepseg.data import generate_synthetic
from sweepseg.gradcheck import LINEAR_TOL, NONLINEAR_TOL, run_suite
from sweepseg.layers import tconv_sparse_matrix
from sweepseg.metrics import (
    MetricsReport,
    confusion_counts,
    evaluate_dataset,
    format_report,
    metrics_from_counts,
)
from sweepseg.model import (
    ModelConfig,
    _encode_tape,
    _forward_tape,
    build_model,
    forward,
    predict_mask,
    train,
)
from sweepseg.renet import SweepParams, directional_sweep, merge_patches, split_patches
from sweepseg.tensor import Rng

LINEAR_CHECKS = {"conv3x3", "conv3x3_s2", "tconv4x4_s2", "crop"}


def report(ok: bool, name: str, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


def draw(rng: Rng, shape, lo=-1.0, hi=1.0) -> np.ndarray:
    return (lo + (hi - lo) * rng.fill(int(np.prod(shape)))).reshape(shape)


def test_gradient_suite():
    start = time.monotonic()
    results = run_suite(42)
    elapsed = time.monotonic() - start
    worst_linear = max(r.max_rel_error for r in results if r.name in LINEAR_CHECKS)
    worst_other = max(r.max_rel_error for r in results if r.name not in LINEAR_CHECKS)
    ok = (worst_linear < LINEAR_TOL and worst_other < NONLINEAR_TOL
          and all(r.passed for r in results) and elapsed < 60.0)
    report(ok, "gradient suite",
           f"linear {worst_linear:.2e} < 1e-6, nonlinear {worst_other:.2e} < 1e-4, "
           f"{elapsed:.1f}s < 60s")


def scatter_tconv(x, weights, stride):
    """Dense scatter-accumulate transposed convolution, element by element."""
    in_h, in_w, ci = x.shape
    k, _, _, co = weights.shape
    out = np.zeros(((in_h - 1) * stride + k, (in_w - 1) * stride + k, co))
    for i in range(in_h):
        for j in range(in_w):
            for c in range(ci):
                for ki in range(k):
                    for kj in range(k):
                        for o in range(co):
                            out[i * stride + ki, j * stride + kj, o] += \
                                x[i, j, c] * weights[ki, kj, c, o]
    return out


def test_sparse_decoding_matches_dense_scatter():
    rng = Rng(2024)
    worst = 0.0
    for _ in range(100):
        k = 1 + int(rng.next() * 4)
        stride = 1 + int(rng.next() * 3)
        in_h = 1 + int(rng.next() * 5)
        in_w = 1 + int(rng.next() * 5)
        ci = 1 + int(rng.next() * 3)
        co = 1 + int(rng.next() * 3)
        x = draw(rng, (in_h, in_w, ci))
        w = draw(rng, (k, k, ci, co))
        matrix = tconv_sparse_matrix(w, (in_h, in_w), stride)
        got = matrix.matvec(x.reshape(-1)).reshape(matrix.out_dims)
        want = scatter_tconv(x, w, stride)
        worst = max(worst, float(np.abs(got - want).max()))
    report(worst <= 1e-6, "sparse decoding",
           f"max |sparse - scatter| {worst:.2e} <= 1e-6 over 100 shapes")


def test_shape_contract():
    ok = True
    details = []
    for size in (32, 64):
        config = ModelConfig(image_size=size)
        params = build_model(config, Rng(5))
        image = draw(Rng(6), (size, size, 3), lo=0.0, hi=1.0)
        out, tape = _forward_tape(image, params)
        _, enc_tape = _encode_tape(image, params)
        convs = sum(1 for _, rec in enc_tape if rec.kind == "conv2d")
        pools = sum(1 for _, rec in enc_tape if rec.kind == "maxpool2x2")
        coupled = next(rec.out_shape[2] for _, rec in tape if rec.kind == "renet_block")
        ok &= (out.shape == (size, size, 1) and convs == 7 and pools == 2
               and coupled == 2 * config.rnn_units)
        details.append(f"{size}px -> {out.shape[0]}x{out.shape[1]}, "
                       f"{convs} convs, {pools} pools, {coupled} coupled channels")
    report(ok, "shape contract", "; ".join(details))


def test_patch_algebra():
    rng = Rng(77)
    identity_ok = decouple_ok = True
    mirror_worst = 0.0
    for _ in range(20):
        feature = draw(rng, (8, 12, 3))
        grid = split_patches(feature, 2, 2)
        identity_ok &= np.array_equal(merge_patches(grid, 2, 2), feature)

        mk = lambda: SweepParams(wx=draw(rng, (12, 4), lo=-0.5, hi=0.5),
                                 wz=draw(rng, (4, 4), lo=-0.5, hi=0.5),
                                 bias=draw(rng, (4,), lo=-0.5, hi=0.5))
        down_p, up_p = mk(), mk()
        down1, _ = directional_sweep(grid, "down", down_p)
        up1, _ = directional_sweep(grid, "up", up_p)
        coupled1 = np.concatenate([down1, up1], axis=2)

        up_p2 = SweepParams(wx=up_p.wx + 0.1, wz=up_p.wz - 0.1, bias=up_p.bias + 1.0)
        down2, _ = directional_sweep(grid, "down", down_p)
        up2, _ = directional_sweep(grid, "up", up_p2)
        coupled2 = np.concatenate([down2, up2], axis=2)
        decouple_ok &= np.array_equal(coupled1[:, :, :4], coupled2[:, :, :4])
        decouple_ok &= down1.tobytes() == down2.tobytes()

        # an up sweep over the row-reversed patch grid mirrors the down sweep
        up_f, _ = directional_sweep(grid[::-1].copy(), "up", down_p)
        mirror_worst = max(mirror_worst, float(np.abs(down1 - up_f[::-1]).max()))
        right_p = mk()
        right1, _ = directional_sweep(grid, "right", right_p)
        left_f, _ = directional_sweep(grid[:, ::-1].copy(), "left", right_p)
        mirror_worst = max(mirror_worst, float(np.abs(right1 - left_f[:, ::-1]).max()))
    ok = identity_ok and decouple_ok and mirror_worst <= 1e-6
    report(ok, "patch algebra",
           f"merge(split) identity {identity_ok}, decoupling bit-identical "
           f"{decouple_ok}, mirror symmetry {mirror_worst:.2e} <= 1e-6")


def test_metric_oracle():
    rng = Rng(31)
    exact = 0
    for _ in range(1000):
        pred = (rng.fill(256) > 0.5).astype(np.float32).reshape(16, 16)
        gt = (rng.fill(256) > 0.5).astype(np.float32).reshape(16, 16)
        counts = confusion_counts(pred, gt)
        got = metrics_from_counts(counts).values()

        tp = tn = fp = fn = 0
        for p, g in zip(pred.reshape(-1).tolist(), gt.reshape(-1).tolist()):
            tp += p == 1 and g == 1
            fp += p == 1 and g == 0
            fn += p == 0 and g == 1
            tn += p == 0 and g == 0
        total = tp + tn + fp + fn
        div = lambda a, b: a / b if b else 1.0
        want = (div(tp + tn, total), div(tp, tp + fn), div(tn, tn + fp),
                div(2 * tp, 2 * tp + fp + fn), div(tp, tp + fp + fn))
        exact += got == want and (counts.tp, counts.tn, counts.fp, counts.fn) == \
            (tp, tn, fp, fn)

    pred = np.array([[1, 1], [0, 0]], dtype=np.float32)
    gt = np.array([[1, 0], [0, 0]], dtype=np.float32)
    worked = metrics_from_counts(confusion_counts(pred, gt)).values()
    quoted = (0.75, 1.0, 0.6667, 0.6667, 0.5)
    worked_ok = all(abs(g - q) < 5e-5 for g, q in zip(worked, quoted))
    report(exact == 1000 and worked_ok, "metric oracle",
           f"{exact}/1000 random 16x16 pairs exact, worked example "
           f"{'matches' if worked_ok else 'differs from'} 0.75/1.0/0.6667/0.6667/0.5")


def test_report_format():
    row = MetricsReport(ac=0.98, se=0.954, sp=0.94, di=0.96, ja=0.93)
    text = format_report([("proposed", row)])
    line = text.splitlines()[1]
    want = "proposed   0.98  0.954   0.94   0.96   0.93"
    report(line == want, "report format", f"row rendered as {line!r}")


def test_determinism(tmp_path):
    data = tmp_path / "data"
    assert run_cli(["synth", "--out", str(data), "--count", "4",
                    "--seed", "9", "--size", "16"]) == 0
    cfg = tmp_path / "c.json"
    cfg.write_text('{"image_size": 16, "rnn_units": 8, "epochs": 3}')
    blobs = []
    for tag in ("a", "b"):
        ckpt = tmp_path / f"{tag}.ckpt"
        trace = tmp_path / f"{tag}.csv"
        assert run_cli(["train", "--data", str(data), "--config", str(cfg),
                        "--out", str(ckpt), "--trace", str(trace)]) == 0
        blobs.append((ckpt.read_bytes(), trace.read_bytes()))
    ok = blobs[0] == blobs[1]
    report(ok, "determinism",
           f"checkpoints {'bit-identical' if ok else 'differ'} "
           f"({len(blobs[0][0])} bytes), traces "
           f"{'bit-identical' if blobs[0][1] == blobs[1][1] else 'differ'}")


def test_overfit_small_set():
    config = ModelConfig()
    records = generate_synthetic(seed=config.seed, count=8, size=config.image_size)
    start = time.monotonic()
    _, trace = train(config, records, Rng(config.seed))
    elapsed = time.monotonic() - start
    best = max(d for _, _, d in trace.entries)
    hit = next((e for e, _, d in trace.entries if d >= 0.95), None)
    ok = best >= 0.95 and elapsed <= 300.0
    report(ok, "overfit",
           f"training Dice {best:.4f} >= 0.95 (first at epoch {hit}), "
           f"{elapsed:.0f}s <= 300s")


def test_generalization_margin():
    config = ModelConfig(image_size=32, epochs=100)
    records = generate_synthetic(seed=config.seed, count=80, size=config.image_size)
    params, _ = train(config, records[:64], Rng(config.seed))
    pairs, baseline = [], []
    for rec in records[64:]:
        prob = forward(rec.image, params)
        pairs.append((predict_mask(prob, config.threshold), rec.mask))
        baseline.append((np.ones_like(rec.mask), rec.mask))
    macro, _, _ = evaluate_dataset(pairs)
    base_macro, _, _ = evaluate_dataset(baseline)
    ok = macro.ja >= base_macro.ja + 0.2
    report(ok, "generalization",
           f"held-out macro Jaccard {macro.ja:.4f} vs all-foreground "
           f"{base_macro.ja:.4f} + 0.2 margin")
