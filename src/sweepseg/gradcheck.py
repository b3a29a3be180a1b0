"""Finite-difference verification of every backward implementation.

Each check builds a small float64 problem, computes analytic gradients
through the layer's backward, and compares them against 64-bit central
differences at h=1e-3. Inputs are constructed so no piecewise boundary
(relu kink, pool tie, bce clamp) sits within h of a sample point, which
keeps the quotient meaningful for the piecewise-linear ops.

Pointwise and convolutional ops use an element-wise relative quotient.
The recurrent checks normalize by each gradient array's magnitude
instead: a sweep accumulates its weight gradients over every step, and
those sums can cancel individual entries to near zero, where an
element-wise quotient measures h^2 truncation noise rather than the
correctness of the backward pass.

Strictly linear maps (conv, tconv, crop) must agree to 1e-6;
everything else to 1e-4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import (
    ConvSpec,
    activation_forward,
    backward,
    bce_loss,
    conv2d_forward,
    crop2d_forward,
    finite_diff_check,
    maxpool2x2_forward,
    tconv_forward,
    tconv_sparse_matrix,
)
from .renet import RenetParams, SweepParams, directional_sweep, renet_block
from .tensor import Rng

LINEAR_TOL = 1e-6
NONLINEAR_TOL = 1e-4


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_rel_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


def _draw(rng: Rng, shape, lo=-1.0, hi=1.0) -> np.ndarray:
    flat = rng.fill(int(np.prod(shape)))
    return (lo + (hi - lo) * flat).reshape(shape)


def _scaled_diff_check(f, arrays, grads, h: float = 1e-3) -> float:
    """Max |analytic - numeric| per array, relative to that array's scale.

    Same central-difference protocol as finite_diff_check, but the
    denominator is max(inf-norm of analytic, inf-norm of numeric, 1e-8)
    so entries shrunk by cancellation do not dominate the quotient.
    """
    worst = 0.0
    for arr, grad in zip(arrays, grads):
        numeric = np.empty_like(grad)
        for fi in range(arr.size):
            orig = arr.flat[fi]
            arr.flat[fi] = orig + h
            f_plus = f()
            arr.flat[fi] = orig - h
            f_minus = f()
            arr.flat[fi] = orig
            numeric.flat[fi] = (f_plus - f_minus) / (2.0 * h)
        scale = max(np.abs(grad).max(), np.abs(numeric).max(), 1e-8)
        worst = max(worst, float(np.abs(grad - numeric).max()) / scale)
    return worst


def _away_from_zero(x: np.ndarray, margin: float) -> np.ndarray:
    # pushes every entry at least `margin` away from the relu kink
    return x + margin * np.sign(np.where(x == 0.0, 1.0, x))


def _spread(rng: Rng, shape, gap: float = 0.1) -> np.ndarray:
    # distinct values separated by `gap`, so pool argmaxes survive +-h
    ranks = np.argsort(rng.fill(int(np.prod(shape))))
    return (ranks * gap).reshape(shape)


def _check_conv(rng: Rng, stride: int) -> float:
    spec = ConvSpec(kernel=(3, 3), stride=stride, padding=1,
                    in_channels=3, out_channels=4)
    x = _draw(rng, (6, 6, 3))
    w = _draw(rng, (3, 3, 3, 4))
    b = _draw(rng, (4,))
    out, rec = conv2d_forward(x, w, b, spec)
    probe = _draw(rng, out.shape)

    def f() -> float:
        y, _ = conv2d_forward(x, w, b, spec)
        return float(np.sum(y * probe))

    dx, gr = backward(rec, probe)
    return finite_diff_check(f, [x, w, b], [dx, gr["weights"], gr["bias"]])


def _check_tconv(rng: Rng) -> float:
    x = _draw(rng, (3, 4, 3))
    w = _draw(rng, (4, 4, 3, 2))
    b = _draw(rng, (2,))
    matrix = tconv_sparse_matrix(w, (3, 4), stride=2)
    out, rec = tconv_forward(x, matrix, b, matrix.out_dims)
    probe = _draw(rng, out.shape)

    def f() -> float:
        m = tconv_sparse_matrix(w, (3, 4), stride=2)
        y, _ = tconv_forward(x, m, b, m.out_dims)
        return float(np.sum(y * probe))

    dx, gr = backward(rec, probe)
    return finite_diff_check(f, [x, w, b], [dx, gr["weights"], gr["bias"]])


def _check_crop(rng: Rng) -> float:
    x = _draw(rng, (6, 6, 2))
    out, rec = crop2d_forward(x, 1)
    probe = _draw(rng, out.shape)

    def f() -> float:
        y, _ = crop2d_forward(x, 1)
        return float(np.sum(y * probe))

    dx, _ = backward(rec, probe)
    return finite_diff_check(f, [x], [dx])


def _check_maxpool(rng: Rng) -> float:
    x = _spread(rng, (6, 6, 2))
    out, rec = maxpool2x2_forward(x)
    probe = _draw(rng, out.shape)

    def f() -> float:
        y, _ = maxpool2x2_forward(x)
        return float(np.sum(y * probe))

    dx, _ = backward(rec, probe)
    return finite_diff_check(f, [x], [dx])


def _check_activation(rng: Rng, kind: str) -> float:
    x = _draw(rng, (5, 6), lo=-2.0, hi=2.0)
    if kind == "relu":
        x = _away_from_zero(x, 0.05)
    out, rec = activation_forward(x, kind)
    probe = _draw(rng, out.shape)

    def f() -> float:
        y, _ = activation_forward(x, kind)
        return float(np.sum(y * probe))

    dx, _ = backward(rec, probe)
    return finite_diff_check(f, [x], [dx])


def _check_bce(rng: Rng) -> float:
    # curvature ~1/p^2 makes the h^2 truncation term of the central
    # difference exceed 1e-4 for p outside roughly [0.1, 0.9]
    pred = _draw(rng, (6, 6), lo=0.15, hi=0.85)
    target = (rng.fill(36).reshape(6, 6) > 0.5).astype(np.float64)
    _, rec = bce_loss(pred, target)

    def f() -> float:
        return bce_loss(pred, target)[0]

    dpred, _ = backward(rec, 1.0)
    return finite_diff_check(f, [pred], [dpred])


def _sweep_params(rng: Rng, length: int, units: int) -> SweepParams:
    # modest scales bend tanh without saturating it, so the recurrence
    # keeps healthy gradient magnitudes along every path
    return SweepParams(wx=_draw(rng, (length, units), lo=-0.3, hi=0.3),
                       wz=_draw(rng, (units, units), lo=-0.3, hi=0.3),
                       bias=_draw(rng, (units,), lo=-0.2, hi=0.2))


def _check_sweep(rng: Rng, direction: str) -> float:
    x = _draw(rng, (3, 4, 5), lo=-0.5, hi=0.5)
    params = _sweep_params(rng, 5, 3)
    out, rec = directional_sweep(x, direction, params)
    probe = _draw(rng, out.shape)

    def f() -> float:
        y, _ = directional_sweep(x, direction, params)
        return float(np.sum(y * probe))

    dx, gr = backward(rec, probe)
    return _scaled_diff_check(
        f,
        [x, params.wx, params.wz, params.bias],
        [dx, gr["wx"], gr["wz"], gr["bias"]],
    )


def _check_renet_block(rng: Rng) -> float:
    units = 2
    feature = _draw(rng, (8, 8, 3), lo=-0.5, hi=0.5)
    params = RenetParams(
        down=_sweep_params(rng, 12, units),
        up=_sweep_params(rng, 12, units),
        right=_sweep_params(rng, 2 * units, units),
        left=_sweep_params(rng, 2 * units, units),
    )
    out, rec = renet_block(feature, params, 2, 2)
    probe = _draw(rng, out.shape)

    def f() -> float:
        y, _ = renet_block(feature, params, 2, 2)
        return float(np.sum(y * probe))

    d_feature, gr = backward(rec, probe)
    arrays = [feature]
    grads = [d_feature]
    for direction in ("down", "up", "right", "left"):
        sweep: SweepParams = getattr(params, direction)
        for field in ("wx", "wz", "bias"):
            arrays.append(getattr(sweep, field))
            grads.append(gr[f"{direction}.{field}"])
    return _scaled_diff_check(f, arrays, grads)


def run_suite(seed: int = 42) -> list[CheckResult]:
    """Run every layer check with inputs derived from one seed."""
    rng = Rng(seed)
    # the first 43 draws stay unused: skipping them keeps every check's
    # inputs, and so its printed error, the same per seed as in earlier
    # versions of this suite, which also checked a dense layer
    rng.fill(43)
    results = [
        CheckResult("conv3x3", _check_conv(rng, stride=1), LINEAR_TOL),
        CheckResult("conv3x3_s2", _check_conv(rng, stride=2), LINEAR_TOL),
        CheckResult("tconv4x4_s2", _check_tconv(rng), LINEAR_TOL),
        CheckResult("crop", _check_crop(rng), LINEAR_TOL),
        CheckResult("maxpool2x2", _check_maxpool(rng), NONLINEAR_TOL),
        CheckResult("relu", _check_activation(rng, "relu"), NONLINEAR_TOL),
        CheckResult("tanh", _check_activation(rng, "tanh"), NONLINEAR_TOL),
        CheckResult("sigmoid", _check_activation(rng, "sigmoid"), NONLINEAR_TOL),
        CheckResult("bce", _check_bce(rng), NONLINEAR_TOL),
    ]
    for direction in ("down", "up", "right", "left"):
        results.append(CheckResult(f"sweep_{direction}",
                                   _check_sweep(rng, direction), NONLINEAR_TOL))
    results.append(CheckResult("renet_block", _check_renet_block(rng), NONLINEAR_TOL))
    return results


def format_results(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        status = "ok" if r.passed else "FAIL"
        lines.append(f"{r.name:<12} max_rel_err={r.max_rel_error:.3e} "
                     f"tol={r.tolerance:.0e} {status}")
    return "\n".join(lines) + "\n"
