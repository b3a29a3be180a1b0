"""Finite-difference verification of every backward implementation.

Each check builds a small float64 problem (a batch of one sample) and
follows one protocol: run the forward, draw a probe shaped like its
output, feed the probe to the layer's backward, and compare the analytic
gradients against 64-bit central differences of sum(output * probe) at
h=1e-3 (the loss check feeds its scalar upstream 1.0 instead). Inputs are
constructed so no piecewise boundary (relu kink, pool tie, bce clamp)
sits within h of a sample point, which keeps the quotient meaningful for
the piecewise-linear ops.

Pointwise and convolutional ops use an element-wise relative quotient.
The recurrent checks normalize by each gradient array's magnitude
instead: a sweep accumulates its weight gradients over every step, and
those sums can cancel individual entries to near zero, where an
element-wise quotient measures h^2 truncation noise rather than the
correctness of the backward pass.

Strictly linear maps (conv, tconv) must agree to 1e-6; everything else
to 1e-4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import (
    activation_forward,
    backward,
    bce_loss,
    central_difference,
    conv2d_forward,
    finite_diff_check,
    maxpool2x2_forward,
    tconv_forward,
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
        numeric = np.array([central_difference(f, arr, fi, h) for fi in range(arr.size)])
        scale = max(np.abs(grad).max(), np.abs(numeric).max(), 1e-8)
        worst = max(worst, float(np.abs(grad.reshape(-1) - numeric).max()) / scale)
    return worst


def _probe_check(rng: Rng, name: str, tolerance: float, op, x: np.ndarray,
                 params: dict[str, np.ndarray] | None = None,
                 diff=finite_diff_check) -> CheckResult:
    """Check one op's backward against central differences.

    `op()` runs the forward on the current contents of the input `x` and of
    `params`, keyed by the names of their gradients. A probe shaped like the
    output is drawn after the forward and fed to `backward`; the objective
    is sum(op() * probe).
    """
    params = params or {}
    out, rec = op()
    probe = _draw(rng, out.shape)
    dx, grads = backward(rec, probe)
    err = diff(lambda: float(np.sum(op()[0] * probe)), [x, *params.values()],
               [dx, *(grads[key] for key in params)])
    return CheckResult(name, err, tolerance)


def _check_bce(rng: Rng) -> float:
    # curvature ~1/p^2 makes the h^2 truncation term of the central
    # difference exceed 1e-4 for p outside roughly [0.1, 0.9]
    pred = _draw(rng, (1, 6, 6), lo=0.15, hi=0.85)
    target = (rng.fill(36).reshape(1, 6, 6) > 0.5).astype(np.float64)
    _, rec = bce_loss(pred, target)
    dpred, _ = backward(rec, 1.0)
    return finite_diff_check(lambda: float(bce_loss(pred, target)[0][0]), [pred], [dpred])


def _sweep_params(rng: Rng, length: int, units: int) -> SweepParams:
    # modest scales bend tanh without saturating it, so the recurrence
    # keeps healthy gradient magnitudes along every path
    return SweepParams(wx=_draw(rng, (length, units), lo=-0.3, hi=0.3),
                       wz=_draw(rng, (units, units), lo=-0.3, hi=0.3),
                       bias=_draw(rng, (units,), lo=-0.2, hi=0.2))


def run_suite(seed: int = 42) -> list[CheckResult]:
    """Run every layer check with inputs derived from one seed."""
    rng = Rng(seed)
    x, w, b = _draw(rng, (1, 6, 6, 3)), _draw(rng, (3, 3, 3, 4)), _draw(rng, (4,))
    results = [_probe_check(rng, "conv3x3", LINEAR_TOL, lambda: conv2d_forward(x, w, b, 1),
                            x, {"weights": w, "bias": b})]
    x, w, b = _draw(rng, (1, 3, 4, 3)), _draw(rng, (4, 4, 3, 2)), _draw(rng, (2,))
    results.append(_probe_check(rng, "tconv4x4_s2", LINEAR_TOL,
                                lambda: tconv_forward(x, w, b, 2, 0), x,
                                {"weights": w, "bias": b}))
    # distinct values 0.1 apart, so pool argmaxes survive +-h
    x = 0.1 * np.argsort(rng.fill(72)).reshape(1, 6, 6, 2)
    results.append(_probe_check(rng, "maxpool2x2", NONLINEAR_TOL,
                                lambda: maxpool2x2_forward(x), x))
    # the relu alone, via a 1x1 identity conv; inputs kept 0.05 off its kink
    x = _draw(rng, (1, 5, 6, 1), lo=-2.0, hi=2.0)
    x += 0.05 * np.sign(np.where(x == 0.0, 1.0, x))
    results.append(_probe_check(
        rng, "relu", NONLINEAR_TOL,
        lambda: conv2d_forward(x, np.ones((1, 1, 1, 1)), np.zeros(1), 0, relu=True), x))
    x = _draw(rng, (5, 6), lo=-2.0, hi=2.0)
    results.append(_probe_check(rng, "sigmoid", NONLINEAR_TOL, lambda: activation_forward(x), x))
    results.append(CheckResult("bce", _check_bce(rng), NONLINEAR_TOL))

    fields = ("wx", "wz", "bias")
    for direction in ("down", "up", "right", "left"):
        x = _draw(rng, (1, 3, 4, 5), lo=-0.5, hi=0.5)
        sweep = _sweep_params(rng, 5, 3)
        results.append(_probe_check(
            rng, f"sweep_{direction}", NONLINEAR_TOL,
            lambda: directional_sweep(x, direction, sweep), x,
            {f: getattr(sweep, f) for f in fields}, _scaled_diff_check))

    units = 2
    x = _draw(rng, (1, 8, 8, 3), lo=-0.5, hi=0.5)
    block = RenetParams(down=_sweep_params(rng, 12, units),
                        up=_sweep_params(rng, 12, units),
                        right=_sweep_params(rng, 2 * units, units),
                        left=_sweep_params(rng, 2 * units, units))
    results.append(_probe_check(
        rng, "renet_block", NONLINEAR_TOL, lambda: renet_block(x, block, 2, 2), x,
        {f"{d}.{f}": getattr(getattr(block, d), f)
         for d in ("down", "up", "right", "left") for f in fields}, _scaled_diff_check))
    return results


def format_results(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        status = "ok" if r.passed else "FAIL"
        lines.append(f"{r.name:<12} max_rel_err={r.max_rel_error:.3e} "
                     f"tol={r.tolerance:.0e} {status}")
    return "\n".join(lines) + "\n"
