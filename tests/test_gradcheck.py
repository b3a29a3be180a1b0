"""Tests for the finite-difference verification suite."""

import sys
import time

import numpy as np

import sweepseg.layers as layers_module
from sweepseg.data import generate_synthetic
from sweepseg.gradcheck import (
    LINEAR_TOL,
    NONLINEAR_TOL,
    CheckResult,
    format_results,
    run_suite,
)
from sweepseg.layers import central_difference, finite_diff_check
from sweepseg.model import ModelConfig, build_model, loss_and_gradients
from sweepseg.tensor import Rng

EXPECTED_NAMES = [
    "conv3x3", "tconv4x4_s2",
    "maxpool2x2", "relu", "sigmoid", "bce",
    "sweep_down", "sweep_up", "sweep_right", "sweep_left", "renet_block",
]

LINEAR_NAMES = {"conv3x3", "tconv4x4_s2"}


class TestRunSuite:
    def test_all_checks_pass_with_default_seed(self):
        results = run_suite(42)
        for r in results:
            assert r.passed, f"{r.name}: {r.max_rel_error} >= {r.tolerance}"

    def test_passes_across_seeds(self):
        for seed in (1, 7, 12345, 2**40):
            results = run_suite(seed)
            assert all(r.passed for r in results), f"seed {seed}"

    def test_covers_every_layer(self):
        assert [r.name for r in results_cache()] == EXPECTED_NAMES

    def test_tolerances_split_linear_from_nonlinear(self):
        for r in results_cache():
            expected = LINEAR_TOL if r.name in LINEAR_NAMES else NONLINEAR_TOL
            assert r.tolerance == expected

    def test_runs_well_under_a_minute(self):
        start = time.monotonic()
        run_suite(42)
        assert time.monotonic() - start < 60.0

    def test_deterministic_per_seed(self):
        a = run_suite(9)
        b = run_suite(9)
        assert [(r.name, r.max_rel_error) for r in a] == \
               [(r.name, r.max_rel_error) for r in b]


def watched_calls(monkeypatch, run) -> tuple[set, int]:
    """Every `rec.grad` that `layers.backward` calls while `run()` runs, and
    the number of `layers.bce_loss` calls, through whichever name a module
    imported each under."""
    backward, bce_loss = layers_module.backward, layers_module.bce_loss
    seen = set()
    loss_calls = 0

    def watching_backward(rec, *args, **kwargs):
        seen.add(rec.grad)
        return backward(rec, *args, **kwargs)

    def watching_bce(*args):
        nonlocal loss_calls
        loss_calls += 1
        return bce_loss(*args)

    with monkeypatch.context() as patch:
        for name, module in list(sys.modules.items()):
            if name == "sweepseg" or name.startswith("sweepseg."):
                for attr, value in list(vars(module).items()):
                    if value is backward:
                        patch.setattr(module, attr, watching_backward)
                    elif value is bce_loss:
                        patch.setattr(module, attr, watching_bce)
        run()
    return seen, loss_calls


class TestCoverage:
    def test_checks_every_backward_a_training_step_runs(self, monkeypatch):
        params = build_model(ModelConfig(image_size=16, rnn_units=4), Rng(5))
        batch = [(r.image, r.mask) for r in generate_synthetic(3, 2, 16)]
        step, step_losses = watched_calls(monkeypatch,
                                          lambda: loss_and_gradients(batch, params))
        suite, suite_losses = watched_calls(monkeypatch, lambda: run_suite(42))
        assert len(step) == 6  # conv, pool, sweep, renet block, tconv, sigmoid
        assert sorted(f.__qualname__ for f in step - suite) == []
        # the loss ends the tape with no record: bce_loss returns its gradient,
        # so the step and the suite's loss check must both call it
        assert step_losses and suite_losses


_CACHE = {}


def results_cache():
    if "res" not in _CACHE:
        _CACHE["res"] = run_suite(42)
    return _CACHE["res"]


class TestCheckerDetectsErrors:
    def test_wrong_analytic_gradient_is_flagged(self):
        x = np.array([0.3, -0.7, 1.1])

        def f():
            return float(np.sum(3.0 * x))

        wrong = np.full(3, 2.0)
        err = finite_diff_check(f, [x], [wrong])
        assert err > 0.3

    def test_correct_gradient_is_accepted(self):
        x = np.array([0.3, -0.7, 1.1])

        def f():
            return float(np.sum(3.0 * x))

        err = finite_diff_check(f, [x], [np.full(3, 3.0)])
        assert err < 1e-10

    def test_central_difference_restores_the_perturbed_entry(self):
        x = np.array([0.3, -0.7, 1.1])
        before = x.copy()
        assert abs(central_difference(lambda: float(np.sum(x ** 2)), x, 1) + 1.4) < 1e-12
        assert np.array_equal(x, before)


class TestFormatting:
    def test_one_line_per_check_with_status(self):
        results = [
            CheckResult("conv3x3", 1.5e-9, 1e-6),
            CheckResult("sigmoid", 2.0e-3, 1e-4),
        ]
        text = format_results(results)
        lines = text.splitlines()
        assert len(lines) == 2
        assert "conv3x3" in lines[0] and lines[0].endswith("ok")
        assert "sigmoid" in lines[1] and lines[1].endswith("FAIL")

    def test_reports_error_and_tolerance(self):
        text = format_results([CheckResult("bce", 3.6e-5, 1e-4)])
        assert "3.600e-05" in text
        assert "1e-04" in text
