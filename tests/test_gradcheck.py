"""Tests for the finite-difference verification suite."""

import time

import numpy as np

from sweepseg.gradcheck import (
    LINEAR_TOL,
    NONLINEAR_TOL,
    CheckResult,
    format_results,
    run_suite,
)
from sweepseg.layers import finite_diff_check

EXPECTED_NAMES = [
    "conv3x3", "conv3x3_s2", "tconv4x4_s2", "crop",
    "maxpool2x2", "relu", "tanh", "sigmoid", "bce",
    "sweep_down", "sweep_up", "sweep_right", "sweep_left", "renet_block",
]

LINEAR_NAMES = {"conv3x3", "conv3x3_s2", "tconv4x4_s2", "crop"}


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


class TestFormatting:
    def test_one_line_per_check_with_status(self):
        results = [
            CheckResult("conv3x3", 1.5e-9, 1e-6),
            CheckResult("tanh", 2.0e-3, 1e-4),
        ]
        text = format_results(results)
        lines = text.splitlines()
        assert len(lines) == 2
        assert "conv3x3" in lines[0] and lines[0].endswith("ok")
        assert "tanh" in lines[1] and lines[1].endswith("FAIL")

    def test_reports_error_and_tolerance(self):
        text = format_results([CheckResult("bce", 3.6e-5, 1e-4)])
        assert "3.600e-05" in text
        assert "1e-04" in text
