"""Tests for patch splitting and the four-direction recurrent sweeps.

The oracles below re-derive everything with explicit per-cell loops: patch
extraction pixel by pixel, and the recurrence unrolled one sequence at a
time. The module under test must agree with them, not the other way round.
"""

import numpy as np
import pytest

from sweepseg.errors import ShapeError
from sweepseg.layers import backward, finite_diff_check
from sweepseg.renet import (
    RenetParams,
    SweepParams,
    directional_sweep,
    merge_patches,
    renet_block,
    split_patches,
)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def split_oracle(x, w_p, h_p):
    h, w, c = x.shape
    n, m = h // h_p, w // w_p
    out = np.zeros((n, m, h_p * w_p * c), dtype=x.dtype)
    for i in range(n):
        for j in range(m):
            vec = []
            for pi in range(h_p):
                for pj in range(w_p):
                    for ch in range(c):
                        vec.append(x[i * h_p + pi, j * w_p + pj, ch])
            out[i, j] = vec
    return out


def sweep_oracle(x, wx, wz, b, direction):
    n, m, _ = x.shape
    u = b.size
    out = np.zeros((n, m, u), dtype=np.float64)
    if direction in ("down", "up"):
        rows = range(n) if direction == "down" else range(n - 1, -1, -1)
        for j in range(m):
            z = np.zeros(u)
            for i in rows:
                z = np.tanh(x[i, j] @ wx + z @ wz + b)
                out[i, j] = z
    else:
        cols = range(m) if direction == "right" else range(m - 1, -1, -1)
        for i in range(n):
            z = np.zeros(u)
            for j in cols:
                z = np.tanh(x[i, j] @ wx + z @ wz + b)
                out[i, j] = z
    return out


def block_oracle(x, params, w_p, h_p):
    grid = split_oracle(x, w_p, h_p)
    down = sweep_oracle(grid, params.down.wx, params.down.wz, params.down.bias, "down")
    up = sweep_oracle(grid, params.up.wx, params.up.wz, params.up.bias, "up")
    vert = np.concatenate([down, up], axis=2)
    right = sweep_oracle(vert, params.right.wx, params.right.wz, params.right.bias, "right")
    left = sweep_oracle(vert, params.left.wx, params.left.wz, params.left.bias, "left")
    return np.concatenate([right, left], axis=2)


def make_params(rng, length, units, scale=0.5):
    return SweepParams(wx=rng.standard_normal((length, units)) * scale,
                       wz=rng.standard_normal((units, units)) * scale,
                       bias=rng.standard_normal(units) * 0.1)


def make_block_params(rng, length, units):
    return RenetParams(down=make_params(rng, length, units),
                       up=make_params(rng, length, units),
                       right=make_params(rng, 2 * units, units),
                       left=make_params(rng, 2 * units, units))


# ---------------------------------------------------------------------------
# patches
# ---------------------------------------------------------------------------

class TestPatches:
    def test_worked_example(self):
        x = np.arange(1, 17, dtype=np.float32).reshape(4, 4, 1)
        grid = split_patches(x, 2, 2)
        assert grid.shape == (2, 2, 4)
        assert np.array_equal(grid[0, 0], [1, 2, 5, 6])
        assert np.array_equal(grid[0, 1], [3, 4, 7, 8])
        assert np.array_equal(grid[1, 0], [9, 10, 13, 14])

    def test_matches_oracle_randomized(self):
        rng = np.random.default_rng(101)
        for _ in range(15):
            h_p = int(rng.integers(1, 4))
            w_p = int(rng.integers(1, 4))
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            c = int(rng.integers(1, 4))
            x = rng.standard_normal((n * h_p, m * w_p, c)).astype(np.float32)
            assert np.array_equal(split_patches(x, w_p, h_p), split_oracle(x, w_p, h_p))

    def test_whole_image_patch(self):
        rng = np.random.default_rng(103)
        x = rng.standard_normal((3, 5, 2)).astype(np.float32)
        grid = split_patches(x, 5, 3)
        assert grid.shape == (1, 1, 30)
        assert np.array_equal(grid[0, 0], x.reshape(-1))
        assert np.array_equal(merge_patches(grid, 5, 3), x)

    def test_non_divisible_rejected(self):
        with pytest.raises(ShapeError):
            split_patches(np.zeros((5, 4, 1), np.float32), 2, 2)

    def test_roundtrip_bit_exact(self):
        rng = np.random.default_rng(107)
        for _ in range(10):
            h_p = int(rng.integers(1, 5))
            w_p = int(rng.integers(1, 5))
            x = rng.standard_normal((h_p * int(rng.integers(1, 5)),
                                     w_p * int(rng.integers(1, 5)),
                                     int(rng.integers(1, 4)))).astype(np.float32)
            assert np.array_equal(merge_patches(split_patches(x, w_p, h_p), w_p, h_p), x)

    def test_malformed_grid_rejected(self):
        with pytest.raises(ShapeError):
            merge_patches(np.zeros((2, 2, 5), np.float32), 2, 2)
        with pytest.raises(ShapeError):
            merge_patches(np.zeros((2, 8), np.float32), 2, 2)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

class TestSweep:
    def test_zero_params_zero_output(self):
        rng = np.random.default_rng(109)
        x = rng.standard_normal((3, 4, 5))
        params = SweepParams(wx=np.zeros((5, 2)), wz=np.zeros((2, 2)), bias=np.zeros(2))
        for d in ("down", "up", "right", "left"):
            out, _ = directional_sweep(x, d, params)
            assert not out.any()

    def test_single_row_has_no_recurrence(self):
        rng = np.random.default_rng(113)
        x = rng.standard_normal((1, 4, 3))
        params = make_params(rng, 3, 2)
        out, _ = directional_sweep(x, "down", params)
        want = np.tanh(x @ params.wx + params.bias)
        assert np.allclose(out, want, atol=1e-12)

    def test_three_step_column_matches_unrolled_oracle(self):
        rng = np.random.default_rng(127)
        x = rng.standard_normal((3, 2, 4))
        params = make_params(rng, 4, 3)
        out, _ = directional_sweep(x, "down", params)
        assert np.allclose(out, sweep_oracle(x, params.wx, params.wz,
                                                         params.bias, "down"), atol=1e-6)

    def test_all_directions_match_oracle(self):
        rng = np.random.default_rng(131)
        for d in ("down", "up", "right", "left"):
            x = rng.standard_normal((4, 5, 3))
            params = make_params(rng, 3, 4)
            out, _ = directional_sweep(x, d, params)
            want = sweep_oracle(x, params.wx, params.wz, params.bias, d)
            assert np.allclose(out, want, atol=1e-10), d

    def test_accepts_patch_grid_and_raw_map(self):
        # a split patch grid is a plain (n, m, len) map to the sweep
        rng = np.random.default_rng(137)
        x = rng.standard_normal((4, 4, 2)).astype(np.float32)
        grid = split_patches(x, 2, 2)
        params = make_params(rng, grid.shape[2], 3)
        a, _ = directional_sweep(grid, "right", params)
        b, _ = directional_sweep(split_oracle(x, 2, 2), "right", params)
        assert np.array_equal(a, b)

    def test_length_mismatch_rejected(self):
        params = SweepParams(wx=np.zeros((5, 2)), wz=np.zeros((2, 2)), bias=np.zeros(2))
        with pytest.raises(ShapeError):
            directional_sweep(np.zeros((2, 2, 4)), "down", params)

    def test_unknown_direction_rejected(self):
        params = SweepParams(wx=np.zeros((4, 2)), wz=np.zeros((2, 2)), bias=np.zeros(2))
        with pytest.raises(ShapeError):
            directional_sweep(np.zeros((2, 2, 4)), "diagonal", params)


class TestCouple:
    """Opposite sweeps of one axis are coupled by channel concatenation."""

    def test_coupled_channel_count(self):
        rng = np.random.default_rng(139)
        params = make_block_params(rng, 2 * 2 * 3, 5)
        out, rec = renet_block(rng.standard_normal((8, 8, 3)), params, 2, 2)
        assert out.shape == (4, 4, 10)
        assert rec.saved["rec_right"].saved["x"].shape == (4, 4, 10)  # vertical pair

    def test_layout_first_then_second(self):
        rng = np.random.default_rng(139)
        x = rng.standard_normal((4, 6, 2))
        params = make_block_params(rng, 2 * 2 * 2, 4)
        params.left = SweepParams(wx=np.zeros((8, 4)), wz=np.zeros((4, 4)), bias=np.zeros(4))
        out, _ = renet_block(x, params, 2, 2)
        grid = split_oracle(x, 2, 2)
        down, _ = directional_sweep(grid, "down", params.down)
        up, _ = directional_sweep(grid, "up", params.up)
        right, _ = directional_sweep(np.concatenate([down, up], axis=2), "right", params.right)
        assert np.array_equal(out[:, :, :4], right)
        assert not out[:, :, 4:].any()


# ---------------------------------------------------------------------------
# full block
# ---------------------------------------------------------------------------

class TestBlock:
    def test_output_dimensions(self):
        rng = np.random.default_rng(149)
        x = rng.standard_normal((16, 16, 4)).astype(np.float32)
        params = make_block_params(rng, 2 * 2 * 4, 32)
        out, _ = renet_block(x, params, 2, 2)
        assert out.shape == (8, 8, 64)

    def test_zero_params_zero_output(self):
        zero = SweepParams(wx=np.zeros((8, 3)), wz=np.zeros((3, 3)), bias=np.zeros(3))
        zero2 = SweepParams(wx=np.zeros((6, 3)), wz=np.zeros((3, 3)), bias=np.zeros(3))
        params = RenetParams(down=zero, up=zero, right=zero2, left=zero2)
        out, _ = renet_block(np.ones((4, 4, 2)), params, 2, 2)
        assert not out.any()

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(151)
        for _ in range(5):
            x = rng.standard_normal((6, 4, 2))
            params = make_block_params(rng, 2 * 2 * 2, 3)
            out, _ = renet_block(x, params, 2, 2)
            assert np.allclose(out, block_oracle(x, params, 2, 2), atol=1e-6)

    def test_non_divisible_input_rejected(self):
        rng = np.random.default_rng(157)
        params = make_block_params(rng, 8, 3)
        with pytest.raises(ShapeError):
            renet_block(np.zeros((5, 4, 2)), params, 2, 2)


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------

class TestProperties:
    def test_mirror_symmetry_left_right(self):
        rng = np.random.default_rng(163)
        x = rng.standard_normal((3, 5, 4))
        params = make_params(rng, 4, 3)
        right_on_mirror, _ = directional_sweep(x[:, ::-1].copy(), "right", params)
        left_on_input, _ = directional_sweep(x, "left", params)
        assert np.allclose(right_on_mirror,
                           left_on_input[:, ::-1], atol=1e-6)

    def test_mirror_symmetry_up_down(self):
        rng = np.random.default_rng(167)
        x = rng.standard_normal((5, 3, 4))
        params = make_params(rng, 4, 3)
        down_on_flip, _ = directional_sweep(x[::-1].copy(), "down", params)
        up_on_input, _ = directional_sweep(x, "up", params)
        assert np.allclose(down_on_flip,
                           up_on_input[::-1], atol=1e-6)

    def test_decoupling_perturbing_up_leaves_down_bit_identical(self):
        rng = np.random.default_rng(173)
        x = rng.standard_normal((6, 6, 3)).astype(np.float32)
        params = make_block_params(rng, 2 * 2 * 3, 4)
        down_before, _ = directional_sweep(split_patches(x, 2, 2), "down", params.down)
        params.up.wx += 1.0
        params.up.bias += 0.5
        down_after, _ = directional_sweep(split_patches(x, 2, 2), "down", params.down)
        assert np.array_equal(down_before, down_after)

    def test_down_sweep_causality(self):
        rng = np.random.default_rng(179)
        x = rng.standard_normal((4, 3, 2))
        params = make_params(rng, 2, 3)
        base, _ = directional_sweep(x, "down", params)
        for pi in range(4):
            for pj in range(3):
                bumped = x.copy()
                bumped[pi, pj] += 1.0
                out, _ = directional_sweep(bumped, "down", params)
                changed = np.any(out != base, axis=2)
                for i in range(4):
                    for j in range(3):
                        if j != pj or i < pi:
                            assert not changed[i, j], (pi, pj, i, j)

    def test_sweep_gradients_all_directions(self):
        rng = np.random.default_rng(181)
        for d in ("down", "up", "right", "left"):
            x = rng.standard_normal((3, 4, 3))
            params = make_params(rng, 3, 2)
            r = rng.uniform(-1, 1, size=(3, 4, 2))

            def f():
                out, _ = directional_sweep(x, d, params)
                return float((out * r).sum())

            _, rec = directional_sweep(x, d, params)
            dx, grads = backward(rec, r)
            err = finite_diff_check(f, [x, params.wx, params.wz, params.bias],
                                    [dx, grads["wx"], grads["wz"], grads["bias"]])
            assert err < 1e-4, d

    def test_block_gradients(self):
        rng = np.random.default_rng(191)
        x = rng.standard_normal((4, 4, 2))
        params = make_block_params(rng, 2 * 2 * 2, 2)
        r = rng.uniform(-1, 1, size=(2, 2, 4))

        def f():
            out, _ = renet_block(x, params, 2, 2)
            return float((out * r).sum())

        _, rec = renet_block(x, params, 2, 2)
        dx, grads = backward(rec, r)
        arrays = [x]
        analytic = [dx]
        for name, sub in [("down", params.down), ("up", params.up),
                          ("right", params.right), ("left", params.left)]:
            for key in ("wx", "wz", "bias"):
                arrays.append(getattr(sub, key))
                analytic.append(grads[f"{name}.{key}"])
        assert finite_diff_check(f, arrays, analytic) < 1e-4
