"""Tests for patch splitting and the recurrent sweeps, one direction or a coupled pair.

The oracles below re-derive everything with explicit per-cell loops on one
sample: patch extraction pixel by pixel, and the recurrence unrolled one
sequence at a time. The module under test runs on (N, h, w, c) batches and
must agree with them sample by sample, not the other way round.
"""

import numpy as np
import pytest

from sweepseg.errors import ShapeError
from sweepseg.gradcheck import _scaled_diff_check
from sweepseg.layers import backward, finite_diff_check
from sweepseg.renet import (
    DIRECTIONS,
    PATCH,
    merge_patches,
    renet_block,
    split_patches,
    sweep,
)

from helpers import assert_batch_equals_stacked_samples


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


def per_sample(oracle, x, *args):
    """Apply a one-sample oracle to every sample of a batch."""
    return np.stack([oracle(sample, *args) for sample in x])


def block_oracle(x, params, w_p, h_p):
    grid = split_oracle(x, w_p, h_p)
    cell = lambda d: (params[f"{d}.wx"], params[f"{d}.wz"], params[f"{d}.bias"])
    down = sweep_oracle(grid, *cell("down"), "down")
    up = sweep_oracle(grid, *cell("up"), "up")
    vert = np.concatenate([down, up], axis=2)
    right = sweep_oracle(vert, *cell("right"), "right")
    left = sweep_oracle(vert, *cell("left"), "left")
    return np.concatenate([right, left], axis=2)


def make_params(rng, length, units, scale=0.5):
    return {"wx": rng.standard_normal((length, units)) * scale,
            "wz": rng.standard_normal((units, units)) * scale,
            "bias": rng.standard_normal(units) * 0.1}


def zero_params(length, units):
    return {"wx": np.zeros((length, units)), "wz": np.zeros((units, units)),
            "bias": np.zeros(units)}


def block_params(down, up, right, left):
    """The block's "down.wx"-style mapping from four sweeps' mappings."""
    return {f"{d}.{key}": value for d, sweep in zip(DIRECTIONS, (down, up, right, left))
            for key, value in sweep.items()}


def make_block_params(rng, length, units):
    return block_params(make_params(rng, length, units), make_params(rng, length, units),
                        make_params(rng, 2 * units, units), make_params(rng, 2 * units, units))


def run_sweep(x, direction, cell):
    """The op on one direction, fed that direction's unprefixed "wx", "wz", "bias"."""
    return sweep(x, (direction,), {f"{direction}.{key}": value for key, value in cell.items()})


# ---------------------------------------------------------------------------
# patches
# ---------------------------------------------------------------------------

class TestPatches:
    def test_worked_example(self):
        x = np.arange(1, 17, dtype=np.float32).reshape(1, 4, 4, 1)
        grid = split_patches(x)
        assert grid.shape == (1, 2, 2, 4)
        assert np.array_equal(grid[0, 0, 0], [1, 2, 5, 6])
        assert np.array_equal(grid[0, 0, 1], [3, 4, 7, 8])
        assert np.array_equal(grid[0, 1, 0], [9, 10, 13, 14])

    def test_matches_oracle_randomized(self):
        rng = np.random.default_rng(101)
        for _ in range(15):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            c = int(rng.integers(1, 4))
            x = rng.standard_normal((int(rng.integers(1, 4)), n * PATCH, m * PATCH, c)
                                    ).astype(np.float32)
            assert np.array_equal(split_patches(x), per_sample(split_oracle, x, PATCH, PATCH))

    def test_whole_image_patch(self):
        rng = np.random.default_rng(103)
        x = rng.standard_normal((2, PATCH, PATCH, 2)).astype(np.float32)
        grid = split_patches(x)
        assert grid.shape == (2, 1, 1, PATCH * PATCH * 2)
        assert np.array_equal(grid[:, 0, 0], x.reshape(2, -1))
        assert np.array_equal(merge_patches(grid), x)

    def test_non_divisible_rejected(self):
        with pytest.raises(ShapeError):
            split_patches(np.zeros((1, 5, 4, 1), np.float32))
        with pytest.raises(ShapeError):  # a map without its batch axis
            split_patches(np.zeros((4, 4, 1), np.float32))

    def test_roundtrip_bit_exact(self):
        rng = np.random.default_rng(107)
        for _ in range(10):
            x = rng.standard_normal((int(rng.integers(1, 4)),
                                     PATCH * int(rng.integers(1, 5)),
                                     PATCH * int(rng.integers(1, 5)),
                                     int(rng.integers(1, 4)))).astype(np.float32)
            assert np.array_equal(merge_patches(split_patches(x)), x)

    def test_malformed_grid_rejected(self):
        with pytest.raises(ShapeError):
            merge_patches(np.zeros((1, 2, 2, 5), np.float32))
        with pytest.raises(ShapeError):
            merge_patches(np.zeros((2, 2, 8), np.float32))


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

class TestSweep:
    def test_zero_params_zero_output(self):
        rng = np.random.default_rng(109)
        x = rng.standard_normal((2, 3, 4, 5))
        params = zero_params(5, 2)
        for d in ("down", "up", "right", "left"):
            out, _ = run_sweep(x, d, params)
            assert not out.any()

    def test_single_row_has_no_recurrence(self):
        rng = np.random.default_rng(113)
        x = rng.standard_normal((2, 1, 4, 3))
        params = make_params(rng, 3, 2)
        out, _ = run_sweep(x, "down", params)
        want = np.tanh(x @ params["wx"] + params["bias"])
        assert np.allclose(out, want, atol=1e-12)

    def test_three_step_column_matches_unrolled_oracle(self):
        rng = np.random.default_rng(127)
        x = rng.standard_normal((1, 3, 2, 4))
        params = make_params(rng, 4, 3)
        out, _ = run_sweep(x, "down", params)
        assert np.allclose(out[0], sweep_oracle(x[0], params["wx"], params["wz"],
                                                params["bias"], "down"), atol=1e-6)

    def test_all_directions_match_oracle(self):
        rng = np.random.default_rng(131)
        for d in ("down", "up", "right", "left"):
            x = rng.standard_normal((3, 4, 5, 3))
            params = make_params(rng, 3, 4)
            out, _ = run_sweep(x, d, params)
            want = per_sample(sweep_oracle, x, params["wx"], params["wz"], params["bias"], d)
            assert np.allclose(out, want, atol=1e-10), d

    def test_accepts_patch_grid_and_raw_map(self):
        # a split patch grid is a plain (n, m, len) map to the sweep
        rng = np.random.default_rng(137)
        x = rng.standard_normal((2, 4, 4, 2)).astype(np.float32)
        grid = split_patches(x)
        params = make_params(rng, grid.shape[3], 3)
        a, _ = run_sweep(grid, "right", params)
        b, _ = run_sweep(per_sample(split_oracle, x, 2, 2), "right", params)
        assert np.array_equal(a, b)

    def test_length_mismatch_rejected(self):
        params = zero_params(5, 2)
        with pytest.raises(ShapeError):
            run_sweep(np.zeros((1, 2, 2, 4)), "down", params)
        with pytest.raises(ShapeError):  # a grid without its batch axis
            run_sweep(np.zeros((2, 2, 5)), "down", params)

    def test_inconsistent_params_rejected(self):
        x = np.zeros((1, 2, 2, 4))
        for wx, wz, bias in [((4, 2), (2, 3), (2,)),   # wz not square
                             ((4, 2), (2,), (2,)),     # wz not a matrix
                             ((4, 3), (2, 2), (2,)),   # wx columns != units
                             ((4, 2), (2, 2), (3,))]:  # bias length != units
            params = {"wx": np.zeros(wx), "wz": np.zeros(wz), "bias": np.zeros(bias)}
            with pytest.raises(ShapeError, match="inconsistent sweep params"):
                run_sweep(x, "down", params)

    def test_unknown_direction_rejected(self):
        with pytest.raises(ShapeError):
            run_sweep(np.zeros((1, 2, 2, 4)), "diagonal", zero_params(4, 2))

    @pytest.mark.parametrize("directions", [("down", "down"), ("down", "right"), ("left", "up"),
                                            (), "down"])
    def test_bad_directions_rejected(self, directions):
        # repeated, on two axes, none, or a bare name in place of a tuple
        params = block_params(*(zero_params(4, 2) for _ in DIRECTIONS))
        with pytest.raises(ShapeError, match="distinct and of one axis"):
            sweep(np.zeros((1, 2, 2, 4)), directions, params)

    def test_pair_of_different_widths_rejected(self):
        # a pair is one stacked recurrence, so its directions share U and len;
        # the mismatch is a ShapeError, not np.stack's ValueError
        rng = np.random.default_rng(197)
        x = np.zeros((1, 2, 2, 4))
        for up in (make_params(rng, 4, 2), make_params(rng, 3, 3)):
            params = block_params(make_params(rng, 4, 3), up, make_params(rng, 4, 3),
                                  make_params(rng, 4, 3))
            with pytest.raises(ShapeError, match="differ in width or input length"):
                sweep(x, ("down", "up"), params)

    def test_pair_equals_its_two_one_direction_calls(self):
        # forward bit for bit; dx is the sum in direction order, grads equal
        rng = np.random.default_rng(199)
        for dtype in (np.float32, np.float64):
            x = rng.standard_normal((2, 4, 6, 5)).astype(dtype)
            params = {name: value.astype(dtype) for name, value in
                      block_params(*(make_params(rng, 5, 3) for _ in DIRECTIONS)).items()}
            for pair in (("down", "up"), ("up", "down"), ("right", "left")):
                out, rec = sweep(x, pair, params)
                r = rng.uniform(-1, 1, size=out.shape).astype(dtype)
                dx, grads = backward(rec, r)
                first, rec_a = sweep(x, pair[:1], params)
                second, rec_b = sweep(x, pair[1:], params)
                assert out.tobytes() == np.concatenate([first, second], axis=3).tobytes()
                dx_a, g_a = backward(rec_a, r[..., :3])
                dx_b, g_b = backward(rec_b, r[..., 3:])
                assert dx.tobytes() == (dx_a + dx_b).tobytes()
                assert list(grads) == list(g_a) + list(g_b)
                for name, value in {**g_a, **g_b}.items():
                    assert grads[name].tobytes() == value.tobytes(), (pair, name)


class TestCouple:
    """Opposite sweeps of one axis are coupled by channel concatenation."""

    def test_coupled_channel_count(self):
        rng = np.random.default_rng(139)
        params = make_block_params(rng, 2 * 2 * 3, 5)
        out, rec = renet_block(rng.standard_normal((2, 8, 8, 3)), params)
        assert out.shape == (2, 4, 4, 10)
        assert rec.saved["horizontal"].saved["in_shape"] == (2, 4, 4, 10)  # vertical pair

    def test_layout_first_then_second(self):
        rng = np.random.default_rng(139)
        x = rng.standard_normal((2, 4, 6, 2))
        params = make_block_params(rng, 2 * 2 * 2, 4)
        params.update({f"left.{key}": value for key, value in zero_params(8, 4).items()})
        out, _ = renet_block(x, params)
        grid = per_sample(split_oracle, x, 2, 2)
        down, _ = sweep(grid, ("down",), params)
        up, _ = sweep(grid, ("up",), params)
        right, _ = sweep(np.concatenate([down, up], axis=3), ("right",), params)
        assert np.array_equal(out[..., :4], right)
        assert not out[..., 4:].any()


# ---------------------------------------------------------------------------
# full block
# ---------------------------------------------------------------------------

class TestBlock:
    def test_output_dimensions(self):
        rng = np.random.default_rng(149)
        x = rng.standard_normal((3, 16, 16, 4)).astype(np.float32)
        params = make_block_params(rng, 2 * 2 * 4, 32)
        out, _ = renet_block(x, params)
        assert out.shape == (3, 8, 8, 64)

    def test_zero_params_zero_output(self):
        params = block_params(zero_params(8, 3), zero_params(8, 3),
                              zero_params(6, 3), zero_params(6, 3))
        out, _ = renet_block(np.ones((2, 4, 4, 2)), params)
        assert not out.any()

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(151)
        for _ in range(5):
            x = rng.standard_normal((2, 6, 4, 2))
            params = make_block_params(rng, 2 * 2 * 2, 3)
            out, _ = renet_block(x, params)
            assert np.allclose(out, per_sample(block_oracle, x, params, 2, 2), atol=1e-6)

    def test_pairs_of_different_widths(self):
        # each coupled pair splits its upstream gradient at its own width,
        # whatever the other pair's width; scaled per array, as gradcheck
        # scales the recurrent checks, since sums over steps can cancel
        # single entries to near zero
        rng = np.random.default_rng(193)
        x = rng.standard_normal((1, 4, 4, 2))
        params = block_params(make_params(rng, 8, 3), make_params(rng, 8, 3),
                              make_params(rng, 6, 4), make_params(rng, 6, 4))
        out, rec = renet_block(x, params)
        assert out.shape == (1, 2, 2, 8)
        r = rng.uniform(-1, 1, size=out.shape)
        dx, grads = backward(rec, r)
        err = _scaled_diff_check(lambda: float((renet_block(x, params)[0] * r).sum()),
                                 [x, *params.values()],
                                 [dx, *(grads[name] for name in params)])
        assert err < 1e-4
        # a pair is one stacked recurrence, so the two widths of one pair
        # (down 3, up 2) are refused
        params = block_params(make_params(rng, 8, 3), make_params(rng, 8, 2),
                              make_params(rng, 5, 4), make_params(rng, 5, 5))
        with pytest.raises(ShapeError, match="differ in width"):
            renet_block(x, params)

    def test_non_divisible_input_rejected(self):
        rng = np.random.default_rng(157)
        params = make_block_params(rng, 8, 3)
        with pytest.raises(ShapeError):
            renet_block(np.zeros((1, 5, 4, 2)), params)


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------

class TestProperties:
    def test_mirror_symmetry_left_right(self):
        rng = np.random.default_rng(163)
        x = rng.standard_normal((2, 3, 5, 4))
        params = make_params(rng, 4, 3)
        right_on_mirror, _ = run_sweep(x[:, :, ::-1].copy(), "right", params)
        left_on_input, _ = run_sweep(x, "left", params)
        assert np.allclose(right_on_mirror,
                           left_on_input[:, :, ::-1], atol=1e-6)

    def test_mirror_symmetry_up_down(self):
        rng = np.random.default_rng(167)
        x = rng.standard_normal((2, 5, 3, 4))
        params = make_params(rng, 4, 3)
        down_on_flip, _ = run_sweep(x[:, ::-1].copy(), "down", params)
        up_on_input, _ = run_sweep(x, "up", params)
        assert np.allclose(down_on_flip,
                           up_on_input[:, ::-1], atol=1e-6)

    def test_decoupling_perturbing_up_leaves_down_bit_identical(self):
        rng = np.random.default_rng(173)
        x = rng.standard_normal((2, 6, 6, 3)).astype(np.float32)
        params = make_block_params(rng, 2 * 2 * 3, 4)
        down_before, _ = sweep(split_patches(x), ("down",), params)
        params["up.wx"] += 1.0
        params["up.bias"] += 0.5
        down_after, _ = sweep(split_patches(x), ("down",), params)
        assert np.array_equal(down_before, down_after)

    def test_down_sweep_causality(self):
        rng = np.random.default_rng(179)
        x = rng.standard_normal((2, 4, 3, 2))
        params = make_params(rng, 2, 3)
        base, _ = run_sweep(x, "down", params)
        for pn in range(2):
            for pi in range(4):
                for pj in range(3):
                    bumped = x.copy()
                    bumped[pn, pi, pj] += 1.0
                    out, _ = run_sweep(bumped, "down", params)
                    changed = np.any(out != base, axis=3)
                    for n in range(2):
                        for i in range(4):
                            for j in range(3):
                                if n != pn or j != pj or i < pi:
                                    assert not changed[n, i, j], (pn, pi, pj, n, i, j)

    def test_sweep_gradients_all_directions(self):
        rng = np.random.default_rng(181)
        for d in ("down", "up", "right", "left"):
            x = rng.standard_normal((2, 3, 4, 3))
            params = make_params(rng, 3, 2)
            r = rng.uniform(-1, 1, size=(2, 3, 4, 2))

            def f():
                out, _ = run_sweep(x, d, params)
                return float((out * r).sum())

            _, rec = run_sweep(x, d, params)
            dx, grads = backward(rec, r)
            err = finite_diff_check(f, [x, params["wx"], params["wz"], params["bias"]],
                                    [dx, grads[f"{d}.wx"], grads[f"{d}.wz"], grads[f"{d}.bias"]])
            assert err < 1e-4, d

    def test_block_gradients(self):
        rng = np.random.default_rng(191)
        x = rng.standard_normal((2, 4, 4, 2))
        params = make_block_params(rng, 2 * 2 * 2, 2)
        r = rng.uniform(-1, 1, size=(2, 2, 2, 4))

        def f():
            out, _ = renet_block(x, params)
            return float((out * r).sum())

        _, rec = renet_block(x, params)
        dx, grads = backward(rec, r)
        assert set(grads) == set(params)
        assert finite_diff_check(f, [x, *params.values()],
                                 [dx, *(grads[name] for name in params)]) < 1e-4


# ---------------------------------------------------------------------------
# the batch axis: N samples at once equal N runs on one sample
# ---------------------------------------------------------------------------

class TestBatchAxis:
    def test_split_and_merge(self):
        rng = np.random.default_rng(241)
        x = rng.standard_normal((3, 6, 4, 2))
        grid = split_patches(x)
        assert np.array_equal(grid, np.concatenate([split_patches(x[n:n + 1])
                                                    for n in range(3)]))
        assert np.array_equal(merge_patches(grid), x)

    def test_sweeps(self):
        rng = np.random.default_rng(251)
        x = rng.standard_normal((3, 4, 5, 3))
        for d in ("down", "up", "right", "left"):
            params = make_params(rng, 3, 4)
            assert_batch_equals_stacked_samples(
                lambda a: run_sweep(a, d, params), x)

    def test_block(self):
        rng = np.random.default_rng(257)
        params = make_block_params(rng, 2 * 2 * 2, 3)
        assert_batch_equals_stacked_samples(lambda a: renet_block(a, params),
                                            rng.standard_normal((3, 6, 4, 2)))
