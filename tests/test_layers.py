"""Tests for the differentiable primitives.

Every op is checked against an independent oracle written from the plain
definition (explicit loops, scatter-accumulate) applied sample by sample,
every backward pass is checked against central finite differences in
float64 on a batch of two, and every op on a batch of three is checked
against stacking its results on one sample at a time.
"""

import itertools

import numpy as np
import pytest

from sweepseg.errors import InvalidTargetError, ShapeError
from sweepseg.gradcheck import finite_diff_check
from sweepseg.layers import (
    _BLOCK_ROWS,
    _tap_rows,
    activation_forward,
    backward,
    bce_loss,
    conv2d_forward,
    maxpool2x2_forward,
    tconv_forward,
    tconv_sparse_matrix,
)

from helpers import assert_batch_equals_stacked_samples, relative_gap, tconv_oracle


# ---------------------------------------------------------------------------
# oracles: the definitions, written as slowly and literally as possible
# ---------------------------------------------------------------------------

def conv_oracle(x, w, b, pad):
    kh, kw, ci, co = w.shape
    xp = np.pad(x, ((pad, pad), (pad, pad), (0, 0)))
    oh = x.shape[0] + 2 * pad - kh + 1
    ow = x.shape[1] + 2 * pad - kw + 1
    out = np.zeros((oh, ow, co), dtype=np.float64)
    for i in range(oh):
        for j in range(ow):
            for o in range(co):
                acc = b[o]
                for ki in range(kh):
                    for kj in range(kw):
                        for c in range(ci):
                            acc += xp[i + ki, j + kj, c] * w[ki, kj, c, o]
                out[i, j, o] = acc
    return out


def conv_float64(x, w, b, pad):
    """The conv of a batch in float64, one shifted window product per tap."""
    x = np.pad(x.astype(np.float64), ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    kh, kw = w.shape[:2]
    oh = x.shape[1] - kh + 1
    ow = x.shape[2] - kw + 1
    out = np.zeros((x.shape[0], oh, ow, w.shape[3])) + b
    for ki in range(kh):
        for kj in range(kw):
            window = x[:, ki:ki + oh, kj:kj + ow]
            out += window @ w[ki, kj].astype(np.float64)
    return out


def pool_backward_by_winner(x, up):
    """Pool backward through a winner index per window: the first cell,
    row-major, equal to the window max; cell 3 when none is (a NaN window)."""
    cells = [x[:, i::2, j::2] for i in (0, 1) for j in (0, 1)]
    out = np.maximum(np.maximum(cells[0], cells[1]), np.maximum(cells[2], cells[3]))
    winner = np.full(out.shape, 3, dtype=np.uint8)
    for k in (2, 1, 0):
        winner[cells[k] == out] = k
    index = np.arange(4, dtype=np.uint8).reshape(2, 1, 2, 1)
    dx = (winner[:, :, None, :, None, :] == index) * up[:, :, None, :, None, :]
    return dx.reshape(x.shape)


def pool_oracle(x):
    """Each window's max; a window with a NaN pools to NaN."""
    h, w, c = x.shape
    out = np.zeros((h // 2, w // 2, c), dtype=x.dtype)
    for i in range(h // 2):
        for j in range(w // 2):
            for ch in range(c):
                window = [x[2 * i, 2 * j, ch], x[2 * i, 2 * j + 1, ch],
                          x[2 * i + 1, 2 * j, ch], x[2 * i + 1, 2 * j + 1, ch]]
                out[i, j, ch] = np.nan if np.isnan(window).any() else max(window)
    return out


def proj(rng, shape):
    """Fixed random projection used to scalarize a tensor output."""
    return rng.uniform(-1.0, 1.0, size=shape)


def off_kink(rng, x_shape, w_shape):
    """Input, kernel and bias of a relu'd (transposed) conv that no +-1e-3
    step of one entry moves across the relu's kink.

    x in [-2, 2] and w in [-1, 1] are multiples of 1/8 and the bias is an
    odd multiple of 1/128, so every pre-activation, an exact float64 sum,
    is an odd multiple of 1/128, at least 7.8e-3 from 0; one step moves it
    by at most 2e-3.
    """
    x = rng.integers(-16, 17, size=x_shape) / 8.0
    w = rng.integers(-8, 9, size=w_shape) / 8.0
    b = rng.integers(-8, 9, size=w_shape[3]) / 8.0 + 1.0 / 128.0
    return x, w, b


def relu_tconv_oracle(x, kern, b, stride, pad):
    """The sparse-matrix product of one sample, cut by pad per side, then relu."""
    m = tconv_sparse_matrix(kern, x.shape[:2], stride)
    full = (m.to_dense() @ x.reshape(-1)).reshape(m.out_dims) + b
    h, w = full.shape[:2]
    return np.maximum(full[pad:h - pad, pad:w - pad], 0)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

class TestConv:
    def test_worked_example(self):
        x = np.arange(1, 10, dtype=np.float32).reshape(1, 3, 3, 1)
        w = np.ones((2, 2, 1, 1), dtype=np.float32)
        b = np.zeros(1, dtype=np.float32)
        out, _ = conv2d_forward(x, w, b, 0)
        assert out.shape == (1, 2, 2, 1)
        assert np.array_equal(out[0, :, :, 0], [[12, 16], [24, 28]])

    def test_matches_oracle_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            h = int(rng.integers(3, 9))
            w = int(rng.integers(3, 9))
            ci = int(rng.integers(1, 4))
            co = int(rng.integers(1, 4))
            k = int(rng.integers(1, min(h, w) + 1))
            pad = min(int(rng.integers(0, 2)), k - 1)  # a conv pads at most k-1
            if (h + 2 * pad - k) < 0 or (w + 2 * pad - k) < 0:
                continue
            x = rng.standard_normal((int(rng.integers(1, 4)), h, w, ci))
            kern = rng.standard_normal((k, k, ci, co))
            b = rng.standard_normal(co)
            out, _ = conv2d_forward(x, kern, b, pad)
            want = np.stack([conv_oracle(sample, kern, b, pad) for sample in x])
            assert np.allclose(out, want, atol=1e-10)

    def test_blocked_tap_loop_matches_float64_across_blocks(self):
        # every shape spans several blocks of rows and ends inside one
        rng = np.random.default_rng(41)
        for n, h, w, ci in [(4, 64, 64, 3), (2, 50, 47, 5), (3, 40, 33, 4)]:
            x = rng.standard_normal((n, h, w, ci)).astype(np.float32)
            kern = rng.standard_normal((3, 3, ci, 6)).astype(np.float32)
            b = rng.standard_normal(6).astype(np.float32)
            _, length = _tap_rows(3, 1, x.shape)
            assert length > 2 * _BLOCK_ROWS and length % _BLOCK_ROWS
            out, _ = conv2d_forward(x, kern, b, 1)
            want = conv_float64(x, kern, b, 1)
            assert out.dtype == np.float32 and out.shape == want.shape
            assert relative_gap(out, want) <= 1e-6

    def test_bias_gradient_matches_float64_sum(self):
        rng = np.random.default_rng(43)
        x = rng.standard_normal((4, 64, 64, 16)).astype(np.float32)
        kern = rng.standard_normal((3, 3, 16, 16)).astype(np.float32)
        out, rec = conv2d_forward(x, kern, np.zeros(16, np.float32), 1)
        up = rng.standard_normal(out.shape).astype(np.float32)
        _, grads = backward(rec, up)
        want = up.astype(np.float64).sum(axis=(0, 1, 2))
        assert grads["bias"].dtype == np.float32
        assert np.all(np.abs(grads["bias"] - want) <= 1e-5 * np.abs(up).sum(axis=(0, 1, 2)))

    def test_a_padding_0_conv_reads_a_contiguous_input_in_place(self):
        # the 1x1 head once copied the decoder's output into a zeroed buffer;
        # a strided input is still copied, to the same bytes
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 6, 8, 3)).astype(np.float32)
        b = rng.standard_normal(2).astype(np.float32)
        for k in (1, 3):
            w = rng.standard_normal((k, k, 3, 2)).astype(np.float32)
            out, rec = conv2d_forward(x, w, b, 0)
            assert np.shares_memory(rec.saved["rows"], x)
            strided, rec = conv2d_forward(x[:, :, ::2], w, b, 0)
            assert not np.shares_memory(rec.saved["rows"], x)
            assert strided.tobytes() == conv2d_forward(x[:, :, ::2].copy(), w, b, 0)[0].tobytes()

    def test_one_by_one_is_channel_mix(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 5, 4, 3))
        w = rng.standard_normal((1, 1, 3, 2))
        b = rng.standard_normal(2)
        out, _ = conv2d_forward(x, w, b, 0)
        assert np.allclose(out, x @ w[0, 0] + b)

    def test_shape_validation(self):
        x = np.zeros((1, 4, 4, 2), dtype=np.float32)
        with pytest.raises(ShapeError):
            conv2d_forward(x, np.zeros((3, 3, 3, 1), np.float32), np.zeros(1, np.float32), 0)
        with pytest.raises(ShapeError):  # a sample without its batch axis
            conv2d_forward(x[0], np.zeros((3, 3, 2, 1), np.float32), np.zeros(1, np.float32), 0)
        with pytest.raises(ShapeError):
            conv2d_forward(x, np.zeros((3, 3, 2, 1), np.float32), np.zeros(2, np.float32), 0)
        with pytest.raises(ShapeError):
            conv2d_forward(x, np.zeros((5, 5, 2, 1), np.float32), np.zeros(1, np.float32), 0)
        with pytest.raises(ShapeError):  # the kernel must be square
            conv2d_forward(x, np.zeros((3, 2, 2, 1), np.float32), np.zeros(1, np.float32), 1)
        with pytest.raises(ShapeError):
            conv2d_forward(x, np.zeros((3, 3, 2, 1), np.float32), np.zeros(1, np.float32), -1)

    def test_padding_of_the_kernel_size_or_more_refused(self):
        x = np.zeros((1, 4, 4, 2), dtype=np.float32)
        for k, pad in [(1, 1), (2, 2), (3, 3), (3, 4)]:
            w = np.zeros((k, k, 2, 1), np.float32)
            with pytest.raises(ShapeError, match=f"padding must lie in \\[0, {k - 1}\\]"):
                conv2d_forward(x, w, np.zeros(1, np.float32), pad)
            with pytest.raises(ShapeError, match="padding must lie"):
                conv2d_forward(on_grid(x, pad), w, np.zeros(1, np.float32), pad, grid_in=True)


def on_grid(x, p=1):
    """x in the interior of a zero-padded (N, h+2p, w+2p, c) grid."""
    return np.pad(x, ((0, 0), (p, p), (p, p), (0, 0)))


def relu_pool_oracle(x, up):
    """The pool of a conv's relu'd output and the relu-masked pool gradient,
    from the oracles: the encoder's pool applies the relu of the conv
    before it."""
    relu = np.maximum(x, 0)
    out = np.stack([pool_oracle(sample) for sample in relu])
    return out, pool_backward_by_winner(relu, up) * (relu > 0)


class TestMaxpool:
    # the pool reads a conv's output grid, so every input here is on_grid(x)

    def test_worked_example(self):
        x = np.arange(-7, 9, dtype=np.float32).reshape(1, 4, 4, 1)
        out, _ = maxpool2x2_forward(on_grid(x))
        assert np.array_equal(out[0, :, :, 0], [[0, 0, 0, 0], [0, 0, 0, 0],
                                                [0, 6, 8, 0], [0, 0, 0, 0]])

    def test_matches_oracle_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            h = 2 * int(rng.integers(1, 6))
            w = 2 * int(rng.integers(1, 6))
            c = int(rng.integers(1, 5))
            x = rng.standard_normal((int(rng.integers(1, 4)), h, w, c)).astype(np.float32)
            out, _ = maxpool2x2_forward(on_grid(x))
            want = np.stack([pool_oracle(sample) for sample in np.maximum(x, 0)])
            assert out.tobytes() == on_grid(want).tobytes()

    def test_ties_route_gradient_to_first_cell_row_major(self):
        x = np.full((1, 2, 2, 1), 5.0, dtype=np.float32)
        out, rec = maxpool2x2_forward(on_grid(x))
        assert out[0, 1, 1, 0] == 5.0
        dx, _ = backward(rec, on_grid(np.ones((1, 1, 1, 1), dtype=np.float32)))
        assert np.array_equal(dx[0, 1:-1, 1:-1, 0], [[1, 0], [0, 0]])
        assert not dx[0, [0, -1]].any() and not dx[0, :, [0, -1]].any()

    def test_backward_equals_the_winner_index_form_on_ties_and_nans(self):
        rng = np.random.default_rng(13)
        for dtype in (np.float32, np.float64):
            for _ in range(10):
                x = rng.integers(0, 3, size=(3, 8, 6, 4)).astype(dtype)  # full of ties
                x[rng.uniform(size=x.shape) < 0.05] = np.nan
                up = rng.standard_normal((3, 4, 3, 4)).astype(dtype)
                up[0, 0, 0] = np.nan
                up[1, 1, 1] = -0.0
                _, rec = maxpool2x2_forward(on_grid(x))
                dx, _ = backward(rec, on_grid(up))
                assert dx.tobytes() == on_grid(relu_pool_oracle(x, up)[1]).tobytes()

    def test_odd_dims_rejected(self):
        with pytest.raises(ShapeError):
            maxpool2x2_forward(on_grid(np.zeros((1, 3, 4, 1), np.float32)))


# ---------------------------------------------------------------------------
# the encoder's chain on zero-padded grids
# ---------------------------------------------------------------------------

class TestPaddedGrid:
    def test_grid_forms_give_the_compact_bytes_with_a_zero_border(self):
        # same-size convs at k = 2p+1 over several blocks of rows: whichever
        # side is on the grid, its interior holds the compact op's bytes and
        # its border is +0, forward and backward
        rng = np.random.default_rng(101)
        for k, pad in ((3, 1), (5, 2), (1, 0)):
            x = rng.standard_normal((2, 40, 33, 3)).astype(np.float32)
            w = rng.standard_normal((k, k, 3, 4)).astype(np.float32)
            b = rng.standard_normal(4).astype(np.float32)
            for relu in (False, True):
                out, rec = conv2d_forward(x, w, b, pad, relu=relu)
                up = rng.standard_normal(out.shape).astype(np.float32)
                dx, grads = backward(rec, up)
                for grid_in in (False, True):
                    for grid_out in (False, True):
                        got, rec = conv2d_forward(on_grid(x, pad) if grid_in else x, w, b, pad,
                                                  relu=relu, grid_in=grid_in, grid_out=grid_out)
                        want = on_grid(out, pad) if grid_out else out
                        assert got.tobytes() == np.ascontiguousarray(want).tobytes()
                        g_dx, g_grads = backward(rec, on_grid(up, pad) if grid_out else up)
                        want = on_grid(dx, pad) if grid_in else dx
                        assert g_dx.tobytes() == np.ascontiguousarray(want).tobytes()
                        for key in grads:
                            assert g_grads[key].tobytes() == grads[key].tobytes(), key

    def test_grid_shapes_are_checked(self):
        x = np.zeros((1, 6, 6, 2), np.float32)
        w, b = np.zeros((3, 3, 2, 1), np.float32), np.zeros(1, np.float32)
        with pytest.raises(ShapeError, match="same-size"):  # k = 3 needs padding 1
            conv2d_forward(x, w, b, 0, grid_out=True)
        with pytest.raises(ShapeError):  # a 2x2 grid has no interior inside padding 1
            conv2d_forward(x[:, :2, :2], w, b, 1, grid_in=True)
        out, _ = conv2d_forward(x, w, b, 1, grid_in=True)
        assert out.shape == (1, 4, 4, 1)

    def test_fused_relu_and_winner_give_the_bytes_of_relu_then_pool(self):
        # a conv that feeds a pool leaves its relu to the pool: the relu'd
        # window max and the winner index give the oracles' relu, pool and
        # relu-masked pool gradient bit for bit, ties, all-zero windows,
        # all-negative windows, signed zeros and NaN windows included
        rng = np.random.default_rng(107)
        for dtype in (np.float32, np.float64):
            for _ in range(10):
                x = rng.integers(-2, 3, size=(3, 8, 6, 4)).astype(dtype)  # full of ties
                x[0, :2, :2] = 0.0
                x[0, 2:4, :2] = -1.0
                x[1, :2, :2] = [[[-0.0], [-1.0]], [[0.0], [-0.0]]]
                x[rng.uniform(size=x.shape) < 0.03] = np.nan
                up = rng.standard_normal((3, 4, 3, 4)).astype(dtype)
                up[0, 0, 0] = np.nan
                up[1, 1, 1] = -0.0
                want, want_dx = relu_pool_oracle(x, up)

                got, rec = maxpool2x2_forward(on_grid(x))
                assert rec.saved["winner"].dtype == np.uint8 and "x" not in rec.saved
                assert got.tobytes() == on_grid(want).tobytes()
                dx, _ = backward(rec, on_grid(up))
                assert dx.tobytes() == on_grid(want_dx).tobytes()


class TestActivations:
    def test_values(self):
        # the sigmoid head, and the relu a conv ends in (here a 1x1 identity)
        x = np.linspace(-3, 3, 13).reshape(1, 13, 1, 1).astype(np.float64)
        relu, _ = conv2d_forward(x, np.ones((1, 1, 1, 1)), np.zeros(1), 0, relu=True)
        assert np.array_equal(relu, np.maximum(x, 0))
        sg, _ = activation_forward(x)
        assert np.allclose(sg, 1.0 / (1.0 + np.exp(-x)))

    def test_sigmoid_saturates_without_overflow(self):
        x = np.array([-500.0, 500.0])
        with np.errstate(over="raise"):
            out, _ = activation_forward(x)
        assert abs(out[0]) < 1e-100 and out[1] == 1.0

    def test_sigmoid_matches_the_two_branch_form_bit_for_bit(self):
        rng = np.random.default_rng(17)
        for dtype in (np.float32, np.float64):
            x = (rng.standard_normal(1000) * 40).astype(dtype)
            x[:7] = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1e-30]
            pos = x >= 0
            want = np.empty_like(x)
            want[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            ex = np.exp(x[~pos])
            want[~pos] = ex / (1.0 + ex)
            got, _ = activation_forward(x)
            assert got.dtype == dtype and got.tobytes() == want.tobytes()

    def test_unknown_kind(self):
        # the sigmoid is the only kind left: relu lives in the convs, and
        # asking for a kind is an error
        with pytest.raises(TypeError):
            activation_forward(np.zeros(3), "relu")


# ---------------------------------------------------------------------------
# transposed convolution as a sparse matrix
# ---------------------------------------------------------------------------

class TestTconvMatrix:
    def test_single_cell_matrix_is_flattened_kernel_column(self):
        rng = np.random.default_rng(2)
        kern = rng.standard_normal((3, 3, 1, 1))
        m = tconv_sparse_matrix(kern, (1, 1), 2)
        assert m.cols == 1 and m.rows == 9
        assert np.array_equal(m.to_dense()[:, 0], kern.reshape(-1))

    def test_entry_count_is_kernel_area_times_cells_times_channels(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            k = int(rng.integers(1, 5))
            h = int(rng.integers(1, 5))
            w = int(rng.integers(1, 5))
            ci = int(rng.integers(1, 4))
            co = int(rng.integers(1, 4))
            stride = int(rng.integers(1, 4))
            kern = rng.standard_normal((k, k, ci, co))
            m = tconv_sparse_matrix(kern, (h, w), stride)
            assert m.nnz == k * k * h * w * ci * co

    def test_structural_zeros_are_kept(self):
        kern = np.zeros((2, 2, 1, 1))
        m = tconv_sparse_matrix(kern, (3, 3), 2)
        assert m.nnz == 4 * 9
        assert np.all(m.val == 0.0)

    def test_entries_sorted_and_unique(self):
        rng = np.random.default_rng(9)
        kern = rng.standard_normal((4, 4, 2, 3))
        m = tconv_sparse_matrix(kern, (3, 2), 2)
        key = m.row * m.cols + m.col
        assert np.all(np.diff(key) > 0)  # strictly increasing: sorted, no duplicates

    def test_non_overlapping_stride_blocks(self):
        rng = np.random.default_rng(13)
        kern = rng.standard_normal((2, 2, 1, 1))
        x = rng.standard_normal((3, 3, 1))
        m = tconv_sparse_matrix(kern, (3, 3), 2)
        out = m.matvec(x.reshape(-1)).reshape(6, 6, 1)
        for i in range(3):
            for j in range(3):
                block = out[2 * i:2 * i + 2, 2 * j:2 * j + 2, 0]
                assert np.allclose(block, x[i, j, 0] * kern[:, :, 0, 0])

    def test_dense_matrix_matches_scatter_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            k = int(rng.integers(1, 5))
            h = int(rng.integers(1, 5))
            w = int(rng.integers(1, 5))
            ci = int(rng.integers(1, 3))
            co = int(rng.integers(1, 3))
            stride = int(rng.integers(1, 4))
            kern = rng.standard_normal((k, k, ci, co))
            x = rng.standard_normal((h, w, ci))
            m = tconv_sparse_matrix(kern, (h, w), stride)
            got = (m.to_dense() @ x.reshape(-1)).reshape(m.out_dims)
            want = tconv_oracle(x, kern, np.zeros(co), stride)
            assert np.allclose(got, want, atol=1e-10)

    def test_matvec_agrees_with_dense_product(self):
        rng = np.random.default_rng(19)
        kern = rng.standard_normal((3, 3, 2, 2))
        x = rng.standard_normal(4 * 4 * 2)
        m = tconv_sparse_matrix(kern, (4, 4), 2)
        assert np.allclose(m.matvec(x), m.to_dense() @ x, atol=1e-12)

    def test_overlapping_cells_accumulate(self):
        # stride 1 with a 2x2 kernel of ones: interior output cells sum the
        # contributions of several input cells
        kern = np.ones((2, 2, 1, 1))
        x = np.ones((2, 2, 1))
        m = tconv_sparse_matrix(kern, (2, 2), 1)
        out = m.matvec(x.reshape(-1)).reshape(3, 3)
        assert np.array_equal(out, [[1, 2, 1], [2, 4, 2], [1, 2, 1]])


# (kernel, stride) pairs of the phase-split form: k a multiple of s, k % s != 0,
# k < s, k == s and s == 1
TCONV_GRID = [(4, 2), (3, 2), (3, 1), (5, 3), (1, 2), (2, 3), (4, 4), (1, 1)]
# (k, p) of stride-1 convs: every padding from 0 to k-1
CONV_GRID = [(k, p) for k in (1, 2, 3) for p in range(k)]


class TestTconvForward:
    def test_matches_oracle_with_bias(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            k = int(rng.integers(1, 4))
            h = int(rng.integers(1, 4))
            w = int(rng.integers(1, 4))
            ci = int(rng.integers(1, 3))
            co = int(rng.integers(1, 3))
            stride = int(rng.integers(1, 3))
            kern = rng.standard_normal((k, k, ci, co))
            x = rng.standard_normal((int(rng.integers(1, 4)), h, w, ci))
            b = rng.standard_normal(co)
            out, _ = tconv_forward(x, kern, b, stride, 0)
            want = np.stack([tconv_oracle(sample, kern, b, stride) for sample in x])
            assert np.allclose(out, want, atol=1e-10)

    def test_per_tap_form_equals_sparse_matrix_and_its_transpose(self):
        # the matrix is the op's literal definition; the forward is its
        # product (cut by the padding, then relu'd) and the backward dx the
        # product of its transpose with the masked upstream gradient placed
        # on the uncut grid. The fixed (k, s) grid comes first, then random draws
        rng = np.random.default_rng(29)
        draws = [(int(rng.integers(1, 5)), int(rng.integers(1, 4))) for _ in range(100)]
        for k, stride in TCONV_GRID + draws:
            h = int(rng.integers(1, 6))
            w = int(rng.integers(1, 6))
            ci = int(rng.integers(1, 4))
            co = int(rng.integers(1, 4))
            kern = rng.standard_normal((k, k, ci, co))
            x = rng.standard_normal((1, h, w, ci))
            m = tconv_sparse_matrix(kern, (h, w), stride)
            dense = m.to_dense()
            full = (dense @ x.reshape(-1)).reshape(m.out_dims)
            fh, fw = m.out_dims[:2]
            for pad, relu in ((0, False), (1, True)):
                if min(fh, fw) <= 2 * pad:
                    continue  # no output cell left
                out, rec = tconv_forward(x, kern, np.zeros(co), stride, pad, relu=relu)
                want = full[pad:fh - pad, pad:fw - pad]
                want = np.maximum(want, 0) if relu else want
                scale = max(np.abs(want).max(), 1e-12)
                assert np.abs(out[0] - want).max() <= 1e-6 * scale
                up = rng.standard_normal(out.shape)
                placed = np.zeros(m.out_dims)
                placed[pad:fh - pad, pad:fw - pad] = up[0] * (out[0] > 0) if relu else up[0]
                dx, _ = backward(rec, up)
                want = dense.T @ placed.reshape(-1)
                scale = max(np.abs(want).max(), 1e-12)
                assert np.abs(dx.reshape(-1) - want).max() <= 1e-6 * scale, (k, stride, pad)

    def test_padded_relu_matches_the_sparse_matrix_oracle(self):
        # padding p cuts p cells per side of the matrix product, then relu;
        # an output of no cells is refused
        rng = np.random.default_rng(31)
        for k, stride in TCONV_GRID:
            for pad in (0, 1):
                x = rng.standard_normal((2, int(rng.integers(1, 4)), int(rng.integers(1, 4)), 2))
                kern = rng.standard_normal((k, k, 2, 3))
                b = rng.standard_normal(3)
                if (min(x.shape[1:3]) - 1) * stride + k <= 2 * pad:
                    with pytest.raises(ShapeError):
                        tconv_forward(x, kern, b, stride, pad, relu=True)
                    continue
                out, _ = tconv_forward(x, kern, b, stride, pad, relu=True)
                want = np.stack([relu_tconv_oracle(sample, kern, b, stride, pad)
                                 for sample in x])
                assert out.shape == want.shape, (k, stride, pad)
                assert np.allclose(out, want, atol=1e-10), (k, stride, pad)

    def test_fused_relu_is_the_relu_of_the_plain_op_bit_for_bit(self):
        # the decoder's three stages on a 64 px batch of 4, then the
        # gradient check's tconv: the relu'd output is max(plain, 0) and its
        # backward is the plain backward of the masked upstream gradient
        rng = np.random.default_rng(37)
        shapes = (((4, 8, 8, 64), 32, 1), ((4, 16, 16, 32), 16, 1),
                  ((4, 32, 32, 16), 8, 1), ((1, 3, 4, 3), 2, 0))
        for dtype, (x_shape, co, pad) in itertools.product((np.float32, np.float64), shapes):
            x = rng.standard_normal(x_shape).astype(dtype)
            kern = (0.1 * rng.standard_normal((4, 4, x_shape[3], co))).astype(dtype)
            b = (0.1 * rng.standard_normal(co)).astype(dtype)
            out, rec = tconv_forward(x, kern, b, 2, pad, relu=True)
            plain, plain_rec = tconv_forward(x, kern, b, 2, pad)
            assert out.tobytes() == np.maximum(plain, 0).tobytes(), (dtype, x_shape)
            up = rng.standard_normal(out.shape).astype(dtype)
            dx, grads = backward(rec, up)
            want_dx, want_grads = backward(plain_rec, up * (out > 0))
            assert dx.tobytes() == want_dx.tobytes(), (dtype, x_shape)
            for name in ("weights", "bias"):
                assert grads[name].tobytes() == want_grads[name].tobytes(), (dtype, x_shape, name)

    def test_cut_output_is_c_contiguous_and_the_uncut_map_sliced(self):
        # each phase writes its cells of the cut output, with no uncut map
        # and no reshape copy; bit for bit the uncut output's middle
        rng = np.random.default_rng(41)
        for k, s, p in ((4, 2, 1), (3, 2, 1), (5, 3, 2), (4, 2, 2), (2, 1, 1)):
            x = rng.standard_normal((2, 3, 4, 3)).astype(np.float32)
            kern = rng.standard_normal((k, k, 3, 2)).astype(np.float32)
            b = rng.standard_normal(2).astype(np.float32)
            out, _ = tconv_forward(x, kern, b, s, p, relu=True)
            full, _ = tconv_forward(x, kern, b, s, 0, relu=True)
            assert out.flags.c_contiguous, (k, s, p)
            assert out.tobytes() == np.ascontiguousarray(full[:, p:-p, p:-p]).tobytes(), (k, s, p)

    def test_shape_validation(self):
        kern = np.ones((2, 2, 1, 1))
        x = np.zeros((1, 2, 2, 1))
        with pytest.raises(ShapeError):  # x channels vs the kernel's c_in
            tconv_forward(np.zeros((1, 2, 2, 2)), kern, np.zeros(1), 2, 0)
        with pytest.raises(ShapeError):  # x not (N, h, w, c)
            tconv_forward(np.zeros((2, 2, 1)), kern, np.zeros(1), 2, 0)
        with pytest.raises(ShapeError):  # non-square kernel
            tconv_forward(x, np.ones((2, 3, 1, 1)), np.zeros(1), 2, 0)
        with pytest.raises(ShapeError):  # kernel not 4-D
            tconv_forward(x, np.ones((2, 2, 1)), np.zeros(1), 2, 0)
        with pytest.raises(ShapeError):  # bias vs c_out
            tconv_forward(x, kern, np.zeros(2), 2, 0)
        with pytest.raises(ShapeError):
            tconv_forward(x, kern, np.zeros(1), 0, 0)
        with pytest.raises(ShapeError):
            tconv_forward(x, kern, np.zeros(1), 2, -1)


class TestCrop:
    """The decoder's crop is the transposed conv's padding."""

    def test_crops_symmetric_margin(self):
        rng = np.random.default_rng(37)
        x = rng.standard_normal((2, 3, 4, 2)).astype(np.float32)
        kern = rng.standard_normal((4, 4, 2, 3)).astype(np.float32)
        b = rng.standard_normal(3).astype(np.float32)
        full, _ = tconv_forward(x, kern, b, 2, 0)
        assert full.shape == (2, 8, 10, 3)
        for pad in (1, 2, 3):
            out, _ = tconv_forward(x, kern, b, 2, pad)
            assert np.array_equal(out, full[:, pad:8 - pad, pad:10 - pad])

    def test_too_small_rejected(self):
        # a 2x2 kernel at stride 2 makes 2x2 of one cell: padding 1 leaves none
        kern = np.ones((2, 2, 1, 1))
        tconv_forward(np.zeros((1, 1, 1, 1)), kern, np.zeros(1), 2, 0)
        with pytest.raises(ShapeError):
            tconv_forward(np.zeros((1, 1, 1, 1)), kern, np.zeros(1), 2, 1)


class TestBce:
    def test_hand_value(self):
        pred = np.array([[0.8, 0.2]])
        target = np.array([[1.0, 0.0]])
        loss, _ = bce_loss(pred, target)
        assert loss.shape == (1,) and abs(loss[0] - (-np.log(0.8))) < 1e-12

    def test_clamp_keeps_loss_finite(self):
        pred = np.array([[0.0, 1.0]])
        target = np.array([[1.0, 0.0]])
        loss, _ = bce_loss(pred, target)
        assert np.isfinite(loss).all()
        assert abs(loss[0] - (-np.log(1e-7))) < 1e-4

    def test_perfect_prediction_near_zero(self):
        pred = np.array([[1.0, 0.0]])
        target = np.array([[1.0, 0.0]])
        loss, _ = bce_loss(pred, target)
        assert loss[0] < 1e-6

    def test_non_binary_target_rejected(self):
        with pytest.raises(InvalidTargetError):
            bce_loss(np.array([[0.5]]), np.array([[0.5]]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            bce_loss(np.zeros((1, 3)), np.zeros((1, 4)))
        with pytest.raises(ShapeError):  # no batch axis
            bce_loss(np.zeros(3), np.zeros(3))

    def test_reduction_accumulates_in_float64(self):
        # float32 summation of 1e6 identical terms drifts; float64 does not
        pred = np.full((1, 10 ** 6), 0.75, dtype=np.float32)
        target = np.ones((1, 10 ** 6), dtype=np.float32)
        loss, _ = bce_loss(pred, target)
        assert loss.dtype == np.float64
        assert abs(loss[0] - (-np.log(np.float64(np.float32(0.75))))) < 1e-9

    def test_one_mean_per_sample(self):
        pred = np.array([[[0.8], [0.2]], [[0.5], [0.5]]])
        target = np.array([[[1.0], [0.0]], [[1.0], [1.0]]])
        loss, _ = bce_loss(pred, target)
        assert np.allclose(loss, [-np.log(0.8), -np.log(0.5)], rtol=1e-12)


# ---------------------------------------------------------------------------
# backward passes vs central finite differences (float64 throughout)
# ---------------------------------------------------------------------------

class TestGradients:
    def test_conv_gradients(self):
        rng = np.random.default_rng(31)
        x = rng.standard_normal((2, 5, 5, 2))
        w = rng.standard_normal((3, 3, 2, 3)) * 0.5
        b = rng.standard_normal(3) * 0.1
        r = proj(rng, (2, 5, 5, 3))

        def f():
            y, _ = conv2d_forward(x, w, b, 1)
            return float((y * r).sum())

        _, rec = conv2d_forward(x, w, b, 1)
        dx, grads = backward(rec, r)
        err = finite_diff_check(f, [x, w, b], [dx, grads["weights"], grads["bias"]])
        assert err < 1e-6

    def test_maxpool_gradients(self):
        # the pool's relu cuts some windows; every input lies 0.05 or more
        # off the kink
        rng = np.random.default_rng(41)
        x = rng.standard_normal((2, 6, 4, 3))
        x += 0.05 * np.sign(x)
        x = on_grid(x)
        r = on_grid(proj(rng, (2, 3, 2, 3)))

        def f():
            y, _ = maxpool2x2_forward(x)
            return float((y * r).sum())

        y, rec = maxpool2x2_forward(x)
        assert 0 < np.count_nonzero(y) < y[:, 1:-1, 1:-1].size  # both sides of the kink
        dx, _ = backward(rec, r)
        assert finite_diff_check(f, [x], [dx]) < 1e-6

    def test_activation_gradients(self):
        # the sigmoid head, and the relu alone as a 1x1 identity conv
        rng = np.random.default_rng(43)
        one, zero = np.ones((1, 1, 1, 1)), np.zeros(1)
        for name, op, tol in [
                ("relu", lambda a: conv2d_forward(a, one, zero, 0, relu=True), 1e-6),
                ("sigmoid", activation_forward, 1e-4)]:
            x = rng.standard_normal((4, 4, 2, 1)) + 0.1  # keep relu away from the kink
            r = proj(rng, (4, 4, 2, 1))

            def f():
                y, _ = op(x)
                return float((y * r).sum())

            _, rec = op(x)
            dx, _ = backward(rec, r)
            assert finite_diff_check(f, [x], [dx]) < tol, name

    def test_conv_relu_gradients(self):
        rng = np.random.default_rng(47)
        for k, pad in [(3, 1), (2, 0), (1, 0)]:
            x, w, b = off_kink(rng, (2, 5, 4, 2), (k, k, 2, 3))

            def f():
                y, _ = conv2d_forward(x, w, b, pad, relu=True)
                return float((y * r).sum())

            y, rec = conv2d_forward(x, w, b, pad, relu=True)
            assert 0 < np.count_nonzero(y) < y.size  # both sides of the kink
            r = proj(rng, y.shape)
            dx, grads = backward(rec, r)
            err = finite_diff_check(f, [x, w, b], [dx, grads["weights"], grads["bias"]])
            assert err < 1e-6, (k, pad)

    def test_tconv_gradients(self):
        rng = np.random.default_rng(53)
        x = rng.standard_normal((2, 3, 3, 2))
        w = rng.standard_normal((2, 2, 2, 2)) * 0.5
        b = rng.standard_normal(2) * 0.1
        stride = 2
        r = proj(rng, (2, 6, 6, 2))

        def f():
            y, _ = tconv_forward(x, w, b, stride, 0)
            return float((y * r).sum())

        _, rec = tconv_forward(x, w, b, stride, 0)
        dx, grads = backward(rec, r)
        err = finite_diff_check(f, [x, w, b], [dx, grads["weights"], grads["bias"]])
        assert err < 1e-6

    def test_tconv_overlapping_stride_gradients(self):
        rng = np.random.default_rng(59)
        x = rng.standard_normal((2, 3, 4, 2))
        w = rng.standard_normal((3, 3, 2, 1)) * 0.5
        b = rng.standard_normal(1) * 0.1
        r = proj(rng, (2, 5, 6, 1))

        def f():
            y, _ = tconv_forward(x, w, b, 1, 0)
            return float((y * r).sum())

        _, rec = tconv_forward(x, w, b, 1, 0)
        dx, grads = backward(rec, r)
        err = finite_diff_check(f, [x, w, b], [dx, grads["weights"], grads["bias"]])
        assert err < 1e-6

    def test_crop_gradients(self):
        # the crop is the transposed conv's padding: no gradient reaches
        # the cells it cuts
        rng = np.random.default_rng(61)
        x = rng.standard_normal((2, 3, 3, 2))
        w = rng.standard_normal((4, 4, 2, 2)) * 0.5
        b = rng.standard_normal(2) * 0.1
        r = proj(rng, (2, 6, 6, 2))

        def f():
            y, _ = tconv_forward(x, w, b, 2, 1)
            return float((y * r).sum())

        _, rec = tconv_forward(x, w, b, 2, 1)
        dx, grads = backward(rec, r)
        err = finite_diff_check(f, [x, w, b], [dx, grads["weights"], grads["bias"]])
        assert err < 1e-6

    def test_padded_relu_tconv_gradients(self):
        rng = np.random.default_rng(63)
        for k, stride in TCONV_GRID:
            for pad in (0, 1):
                x, w, b = off_kink(rng, (2, 3, 2, 2), (k, k, 2, 2))
                if (2 - 1) * stride + k <= 2 * pad:
                    continue  # no output cell left

                def f():
                    y, _ = tconv_forward(x, w, b, stride, pad, relu=True)
                    return float((y * r).sum())

                y, rec = tconv_forward(x, w, b, stride, pad, relu=True)
                r = proj(rng, y.shape)
                dx, grads = backward(rec, r)
                err = finite_diff_check(f, [x, w, b],
                                        [dx, grads["weights"], grads["bias"]])
                assert err < 1e-6, (k, stride, pad)

    def test_bce_gradients(self):
        rng = np.random.default_rng(67)
        pred = rng.uniform(0.05, 0.95, size=(2, 4, 4, 1))
        target = (rng.uniform(size=(2, 4, 4, 1)) < 0.5).astype(np.float64)

        def f():
            loss, _ = bce_loss(pred, target)
            return float(loss.sum())

        _, dpred = bce_loss(pred, target)
        assert finite_diff_check(f, [pred], [dpred]) < 1e-4

    def test_chained_ops_gradients(self):
        # conv -> relu+pool -> conv -> sigmoid -> bce, chained on zero-padded
        # grids as the encoder chains them, composes through the per-op
        # records exactly like the model-level tape
        rng = np.random.default_rng(71)
        x = rng.standard_normal((1, 4, 4, 2))
        w = rng.standard_normal((3, 3, 2, 3)) * 0.5
        b = rng.standard_normal(3) * 0.1
        w2 = rng.standard_normal((3, 3, 3, 2)) * 0.5
        b2 = rng.standard_normal(2) * 0.1
        target = (rng.uniform(size=(1, 2, 2, 2)) < 0.5).astype(np.float64)

        def run():
            y1, r1 = conv2d_forward(x, w, b, 1, grid_out=True)
            y2, r2 = maxpool2x2_forward(y1)
            y3, r3 = conv2d_forward(y2, w2, b2, 1, grid_in=True)
            y4, r4 = activation_forward(y3)
            loss, dy4 = bce_loss(y4, target)
            return float(loss.sum()), (r1, r2, r3, r4, dy4)

        loss, (r1, r2, r3, r4, g) = run()
        g, _ = backward(r4, g)
        g, grads2 = backward(r3, g)
        g, _ = backward(r2, g)
        dx, grads = backward(r1, g)
        err = finite_diff_check(lambda: run()[0], [x, w, b, w2, b2],
                                [dx, grads["weights"], grads["bias"],
                                 grads2["weights"], grads2["bias"]])
        assert err < 1e-4

    def test_zero_upstream_gives_zero_gradients(self):
        rng = np.random.default_rng(73)
        x = rng.standard_normal((2, 4, 4, 2))
        w = rng.standard_normal((3, 3, 2, 2))
        b = rng.standard_normal(2)
        _, rec = conv2d_forward(x, w, b, 1)
        dx, grads = backward(rec, np.zeros((2, 4, 4, 2)))
        assert not dx.any() and not grads["weights"].any() and not grads["bias"].any()

    def test_upstream_shape_mismatch_rejected(self):
        x = on_grid(np.zeros((1, 4, 4, 1), dtype=np.float32))
        _, rec = maxpool2x2_forward(x)
        with pytest.raises(ShapeError):
            backward(rec, np.zeros((1, 2, 2, 1), dtype=np.float32))

    def test_conv_input_gradient_across_kernels_and_paddings(self):
        # the input gradient is a full correlation with the flipped kernel
        # at padding k-1-p, from 0 (p = k-1) to k-1 (p = 0). A fused relu's
        # mask is applied as the backward writes its buffer
        rng = np.random.default_rng(79)
        for k, pad in CONV_GRID:
            for relu in (False, True):
                x, w, b = off_kink(rng, (2, 5, 4, 2), (k, k, 2, 3))

                def f():
                    y, _ = conv2d_forward(x, w, b, pad, relu=relu)
                    return float((y * r).sum())

                y, rec = conv2d_forward(x, w, b, pad, relu=relu)
                if relu:
                    assert 0 < np.count_nonzero(y) < y.size, (k, pad)  # both sides of the kink
                r = proj(rng, y.shape)
                dx, grads = backward(rec, r)
                assert dx.shape == x.shape
                err = finite_diff_check(f, [x, w, b], [dx, grads["weights"], grads["bias"]])
                assert err < 1e-6, (k, pad, relu)

    def test_conv_backward_keeps_the_separate_copies_bits(self):
        # on the 16->16 encoder conv at N=4, 64 px, writing the gradient once
        # into one buffer gives the bits of the masked copy, padded grid and
        # padded dx conv it replaced; the bias gradient sums the rows that
        # the dW GEMMs read, zero junk rows included
        rng = np.random.default_rng(89)
        x = rng.standard_normal((4, 64, 64, 16)).astype(np.float32)
        w = (rng.standard_normal((3, 3, 16, 16)) * 0.2).astype(np.float32)
        b = (rng.standard_normal(16) * 0.1).astype(np.float32)
        y, rec = conv2d_forward(x, w, b, 1, relu=True)
        up = rng.standard_normal(y.shape).astype(np.float32)
        dx, grads = backward(rec, up)

        masked = up * (y > 0)
        grid = np.zeros((4, 66, 66, 16), np.float32)
        grid[:, :64, :64] = masked
        taps, length = _tap_rows(3, 1, x.shape)
        rows, up_rows = rec.saved["rows"], grid.reshape(-1, 16)[:length]
        for ki, kj, off in taps:
            assert np.array_equal(grads["weights"][ki, kj], rows[off:off + length].T @ up_rows)
        assert np.array_equal(grads["bias"], np.ones(length, np.float32) @ up_rows)
        flipped = w[::-1, ::-1].transpose(0, 1, 3, 2)
        want, _ = conv2d_forward(masked, flipped, np.zeros(16, np.float32), 1)
        assert np.array_equal(dx, want)

    def test_conv_skips_only_the_input_gradient(self):
        rng = np.random.default_rng(83)
        x = rng.standard_normal((2, 5, 5, 2))
        w = rng.standard_normal((3, 3, 2, 3))
        _, rec = conv2d_forward(x, w, np.zeros(3), 1)
        up = proj(rng, rec.out_shape)
        _, full = backward(rec, up)
        dx, grads = backward(rec, up, input_grad=False)
        assert dx is None
        assert all(np.array_equal(grads[k], full[k]) for k in full)
        _, pool = maxpool2x2_forward(on_grid(np.zeros((1, 2, 2, 1))))
        with pytest.raises(ValueError, match="always returns"):
            backward(pool, on_grid(np.zeros((1, 1, 1, 1))), input_grad=False)


# ---------------------------------------------------------------------------
# the batch axis: N samples at once equal N runs on one sample
# ---------------------------------------------------------------------------

class TestBatchAxis:
    def test_conv(self):
        rng = np.random.default_rng(211)
        x = rng.standard_normal((3, 7, 6, 3))
        for k, pad in [(3, 1), (2, 0), (1, 0), (3, 2)]:
            w = rng.standard_normal((k, k, 3, 4))
            b = rng.standard_normal(4)
            for relu in (False, True):
                assert_batch_equals_stacked_samples(
                    lambda a: conv2d_forward(a, w, b, pad, relu=relu), x)

    def test_maxpool(self):
        rng = np.random.default_rng(223)
        assert_batch_equals_stacked_samples(maxpool2x2_forward,
                                            on_grid(rng.standard_normal((3, 6, 4, 2))))

    def test_activations(self):
        rng = np.random.default_rng(227)
        x = rng.standard_normal((3, 4, 5, 2))
        assert_batch_equals_stacked_samples(activation_forward, x)

    def test_tconv(self):
        rng = np.random.default_rng(229)
        x = rng.standard_normal((3, 3, 4, 2))
        for k, stride in TCONV_GRID:
            w = rng.standard_normal((k, k, 2, 3))
            b = rng.standard_normal(3)
            for pad, relu in ((0, False), (1, True), (1, False), (2, True)):
                if 2 * stride + k <= 2 * pad:
                    continue  # no output cell left
                assert_batch_equals_stacked_samples(
                    lambda a: tconv_forward(a, w, b, stride, pad, relu=relu), x)

    def test_crop(self):
        # the decoder's crop, now the transposed conv's padding
        rng = np.random.default_rng(233)
        w, b = rng.standard_normal((4, 4, 2, 3)), rng.standard_normal(3)
        assert_batch_equals_stacked_samples(lambda a: tconv_forward(a, w, b, 2, 1),
                                            rng.standard_normal((3, 5, 6, 2)))

    def test_bce(self):
        rng = np.random.default_rng(239)
        pred = rng.uniform(0.05, 0.95, size=(3, 4, 4, 1))
        target = (rng.uniform(size=(3, 4, 4, 1)) < 0.5).astype(np.float64)
        losses, dpred = bce_loss(pred, target)
        for n in range(3):
            loss, d = bce_loss(pred[n:n + 1], target[n:n + 1])
            assert relative_gap(losses[n:n + 1], loss) <= 1e-10
            assert relative_gap(dpred[n:n + 1], d) <= 1e-10
