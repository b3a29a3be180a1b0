"""Tests for the differentiable primitives.

Every op is checked against an independent oracle written from the plain
definition (explicit loops, scatter-accumulate) applied sample by sample,
every backward pass is checked against central finite differences in
float64 on a batch of two, and every op on a batch of three is checked
against stacking its results on one sample at a time.
"""

import numpy as np
import pytest

from sweepseg.errors import InvalidTargetError, ShapeError
from sweepseg.layers import (
    _BLOCK_ROWS,
    ConvSpec,
    _tap_rows,
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


# ---------------------------------------------------------------------------
# oracles: the definitions, written as slowly and literally as possible
# ---------------------------------------------------------------------------

def conv_oracle(x, w, b, stride, pad):
    kh, kw, ci, co = w.shape
    xp = np.pad(x, ((pad, pad), (pad, pad), (0, 0)))
    oh = (x.shape[0] + 2 * pad - kh) // stride + 1
    ow = (x.shape[1] + 2 * pad - kw) // stride + 1
    out = np.zeros((oh, ow, co), dtype=np.float64)
    for i in range(oh):
        for j in range(ow):
            for o in range(co):
                acc = b[o]
                for ki in range(kh):
                    for kj in range(kw):
                        for c in range(ci):
                            acc += xp[i * stride + ki, j * stride + kj, c] * w[ki, kj, c, o]
                out[i, j, o] = acc
    return out


def tconv_oracle(x, kern, b, stride):
    k, _, ci, co = kern.shape
    in_h, in_w = x.shape[:2]
    oh = (in_h - 1) * stride + k
    ow = (in_w - 1) * stride + k
    out = np.zeros((oh, ow, co), dtype=np.float64)
    for i in range(in_h):
        for j in range(in_w):
            for c in range(ci):
                for ki in range(k):
                    for kj in range(k):
                        for o in range(co):
                            out[i * stride + ki, j * stride + kj, o] += x[i, j, c] * kern[ki, kj, c, o]
    return out + b


def conv_float64(x, w, b, stride, pad):
    """The conv of a batch in float64, one strided window product per tap."""
    x = np.pad(x.astype(np.float64), ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    kh, kw = w.shape[:2]
    oh = (x.shape[1] - kh) // stride + 1
    ow = (x.shape[2] - kw) // stride + 1
    out = np.zeros((x.shape[0], oh, ow, w.shape[3])) + b
    for ki in range(kh):
        for kj in range(kw):
            window = x[:, ki:ki + stride * (oh - 1) + 1:stride, kj:kj + stride * (ow - 1) + 1:stride]
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
    h, w, c = x.shape
    out = np.zeros((h // 2, w // 2, c), dtype=x.dtype)
    for i in range(h // 2):
        for j in range(w // 2):
            for ch in range(c):
                out[i, j, ch] = max(x[2 * i, 2 * j, ch], x[2 * i, 2 * j + 1, ch],
                                    x[2 * i + 1, 2 * j, ch], x[2 * i + 1, 2 * j + 1, ch])
    return out


def proj(rng, shape):
    """Fixed random projection used to scalarize a tensor output."""
    return rng.uniform(-1.0, 1.0, size=shape)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

class TestConv:
    def test_worked_example(self):
        x = np.arange(1, 10, dtype=np.float32).reshape(1, 3, 3, 1)
        w = np.ones((2, 2, 1, 1), dtype=np.float32)
        b = np.zeros(1, dtype=np.float32)
        out, _ = conv2d_forward(x, w, b, ConvSpec(1, 1, (2, 2)))
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
            stride = int(rng.integers(1, 3))
            pad = int(rng.integers(0, 2))
            if (h + 2 * pad - k) < 0 or (w + 2 * pad - k) < 0:
                continue
            x = rng.standard_normal((int(rng.integers(1, 4)), h, w, ci))
            kern = rng.standard_normal((k, k, ci, co))
            b = rng.standard_normal(co)
            out, _ = conv2d_forward(x, kern, b, ConvSpec(ci, co, (k, k), stride, pad))
            want = np.stack([conv_oracle(sample, kern, b, stride, pad) for sample in x])
            assert np.allclose(out, want, atol=1e-10)

    def test_blocked_tap_loop_matches_float64_across_blocks(self):
        # every shape spans several blocks of rows and ends inside one
        rng = np.random.default_rng(41)
        for n, h, w, ci, stride in [(4, 64, 64, 3, 1), (2, 50, 47, 5, 1), (3, 40, 33, 4, 2)]:
            x = rng.standard_normal((n, h, w, ci)).astype(np.float32)
            kern = rng.standard_normal((3, 3, ci, 6)).astype(np.float32)
            b = rng.standard_normal(6).astype(np.float32)
            spec = ConvSpec(ci, 6, (3, 3), stride, 1)
            _, length = _tap_rows(spec, x.shape)
            assert length > 2 * _BLOCK_ROWS and length % _BLOCK_ROWS
            out, _ = conv2d_forward(x, kern, b, spec)
            want = conv_float64(x, kern, b, stride, 1)
            assert out.dtype == np.float32 and out.shape == want.shape
            assert relative_gap(out, want) <= 1e-6

    def test_bias_gradient_matches_float64_sum(self):
        rng = np.random.default_rng(43)
        x = rng.standard_normal((4, 64, 64, 16)).astype(np.float32)
        kern = rng.standard_normal((3, 3, 16, 16)).astype(np.float32)
        out, rec = conv2d_forward(x, kern, np.zeros(16, np.float32), ConvSpec(16, 16, (3, 3), 1, 1))
        up = rng.standard_normal(out.shape).astype(np.float32)
        _, grads = backward(rec, up)
        want = up.astype(np.float64).sum(axis=(0, 1, 2))
        assert grads["bias"].dtype == np.float32
        assert np.all(np.abs(grads["bias"] - want) <= 1e-5 * np.abs(up).sum(axis=(0, 1, 2)))

    def test_one_by_one_is_channel_mix(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 5, 4, 3))
        w = rng.standard_normal((1, 1, 3, 2))
        b = rng.standard_normal(2)
        out, _ = conv2d_forward(x, w, b, ConvSpec(3, 2, (1, 1)))
        assert np.allclose(out, x @ w[0, 0] + b)

    def test_shape_validation(self):
        x = np.zeros((1, 4, 4, 2), dtype=np.float32)
        with pytest.raises(ShapeError):
            conv2d_forward(x, np.zeros((3, 3, 3, 1), np.float32), np.zeros(1, np.float32),
                           ConvSpec(3, 1, (3, 3)))
        with pytest.raises(ShapeError):  # a sample without its batch axis
            conv2d_forward(x[0], np.zeros((3, 3, 2, 1), np.float32), np.zeros(1, np.float32),
                           ConvSpec(2, 1, (3, 3)))
        with pytest.raises(ShapeError):
            conv2d_forward(x, np.zeros((3, 3, 2, 1), np.float32), np.zeros(2, np.float32),
                           ConvSpec(2, 1, (3, 3)))
        with pytest.raises(ShapeError):
            conv2d_forward(x, np.zeros((5, 5, 2, 1), np.float32), np.zeros(1, np.float32),
                           ConvSpec(2, 1, (5, 5)))


class TestMaxpool:
    def test_worked_example(self):
        x = np.arange(1, 17, dtype=np.float32).reshape(1, 4, 4, 1)
        out, _ = maxpool2x2_forward(x)
        assert np.array_equal(out[0, :, :, 0], [[6, 8], [14, 16]])

    def test_matches_oracle_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            h = 2 * int(rng.integers(1, 6))
            w = 2 * int(rng.integers(1, 6))
            c = int(rng.integers(1, 5))
            x = rng.standard_normal((int(rng.integers(1, 4)), h, w, c)).astype(np.float32)
            out, _ = maxpool2x2_forward(x)
            assert np.array_equal(out, np.stack([pool_oracle(sample) for sample in x]))

    def test_ties_route_gradient_to_first_cell_row_major(self):
        x = np.full((1, 2, 2, 1), 5.0, dtype=np.float32)
        out, rec = maxpool2x2_forward(x)
        assert out[0, 0, 0, 0] == 5.0
        dx, _ = backward(rec, np.ones((1, 1, 1, 1), dtype=np.float32))
        assert np.array_equal(dx[0, :, :, 0], [[1, 0], [0, 0]])

    def test_backward_equals_the_winner_index_form_on_ties_and_nans(self):
        rng = np.random.default_rng(13)
        for dtype in (np.float32, np.float64):
            for _ in range(10):
                x = rng.integers(0, 3, size=(3, 8, 6, 4)).astype(dtype)  # full of ties
                x[rng.uniform(size=x.shape) < 0.05] = np.nan
                up = rng.standard_normal((3, 4, 3, 4)).astype(dtype)
                up[0, 0, 0] = np.nan
                up[1, 1, 1] = -0.0
                _, rec = maxpool2x2_forward(x)
                dx, _ = backward(rec, up)
                assert dx.tobytes() == pool_backward_by_winner(x, up).tobytes()

    def test_odd_dims_rejected(self):
        with pytest.raises(ShapeError):
            maxpool2x2_forward(np.zeros((1, 3, 4, 1), np.float32))


class TestActivations:
    def test_values(self):
        x = np.linspace(-3, 3, 13).reshape(13, 1).astype(np.float64)
        relu, _ = activation_forward(x, "relu")
        assert np.array_equal(relu, np.maximum(x, 0))
        th, _ = activation_forward(x, "tanh")
        assert np.allclose(th, np.tanh(x))
        sg, _ = activation_forward(x, "sigmoid")
        assert np.allclose(sg, 1.0 / (1.0 + np.exp(-x)))

    def test_sigmoid_saturates_without_overflow(self):
        x = np.array([-500.0, 500.0])
        with np.errstate(over="raise"):
            out, _ = activation_forward(x, "sigmoid")
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
            got, _ = activation_forward(x, "sigmoid")
            assert got.dtype == dtype and got.tobytes() == want.tobytes()

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            activation_forward(np.zeros(3), "gelu")


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
            out, _ = tconv_forward(x, kern, b, stride)
            want = np.stack([tconv_oracle(sample, kern, b, stride) for sample in x])
            assert np.allclose(out, want, atol=1e-10)

    def test_per_tap_form_equals_sparse_matrix_and_its_transpose(self):
        # the matrix is the op's literal definition; the forward is its
        # product and the backward dx the product with its transpose. The
        # fixed (k, s) grid comes first, then random draws
        rng = np.random.default_rng(29)
        draws = [(int(rng.integers(1, 5)), int(rng.integers(1, 4))) for _ in range(100)]
        for k, stride in TCONV_GRID + draws:
            h = int(rng.integers(1, 6))
            w = int(rng.integers(1, 6))
            ci = int(rng.integers(1, 4))
            co = int(rng.integers(1, 4))
            kern = rng.standard_normal((k, k, ci, co))
            x = rng.standard_normal((1, h, w, ci))
            dense = tconv_sparse_matrix(kern, (h, w), stride).to_dense()
            out, rec = tconv_forward(x, kern, np.zeros(co), stride)
            want = dense @ x.reshape(-1)
            scale = max(np.abs(want).max(), 1e-12)
            assert np.abs(out.reshape(-1) - want).max() <= 1e-6 * scale
            up = rng.standard_normal(out.shape)
            dx, _ = backward(rec, up)
            want = dense.T @ up.reshape(-1)
            scale = max(np.abs(want).max(), 1e-12)
            assert np.abs(dx.reshape(-1) - want).max() <= 1e-6 * scale

    def test_shape_validation(self):
        kern = np.ones((2, 2, 1, 1))
        x = np.zeros((1, 2, 2, 1))
        with pytest.raises(ShapeError):  # x channels vs the kernel's c_in
            tconv_forward(np.zeros((1, 2, 2, 2)), kern, np.zeros(1), 2)
        with pytest.raises(ShapeError):  # x not (N, h, w, c)
            tconv_forward(np.zeros((2, 2, 1)), kern, np.zeros(1), 2)
        with pytest.raises(ShapeError):  # non-square kernel
            tconv_forward(x, np.ones((2, 3, 1, 1)), np.zeros(1), 2)
        with pytest.raises(ShapeError):  # kernel not 4-D
            tconv_forward(x, np.ones((2, 2, 1)), np.zeros(1), 2)
        with pytest.raises(ShapeError):  # bias vs c_out
            tconv_forward(x, kern, np.zeros(2), 2)
        with pytest.raises(ShapeError):
            tconv_forward(x, kern, np.zeros(1), 0)


class TestCrop:
    def test_crops_symmetric_margin(self):
        x = np.arange(50, dtype=np.float32).reshape(2, 5, 5, 1)
        out, _ = crop2d_forward(x, 1)
        assert np.array_equal(out, x[:, 1:4, 1:4])

    def test_too_small_rejected(self):
        with pytest.raises(ShapeError):
            crop2d_forward(np.zeros((1, 2, 2, 1)), 1)


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
        spec = ConvSpec(2, 3, (3, 3), stride=1, padding=1)
        r = proj(rng, (2, 5, 5, 3))

        def f():
            y, _ = conv2d_forward(x, w, b, spec)
            return float((y * r).sum())

        _, rec = conv2d_forward(x, w, b, spec)
        dx, grads = backward(rec, r)
        err = finite_diff_check(f, [x, w, b], [dx, grads["weights"], grads["bias"]])
        assert err < 1e-6

    def test_conv_strided_gradients(self):
        rng = np.random.default_rng(37)
        x = rng.standard_normal((2, 6, 7, 2))
        w = rng.standard_normal((2, 2, 2, 2)) * 0.5
        b = rng.standard_normal(2) * 0.1
        spec = ConvSpec(2, 2, (2, 2), stride=2, padding=0)
        _, rec = conv2d_forward(x, w, b, spec)
        r = proj(rng, rec.out_shape)

        def f():
            y, _ = conv2d_forward(x, w, b, spec)
            return float((y * r).sum())

        dx, grads = backward(rec, r)
        err = finite_diff_check(f, [x, w, b], [dx, grads["weights"], grads["bias"]])
        assert err < 1e-6

    def test_maxpool_gradients(self):
        rng = np.random.default_rng(41)
        x = rng.standard_normal((2, 6, 4, 3))
        r = proj(rng, (2, 3, 2, 3))

        def f():
            y, _ = maxpool2x2_forward(x)
            return float((y * r).sum())

        _, rec = maxpool2x2_forward(x)
        dx, _ = backward(rec, r)
        assert finite_diff_check(f, [x], [dx]) < 1e-6

    def test_activation_gradients(self):
        rng = np.random.default_rng(43)
        for kind, tol in [("relu", 1e-6), ("tanh", 1e-4), ("sigmoid", 1e-4)]:
            x = rng.standard_normal((4, 4, 2)) + 0.1  # keep relu away from the kink
            r = proj(rng, (4, 4, 2))

            def f():
                y, _ = activation_forward(x, kind)
                return float((y * r).sum())

            _, rec = activation_forward(x, kind)
            dx, _ = backward(rec, r)
            assert finite_diff_check(f, [x], [dx]) < tol, kind

    def test_tconv_gradients(self):
        rng = np.random.default_rng(53)
        x = rng.standard_normal((2, 3, 3, 2))
        w = rng.standard_normal((2, 2, 2, 2)) * 0.5
        b = rng.standard_normal(2) * 0.1
        stride = 2
        r = proj(rng, (2, 6, 6, 2))

        def f():
            y, _ = tconv_forward(x, w, b, stride)
            return float((y * r).sum())

        _, rec = tconv_forward(x, w, b, stride)
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
            y, _ = tconv_forward(x, w, b, 1)
            return float((y * r).sum())

        _, rec = tconv_forward(x, w, b, 1)
        dx, grads = backward(rec, r)
        err = finite_diff_check(f, [x, w, b], [dx, grads["weights"], grads["bias"]])
        assert err < 1e-6

    def test_crop_gradients(self):
        rng = np.random.default_rng(61)
        x = rng.standard_normal((2, 5, 5, 2))
        r = proj(rng, (2, 3, 3, 2))

        def f():
            y, _ = crop2d_forward(x, 1)
            return float((y * r).sum())

        _, rec = crop2d_forward(x, 1)
        dx, _ = backward(rec, r)
        assert finite_diff_check(f, [x], [dx]) < 1e-6

    def test_bce_gradients(self):
        rng = np.random.default_rng(67)
        pred = rng.uniform(0.05, 0.95, size=(2, 4, 4, 1))
        target = (rng.uniform(size=(2, 4, 4, 1)) < 0.5).astype(np.float64)

        def f():
            loss, _ = bce_loss(pred, target)
            return float(loss.sum())

        _, rec = bce_loss(pred, target)
        dpred, _ = backward(rec, 1.0)
        assert finite_diff_check(f, [pred], [dpred]) < 1e-4

    def test_chained_ops_gradients(self):
        # conv -> relu -> pool -> sigmoid -> bce composes through the
        # per-op records exactly like the model-level tape will
        rng = np.random.default_rng(71)
        x = rng.standard_normal((1, 4, 4, 2))
        w = rng.standard_normal((3, 3, 2, 3)) * 0.5
        b = rng.standard_normal(3) * 0.1
        spec = ConvSpec(2, 3, (3, 3), stride=1, padding=1)
        target = (rng.uniform(size=(1, 2, 2, 3)) < 0.5).astype(np.float64)

        def run():
            y1, r1 = conv2d_forward(x, w, b, spec)
            y2, r2 = activation_forward(y1, "relu")
            y3, r3 = maxpool2x2_forward(y2)
            y4, r4 = activation_forward(y3, "sigmoid")
            loss, r5 = bce_loss(y4, target)
            return float(loss.sum()), (r1, r2, r3, r4, r5)

        loss, (r1, r2, r3, r4, r5) = run()
        g, _ = backward(r5, 1.0)
        g, _ = backward(r4, g)
        g, _ = backward(r3, g)
        g, _ = backward(r2, g)
        dx, grads = backward(r1, g)
        err = finite_diff_check(lambda: run()[0], [x, w, b],
                                [dx, grads["weights"], grads["bias"]])
        assert err < 1e-4

    def test_zero_upstream_gives_zero_gradients(self):
        rng = np.random.default_rng(73)
        x = rng.standard_normal((2, 4, 4, 2))
        w = rng.standard_normal((3, 3, 2, 2))
        b = rng.standard_normal(2)
        _, rec = conv2d_forward(x, w, b, ConvSpec(2, 2, (3, 3), padding=1))
        dx, grads = backward(rec, np.zeros((2, 4, 4, 2)))
        assert not dx.any() and not grads["weights"].any() and not grads["bias"].any()

    def test_upstream_shape_mismatch_rejected(self):
        x = np.zeros((1, 4, 4, 1), dtype=np.float32)
        _, rec = maxpool2x2_forward(x)
        with pytest.raises(ShapeError):
            backward(rec, np.zeros((1, 4, 4, 1), dtype=np.float32))

    def test_conv_strided_padded_gradients(self):
        # the network's 3x3 kernel with padding 1, at stride 2: the
        # backward scatters into the stride-1 grid of the padded batch
        rng = np.random.default_rng(79)
        x = rng.standard_normal((2, 6, 5, 2))
        w = rng.standard_normal((3, 3, 2, 3)) * 0.5
        b = rng.standard_normal(3) * 0.1
        spec = ConvSpec(2, 3, (3, 3), stride=2, padding=1)
        _, rec = conv2d_forward(x, w, b, spec)
        r = proj(rng, rec.out_shape)

        def f():
            y, _ = conv2d_forward(x, w, b, spec)
            return float((y * r).sum())

        dx, grads = backward(rec, r)
        err = finite_diff_check(f, [x, w, b], [dx, grads["weights"], grads["bias"]])
        assert err < 1e-6

    def test_conv_skips_only_the_input_gradient(self):
        rng = np.random.default_rng(83)
        x = rng.standard_normal((2, 5, 5, 2))
        w = rng.standard_normal((3, 3, 2, 3))
        _, rec = conv2d_forward(x, w, np.zeros(3), ConvSpec(2, 3, (3, 3), padding=1))
        up = proj(rng, rec.out_shape)
        _, full = backward(rec, up)
        dx, grads = backward(rec, up, input_grad=False)
        assert dx is None
        assert all(np.array_equal(grads[k], full[k]) for k in full)
        _, pool = maxpool2x2_forward(np.zeros((1, 2, 2, 1)))
        with pytest.raises(ValueError):
            backward(pool, np.zeros((1, 1, 1, 1)), input_grad=False)


# ---------------------------------------------------------------------------
# the batch axis: N samples at once equal N runs on one sample
# ---------------------------------------------------------------------------

def relative_gap(got, want):
    return float(np.abs(got - want).max()) / max(float(np.abs(want).max()), 1e-300)


def assert_batch_equals_stacked_samples(op, x, tol=1e-10):
    """op on the whole batch equals op on each sample, forward and backward.

    Input gradients stack like the outputs; parameter gradients of the
    batch are the sums of the samples' gradients.
    """
    rng = np.random.default_rng(97)
    out, rec = op(x)
    up = rng.uniform(-1.0, 1.0, size=out.shape)
    dx, grads = backward(rec, up)
    outs, dxs, sums = [], [], {}
    for n in range(len(x)):
        o, r = op(x[n:n + 1])
        d, g = backward(r, up[n:n + 1])
        outs.append(o)
        dxs.append(d)
        for key, val in g.items():
            sums[key] = sums.get(key, 0.0) + val
    assert relative_gap(out, np.concatenate(outs)) <= tol
    assert relative_gap(dx, np.concatenate(dxs)) <= tol
    assert set(grads) == set(sums)
    for key in grads:
        assert relative_gap(grads[key], sums[key]) <= tol, key


class TestBatchAxis:
    def test_conv(self):
        rng = np.random.default_rng(211)
        x = rng.standard_normal((3, 7, 6, 3))
        for k, stride, pad in [(3, 1, 1), (3, 2, 1), (2, 2, 0), (1, 1, 0)]:
            w = rng.standard_normal((k, k, 3, 4))
            b = rng.standard_normal(4)
            spec = ConvSpec(3, 4, (k, k), stride, pad)
            assert_batch_equals_stacked_samples(lambda a: conv2d_forward(a, w, b, spec), x)

    def test_maxpool(self):
        rng = np.random.default_rng(223)
        assert_batch_equals_stacked_samples(maxpool2x2_forward,
                                            rng.standard_normal((3, 6, 4, 2)))

    def test_activations(self):
        rng = np.random.default_rng(227)
        x = rng.standard_normal((3, 4, 5, 2))
        for kind in ("relu", "tanh", "sigmoid"):
            assert_batch_equals_stacked_samples(lambda a: activation_forward(a, kind), x)

    def test_tconv(self):
        rng = np.random.default_rng(229)
        x = rng.standard_normal((3, 3, 4, 2))
        for k, stride in TCONV_GRID:
            w = rng.standard_normal((k, k, 2, 3))
            b = rng.standard_normal(3)
            assert_batch_equals_stacked_samples(lambda a: tconv_forward(a, w, b, stride), x)

    def test_crop(self):
        rng = np.random.default_rng(233)
        assert_batch_equals_stacked_samples(lambda a: crop2d_forward(a, 1),
                                            rng.standard_normal((3, 5, 6, 2)))

    def test_bce(self):
        rng = np.random.default_rng(239)
        pred = rng.uniform(0.05, 0.95, size=(3, 4, 4, 1))
        target = (rng.uniform(size=(3, 4, 4, 1)) < 0.5).astype(np.float64)
        losses, rec = bce_loss(pred, target)
        dpred, _ = backward(rec, 0.5)
        for n in range(3):
            loss, r = bce_loss(pred[n:n + 1], target[n:n + 1])
            d, _ = backward(r, 0.5)
            assert relative_gap(losses[n:n + 1], loss) <= 1e-10
            assert relative_gap(dpred[n:n + 1], d) <= 1e-10
