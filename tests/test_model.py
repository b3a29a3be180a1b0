"""Tests for the assembled network, its gradients, and the training loop."""

import math
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest

import sweepseg.layers as layers_module
import sweepseg.model as model_module
from sweepseg.data import generate_synthetic
from sweepseg.errors import (
    CheckpointError,
    ConfigError,
    DataError,
    ShapeError,
    TrainingDivergedError,
)
from sweepseg.layers import (
    OpRecord,
    activation_forward,
    conv2d_forward,
    finite_diff_check,
)
from sweepseg.model import (
    DECODER_CHANNELS,
    ENCODER_CHANNELS,
    MAX_IMAGE_SIZE,
    MAX_RNN_UNITS,
    RELU_GAIN,
    SIDE_MULTIPLE,
    TCONV_STRIDE,
    ModelConfig,
    ModelParams,
    TrainTrace,
    _forward_tape,
    build_model,
    decoder_matrices,
    forward,
    load_model,
    loss_and_gradients,
    param_table,
    predict_mask,
    save_model,
    sgd_update,
    train,
)
from sweepseg.renet import renet_block
from sweepseg.tensor import Rng, glorot_scale, load_checkpoint, save_checkpoint


def small_config(**kw):
    base = dict(image_size=16, rnn_units=4, epochs=2, batch_size=2, seed=3)
    base.update(kw)
    return ModelConfig(**base)


def zeroed(params):
    for v in params.values.values():
        v[...] = 0.0
    return params


class TestBuild:
    def test_encoder_has_exactly_seven_convs(self):
        params = build_model(ModelConfig(), Rng(1))
        conv_names = [k for k in params.values if k.startswith("enc") and k.endswith(".weights")]
        assert len(conv_names) == 7
        assert [params.values[n].shape[3] for n in sorted(conv_names)] == list(ENCODER_CHANNELS)

    def test_same_seed_bit_identical(self):
        a = build_model(ModelConfig(), Rng(11))
        b = build_model(ModelConfig(), Rng(11))
        assert list(a.values) == list(b.values)
        for k in a.values:
            assert np.array_equal(a.values[k], b.values[k]), k

    def test_indivisible_image_size_rejected(self):
        with pytest.raises(ConfigError):
            build_model(ModelConfig(image_size=60), Rng(1))

    def test_sizes_above_the_caps_rejected_before_any_draw(self, monkeypatch):
        # the caps themselves are valid; building the config checks it
        ModelConfig(image_size=MAX_IMAGE_SIZE, rnn_units=MAX_RNN_UNITS)
        monkeypatch.setattr(Rng, "fill", lambda *a: pytest.fail("drew from the rng"))
        for bad in (dict(image_size=MAX_IMAGE_SIZE + 8), dict(image_size=8000000),
                    dict(rnn_units=MAX_RNN_UNITS + 1), dict(rnn_units=100000000)):
            with pytest.raises(ConfigError, match=next(iter(bad))):
                build_model(ModelConfig(**bad), Rng(1))

    @pytest.mark.parametrize("rnn_units", [ModelConfig().rnn_units, 8, MAX_RNN_UNITS])
    def test_one_fill_gives_the_bytes_of_one_fill_per_weight(self, rnn_units):
        config = ModelConfig(rnn_units=rnn_units)
        one, per_weight = Rng(29), Rng(29)
        got = build_model(config, one).values
        want = per_weight_init(config, per_weight)
        assert list(got) == list(want)
        for name, w in want.items():
            assert got[name].dtype == np.float32 and got[name].shape == w.shape, name
            assert got[name].tobytes() == w.tobytes(), name
        assert one.state == per_weight.state


def per_weight_init(config, rng):
    """The parameters as drawn by one fill per weight, in declaration order,
    with the fan rules restated from the names and shapes alone: the
    reference for build_model's single fill and its table's fans and gains."""
    values = {}
    for name, shape, _ in param_table(config):
        if name.endswith(".bias"):
            values[name] = np.zeros(shape, dtype=np.float32)
            continue
        gain = RELU_GAIN
        if name.startswith("dec"):
            k, _, ci, co = shape
            fan = (k // TCONV_STRIDE) ** 2
            fan_in, fan_out = fan * ci, fan * co
        elif len(shape) == 4:
            kh, kw, ci, co = shape
            fan_in, fan_out = kh * kw * ci, kh * kw * co
            if name == "out.weights":
                gain = np.float32(1.0)
        else:
            (fan_in, fan_out), gain = shape, np.float32(1.0)
        w = glorot_scale(rng.fill(math.prod(shape)), fan_in, fan_out).reshape(shape)
        values[name] = w * gain
    return values


def encode(images, params):
    """The encoder's output: what the forward hands the sweep block."""
    seen = []

    def capture(x, cell):
        seen.append(x)
        return renet_block(x, cell)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model_module, "renet_block", capture)
        _forward_tape(images, params)
    return seen[0]


def forward_peak(shape) -> float:
    """The tracemalloc peak of one forward pass on an (h, w) image, in bytes."""
    params = build_model(ModelConfig(), Rng(17))
    image = np.random.default_rng(6).uniform(size=shape + (3,)).astype(np.float32)
    forward(image[:64, :64], params)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        forward(image, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - before


def decode(renet_out, params):
    """The decoder's output when the sweep block hands it `renet_out`; the
    encoder runs on the smallest images the network takes."""
    images = np.zeros((len(renet_out), SIDE_MULTIPLE, SIDE_MULTIPLE, 3), np.float32)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model_module, "renet_block", lambda x, cell: (renet_out, None))
        return _forward_tape(images, params)[0]


class TestEncodeDecode:
    def test_encode_output_shapes(self):
        params = build_model(ModelConfig(), Rng(7))
        rng = np.random.default_rng(0)
        assert encode(rng.uniform(size=(2, 64, 64, 3)).astype(np.float32),
                      params).shape == (2, 16, 16, 64)
        assert encode(rng.uniform(size=(1, 32, 32, 3)).astype(np.float32),
                      params).shape == (1, 8, 8, 64)

    def test_encode_channel_mismatch(self):
        params = build_model(ModelConfig(), Rng(7))
        with pytest.raises(ShapeError):
            encode(np.zeros((1, 64, 64, 1), np.float32), params)
        with pytest.raises(ShapeError):  # an image without its batch axis
            encode(np.zeros((64, 64, 3), np.float32), params)

    def test_decode_output_shape_and_range(self):
        params = build_model(ModelConfig(), Rng(9))
        rng = np.random.default_rng(1)
        out = decode(rng.standard_normal((2, 8, 8, 64)).astype(np.float32), params)
        assert out.shape == (2, 64, 64, 1)
        assert out.min() > 0.0 and out.max() < 1.0

    def test_decode_zero_params_gives_half(self):
        params = zeroed(build_model(ModelConfig(), Rng(9)))
        out = decode(np.zeros((2, 8, 8, 64), np.float32), params)
        assert np.all(out == 0.5)

    def test_decode_matches_the_sparse_matrix_decoder(self):
        # the paper's literal decoder: each stage a sparse matrix times the
        # flattened map of one sample plus bias, cut by 1 per side (the
        # transposed conv's padding) and relu'd, then the same 1x1 head
        params = build_model(ModelConfig(), Rng(9))
        rng = np.random.default_rng(3)
        for size, batch in ((64, 2), (128, 1)):
            grid = size // 8
            x = rng.uniform(-1.0, 1.0, (batch, grid, grid, 64)).astype(np.float32)
            got = decode(x, params)
            for k, matrix in enumerate(decoder_matrices(params, grid), start=1):
                x = np.stack([matrix.matvec(sample.reshape(-1)).reshape(matrix.out_dims)
                              for sample in x])
                x = np.maximum((x + params.values[f"dec{k}.bias"])[:, 1:-1, 1:-1], 0)
            w = params.values["out.weights"]
            assert w.shape == (1, 1, DECODER_CHANNELS[-1], 1)
            x, _ = conv2d_forward(x, w, params.values["out.bias"], 0)
            want, _ = activation_forward(x)
            assert got.shape == want.shape == (batch, size, size, 1)
            assert np.abs(got - want).max() <= 1e-5


    def test_one_op_per_layer(self):
        # every relu runs inside its conv and every crop is a transposed
        # conv's padding: 7 + 1 convs, 2 pools, the sweeps, 3 tconvs, a sigmoid
        params = build_model(ModelConfig(), Rng(9))
        _, tape = _forward_tape(np.zeros((1, 64, 64, 3), np.float32), params)
        assert Counter(rec.kind for _, rec in tape) == {
            "conv2d": 8, "tconv": 3, "maxpool2x2": 2, "renet_block": 1, "activation": 1}

    def test_layers_run_in_declaration_order(self):
        # a forward that swapped two layers of one kind keeps every kind count
        params = build_model(ModelConfig(), Rng(9))
        _, tape = _forward_tape(np.zeros((1, 64, 64, 3), np.float32), params)
        declared = list(dict.fromkeys(name.split(".")[0]
                                      for name, _, _ in param_table(ModelConfig())))
        assert declared == [f"enc{i}" for i in range(1, 8)] + ["renet", "dec1", "dec2", "dec3",
                                                               "out"]
        assert [prefix for prefix, _ in tape if prefix is not None] == declared


class TestImageShapeRule:
    def test_sides_not_divisible_by_4_patch_rejected(self):
        # 44 passes both pools but leaves an 11x11 map for 2x2 patches;
        # 42 fails the pools: both break the same rule, with one message
        params = build_model(ModelConfig(), Rng(13))
        for side in (44, 42):
            with pytest.raises(ShapeError, match="divisible by 8"):
                forward(np.zeros((side, side, 3), np.float32), params)
        with pytest.raises(ShapeError, match="divisible by 8"):
            _forward_tape(np.zeros((2, 44, 64, 3), np.float32), params)

    def test_rule_follows_the_patch(self):
        # the patch is 2, so the rule is 4 * 2: 40 divides by 8 (and not
        # by 16) and maps to a mask of its own size; 36 divides by 4 only
        params = build_model(small_config(), Rng(13))
        assert forward(np.zeros((40, 48, 3), np.float32), params).shape == (40, 48, 1)
        with pytest.raises(ShapeError, match="divisible by 8"):
            forward(np.zeros((36, 40, 3), np.float32), params)


class TestForward:
    def test_output_matches_input_resolution(self):
        params = build_model(ModelConfig(), Rng(13))
        rng = np.random.default_rng(2)
        for s in (32, 64):
            out = forward(rng.uniform(size=(s, s, 3)).astype(np.float32), params)
            assert out.shape == (s, s, 1)

    def test_deterministic(self):
        params = build_model(ModelConfig(), Rng(17))
        rng = np.random.default_rng(3)
        image = rng.uniform(size=(32, 32, 3)).astype(np.float32)
        assert np.array_equal(forward(image, params), forward(image, params))

    def test_memory_is_bounded_and_released(self):
        # a 128 px forward peaks at tens of MB and keeps nothing once it returns
        params = build_model(ModelConfig(), Rng(17))
        image = np.random.default_rng(5).uniform(size=(128, 128, 3)).astype(np.float32)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = forward(image, params)
            del out
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before < 64e6
        assert held - before < 1e6

    def test_forward_keeps_no_tape(self):
        # inference drops each op record once the next op has run, and the
        # encoder's ops hand each other one zero-padded grid per activation:
        # a 256 px forward peaks at 11.77 MB (15.7 MB while every conv padded
        # a copy of its input and kept a relu mask, 26.0 MB when every record
        # lived until the mask was returned)
        assert forward_peak((256, 256)) < 1.1 * 11.77e6

    def test_photo_size_forward_peak(self):
        # a 768x1024 forward, the size an ISBI photo pads to, peaks at 139.1
        # MB, about 177 B per pixel (186.3 MB, 237 B per pixel, while every
        # conv padded a copy of its input)
        assert forward_peak((768, 1024)) < 1.1 * 139.1e6

    def test_forward_skips_the_pool_winners_that_only_a_backward_reads(self, monkeypatch):
        calls = []
        winners = layers_module._winners
        monkeypatch.setattr(layers_module, "_winners",
                            lambda *a: calls.append(a[1].shape) or winners(*a))
        params = build_model(small_config(), Rng(19))
        rng = np.random.default_rng(8)
        image = rng.uniform(size=(16, 16, 3)).astype(np.float32)
        mask = (rng.uniform(size=(16, 16, 1)) < 0.5).astype(np.float32)
        prob = forward(image, params)
        assert calls == []
        taped, _ = _forward_tape(image[None], params)
        assert prob.tobytes() == taped[0].tobytes()
        calls.clear()
        loss_and_gradients([(image, mask)], params)
        assert len(calls) == 2  # one per pool

    def test_samples_are_independent(self):
        params = build_model(small_config(), Rng(19))
        rng = np.random.default_rng(4)
        a = rng.uniform(size=(16, 16, 3)).astype(np.float32)
        b = rng.uniform(size=(16, 16, 3)).astype(np.float32)
        mask = (rng.uniform(size=(16, 16, 1)) < 0.5).astype(np.float32)
        loss_ab, grads_ab = loss_and_gradients([(a, mask), (b, mask)], params)
        loss_a, grads_a = loss_and_gradients([(a, mask)], params)
        loss_b, grads_b = loss_and_gradients([(b, mask)], params)
        assert abs(loss_ab - (loss_a + loss_b) / 2.0) < 1e-12
        for k in grads_ab:
            assert np.allclose(grads_ab[k], (grads_a[k] + grads_b[k]) / 2.0, atol=1e-7)


class TestBatchStep:
    """One forward and one backward pass carry the whole batch."""

    def test_batch_equals_mean_of_single_image_calls(self):
        config = small_config()
        values = {k: v.astype(np.float64)
                  for k, v in build_model(config, Rng(61)).values.items()}
        params = ModelParams(values=values)
        pairs = [(r.image.astype(np.float64), r.mask.astype(np.float64))
                 for r in generate_synthetic(61, 4, 16)]
        loss, grads = loss_and_gradients(pairs, params)
        singles = [loss_and_gradients([pair], params) for pair in pairs]
        want_loss = sum(l for l, _ in singles) / 4
        assert abs(loss - want_loss) <= 1e-10 * abs(want_loss)
        for k in grads:
            want = sum(g[k] for _, g in singles) / 4
            scale = max(float(np.abs(want).max()), 1e-300)
            assert float(np.abs(grads[k] - want).max()) <= 1e-10 * scale, k

    def test_step_memory_peak(self):
        # one 64 px step of batch 4 peaks at 6.86 MB under tracemalloc and
        # may not exceed that by 10%. It peaked at 9.77 MB while each encoder
        # record kept a relu mask, a padded copy of its input and the pooled
        # convs' outputs, and at 14.86 MB while the whole tape lived until
        # the step ended and each conv backward made three copies of its gradient
        params = build_model(ModelConfig(), Rng(42))
        batch = [(r.image, r.mask) for r in generate_synthetic(42, 4, 64)]
        model_module._batch_step(batch, params)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            model_module._batch_step(batch, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < 1.1 * 6.86e6

    def test_records_are_freed_as_the_gradient_passes_them(self, monkeypatch):
        # each record leaves the tape as its backward runs, so every array a
        # decoder record holds, its phase conv's included, is gone by the
        # time enc1's backward runs
        original = model_module.backward
        refs, alive_at_enc1 = [], []

        def arrays(rec):
            for value in rec.saved.values():
                if isinstance(value, np.ndarray):
                    yield value
                elif isinstance(value, OpRecord):
                    yield from arrays(value)

        def watching(rec, up, **kwargs):
            if rec.kind == "tconv" and not refs:
                refs.extend(weakref.ref(a) for a in arrays(rec))
            if not kwargs.get("input_grad", True):
                alive_at_enc1.append(sum(ref() is not None for ref in refs))
            return original(rec, up, **kwargs)

        monkeypatch.setattr(model_module, "backward", watching)
        params = build_model(small_config(), Rng(73))
        rec = generate_synthetic(73, 1, 16)[0]
        loss_and_gradients([(rec.image, rec.mask)], params)
        assert len(refs) == 3  # the relu mask, the phase conv's rows and kernel
        assert alive_at_enc1 == [0]

    def test_every_grid_the_encoder_hands_on_has_a_zero_border(self, monkeypatch):
        # the implicit GEMM's junk rows land on the border of each grid an
        # encoder op hands on, forward (its output) and backward (its input
        # gradient), and must read +0 there: the next conv reads that border
        # as its zero padding
        grids = []
        conv, pool, original = (model_module.conv2d_forward, model_module.maxpool2x2_forward,
                                model_module.backward)

        def keep(grid):
            grids.append(grid.copy())  # later ops mask gradients in place

        def watching_conv(*args, **kwargs):
            out, rec = conv(*args, **kwargs)
            if kwargs.get("grid_out"):
                keep(out)
            return out, rec

        def watching_pool(*args, **kwargs):
            out, rec = pool(*args, **kwargs)
            keep(out)
            return out, rec

        def watching_backward(rec, up, **kwargs):
            dx, grads = original(rec, up, **kwargs)
            if rec.saved.get("grid_in") or "winner" in rec.saved:
                keep(dx)
            return dx, grads

        monkeypatch.setattr(model_module, "conv2d_forward", watching_conv)
        monkeypatch.setattr(model_module, "maxpool2x2_forward", watching_pool)
        monkeypatch.setattr(model_module, "backward", watching_backward)
        params = build_model(small_config(), Rng(79))
        pairs = [(r.image, r.mask) for r in generate_synthetic(79, 2, 16)]
        loss_and_gradients(pairs, params)
        # enc1-enc6 and both pools forward; enc2-enc7 and both pools backward
        assert len(grids) == 16
        for grid in grids:
            inner = np.pad(grid[:, 1:-1, 1:-1], ((0, 0), (1, 1), (1, 1), (0, 0)))
            assert grid.tobytes() == inner.tobytes()
            assert grid[:, 1:-1, 1:-1].any()

    def test_image_gradient_is_skipped(self, monkeypatch):
        calls = []
        original = model_module.backward

        def recording(rec, up, **kwargs):
            calls.append((rec.kind, kwargs.get("input_grad", True)))
            return original(rec, up, **kwargs)

        monkeypatch.setattr(model_module, "backward", recording)
        params = build_model(small_config(), Rng(67))
        rec = generate_synthetic(67, 1, 16)[0]
        loss_and_gradients([(rec.image, rec.mask)], params)
        assert calls[-1] == ("conv2d", False)
        assert all(wanted for _, wanted in calls[:-1])

    def test_mixed_shapes_rejected(self):
        params = build_model(small_config(), Rng(71))
        a, b = generate_synthetic(71, 1, 16)[0], generate_synthetic(71, 1, 32)[0]
        with pytest.raises(ShapeError):
            loss_and_gradients([(a.image, a.mask), (b.image, b.mask)], params)


class TestLoss:
    def test_untrained_loss_near_ln2(self):
        params = build_model(small_config(), Rng(23))
        recs = generate_synthetic(23, 2, 16)
        loss, _ = loss_and_gradients([(r.image, r.mask) for r in recs], params)
        assert abs(loss - math.log(2.0)) < 0.2

    def test_zero_params_loss_is_ln2_exactly(self):
        params = zeroed(build_model(small_config(), Rng(29)))
        recs = generate_synthetic(29, 2, 16)
        loss, _ = loss_and_gradients([(r.image, r.mask) for r in recs], params)
        assert abs(loss - math.log(2.0)) < 1e-15

    def test_empty_batch_rejected(self):
        params = build_model(small_config(), Rng(31))
        with pytest.raises(DataError):
            loss_and_gradients([], params)

    def test_gradients_cover_every_parameter(self):
        params = build_model(small_config(), Rng(37))
        recs = generate_synthetic(37, 1, 16)
        _, grads = loss_and_gradients([(recs[0].image, recs[0].mask)], params)
        assert set(grads) == set(params.values)
        assert all(grads[k].shape == params.values[k].shape for k in grads)
        # every tensor actually receives signal
        dead = [k for k, g in grads.items() if not np.abs(g).max() > 0]
        assert dead == []

    def test_full_model_gradients_match_finite_differences(self):
        config = small_config()
        params = build_model(config, Rng(41))
        values64 = {k: v.astype(np.float64) for k, v in params.values.items()}
        params64 = ModelParams(values=values64)
        rec = generate_synthetic(41, 1, 16)[0]
        image = rec.image.astype(np.float64)
        mask = rec.mask.astype(np.float64)

        def f():
            loss, _ = loss_and_gradients([(image, mask)], params64)
            return loss

        _, grads = loss_and_gradients([(image, mask)], params64)
        rng = np.random.default_rng(43)
        names = list(values64)
        arrays, analytic, elements = [], [], []
        for _ in range(40):
            name = names[int(rng.integers(len(names)))]
            ai = len(arrays)
            arrays.append(values64[name])
            analytic.append(grads[name])
            elements.append((ai, int(rng.integers(values64[name].size))))
        # h small enough that no relu/pool kink is crossed while float64
        # rounding noise stays orders below the tolerance
        err = finite_diff_check(f, arrays, analytic, h=1e-6, elements=elements)
        assert err < 1e-3


def zero_velocity(params):
    return {name: np.zeros_like(theta) for name, theta in params.values.items()}


class TestSgd:
    def test_plain_gradient_step(self):
        params = ModelParams(values={"w": np.array([1.0], np.float32)})
        sgd_update(params, {"w": np.array([0.5], np.float32)}, zero_velocity(params),
                   lr=0.1, momentum=0.0)
        assert np.allclose(params.values["w"], [0.95])

    def test_zero_gradient_keeps_params_with_zero_velocity(self):
        params = ModelParams(values={"w": np.array([2.0], np.float32)})
        sgd_update(params, {"w": np.zeros(1, np.float32)}, zero_velocity(params),
                   lr=0.1, momentum=0.9)
        assert np.array_equal(params.values["w"], [2.0])

    def test_two_momentum_steps_match_hand_recurrence(self):
        params = ModelParams(values={"w": np.array([1.0], np.float32)})
        velocity = zero_velocity(params)
        g1 = np.array([0.5], np.float32)
        g2 = np.array([0.25], np.float32)
        sgd_update(params, {"w": g1}, velocity, lr=0.1, momentum=0.9)
        sgd_update(params, {"w": g2}, velocity, lr=0.1, momentum=0.9)
        v1 = 0.9 * 0.0 - 0.1 * 0.5
        w1 = 1.0 + v1
        v2 = 0.9 * v1 - 0.1 * 0.25
        w2 = w1 + v2
        assert np.allclose(params.values["w"], [w2], atol=1e-7)

    def test_shape_mismatch_rejected(self):
        params = ModelParams(values={"w": np.zeros(2, np.float32)})
        velocity = zero_velocity(params)
        with pytest.raises(ShapeError):
            sgd_update(params, {"w": np.zeros(3, np.float32)}, velocity, 0.1, 0.9)
        with pytest.raises(ShapeError):
            sgd_update(params, {}, velocity, 0.1, 0.9)


class TestPredictMask:
    def test_boundary_is_foreground(self):
        assert predict_mask(np.array([[0.5]]), 0.5) == 1.0

    def test_below_threshold_zero(self):
        assert not predict_mask(np.full((3, 3, 1), 0.2), 0.5).any()

    def test_zero_threshold_all_ones(self):
        assert predict_mask(np.zeros((2, 2, 1)), 0.0).all()


class TestTrain:
    def test_zero_epochs_returns_initial_params_empty_trace(self):
        config = small_config(epochs=0)
        recs = generate_synthetic(3, 2, 16)
        params, trace = train(config, recs, Rng(config.seed))
        fresh = build_model(config, Rng(config.seed))
        assert trace.entries == []
        for k in fresh.values:
            assert np.array_equal(params.values[k], fresh.values[k])

    def test_empty_dataset_rejected(self):
        with pytest.raises(DataError):
            train(small_config(), [], Rng(1))

    def test_missing_mask_rejected(self):
        recs = generate_synthetic(3, 1, 16)
        recs[0].mask = None
        with pytest.raises(DataError):
            train(small_config(), recs, Rng(1))

    def test_wrong_size_rejected(self):
        recs = generate_synthetic(3, 1, 24)
        with pytest.raises(ShapeError):
            train(small_config(), recs, Rng(1))

    def test_same_seed_bit_identical_trace_and_params(self):
        config = small_config(epochs=3)
        recs = generate_synthetic(7, 4, 16)
        p1, t1 = train(config, recs, Rng(config.seed))
        p2, t2 = train(config, recs, Rng(config.seed))
        assert t1.serialize() == t2.serialize()
        for k in p1.values:
            assert np.array_equal(p1.values[k], p2.values[k]), k

    def test_loss_decreases_on_tiny_overfit(self):
        config = small_config(epochs=25, rnn_units=8)
        recs = generate_synthetic(11, 2, 16)
        _, trace = train(config, recs, Rng(config.seed))
        losses = [l for _, l, _ in trace.entries]
        assert losses[-1] < losses[0]

    def test_training_builds_no_decoder_matrix(self, monkeypatch):
        # the sparse matrices are the decoder's reference form only; the
        # training step runs the phase-split transposed convs
        calls = []

        def counting(name):
            original = getattr(model_module, name)

            def counted(*args):
                calls.append(name)
                return original(*args)
            return counted

        for name in ("decoder_matrices", "tconv_sparse_matrix"):
            monkeypatch.setattr(model_module, name, counting(name))
        config = small_config(epochs=3, batch_size=4)
        train(config, generate_synthetic(5, 8, 16), Rng(config.seed))
        assert calls == []

    def test_dead_network_raises(self):
        # lr 1000 kills every relu after the first step: the loss then
        # sticks with every gradient exactly 0 while the parameters stay finite
        config = ModelConfig(epochs=3, lr=1000)
        with pytest.raises(TrainingDivergedError, match="exactly 0"):
            train(config, generate_synthetic(42, 8, 64), Rng(config.seed))

    def test_nan_pixel_raises(self):
        recs = generate_synthetic(3, 4, 16)
        recs[2].image[5, 7, 1] = np.nan
        config = small_config()
        with pytest.raises(TrainingDivergedError, match="loss nan"):
            train(config, recs, Rng(config.seed))

    def test_first_non_finite_parameter_is_named(self, monkeypatch):
        # a one-step epoch at lr 1e30: the two gradients scaled to 1e10 make
        # updates of 1e40, beyond float32, and every other stays below 1e30;
        # renet.up.wz is declared before dec2.weights, so it is the one named
        step = model_module._batch_step

        def scaled(batch, params):
            loss, grads, probs = step(batch, params)
            for name in ("dec2.weights", "renet.up.wz"):
                grads[name] = grads[name] * np.float32(1e10 / np.abs(grads[name]).max())
            return loss, grads, probs

        monkeypatch.setattr(model_module, "_batch_step", scaled)
        config = small_config(epochs=1, batch_size=2, lr=1e30)
        with pytest.raises(TrainingDivergedError,
                           match=r"epoch 1: parameter renet\.up\.wz is no longer finite"):
            train(config, generate_synthetic(3, 2, 16), Rng(config.seed))

    def test_trace_serialization_format(self):
        trace = TrainTrace(entries=[(1, 0.6931471805, 0.25), (2, 0.5, 1.0)])
        assert trace.serialize() == "1,0.693147,0.250000\n2,0.500000,1.000000\n"


class TestCheckpointRoundtrip:
    def test_save_load_roundtrip(self, tmp_path):
        config = small_config()
        params = build_model(config, Rng(47))
        path = tmp_path / "m.ckpt"
        save_model(params, config, path)
        loaded, meta_config = load_model(path)
        assert list(loaded.values) == list(params.values)
        for k in params.values:
            assert np.array_equal(loaded.values[k], params.values[k])
        assert meta_config.image_size == config.image_size
        assert read_entries(path)["meta.patch"].tolist() == [2.0]
        assert meta_config.rnn_units == config.rnn_units
        assert meta_config.threshold == config.threshold

    def test_non_default_meta_round_trips(self, tmp_path):
        # every meta key but patch, which is always 2 (see the rejection test)
        config = ModelConfig(image_size=32, rnn_units=6, threshold=0.25)
        path = tmp_path / "m.ckpt"
        save_model(build_model(config, Rng(61)), config, path)
        assert read_entries(path)["meta.patch"].tolist() == [2.0]
        _, loaded = load_model(path)
        assert loaded == ModelConfig(image_size=32, rnn_units=6, threshold=0.25)
        assert all(type(getattr(loaded, k)) is int for k in ("image_size", "rnn_units"))

    def test_loaded_model_runs_forward(self, tmp_path):
        config = small_config()
        params = build_model(config, Rng(53))
        path = tmp_path / "m.ckpt"
        save_model(params, config, path)
        loaded, meta_config = load_model(path)
        rng = np.random.default_rng(5)
        image = rng.uniform(size=(meta_config.image_size,) * 2 + (3,)).astype(np.float32)
        assert np.array_equal(forward(image, params), forward(image, loaded))

    def test_load_holds_little_beyond_the_parameters(self, tmp_path):
        # the loaded model is its parameters and nothing as large beside
        # them: no optimizer state, no second copy of the file's bytes
        config = ModelConfig()
        path = tmp_path / "model.ckpt"
        save_model(build_model(config, Rng(67)), config, path)
        load_model(path)  # warm: first-call imports and caches are not the load
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            params, _ = load_model(path)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        param_bytes = sum(v.nbytes for v in params.values.values())
        assert param_bytes > 700_000
        assert peak < 1.25 * param_bytes, (peak, param_bytes)

    def test_missing_meta_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        with open(path, "wb") as fh:
            save_checkpoint({"enc1.weights": np.zeros((3, 3, 3, 16), np.float32)}, fh)
        with pytest.raises(CheckpointError):
            load_model(path)


def read_entries(path):
    """Every named tensor of the checkpoint file at `path`, meta.* entries included."""
    with open(path, "rb") as fh:
        return load_checkpoint(fh)


def checkpoint_with(tmp_path, edit):
    """The path of a small model's checkpoint after `edit` changes its entries."""
    config = small_config()
    path = tmp_path / "edited.ckpt"
    save_model(build_model(config, Rng(59)), config, path)
    entries = read_entries(path)
    edit(entries)
    with open(path, "wb") as fh:
        save_checkpoint(entries, fh)
    return path


class TestCheckpointSchema:
    def test_missing_tensor_rejected(self, tmp_path):
        path = checkpoint_with(tmp_path, lambda e: e.pop("enc1.bias"))
        with pytest.raises(CheckpointError, match="enc1.bias"):
            load_model(path)

    def test_mis_shaped_decoder_weights_rejected(self, tmp_path):
        # the first decoder stage must read the 2U channels of the sweeps
        def edit(entries):
            entries["dec1.weights"] = np.zeros((4, 4, 4, 32), np.float32)

        with pytest.raises(CheckpointError, match="dec1.weights"):
            load_model(checkpoint_with(tmp_path, edit))

    def test_unknown_tensor_rejected(self, tmp_path):
        def edit(entries):
            entries["extra.weights"] = np.zeros(3, np.float32)

        with pytest.raises(CheckpointError, match="extra.weights"):
            load_model(checkpoint_with(tmp_path, edit))

    def test_non_finite_meta_rejected(self, tmp_path):
        for bad in (np.nan, np.inf):
            def edit(entries):
                entries["meta.patch"] = np.array([bad], np.float32)

            with pytest.raises(CheckpointError, match="finite"):
                load_model(checkpoint_with(tmp_path, edit))

    def test_non_finite_parameter_rejected(self, tmp_path):
        # such a network maps every image to NaN, which thresholds to background
        for name, bad in (("dec1.bias", np.nan), ("enc3.weights", -np.inf)):
            def edit(entries):
                entries[name].reshape(-1)[-1] = bad

            with pytest.raises(CheckpointError, match=f"{name}.*non-finite"):
                load_model(checkpoint_with(tmp_path, edit))

    def test_meta_config_the_config_rules_refuse_is_rejected(self, tmp_path):
        # entries the meta rules refuse: a NaN threshold or one outside
        # [0, 1], an image size the two pools and the patch grid cannot
        # divide, a patch other than 2, and sizes above the caps
        for key, bad in (("threshold", np.nan), ("threshold", 5.0),
                         ("image_size", 12.0), ("patch", 0.0), ("patch", 4.0),
                         ("image_size", 2048.0), ("rnn_units", 1e8)):
            def edit(entries):
                entries[f"meta.{key}"] = np.array([bad], np.float32)

            with pytest.raises(CheckpointError, match=key):
                load_model(checkpoint_with(tmp_path, edit))

    def test_meta_entry_of_more_than_one_value_rejected(self, tmp_path):
        # a meta entry is one value; its first would otherwise load silently
        for key, bad in (("image_size", [16.0, 999.0]), ("threshold", [[0.5, 0.5]]),
                         ("rnn_units", [[4.0]])):
            def edit(entries):
                entries[f"meta.{key}"] = np.array(bad, np.float32)

            with pytest.raises(CheckpointError, match=f"{key} must hold one value"):
                load_model(checkpoint_with(tmp_path, edit))

    def test_load_makes_no_rng_draws(self, tmp_path, monkeypatch):
        path = checkpoint_with(tmp_path, lambda e: None)
        drew = lambda *args: pytest.fail("loading a checkpoint drew from the rng")
        monkeypatch.setattr(Rng, "fill", drew)
        monkeypatch.setattr(Rng, "next", drew)
        load_model(path)
