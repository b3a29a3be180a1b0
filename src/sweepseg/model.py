"""The full segmentation network and its training loop.

Topology: a 7-convolution / 2-pool encoder (3x3 kernels, padding 1, relu),
one four-direction recurrent sweep block over 2x2 patches of the encoded
map, and a decoder of three 4x4 stride-2 fractionally strided convolutions
with padding 1, so each doubles the map exactly, and relu, finished by a
1x1 convolution and a sigmoid. Every relu runs inside its (transposed)
conv, so the tape holds one op per layer. Output is a per-pixel foreground probability
at the input resolution.

A training step runs its whole batch through one forward and one backward
pass, every op taking the (N, h, w, c) batch at once.

Everything is deterministic: parameters come from one seeded stream in
declaration order, shuffling is Fisher-Yates on the same stream, the
per-sample losses are accumulated in sample order, and all arithmetic is
float32 with float64 loss accumulation. Two runs with the same seed,
config, and data produce bit-identical checkpoints and traces.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import CheckpointError, ConfigError, DataError, ShapeError, TrainingDivergedError
from .layers import (
    activation_forward,
    backward,
    bce_loss,
    conv2d_forward,
    maxpool2x2_forward,
    tconv_forward,
    tconv_sparse_matrix,
)
from .metrics import ConfusionCounts, confusion_counts, metrics_from_counts
from .renet import RenetParams, SweepParams, renet_block
from .tensor import Rng, glorot_init, load_checkpoint, save_checkpoint

ENCODER_CHANNELS = (16, 16, 32, 32, 64, 64, 64)
POOL_AFTER = frozenset((2, 4))  # pool follows these conv indices (1-based)
DECODER_CHANNELS = (32, 16, 8)
TCONV_KERNEL = 4
TCONV_STRIDE = 2
# config caps: a 1024 px training batch of 4 already needs gigabytes
MAX_IMAGE_SIZE = 1024
MAX_RNN_UNITS = 1024


@dataclass
class ModelConfig:
    image_size: int = 64
    patch: int = 2
    rnn_units: int = 32
    lr: float = 0.01
    momentum: float = 0.9
    batch_size: int = 4
    epochs: int = 300
    seed: int = 42
    threshold: float = 0.5

    def validate(self) -> "ModelConfig":
        if self.patch < 1 or self.rnn_units < 1:
            raise ConfigError("patch and rnn_units must be positive")
        for key, cap in (("image_size", MAX_IMAGE_SIZE), ("rnn_units", MAX_RNN_UNITS)):
            if getattr(self, key) > cap:
                raise ConfigError(f"{key} may be at most {cap}, got {getattr(self, key)}")
        if self.image_size % (4 * self.patch):
            raise ConfigError(
                f"image_size {self.image_size} must be divisible by {4 * self.patch} "
                "(two 2x2 pools, then the patch grid)")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be positive")
        if self.epochs < 0:
            raise ConfigError("epochs must be non-negative")
        if not 0.0 <= self.threshold <= 1.0:
            raise ConfigError("threshold must lie in [0,1]")
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise ConfigError(f"lr must be a finite number above 0, got {self.lr}")
        if not (math.isfinite(self.momentum) and 0.0 <= self.momentum < 1.0):
            raise ConfigError(f"momentum must lie in [0,1), got {self.momentum}")
        return self


@dataclass
class ModelParams:
    """Named parameter tensors plus a same-shaped momentum buffer."""

    values: dict[str, np.ndarray]
    momentum: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if not self.momentum:
            self.momentum = {k: np.zeros_like(v) for k, v in self.values.items()}
        for k, v in self.values.items():
            if self.momentum[k].shape != v.shape:
                raise ShapeError(f"momentum shape mismatch for parameter {k!r}")


@dataclass
class TrainTrace:
    """Per-epoch (epoch index, mean loss, training Dice), 1-based epochs."""

    entries: list[tuple[int, float, float]] = field(default_factory=list)

    def serialize(self) -> str:
        return "".join(f"{e},{loss:.6f},{dice:.6f}\n" for e, loss, dice in self.entries)


# relu halves activation variance; without this gain the 7-deep encoder
# attenuates signal ~10x and cannot overfit within the fixed epoch budget
RELU_GAIN = np.float32(np.sqrt(2.0))


def _conv_glorot(shape, rng, gain=RELU_GAIN):
    kh, kw, ci, co = shape
    w = glorot_init(shape, kh * kw * ci, kh * kw * co, rng)
    w *= gain
    return w


def _tconv_glorot(shape, rng):
    # a stride-s transposed conv touches each output cell through (k/s)^2
    # taps, not k^2; counting the full kernel as fan shrinks the decoder
    # signal 3x per stage and stalls training inside the epoch budget
    k, _, ci, co = shape
    fan = (k // TCONV_STRIDE) ** 2
    w = glorot_init(shape, fan * ci, fan * co, rng)
    w *= RELU_GAIN
    return w


def param_shapes(config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Every parameter's name and shape, in declaration (and draw) order."""
    shapes = []
    c_in = 3
    for i, c_out in enumerate(ENCODER_CHANNELS, start=1):
        shapes += [(f"enc{i}.weights", (3, 3, c_in, c_out)), (f"enc{i}.bias", (c_out,))]
        c_in = c_out

    u = config.rnn_units
    length = config.patch * config.patch * ENCODER_CHANNELS[-1]
    for direction, rows in (("down", length), ("up", length),
                            ("right", 2 * u), ("left", 2 * u)):
        shapes += [(f"renet.{direction}.wx", (rows, u)), (f"renet.{direction}.wz", (u, u)),
                   (f"renet.{direction}.bias", (u,))]

    c_in = 2 * u
    for k, c_out in enumerate(DECODER_CHANNELS, start=1):
        shapes += [(f"dec{k}.weights", (TCONV_KERNEL, TCONV_KERNEL, c_in, c_out)),
                   (f"dec{k}.bias", (c_out,))]
        c_in = c_out
    shapes += [("out.weights", (1, 1, DECODER_CHANNELS[-1], 1)), ("out.bias", (1,))]
    return shapes


def _init_param(name: str, shape: tuple[int, ...], rng: Rng) -> np.ndarray:
    if name.endswith(".bias"):
        return np.zeros(shape, dtype=np.float32)
    if name.startswith("enc"):
        return _conv_glorot(shape, rng)
    if name.startswith("dec"):
        return _tconv_glorot(shape, rng)
    if name == "out.weights":
        # the logit head feeds a sigmoid, not a relu, so it keeps plain Glorot
        return _conv_glorot(shape, rng, gain=np.float32(1.0))
    return glorot_init(shape, shape[0], shape[1], rng)  # recurrent wx and wz


def build_model(config: ModelConfig, rng: Rng) -> ModelParams:
    """Allocate and Glorot-initialize every parameter, in declaration order."""
    config.validate()
    return ModelParams(values={name: _init_param(name, shape, rng)
                               for name, shape in param_shapes(config)})


def _infer_patch(params: ModelParams) -> int:
    c_enc = params.values["enc7.weights"].shape[3]
    length = params.values["renet.down.wx"].shape[0]
    patch = int(round((length / c_enc) ** 0.5))
    if patch * patch * c_enc != length:
        raise ShapeError("recurrent input weights do not match a square patch")
    return patch


def _renet_params(params: ModelParams) -> RenetParams:
    v = params.values
    sweep = lambda d: SweepParams(wx=v[f"renet.{d}.wx"], wz=v[f"renet.{d}.wz"],
                                  bias=v[f"renet.{d}.bias"])
    return RenetParams(down=sweep("down"), up=sweep("up"),
                       right=sweep("right"), left=sweep("left"))


def _encode_tape(images: np.ndarray, params: ModelParams, sink=None):
    """Encoder output and the op tape: (prefix, record) pairs appended to
    `sink`, a fresh list when it is None."""
    if images.ndim != 4 or images.shape[3] != 3:
        raise ShapeError(f"expected an (N, h, w, 3) batch of images, got {images.shape}")
    patch = _infer_patch(params)
    h, w = images.shape[1:3]
    if h % (4 * patch) or w % (4 * patch):
        raise ShapeError(f"image is {w}x{h}: each side must be divisible by {4 * patch} "
                         f"(two 2x2 pools, then {patch}x{patch} patches)")
    tape = [] if sink is None else sink
    x = images
    for i in range(1, len(ENCODER_CHANNELS) + 1):
        x, rec = conv2d_forward(x, params.values[f"enc{i}.weights"],
                                params.values[f"enc{i}.bias"], 1, relu=True)
        tape.append((f"enc{i}", rec))
        if i in POOL_AFTER:
            x, rec = maxpool2x2_forward(x)
            tape.append((None, rec))
    return x, tape


def decoder_matrices(params: ModelParams, grid: int) -> list:
    """Sparse matrices of the three upsampling stages for a given grid size.

    The paper's literal form of the decoder, kept as the reference that
    tests compare `_decode_tape` against; the network never builds them.
    """
    mats = []
    dim = grid
    for k in range(1, len(DECODER_CHANNELS) + 1):
        mats.append(tconv_sparse_matrix(params.values[f"dec{k}.weights"],
                                        (dim, dim), TCONV_STRIDE))
        dim *= 2
    return mats


def _decode_tape(x: np.ndarray, params: ModelParams, sink=None):
    tape = [] if sink is None else sink
    for k in range(1, len(DECODER_CHANNELS) + 1):
        # padding 1 cuts the (g-1)*2 + 4 = 2g+2 cells to exactly 2g
        x, rec = tconv_forward(x, params.values[f"dec{k}.weights"],
                               params.values[f"dec{k}.bias"], TCONV_STRIDE, 1, relu=True)
        tape.append((f"dec{k}", rec))
    x, rec = conv2d_forward(x, params.values["out.weights"], params.values["out.bias"], 0)
    tape.append(("out", rec))
    x, rec = activation_forward(x)
    tape.append((None, rec))
    return x, tape


def _forward_tape(images: np.ndarray, params: ModelParams, sink=None):
    """(N, h, w, 3) images -> (N, h, w, 1) probabilities and the op tape."""
    x, tape = _encode_tape(images, params, sink)
    patch = _infer_patch(params)
    x, rec = renet_block(x, _renet_params(params), patch, patch)
    tape.append(("renet", rec))
    return _decode_tape(x, params, tape)


def forward(image: np.ndarray, params: ModelParams) -> np.ndarray:
    """Full network: probability mask with the input's spatial shape.

    No backward pass follows, so the tape is a sink that keeps nothing:
    each op's record is dropped once the next op has run.
    """
    return _forward_tape(image[None], params, deque(maxlen=0))[0][0]


def _batch_step(batch, params: ModelParams):
    """Mean loss, mean gradients, and per-sample probabilities for one batch."""
    images = np.stack([image for image, _ in batch])
    masks = np.stack([mask for _, mask in batch])
    prob, tape = _forward_tape(images, params)
    losses, bce_rec = bce_loss(prob, masks)
    loss_total = 0.0
    for sample_loss in losses:
        loss_total += float(sample_loss)
    g, _ = backward(bce_rec, 1.0)
    summed = {}
    for i in range(len(tape) - 1, -1, -1):
        prefix, rec = tape[i]
        # the first op reads the images, whose gradient nothing uses
        g, param_grads = backward(rec, g, input_grad=i > 0)
        if prefix is not None:
            for key, val in param_grads.items():
                summed[f"{prefix}.{key}"] = val
    scale = np.float32(1.0 / len(batch))
    grads = {name: summed[name] * scale for name in params.values}
    return loss_total / len(batch), grads, list(prob)


def loss_and_gradients(batch, params: ModelParams):
    """Mean BCE over (image, mask) pairs and gradients for every parameter."""
    batch = list(batch)
    if not batch:
        raise DataError("empty batch")
    for image, mask in batch:
        if image.shape[:2] != mask.shape[:2]:
            raise ShapeError(f"image {image.shape} and mask {mask.shape} disagree")
        if image.shape != batch[0][0].shape or mask.shape != batch[0][1].shape:
            raise ShapeError(f"image {image.shape} and mask {mask.shape} differ in shape "
                             f"from the batch's first pair")
    loss, grads, _ = _batch_step(batch, params)
    return loss, grads


def sgd_update(params: ModelParams, grads: dict[str, np.ndarray], lr: float,
               momentum: float) -> ModelParams:
    """v <- momentum*v - lr*g; theta <- theta + v, in fixed name order. In place."""
    for name, theta in params.values.items():
        g = grads.get(name)
        if g is None or g.shape != theta.shape:
            raise ShapeError(f"gradient missing or mis-shaped for parameter {name!r}")
        v = params.momentum[name]
        v[...] = momentum * v - lr * g
        theta += v
    return params


def predict_mask(prob: np.ndarray, threshold: float = 0.5) -> np.ndarray:
    """Binary mask: pixel is foreground iff probability >= threshold."""
    return (prob >= threshold).astype(np.float32)


def _fisher_yates(n: int, rng: Rng) -> list[int]:
    """Classic descending Fisher-Yates, one rng draw per index position."""
    order = list(range(n))
    for i in range(n - 1, 0, -1):
        j = int(rng.next() * (i + 1))
        order[i], order[j] = order[j], order[i]
    return order


def _squared_norm(grads: dict[str, np.ndarray]) -> float:
    """Sum of every squared gradient entry, accumulated in float64."""
    return sum(float(np.sum(np.square(g, dtype=np.float64))) for g in grads.values())


def train(config: ModelConfig, dataset, rng: Rng) -> tuple[ModelParams, TrainTrace]:
    """Minibatch SGD from scratch; returns final parameters and the trace.

    The training Dice of an epoch pools confusion counts of every batch's
    predictions taken just before that batch's update.

    Raises TrainingDivergedError, and returns no parameters, on a non-finite
    step loss or gradient, and after an epoch that leaves a parameter
    non-finite or whose gradients were all exactly 0 (every unit dead: no
    later step can change the network).
    """
    pairs = []
    for rec in dataset:
        image, mask = (rec.image, rec.mask) if hasattr(rec, "image") else rec
        if mask is None:
            raise DataError("training requires a mask for every image")
        s = config.image_size
        if image.shape != (s, s, 3) or mask.shape != (s, s, 1):
            raise ShapeError(f"dataset shapes {image.shape}/{mask.shape} do not match "
                             f"image_size {s}")
        pairs.append((image, mask))
    if not pairs:
        raise DataError("cannot train on an empty dataset")

    params = build_model(config, rng)
    trace = TrainTrace()
    for epoch in range(1, config.epochs + 1):
        order = _fisher_yates(len(pairs), rng)
        loss_sum = grad_sq = 0.0
        counts = ConfusionCounts(0, 0, 0, 0)
        for start in range(0, len(order), config.batch_size):
            chunk = order[start:start + config.batch_size]
            batch = [pairs[i] for i in chunk]
            loss, grads, probs = _batch_step(batch, params)
            step_sq = _squared_norm(grads)
            if not (math.isfinite(loss) and math.isfinite(step_sq)):
                raise TrainingDivergedError(
                    f"training diverged in epoch {epoch}: loss {loss}, "
                    f"gradient norm {math.sqrt(step_sq)}")
            grad_sq += step_sq
            loss_sum += loss * len(batch)
            for prob, (_, mask) in zip(probs, batch):
                counts = counts + confusion_counts(predict_mask(prob, config.threshold), mask)
            sgd_update(params, grads, config.lr, config.momentum)
        if not all(np.isfinite(v).all() for v in params.values.values()):
            raise TrainingDivergedError(f"training diverged in epoch {epoch}: "
                                        "a parameter is no longer finite")
        if grad_sq == 0.0:
            raise TrainingDivergedError(
                f"training died in epoch {epoch}: every gradient was exactly 0, "
                "so no later step can change the network (try a lower lr)")
        dice = metrics_from_counts(counts).di
        trace.entries.append((epoch, loss_sum / len(pairs), dice))
    return params, trace


META_KEYS = ("image_size", "patch", "rnn_units", "threshold")


def save_model(params: ModelParams, config: ModelConfig, sink) -> int:
    """Write parameters plus the meta.* entries needed to rebuild at load time.

    sink is a binary file-like object or a path.
    """
    entries = dict(params.values)
    for key in META_KEYS:
        entries[f"meta.{key}"] = np.array([getattr(config, key)], dtype=np.float32)
    if hasattr(sink, "write"):
        return save_checkpoint(entries, sink)
    with open(sink, "wb") as fh:
        return save_checkpoint(entries, fh)


def load_model(source) -> tuple[ModelParams, ModelConfig]:
    """Inverse of save_model; the returned config carries only inference fields."""
    if hasattr(source, "read"):
        entries = load_checkpoint(source)
    else:
        with open(source, "rb") as fh:
            entries = load_checkpoint(fh)
    meta: dict[str, float] = {}
    values: dict[str, np.ndarray] = {}
    for name, tensor in entries.items():
        if name.startswith("meta."):
            meta[name[len("meta."):]] = float(tensor.reshape(-1)[0])
        else:
            values[name] = tensor
    missing = [k for k in META_KEYS if k not in meta]
    if missing:
        raise CheckpointError(f"checkpoint lacks meta entries: {', '.join(missing)}")
    types = {f.name: f.type for f in fields(ModelConfig)}
    try:
        config = ModelConfig(**{k: int(meta[k]) if types[k] == "int" else meta[k]
                                for k in META_KEYS})
    except (ValueError, OverflowError):  # int() of a NaN or infinite entry
        raise CheckpointError("checkpoint meta entries must be finite numbers") from None
    try:
        config.validate()
    except ConfigError as e:
        raise CheckpointError(f"checkpoint meta entries: {e}") from None
    expected = dict(param_shapes(config))
    for name, shape in expected.items():
        if name not in values:
            raise CheckpointError(f"checkpoint lacks parameter {name!r}")
        if values[name].shape != shape:
            raise CheckpointError(f"parameter {name!r} has shape {values[name].shape}, "
                                  f"the meta entries imply {shape}")
    unknown = [k for k in values if k not in expected]
    if unknown:
        raise CheckpointError(f"checkpoint holds unknown tensors: {', '.join(unknown)}")
    return ModelParams(values=values), config
