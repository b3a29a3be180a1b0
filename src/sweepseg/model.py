"""The full segmentation network and its training loop.

Topology: a 7-convolution / 2-pool encoder (3x3 kernels, padding 1, relu),
one four-direction recurrent sweep block over 2x2 patches of the encoded
map, and a decoder of three 4x4 stride-2 fractionally strided convolutions
with padding 1, so each doubles the map exactly, and relu, finished by a
1x1 convolution and a sigmoid. Every relu runs inside its (transposed)
conv, so the tape holds one op per layer. Output is a per-pixel
foreground probability at the input resolution, each of whose sides must
be a multiple of SIDE_MULTIPLE (8: two 2x2 pools, then 2x2 patches), and
which holds at most MAX_IMAGE_SIZE**2 pixels.

A training step runs its whole batch through one forward and one backward
pass, every op taking the (N, h, w, c) batch at once. The backward pops
each op's record off the tape as it runs, so the record's arrays are freed
as soon as the gradient has passed it.

Everything is deterministic: parameters come from one seeded stream in
declaration order, shuffling is Fisher-Yates on the same stream, the
per-sample losses are accumulated in sample order, and all arithmetic is
float32 with float64 loss accumulation. Two runs with the same seed,
config, and data produce bit-identical checkpoints and traces.
"""

from __future__ import annotations

import math
import numbers
import sys
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
from .renet import PATCH, RenetParams, SweepParams, renet_block
from .tensor import Rng, glorot_scale, load_checkpoint, overwrite, save_checkpoint

ENCODER_CHANNELS = (16, 16, 32, 32, 64, 64, 64)
POOL_AFTER = frozenset((2, 4))  # pool follows these conv indices (1-based)
DECODER_CHANNELS = (32, 16, 8)
TCONV_KERNEL = 4
TCONV_STRIDE = 2
# every image side divides into the two 2x2 pools and then the patch grid
SIDE_MULTIPLE = 2 ** len(POOL_AFTER) * PATCH
# config caps: a 1024 px training batch of 4 already needs gigabytes
MAX_IMAGE_SIZE = 1024
MAX_RNN_UNITS = 1024


def check_side(name: str, side: int) -> None:
    """The one rule for a square image side, in a config or for synth."""
    if not SIDE_MULTIPLE <= side <= MAX_IMAGE_SIZE or side % SIDE_MULTIPLE:
        raise ConfigError(f"{name} must be a positive multiple of {SIDE_MULTIPLE} (two 2x2 pools, "
                          f"then the patch grid) and at most {MAX_IMAGE_SIZE}, got {side}")


@dataclass(frozen=True)
class ModelConfig:
    """Checked field by field when built, then frozen: a ModelConfig that exists is valid."""

    image_size: int = 64
    rnn_units: int = 32
    lr: float = 0.01
    momentum: float = 0.9
    batch_size: int = 4
    epochs: int = 300
    seed: int = 42
    threshold: float = 0.5

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            kind, noun = ((numbers.Integral, "an integer") if f.type == "int"
                          else (numbers.Real, "a number"))
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ConfigError(f"{f.name} must be {noun}, got {value!r}")
        check_side("image_size", self.image_size)
        if not 1 <= self.rnn_units <= MAX_RNN_UNITS:
            raise ConfigError(f"rnn_units must be positive and at most {MAX_RNN_UNITS}, "
                              f"got {self.rnn_units}")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be positive")
        if self.epochs < 0:
            raise ConfigError("epochs must be non-negative")
        if not 0.0 <= self.threshold <= 1.0:
            raise ConfigError("threshold must lie in [0,1]")
        if isinstance(self.lr, numbers.Integral) and abs(self.lr) > sys.float_info.max:
            # compared exactly: math.isfinite would convert the int and overflow
            raise ConfigError("lr must be a finite number above 0, got an integer "
                              "beyond the float range")
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise ConfigError(f"lr must be a finite number above 0, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must lie in [0,1), got {self.momentum}")


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


def param_shapes(config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Every parameter's name and shape, in declaration (and draw) order."""
    shapes = []
    c_in = 3
    for i, c_out in enumerate(ENCODER_CHANNELS, start=1):
        shapes += [(f"enc{i}.weights", (3, 3, c_in, c_out)), (f"enc{i}.bias", (c_out,))]
        c_in = c_out

    u = config.rnn_units
    length = PATCH * PATCH * ENCODER_CHANNELS[-1]
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


def _glorot_fans(name: str, shape: tuple[int, ...]) -> tuple[int, int, np.float32]:
    """A weight's Glorot fan-in and fan-out, and the gain its draws are scaled by."""
    if name.startswith("dec"):
        # a stride-s transposed conv touches each output cell through (k/s)^2
        # taps, not k^2; counting the full kernel as fan shrinks the decoder
        # signal 3x per stage and stalls training inside the epoch budget
        k, _, ci, co = shape
        fan = (k // TCONV_STRIDE) ** 2
        return fan * ci, fan * co, RELU_GAIN
    if len(shape) == 4:
        kh, kw, ci, co = shape
        # the logit head feeds a sigmoid, not a relu, so it keeps plain Glorot
        gain = np.float32(1.0) if name == "out.weights" else RELU_GAIN
        return kh * kw * ci, kh * kw * co, gain
    return shape[0], shape[1], np.float32(1.0)  # recurrent wx and wz


def build_model(config: ModelConfig, rng: Rng) -> ModelParams:
    """Allocate and Glorot-initialize every parameter, in declaration order.

    One fill draws every weight, so each weight gets exactly the draws a
    fill of its own would give; biases start at zero and draw nothing.
    """
    shapes = param_shapes(config)
    draws = rng.fill(sum(math.prod(shape) for name, shape in shapes
                         if not name.endswith(".bias")))
    values = {}
    at = 0
    for name, shape in shapes:
        if name.endswith(".bias"):
            values[name] = np.zeros(shape, dtype=np.float32)
            continue
        size = math.prod(shape)
        fan_in, fan_out, gain = _glorot_fans(name, shape)
        w = glorot_scale(draws[at:at + size], fan_in, fan_out).reshape(shape)
        w *= gain
        values[name] = w
        at += size
    return ModelParams(values=values)


def _renet_params(params: ModelParams) -> RenetParams:
    v = params.values
    sweep = lambda d: SweepParams(wx=v[f"renet.{d}.wx"], wz=v[f"renet.{d}.wz"],
                                  bias=v[f"renet.{d}.bias"])
    return RenetParams(down=sweep("down"), up=sweep("up"),
                       right=sweep("right"), left=sweep("left"))


def _encode_tape(images: np.ndarray, params: ModelParams, keep_tape: bool = True):
    """Encoder output and the op tape, a list of (prefix, record) pairs. A
    forward that no backward follows passes keep_tape=False: the tape then
    keeps no record, and the pools skip the winners that only a backward
    reads."""
    if images.ndim != 4 or images.shape[3] != 3:
        raise ShapeError(f"expected an (N, h, w, 3) batch of images, got {images.shape}")
    h, w = images.shape[1:3]
    if h % SIDE_MULTIPLE or w % SIDE_MULTIPLE:
        raise ShapeError(f"image is {w}x{h}: each side must be divisible by {SIDE_MULTIPLE} "
                         f"(two 2x2 pools, then {PATCH}x{PATCH} patches)")
    if h * w > MAX_IMAGE_SIZE ** 2:
        raise ShapeError(f"image is {w}x{h}: at most {MAX_IMAGE_SIZE ** 2} pixels "
                         f"({MAX_IMAGE_SIZE}x{MAX_IMAGE_SIZE}) are accepted, got {h * w}")
    tape = [] if keep_tape else deque(maxlen=0)
    x = images
    last = len(ENCODER_CHANNELS)
    for i in range(1, last + 1):
        # every conv but the last hands its output on the next op's zero-padded
        # grid; one that feeds a pool leaves its relu to the pool
        pooled = i in POOL_AFTER
        x, rec = conv2d_forward(x, params.values[f"enc{i}.weights"],
                                params.values[f"enc{i}.bias"], 1, relu=not pooled,
                                grid_in=i > 1, grid_out=i < last)
        tape.append((f"enc{i}", rec))
        if pooled:
            x, rec = maxpool2x2_forward(x, keep_winner=keep_tape)
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


def _decode_tape(x: np.ndarray, params: ModelParams, tape):
    """Decoder output; its (prefix, record) pairs are appended to `tape`."""
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


def _forward_tape(images: np.ndarray, params: ModelParams, keep_tape: bool = True):
    """(N, h, w, 3) images -> (N, h, w, 1) probabilities and the op tape."""
    x, tape = _encode_tape(images, params, keep_tape)
    x, rec = renet_block(x, _renet_params(params))
    tape.append(("renet", rec))
    return _decode_tape(x, params, tape)


def forward(image: np.ndarray, params: ModelParams) -> np.ndarray:
    """Full network: probability mask with the input's spatial shape.

    No backward pass follows, so the tape keeps nothing: each op's record
    is dropped once the next op has run, and the pools keep no winner index.
    """
    return _forward_tape(image[None], params, keep_tape=False)[0][0]


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
    while tape:
        # a record leaves the tape as its backward runs, so its arrays are
        # freed once the next pop replaces it; the first op reads the
        # images, whose gradient nothing uses
        prefix, rec = tape.pop()
        g, param_grads = backward(rec, g, input_grad=bool(tape))
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
    with np.errstate(over="ignore"):  # train names an overflowed parameter after the epoch
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
        image, mask = rec.image, rec.mask
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
        bad = next((name for name, v in params.values.items() if not np.isfinite(v).all()),
                   None)
        if bad is not None:
            raise TrainingDivergedError(f"training diverged in epoch {epoch}: "
                                        f"parameter {bad} is no longer finite")
        if grad_sq == 0.0:
            raise TrainingDivergedError(
                f"training died in epoch {epoch}: every gradient was exactly 0, "
                "so no later step can change the network (try a lower lr)")
        dice = metrics_from_counts(counts).di
        trace.entries.append((epoch, loss_sum / len(pairs), dice))
    return params, trace


# meta.patch always holds PATCH; it keeps its place in the file so that
# readers that still expect the entry load these checkpoints unchanged
META_KEYS = ("image_size", "patch", "rnn_units", "threshold")


def save_model(params: ModelParams, config: ModelConfig, sink) -> int:
    """Write parameters plus the meta.* entries needed to rebuild at load time.

    sink is a binary file-like object or a path.
    """
    entries = dict(params.values)
    for key in META_KEYS:
        value = PATCH if key == "patch" else getattr(config, key)
        entries[f"meta.{key}"] = np.array([value], dtype=np.float32)
    if hasattr(sink, "write"):
        return save_checkpoint(entries, sink)
    with overwrite(sink) as fh:
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
            key = name[len("meta."):]
            if tensor.shape != (1,):
                raise CheckpointError(f"checkpoint meta entry {key} must hold one value, "
                                      f"got shape {tensor.shape}")
            meta[key] = float(tensor[0])
        else:
            values[name] = tensor
    missing = [k for k in META_KEYS if k not in meta]
    if missing:
        raise CheckpointError(f"checkpoint lacks meta entries: {', '.join(missing)}")
    for key in META_KEYS:
        if not math.isfinite(meta[key]):
            raise CheckpointError(f"checkpoint meta entry {key} must be finite, got {meta[key]}")
    if meta["patch"] != PATCH:
        raise CheckpointError(f"checkpoint meta entries: patch must be {PATCH}, "
                              f"got {meta['patch']}: the decoder upsamples 8x")
    # a fraction stays a float, which ModelConfig refuses for an int field
    whole = lambda v: int(v) if v.is_integer() else v
    try:
        config = ModelConfig(image_size=whole(meta["image_size"]),
                             rnn_units=whole(meta["rnn_units"]), threshold=meta["threshold"])
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
