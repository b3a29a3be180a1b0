"""Output oracles written apart from the program, in plain numpy.

None of this imports the package: the forward pass reads only the named
parameter arrays, the RNG is the published xorshift64* recurrence, and the
PNM and metric oracles restate the file format and the count definitions.
"""

from __future__ import annotations

import numpy as np

POOL_AFTER = (2, 4)
ENCODER_LAYERS = 7
DECODER_LAYERS = 3
DIRECTIONS = ("down", "up", "right", "left")


def conv(x, w, b):
    """Direct 'same' cross-correlation: one shifted product per kernel tap."""
    k = w.shape[0]
    p = (k - 1) // 2
    h, wd, _ = x.shape
    xp = np.pad(x, ((p, p), (p, p), (0, 0)))
    out = np.zeros((h, wd, w.shape[3])) + b
    for ki in range(k):
        for kj in range(k):
            out += xp[ki:ki + h, kj:kj + wd] @ w[ki, kj]
    return out


def relu(x):
    return np.maximum(x, 0.0)


def maxpool(x):
    h, w, c = x.shape
    return x.reshape(h // 2, 2, w // 2, 2, c).max(axis=(1, 3))


def sweep(seq, wx, wz, b, reverse):
    """z_t = tanh(x_t wx + z_{t-1} wz + b) along axis 0 of seq (t, batch, len)."""
    out = np.empty((seq.shape[0], seq.shape[1], wz.shape[0]))
    z = np.zeros((seq.shape[1], wz.shape[0]))
    for t in (reversed(range(seq.shape[0])) if reverse else range(seq.shape[0])):
        z = np.tanh(seq[t] @ wx + z @ wz + b)
        out[t] = z
    return out


def renet(x, params, patch):
    """Vertical sweeps over patch columns, then horizontal sweeps over rows."""
    h, w, c = x.shape
    n, m = h // patch, w // patch
    grid = x.reshape(n, patch, m, patch, c).transpose(0, 2, 1, 3, 4).reshape(n, m, -1)
    cell = lambda d: (params[f"renet.{d}.wx"], params[f"renet.{d}.wz"],
                      params[f"renet.{d}.bias"])
    vertical = np.concatenate([sweep(grid, *cell("down"), False),
                               sweep(grid, *cell("up"), True)], axis=2)
    rows = vertical.transpose(1, 0, 2)
    horizontal = np.concatenate([sweep(rows, *cell("right"), False),
                                 sweep(rows, *cell("left"), True)], axis=2)
    return horizontal.transpose(1, 0, 2)


def tconv(x, w, b, stride=2):
    """Transposed conv as a scatter of one product per kernel tap."""
    h, wd, _ = x.shape
    k = w.shape[0]
    out = np.zeros(((h - 1) * stride + k, (wd - 1) * stride + k, w.shape[3]))
    for ki in range(k):
        for kj in range(k):
            out[ki:ki + stride * (h - 1) + 1:stride,
                kj:kj + stride * (wd - 1) + 1:stride] += x @ w[ki, kj]
    return out + b


def sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def forward(image, params):
    """Float64 foreground probability (h, w, 1) from named parameter arrays."""
    p = {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}
    x = np.asarray(image, dtype=np.float64)
    for i in range(1, ENCODER_LAYERS + 1):
        x = relu(conv(x, p[f"enc{i}.weights"], p[f"enc{i}.bias"]))
        if i in POOL_AFTER:
            x = maxpool(x)
    patch = int(round((p["renet.down.wx"].shape[0] / x.shape[2]) ** 0.5))
    x = renet(x, p, patch)
    for k in range(1, DECODER_LAYERS + 1):
        x = relu(tconv(x, p[f"dec{k}.weights"], p[f"dec{k}.bias"])[1:-1, 1:-1])
    return sigmoid(conv(x, p["out.weights"], p["out.bias"]))


MASK64 = (1 << 64) - 1


def xorshift64star(seed: int, count: int) -> list[float]:
    """Uniforms in [0, 1): the top 53 bits of the xorshift64* output."""
    x, out = seed & MASK64, []
    for _ in range(count):
        x ^= x >> 12
        x ^= (x << 25) & MASK64
        x ^= x >> 27
        out.append((((x * 0x2545F4914F6CDD1D) & MASK64) >> 11) / 2.0 ** 53)
    return out


def pnm_quantized(x):
    """What an 8-bit PNM round trip must give back: rint(255 x) / 255."""
    return np.rint(x * np.float32(255)) / np.float32(255)


def counts(pred, gt):
    """(tp, tn, fp, fn) as plain sums over 0/1 masks."""
    pred = np.asarray(pred, dtype=np.int64)
    gt = np.asarray(gt, dtype=np.int64)
    tp = int(np.sum(pred * gt))
    fp = int(np.sum(pred * (1 - gt)))
    fn = int(np.sum((1 - pred) * gt))
    tn = int(np.sum((1 - pred) * (1 - gt)))
    return tp, tn, fp, fn
