"""Oracles and checks that more than one test module uses."""

import numpy as np

from sweepseg.layers import backward


def tconv_oracle(x, kern, b, stride):
    """Dense scatter-accumulate transposed convolution of one sample, element by element."""
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
