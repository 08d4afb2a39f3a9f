"""Correctness checks the benchmark runs besides its timed work.

Each check is one attempted operation; a failed check counts into the run's
failures. The convolution reference is a direct sum over kernel taps in
float64 and shares no code with the im2col/col2im path it checks. The
finite-difference check uses the relaxed (smooth) forward, where the
backward pass computes the exact gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from evsnn.nn import layers, network
from evsnn.nn import train as nn_train


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


def close(name: str, got, want, rtol: float, atol: float = 0.0) -> Check:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return Check(name, False, f"shape {got.shape} != {want.shape}")
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    scale = float(np.max(np.abs(want))) if want.size else 0.0
    return Check(name, err <= atol + rtol * scale, f"max abs err {err:.3g}, scale {scale:.3g}")


# ---------------------------------------------------------------------------
# direct-sum convolution reference

def _taps(x, k, stride, padding):
    """Yield (p, q, xp, window slices) for every kernel tap."""
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (x.shape[2] + 2 * padding - k) // stride + 1
    ow = (x.shape[3] + 2 * padding - k) // stride + 1
    for p in range(k):
        for q in range(k):
            yield p, q, xp, (slice(None), slice(None),
                             slice(p, p + stride * oh, stride),
                             slice(q, q + stride * ow, stride))


def conv_reference(x, weight, bias, stride, padding):
    x = x.astype(np.float64)
    w = weight.astype(np.float64)
    y = 0.0
    for p, q, xp, win in _taps(x, w.shape[2], stride, padding):
        y = y + np.einsum("bchw,oc->bohw", xp[win], w[:, :, p, q])
    return y + bias.astype(np.float64)[None, :, None, None]


def conv_reference_backward(x, weight, dy, stride, padding):
    x = x.astype(np.float64)
    w = weight.astype(np.float64)
    dy = dy.astype(np.float64)
    dw = np.zeros_like(w)
    dxp = None
    for p, q, xp, win in _taps(x, w.shape[2], stride, padding):
        if dxp is None:
            dxp = np.zeros_like(xp)
        dw[:, :, p, q] = np.einsum("bohw,bchw->oc", dy, xp[win])
        dxp[win] += np.einsum("bohw,oc->bchw", dy, w[:, :, p, q])
    h, wd = x.shape[2], x.shape[3]
    dx = dxp[:, :, padding:padding + h, padding:padding + wd]
    return dx, dw, dy.sum(axis=(0, 2, 3))


def conv_geometry(config) -> list[tuple[str, tuple, int, int]]:
    """(tensor name, input shape, stride, padding) of every conv in the model."""
    shapes = config.encoder_shapes()
    out = []
    for i, lay in enumerate(config.encoder_layers):
        if isinstance(lay, network.Conv2d):
            out.append((f"{i:02d}.conv", shapes[i], lay.stride, lay.padding))
        elif isinstance(lay, network.SEW):
            for stage in ("conv1", "conv2"):
                out.append((f"{i:02d}.sew.{stage}", shapes[i], 1, lay.k // 2))
    return out


def conv_checks(seed: int, batch: int = 2) -> list[Check]:
    """conv2d_forward/backward against the direct sum on every sew_tiny conv."""
    config = network.sew_tiny(4, theta=0.5)
    params = network.init_params(config, seed)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    out = []
    for name, (c, h, w), stride, pad in conv_geometry(config):
        weight = params[f"{name}.weight"]
        bias = rng.standard_normal(weight.shape[0]).astype(np.float32)
        x = rng.integers(0, 3, size=(batch, c, h, w)).astype(np.float32)
        y = layers.conv2d_forward(x, weight, bias, stride, pad)
        out.append(close(f"conv_forward[{name}]", y,
                         conv_reference(x, weight, bias, stride, pad), 1e-5))
        dy = rng.standard_normal(y.shape).astype(np.float32)
        dx, dw, db = layers.conv2d_backward(x, weight, dy, stride, pad, True)
        rdx, rdw, rdb = conv_reference_backward(x, weight, dy, stride, pad)
        parts = [close("dx", dx, rdx, 1e-5), close("dw", dw, rdw, 1e-5),
                 close("db", db, rdb, 1e-5)]
        out.append(Check(f"conv_backward[{name}]", all(p.ok for p in parts),
                         "; ".join(f"{p.name}: {p.detail}" for p in parts)))
    return out


# ---------------------------------------------------------------------------
# finite differences through the whole network

def fd_checks(seed: int, eps: float = 1e-5, rtol: float = 1e-4) -> list[Check]:
    """Directional derivative of the relaxed loss along one random direction
    per parameter tensor, against the BPTT gradient."""
    config = network.sew_tiny(4, height=16, width=16, time_steps=3, theta=0.5)
    params = network.init_params(config, seed, dtype=np.float64)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 8]))
    x = (rng.random((2, 3, 2, 16, 16)) < 0.3).astype(np.float64)
    labels = rng.integers(0, 4, size=2)

    def loss() -> float:
        logits, _ = network.forward(config, params, x, mode="relaxed", record=False)
        return nn_train.cross_entropy(logits, labels)

    _, trace = network.forward(config, params, x, mode="relaxed")
    grads = network.backward(config, params, trace, labels)
    out = []
    for name, value in params.items():
        direction = rng.standard_normal(value.shape)
        direction /= np.linalg.norm(direction)
        keep = value.copy()
        value += eps * direction
        up = loss()
        value[...] = keep - eps * direction
        down = loss()
        value[...] = keep
        fd = (up - down) / (2 * eps)
        exact = float((grads[name] * direction).sum())
        err = abs(fd - exact)
        ok = err <= rtol * max(abs(fd), abs(exact)) + 1e-9
        out.append(Check(f"fd_backward[{name}]", ok,
                         f"fd {fd:.6g} vs bptt {exact:.6g}"))
    return out


def model_checks(seed: int) -> list[Check]:
    return conv_checks(seed) + fd_checks(seed)
