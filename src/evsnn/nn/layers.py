"""Dense layer primitives: GEMM convolution, pooling, linear.

All functions are pure and batch-first: x is (B, C, H, W) or (B, D).
Backward functions take the cached forward input and the upstream gradient
and return input/parameter gradients.

The network keeps its activations batch-innermost between layers: a (B, C,
H, W) view over (C, H, W, B) memory, a (B, C) one over (C, B). The convs and
the global pools return that layout whatever the memory order of their
input, which may be either. The average pools keep their input's order.

Convolution cost here is layout copies more than arithmetic, so inside a
conv the batch axis is innermost. The input, and backward dy, is zero-padded
into (C, Hp, Wp, B) in one copy: a plain row copy for a batch-innermost
array (an unpadded one is used as it is), a transposing copy otherwise. A
stride-1 window row is then one contiguous run of OW*B values. Patch columns
(C*k*k, OH*OW*B) are one strided copy of its (C, k, k, OH, OW, B) window
view. The forward is one GEMM plus the bias, whose (C_out, OH, OW, B) output
is returned as a (B, C_out, OH, OW) view.

x's columns are built once, in the forward. The backward of a stride-1 conv
builds the columns of the batch-innermost dy instead, padded by k-1-padding
(a full correlation), and runs two GEMMs on them: the input gradient
against the flipped kernel with in and out channels swapped, the weight
gradient against the unpadded x, its kernel taps read back flipped. A
strided conv takes the weight gradient from x's columns and folds its
column gradient into an unpadded (C, H, W, B) buffer by k*k strided adds,
each tap's window clipped to the image; its input gradient is a view of
that whole buffer.

Every reduction runs in a fixed order that the input's memory order does
not change, so both orders give bitwise-equal results: the GEMM shapes
depend only on the layer and the batch size, the bias gradient sums the
batch-innermost dy buffer, the global pool sums contiguous H*W rows, and the
fold and the pooling add their taps in a fixed order. Reruns with the same
BLAS thread count are byte-identical.
"""

from __future__ import annotations

import numpy as np


def conv_out_size(size: int, k: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - k) // stride + 1


def _batch_last(x: np.ndarray, p: int) -> np.ndarray:
    """(B, C, H, W) -> (C, H + 2p, W + 2p, B), zero-padded by p. An
    unpadded batch-innermost x comes back as a view; otherwise one copy."""
    xt = x.transpose(1, 2, 3, 0)
    if not p and xt.flags.c_contiguous:
        return xt
    c, h, w, b = xt.shape
    out = (np.zeros if p else np.empty)((c, h + 2 * p, w + 2 * p, b), x.dtype)
    out[:, p:p + h, p:p + w] = xt
    return out


def _columns(xp: np.ndarray, k: int, stride: int) -> np.ndarray:
    """GEMM-layout patch columns (C*k*k, OH*OW*B) of a padded, C-contiguous
    (C, Hp, Wp, B) array: one strided copy of its read-only (C, k, k, OH, OW,
    B) window view. The view is built by the ndarray constructor, not
    ``as_strided``, whose Python wrapper costs several times the copy of a
    small layer."""
    c, h, w, b = xp.shape
    sc, sh, sw, sb = xp.strides
    oh, ow = (h - k) // stride + 1, (w - k) // stride + 1
    win = np.ndarray((c, k, k, oh, ow, b), xp.dtype, xp, 0,
                     (sc, sh, sw, stride * sh, stride * sw, sb))
    win.flags.writeable = False
    return win.reshape(c * k * k, oh * ow * b)


def _taps(k: int, stride: int, padding: int, n_out: int, n_in: int) -> list:
    """Along one axis, per kernel tap: (output slice, image slice) of the
    outputs whose tap lands inside the unpadded image; None where none does."""
    taps = []
    for i in range(k):
        first = max(0, -((i - padding) // stride))
        last = min(n_out - 1, (n_in - 1 + padding - i) // stride)
        start = i + stride * first - padding
        taps.append((slice(first, last + 1),
                     slice(start, start + stride * (last - first) + 1, stride))
                    if first <= last else None)
    return taps


def _fold(dcols: np.ndarray, h: int, w: int, stride: int,
          padding: int) -> np.ndarray:
    """Sum (C, k, k, OH, OW, B) window gradients back onto the (C, H, W, B)
    image they were cut from, overlaps added; the adjoint of ``_columns``.
    Each tap's window is clipped to the image, so what fell on the padding
    is never summed and the result is its own contiguous buffer."""
    c, k, _, oh, ow, b = dcols.shape
    out = np.zeros((c, h, w, b), dtype=dcols.dtype)
    cols = _taps(k, stride, padding, ow, w)
    for i, row in enumerate(_taps(k, stride, padding, oh, h)):
        for j, col in enumerate(cols):
            if row and col:
                out[:, row[1], col[1]] += dcols[:, i, j, row[0], col[0]]
    return out


def conv2d_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None,
                   stride: int, padding: int) -> np.ndarray:
    """x (B, C_in, H, W), weight (C_out, C_in, k, k) -> (B, C_out, OH, OW)."""
    b, _, h, w = x.shape
    c_out, _, k, _ = weight.shape
    oh, ow = (h + 2 * padding - k) // stride + 1, (w + 2 * padding - k) // stride + 1
    y = weight.reshape(c_out, -1) @ _columns(_batch_last(x, padding), k, stride)
    if bias is not None:
        y += bias[:, None]
    return y.reshape(c_out, oh, ow, b).transpose(3, 0, 1, 2)


def conv2d_backward(x: np.ndarray, weight: np.ndarray, dy: np.ndarray,
                    stride: int, padding: int, with_bias: bool, need_dx: bool = True,
                    ) -> tuple[np.ndarray | None, np.ndarray, np.ndarray | None]:
    """Gradients (dx, dweight, dbias) for conv2d_forward; dx a (B, C_in, H,
    W) view over batch-innermost memory. With ``need_dx`` false (a conv whose
    input needs no gradient) dx is None."""
    b, c_in, h, w = x.shape
    c_out, _, k, _ = weight.shape
    oh, ow = dy.shape[2], dy.shape[3]
    if stride == 1 and padding < k:
        # full correlation: columns of dy padded by q = k-1-padding, one per
        # input pixel; dw[o, c, i, j] = sum_m x[c, m] * dcols[(o, k-1-i, k-1-j), m]
        q = k - 1 - padding
        dyp = _batch_last(dy, q)
        db = np.add.reduce(dyp[:, q:q + oh, q:q + ow], axis=(1, 2, 3)) if with_bias else None
        dcols = _columns(dyp, k, 1)
        dw = dcols @ _batch_last(x, 0).reshape(c_in, h * w * b).T
        dw = dw.reshape(c_out, k, k, c_in)[:, ::-1, ::-1].transpose(0, 3, 1, 2)
        if not need_dx:
            return None, dw, db
        # dx: the flipped kernel, in/out channels swapped
        w_flip = weight[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c_in, -1)
        dx = (w_flip @ dcols).reshape(c_in, h, w, b)
    else:
        dy_cm = _batch_last(dy, 0)
        db = np.add.reduce(dy_cm, axis=(1, 2, 3)) if with_bias else None
        dy_flat = dy_cm.reshape(c_out, oh * ow * b)
        dw = (_columns(_batch_last(x, padding), k, stride) @ dy_flat.T).T.reshape(weight.shape)
        if not need_dx:
            return None, dw, db
        dcols = weight.reshape(c_out, -1).T @ dy_flat          # (C_in*k*k, OH*OW*B)
        dx = _fold(dcols.reshape(c_in, k, k, oh, ow, b), h, w, stride, padding)
    return dx.transpose(3, 0, 1, 2), dw, db


def avg_pool_forward(x: np.ndarray, window: int) -> np.ndarray:
    b, c, h, w = x.shape
    if h % window or w % window:
        raise ValueError(f"pool window {window} does not divide {h}x{w}")
    out = x[:, :, ::window, ::window].copy(order="K")
    for i in range(window):
        for j in range(window):
            if i or j:
                out += x[:, :, i::window, j::window]
    out /= window * window
    return out


def avg_pool_backward(dy: np.ndarray, window: int) -> np.ndarray:
    b, c, h, w = dy.shape
    scaled = dy / (window * window)
    out = np.empty_like(dy, shape=(b, c, h * window, w * window))
    for i in range(window):
        for j in range(window):
            out[:, :, i::window, j::window] = scaled
    return out


def global_pool_forward(x: np.ndarray) -> np.ndarray:
    """(B, C, H, W) -> (B, C) spatial mean, a view over (C, B) memory. Each
    mean runs over one contiguous run of H*W values, as in a C-contiguous
    array, so x's memory order changes no bit of the result."""
    means = np.add.reduce(np.ascontiguousarray(x.transpose(1, 0, 2, 3)), axis=(2, 3))
    means /= x.shape[2] * x.shape[3]
    return means.T


def global_pool_backward(dy: np.ndarray, h: int, w: int) -> np.ndarray:
    """(B, C) -> (B, C, H, W) over batch-innermost memory."""
    b, c = dy.shape
    scaled = dy.T / (h * w)
    out = np.empty((c, h, w, b), dtype=scaled.dtype)
    out[...] = scaled[:, None, None]
    return out.transpose(3, 0, 1, 2)


def linear_forward(x: np.ndarray, weight: np.ndarray,
                   bias: np.ndarray | None) -> np.ndarray:
    """x (B, D_in), weight (D_out, D_in) -> (B, D_out)."""
    y = x @ weight.T
    if bias is not None:
        y = y + bias[None, :]
    return y


def linear_backward(x: np.ndarray, weight: np.ndarray, dy: np.ndarray,
                    with_bias: bool,
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    dx = dy @ weight
    dw = dy.T @ x
    db = dy.sum(axis=0) if with_bias else None
    return dx, dw, db
