"""Dense layer primitives: GEMM convolution, pooling, linear.

All functions are pure and batch-first: x is (B, C, H, W) or (B, D).
Backward functions take the cached forward input and the upstream gradient
and return input/parameter gradients.

Convolution cost here is layout copies more than arithmetic, so inside a
conv the batch axis is innermost. The input, and backward dy, is transposed
and zero-padded in one copy into (C, Hp, Wp, B); a stride-1 window row is
then one contiguous run of OW*B values. Patch columns (C*k*k, OH*OW*B) are
one strided copy of its (C, k, k, OH, OW, B) window view. The forward is one
GEMM plus the bias, then one transpose back to (B, C_out, OH, OW).

x's columns are built once, in the forward. The backward of a stride-1 conv
builds the columns of the batch-innermost dy instead, padded by k-1-padding
(a full correlation), and runs two GEMMs on them: the input gradient
against the flipped kernel with in and out channels swapped, the weight
gradient against the unpadded x, its kernel taps read back flipped. A
strided conv takes the weight gradient from x's columns and folds its
column gradient into a (C, Hp, Wp, B) buffer by k*k strided adds.
``im2col``/``col2im`` are transposed views over the same builder and fold.

Every reduction runs in a fixed order: the GEMM shapes depend only on the
layer and the batch size, and the fold and the pooling add their taps in a
fixed order. Reruns with the same BLAS thread count are byte-identical.
"""

from __future__ import annotations

import numpy as np


def conv_out_size(size: int, k: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - k) // stride + 1


def _batch_last(x: np.ndarray, p: int) -> np.ndarray:
    """(B, C, H, W) -> (C, H + 2p, W + 2p, B), zero-padded by p: one transposing copy."""
    b, c, h, w = x.shape
    out = (np.zeros if p else np.empty)((c, h + 2 * p, w + 2 * p, b), x.dtype)
    out[:, p:p + h, p:p + w] = x.transpose(1, 2, 3, 0)
    return out


def _batch_first(a: np.ndarray) -> np.ndarray:
    """(C, H, W, B) -> C-contiguous (B, C, H, W)."""
    return np.ascontiguousarray(a.transpose(3, 0, 1, 2))


def _columns(xp: np.ndarray, k: int, stride: int) -> np.ndarray:
    """GEMM-layout patch columns (C*k*k, OH*OW*B) of a padded (C, Hp, Wp, B)
    array: one strided copy of its (C, k, k, OH, OW, B) window view."""
    c, h, w, b = xp.shape
    sc, sh, sw, sb = xp.strides
    oh, ow = (h - k) // stride + 1, (w - k) // stride + 1
    win = np.lib.stride_tricks.as_strided(
        xp, shape=(c, k, k, oh, ow, b),
        strides=(sc, sh, sw, stride * sh, stride * sw, sb), writeable=False)
    return win.reshape(c * k * k, oh * ow * b)


def _fold(dcols: np.ndarray, h: int, w: int, stride: int,
          padding: int) -> np.ndarray:
    """Sum (C, k, k, OH, OW, B) window gradients back onto the (C, H, W, B)
    image they were cut from, overlaps added; the adjoint of ``_columns``."""
    c, k, _, oh, ow, b = dcols.shape
    out = np.zeros((c, h + 2 * padding, w + 2 * padding, b), dtype=dcols.dtype)
    for i in range(k):
        for j in range(k):
            out[:, i:i + stride * oh:stride, j:j + stride * ow:stride] += dcols[:, i, j]
    return out[:, padding:padding + h, padding:padding + w]


def im2col(x: np.ndarray, k: int, stride: int, padding: int) -> np.ndarray:
    """Unfold (B, C, H, W) into (B, C*k*k, OH*OW) patch columns."""
    b, c = x.shape[:2]
    cols = _columns(_batch_last(x, padding), k, stride)
    return cols.reshape(c * k * k, -1, b).transpose(2, 0, 1)


def col2im(cols: np.ndarray, x_shape: tuple, k: int, stride: int,
           padding: int) -> np.ndarray:
    """Fold (B, C*k*k, OH*OW) columns back, summing overlaps; inverse-adjoint
    of im2col."""
    b, c, h, w = x_shape
    oh, ow = (conv_out_size(n, k, stride, padding) for n in (h, w))
    dcols = cols.reshape(b, c, k, k, oh, ow).transpose(1, 2, 3, 4, 5, 0)
    return _batch_first(_fold(dcols, h, w, stride, padding))


def conv2d_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None,
                   stride: int, padding: int) -> np.ndarray:
    """x (B, C_in, H, W), weight (C_out, C_in, k, k) -> (B, C_out, OH, OW)."""
    b, _, h, w = x.shape
    c_out, _, k, _ = weight.shape
    oh, ow = (conv_out_size(n, k, stride, padding) for n in (h, w))
    y = weight.reshape(c_out, -1) @ _columns(_batch_last(x, padding), k, stride)
    if bias is not None:
        y += bias[:, None]
    return _batch_first(y.reshape(c_out, oh, ow, b))


def conv2d_backward(x: np.ndarray, weight: np.ndarray, dy: np.ndarray,
                    stride: int, padding: int, with_bias: bool, need_dx: bool = True,
                    ) -> tuple[np.ndarray | None, np.ndarray, np.ndarray | None]:
    """Gradients (dx, dweight, dbias) for conv2d_forward. With ``need_dx``
    false (a conv whose input needs no gradient) dx is None."""
    b, c_in, h, w = x.shape
    c_out, _, k, _ = weight.shape
    oh, ow = dy.shape[2], dy.shape[3]
    db = dy.sum(axis=(0, 2, 3)) if with_bias else None
    if stride == 1 and padding < k:
        # full correlation: columns of dy padded by k-1-padding, one per input
        # pixel; dw[o, c, i, j] = sum_m x[c, m] * dcols[(o, k-1-i, k-1-j), m]
        dcols = _columns(_batch_last(dy, k - 1 - padding), k, 1)
        dw = dcols @ _batch_last(x, 0).reshape(c_in, h * w * b).T
        dw = dw.reshape(c_out, k, k, c_in)[:, ::-1, ::-1].transpose(0, 3, 1, 2)
        if not need_dx:
            return None, dw, db
        # dx: the flipped kernel, in/out channels swapped
        w_flip = weight[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c_in, -1)
        dx = (w_flip @ dcols).reshape(c_in, h, w, b)
    else:
        dy_flat = _batch_last(dy, 0).reshape(c_out, oh * ow * b)
        dw = (_columns(_batch_last(x, padding), k, stride) @ dy_flat.T).T.reshape(weight.shape)
        if not need_dx:
            return None, dw, db
        dcols = weight.reshape(c_out, -1).T @ dy_flat          # (C_in*k*k, OH*OW*B)
        dx = _fold(dcols.reshape(c_in, k, k, oh, ow, b), h, w, stride, padding)
    return _batch_first(dx), dw, db


def avg_pool_forward(x: np.ndarray, window: int) -> np.ndarray:
    b, c, h, w = x.shape
    if h % window or w % window:
        raise ValueError(f"pool window {window} does not divide {h}x{w}")
    out = x[:, :, ::window, ::window].copy()
    for i in range(window):
        for j in range(window):
            if i or j:
                out += x[:, :, i::window, j::window]
    out /= window * window
    return out


def avg_pool_backward(dy: np.ndarray, window: int) -> np.ndarray:
    scaled = dy / (window * window)
    return np.repeat(np.repeat(scaled, window, axis=2), window, axis=3)


def global_pool_forward(x: np.ndarray) -> np.ndarray:
    """(B, C, H, W) -> (B, C) spatial mean."""
    return x.mean(axis=(2, 3))


def global_pool_backward(dy: np.ndarray, h: int, w: int) -> np.ndarray:
    return np.broadcast_to(dy[:, :, None, None] / (h * w),
                           (dy.shape[0], dy.shape[1], h, w)).copy()


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
