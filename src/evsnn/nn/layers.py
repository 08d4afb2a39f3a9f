"""Dense layer primitives: GEMM convolution, pooling, linear.

All functions are pure and batch-first: x is (B, C, H, W) or (B, D).
Backward functions take the cached forward input and the upstream gradient
and return input/parameter gradients.

Convolution cost here is layout copies more than arithmetic, so each conv
copies each operand once. Patch columns are built straight in GEMM layout,
(C*k*k, B*OH*OW), by one strided copy of a (C, k, k, B, OH, OW) window view;
the forward is one GEMM, the bias added in place, and one transpose back to
batch-major. The weight gradient is one GEMM on the same columns. The input
gradient of a stride-1 conv is the full correlation of dy with the flipped
kernel, in and out channels swapped: columns of the channel-major dy, then
one GEMM. A strided conv folds its (C*k*k, B*L) column gradient into a
channel-major buffer, k*k strided adds. ``im2col``/``col2im`` are the
batch-major views of the same window builder and fold.

Every reduction runs in a fixed order: the GEMM shapes depend only on the
layer, and the fold and the pooling add their taps in a fixed order. Reruns
with the same BLAS thread count are therefore byte-identical.
"""

from __future__ import annotations

import numpy as np


def conv_out_size(size: int, k: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - k) // stride + 1


def _windows(x: np.ndarray, k: int, stride: int, padding: int,
             channel_major: bool = False) -> np.ndarray:
    """Read-only (C, k, k, B, OH, OW) view of the k x k windows of x, a
    (B, C, H, W) array or, with ``channel_major``, a (C, B, H, W) one."""
    if padding:
        n0, n1, h, w = x.shape
        xp = np.zeros((n0, n1, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
        xp[:, :, padding:padding + h, padding:padding + w] = x
        x = xp
    n0, n1, h, w = x.shape
    s0, s1, sh, sw = x.strides
    (c, sc), (b, sb) = ((n0, s0), (n1, s1)) if channel_major else ((n1, s1), (n0, s0))
    oh, ow = (h - k) // stride + 1, (w - k) // stride + 1
    return np.lib.stride_tricks.as_strided(
        x, shape=(c, k, k, b, oh, ow),
        strides=(sc, sh, sw, sb, stride * sh, stride * sw), writeable=False)


def _columns(x: np.ndarray, k: int, stride: int, padding: int,
             channel_major: bool = False) -> np.ndarray:
    """GEMM-layout patch columns (C*k*k, B*OH*OW): one strided copy."""
    win = _windows(x, k, stride, padding, channel_major)
    c, _, _, b, oh, ow = win.shape
    return win.reshape(c * k * k, b * oh * ow)


def _fold(dcols: np.ndarray, h: int, w: int, stride: int,
          padding: int) -> np.ndarray:
    """Sum (C, k, k, B, OH, OW) window gradients back onto the (C, B, H, W)
    image they were cut from, overlaps added; the adjoint of ``_windows``."""
    c, k, _, b, oh, ow = dcols.shape
    out = np.zeros((c, b, h + 2 * padding, w + 2 * padding), dtype=dcols.dtype)
    for i in range(k):
        for j in range(k):
            out[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += dcols[:, i, j]
    return out[:, :, padding:padding + h, padding:padding + w]


def im2col(x: np.ndarray, k: int, stride: int, padding: int) -> np.ndarray:
    """Unfold (B, C, H, W) into (B, C*k*k, OH*OW) patch columns."""
    win = _windows(x, k, stride, padding)
    c, _, _, b, oh, ow = win.shape
    return win.transpose(3, 0, 1, 2, 4, 5).reshape(b, c * k * k, oh * ow)


def col2im(cols: np.ndarray, x_shape: tuple, k: int, stride: int,
           padding: int) -> np.ndarray:
    """Fold (B, C*k*k, OH*OW) columns back, summing overlaps; inverse-adjoint
    of im2col."""
    b, c, h, w = x_shape
    oh = conv_out_size(h, k, stride, padding)
    ow = conv_out_size(w, k, stride, padding)
    dcols = cols.reshape(b, c, k, k, oh, ow).transpose(1, 2, 3, 0, 4, 5)
    return np.ascontiguousarray(_fold(dcols, h, w, stride, padding).transpose(1, 0, 2, 3))


def conv2d_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None,
                   stride: int, padding: int) -> np.ndarray:
    """x (B, C_in, H, W), weight (C_out, C_in, k, k) -> (B, C_out, OH, OW)."""
    b = x.shape[0]
    c_out, _, k, _ = weight.shape
    oh = conv_out_size(x.shape[2], k, stride, padding)
    ow = conv_out_size(x.shape[3], k, stride, padding)
    y = weight.reshape(c_out, -1) @ _columns(x, k, stride, padding)  # (C_out, B*L)
    if bias is not None:
        y += bias[:, None]
    return np.ascontiguousarray(y.reshape(c_out, b, oh, ow).transpose(1, 0, 2, 3))


def conv2d_backward(x: np.ndarray, weight: np.ndarray, dy: np.ndarray,
                    stride: int, padding: int, with_bias: bool, need_dx: bool = True,
                    ) -> tuple[np.ndarray | None, np.ndarray, np.ndarray | None]:
    """Gradients (dx, dweight, dbias) for conv2d_forward. With ``need_dx``
    false (a conv whose input needs no gradient) dx is None."""
    b, _, h, w = x.shape
    c_out, c_in, k, _ = weight.shape
    oh, ow = dy.shape[2], dy.shape[3]
    dy_cm = np.ascontiguousarray(dy.transpose(1, 0, 2, 3))   # (C_out, B, OH, OW)
    dy_flat = dy_cm.reshape(c_out, b * oh * ow)
    dw = (dy_flat @ _columns(x, k, stride, padding).T).reshape(weight.shape)
    db = dy.sum(axis=(0, 2, 3)) if with_bias else None
    if not need_dx:
        return None, dw, db
    if stride == 1 and padding < k:
        # full correlation of dy with the flipped kernel, in/out channels swapped
        w_flip = weight[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c_in, -1)
        dx_cm = w_flip @ _columns(dy_cm, k, 1, k - 1 - padding, channel_major=True)
        dx_cm = dx_cm.reshape(c_in, b, h, w)
    else:
        dcols = weight.reshape(c_out, -1).T @ dy_flat          # (C_in*k*k, B*L)
        dx_cm = _fold(dcols.reshape(c_in, k, k, b, oh, ow), h, w, stride, padding)
    return np.ascontiguousarray(dx_cm.transpose(1, 0, 2, 3)), dw, db


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
