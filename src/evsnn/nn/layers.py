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
view, in the input's dtype: the network's first conv reads uint8 frames,
and a backward reads the bool spikes a recorded trace keeps, so their
padded copy and columns are a quarter of float32's bytes, and the GEMM
casts the columns (and a full correlation's unpadded x) to the weight's
dtype in one contiguous copy, giving the bits of a float32 input. The
forward is one GEMM plus the bias, whose (C_out, OH, OW, B) output is
returned as a (B, C_out, OH, OW) view.

x's columns (``_conv_columns``) are built once, in the forward; a caller that
holds them (the network keeps the first conv's uint8 columns in a recorded
trace) hands them back as ``cols``. The backward of a stride-1 conv builds
the columns of the batch-innermost dy instead, padded by k-1-padding (a full
correlation), and runs two GEMMs on them: the input gradient against the
flipped kernel with in and out channels swapped (``_flipped_kernel``, which a
caller may build once for all steps and hand in as ``flipped``), the weight
gradient against the unpadded x, its taps read back flipped. Any other conv
(strided, or padded by k or more) takes the weight gradient from x's columns
and folds its column gradient into the (C, H, W, B) image by k*k adds, each
tap's window clipped to the image. A clipped window falls on one parity plane
(pixels whose row and column are fixed residues mod the stride) as one block,
so the taps are added into (s, s, C, ceil(H/s), ceil(W/s), B) planes, in runs
of the window width times B values, interleaved once into an unpadded buffer
whose view is the input gradient. The helpers are private, so that each span
of the benchmark tracer, which wraps public functions, holds a whole layer op.

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
    """Along one axis, per kernel tap: (output slice, parity, plane slice) of
    the outputs whose tap lands inside the unpadded image, the image
    positions it lands on being the plane slice of the positions whose index
    is the parity mod stride; None where no tap lands."""
    taps = []
    for i in range(k):
        first = max(0, -((i - padding) // stride))
        last = min(n_out - 1, (n_in - 1 + padding - i) // stride)
        start = i + stride * first - padding
        taps.append((slice(first, last + 1), start % stride,
                     slice(start // stride, start // stride + last - first + 1))
                    if first <= last else None)
    return taps


def _fold(dcols: np.ndarray, h: int, w: int, stride: int,
          padding: int) -> np.ndarray:
    """Sum (C, k, k, OH, OW, B) window gradients back onto the (C, H, W, B)
    image they were cut from, overlaps added; the adjoint of ``_columns``.
    Each tap's window is clipped to the image, so what fell on the padding
    is never summed. A clipped window is one block of a parity plane, so the
    taps are added into (s, s, C, ceil(H/s), ceil(W/s), B) planes, in runs of
    window width times B, and the planes interleaved once into the result,
    its own contiguous buffer."""
    c, k, _, oh, ow, b = dcols.shape
    s = stride
    planes = np.zeros((s, s, c, -(-h // s), -(-w // s), b), dtype=dcols.dtype)
    cols = _taps(k, s, padding, ow, w)
    for i, row in enumerate(_taps(k, s, padding, oh, h)):
        for j, col in enumerate(cols):
            if row and col:
                planes[row[1], col[1], :, row[2], col[2]] += dcols[:, i, j, row[0], col[0]]
    if s == 1:
        return planes[0, 0]
    out = np.empty((c, h, w, b), dtype=dcols.dtype)
    for p in range(s):
        for q in range(s):
            out[:, p::s, q::s] = planes[p, q, :, :(h - p + s - 1) // s, :(w - q + s - 1) // s]
    return out


def _conv_columns(x: np.ndarray, k: int, stride: int, padding: int) -> np.ndarray:
    """x's (B, C, H, W) patch columns (C*k*k, OH*OW*B), in x's dtype: what
    ``conv2d_forward`` and a folding ``conv2d_backward`` read as ``cols``."""
    return _columns(_batch_last(x, padding), k, stride)


def _gemm_operand(a: np.ndarray, other: np.ndarray) -> np.ndarray:
    """a in the dtype a GEMM with ``other`` runs in: one contiguous cast of
    integer or bool columns to the float dtype; a float a as it is."""
    return a.astype(np.promote_types(a.dtype, other.dtype), copy=False)


def _full_correlation(k: int, stride: int, padding: int) -> bool:
    """Whether ``conv2d_backward`` takes both gradients from dy's full
    correlation (stride 1, padding < k), else from x's columns and a fold."""
    return stride == 1 and padding < k


def _flipped_kernel(weight: np.ndarray) -> np.ndarray:
    """The (C_in, C_out*k*k) input-gradient matrix of a full-correlation
    conv: the kernel flipped, in and out channels swapped."""
    return weight[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(weight.shape[1], -1)


def conv2d_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None,
                   stride: int, padding: int, *, cols: np.ndarray | None = None,
                   ) -> np.ndarray:
    """x (B, C_in, H, W), weight (C_out, C_in, k, k) -> (B, C_out, OH, OW).
    ``cols``, where given, are x's ``_conv_columns``, held by the caller."""
    b, _, h, w = x.shape
    c_out, _, k, _ = weight.shape
    oh, ow = (h + 2 * padding - k) // stride + 1, (w + 2 * padding - k) // stride + 1
    if cols is None:
        cols = _conv_columns(x, k, stride, padding)
    y = weight.reshape(c_out, -1) @ _gemm_operand(cols, weight)
    if bias is not None:
        y += bias[:, None]
    return y.reshape(c_out, oh, ow, b).transpose(3, 0, 1, 2)


def conv2d_backward(x: np.ndarray, weight: np.ndarray, dy: np.ndarray,
                    stride: int, padding: int, with_bias: bool, need_dx: bool = True, *,
                    cols: np.ndarray | None = None, flipped: np.ndarray | None = None,
                    ) -> tuple[np.ndarray | None, np.ndarray, np.ndarray | None]:
    """Gradients (dx, dweight, dbias) for conv2d_forward; dx a (B, C_in, H,
    W) view over batch-innermost memory. With ``need_dx`` false (a conv whose
    input needs no gradient) dx is None. A caller may hand in what it holds:
    x's ``_conv_columns`` as ``cols`` (read where the backward folds) and
    the weight's ``_flipped_kernel`` as ``flipped`` (read by a full
    correlation's dx)."""
    b, c_in, h, w = x.shape
    c_out, _, k, _ = weight.shape
    oh, ow = dy.shape[2], dy.shape[3]
    if _full_correlation(k, stride, padding):
        # full correlation: columns of dy padded by q = k-1-padding, one per
        # input pixel; dw[o, c, i, j] = sum_m x[c, m] * dcols[(o, k-1-i, k-1-j), m]
        q = k - 1 - padding
        dyp = _batch_last(dy, q)
        db = np.add.reduce(dyp[:, q:q + oh, q:q + ow], axis=(1, 2, 3)) if with_bias else None
        dcols = _columns(dyp, k, 1)
        dw = dcols @ _gemm_operand(_batch_last(x, 0), dcols).reshape(c_in, h * w * b).T
        dw = dw.reshape(c_out, k, k, c_in)[:, ::-1, ::-1].transpose(0, 3, 1, 2)
        if not need_dx:
            return None, dw, db
        dx = ((_flipped_kernel(weight) if flipped is None else flipped) @ dcols
              ).reshape(c_in, h, w, b)
    else:
        dy_cm = _batch_last(dy, 0)
        db = np.add.reduce(dy_cm, axis=(1, 2, 3)) if with_bias else None
        dy_flat = dy_cm.reshape(c_out, oh * ow * b)
        if cols is None:
            cols = _conv_columns(x, k, stride, padding)
        dw = (_gemm_operand(cols, dy_flat) @ dy_flat.T).T.reshape(weight.shape)
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
