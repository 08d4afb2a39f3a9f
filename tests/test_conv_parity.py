"""The convolution against a frozen copy of its earlier im2col/col2im form.

``nn.layers`` builds its patch columns straight in GEMM layout and takes the
stride-1 input gradient as a correlation of dy with the flipped kernel. The
reference below is the batch-major im2col -> transpose -> GEMM forward and
GEMM -> col2im backward it replaced, kept verbatim. Swapped into the network,
it must give the same spike-mode logits and gradients up to float32 rounding.
"""

import numpy as np
import pytest

from evsnn.nn import backward, forward, init_params, network, sew_tiny
from evsnn.nn.layers import conv_out_size


def ref_im2col(x, k, stride, padding):
    b, c, h, w = x.shape
    oh = conv_out_size(h, k, stride, padding)
    ow = conv_out_size(w, k, stride, padding)
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    sb, sc, sh, sw = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x, shape=(b, c, k, k, oh, ow),
        strides=(sb, sc, sh, sw, stride * sh, stride * sw), writeable=False)
    return windows.reshape(b, c * k * k, oh * ow)


def ref_col2im(cols, x_shape, k, stride, padding):
    b, c, h, w = x_shape
    oh = conv_out_size(h, k, stride, padding)
    ow = conv_out_size(w, k, stride, padding)
    hp, wp = h + 2 * padding, w + 2 * padding
    out = np.zeros((b, c, hp, wp), dtype=cols.dtype)
    cols = cols.reshape(b, c, k, k, oh, ow)
    for i in range(k):
        i_end = i + stride * oh
        for j in range(k):
            j_end = j + stride * ow
            out[:, :, i:i_end:stride, j:j_end:stride] += cols[:, :, i, j]
    if padding:
        out = out[:, :, padding:hp - padding, padding:wp - padding]
    return out


def ref_conv2d_forward(x, weight, bias, stride, padding):
    b = x.shape[0]
    c_out, c_in, k, _ = weight.shape
    oh = conv_out_size(x.shape[2], k, stride, padding)
    ow = conv_out_size(x.shape[3], k, stride, padding)
    cols = ref_im2col(x, k, stride, padding)
    flat = cols.transpose(1, 0, 2).reshape(c_in * k * k, b * oh * ow)
    y = weight.reshape(c_out, -1) @ flat
    y = y.reshape(c_out, b, oh * ow).transpose(1, 0, 2).reshape(b, c_out, oh, ow)
    if bias is not None:
        y = y + bias[None, :, None, None]
    return y


def ref_conv2d_backward(x, weight, dy, stride, padding, with_bias, need_dx=True):
    b = x.shape[0]
    c_out, c_in, k, _ = weight.shape
    oh, ow = dy.shape[2], dy.shape[3]
    dy_flat = dy.transpose(1, 0, 2, 3).reshape(c_out, b * oh * ow)
    cols = ref_im2col(x, k, stride, padding)
    flat = cols.transpose(1, 0, 2).reshape(c_in * k * k, b * oh * ow)
    dw = (dy_flat @ flat.T).reshape(weight.shape)
    dcols = (weight.reshape(c_out, -1).T @ dy_flat)
    dcols = dcols.reshape(c_in * k * k, b, oh * ow).transpose(1, 0, 2)
    dx = ref_col2im(dcols, x.shape, k, stride, padding)
    db = dy.sum(axis=(0, 2, 3)) if with_bias else None
    return (dx if need_dx else None), dw, db


def run(config, mode, x, labels):
    params = init_params(config, seed=4, kind="dense" if mode == "dense" else "spiking")
    logits, trace = forward(config, params, x, mode=mode)
    return logits, backward(config, params, trace, labels)


@pytest.mark.parametrize("g,mode", [("add", "spike"), ("and", "spike"),
                                    ("iand", "spike"), ("add", "dense")])
def test_sew_tiny_matches_reference_conv(g, mode, monkeypatch):
    config = sew_tiny(4, height=32, width=32, time_steps=3, theta=0.5, g=g)
    rng = np.random.default_rng(17)
    x = (rng.random((4, 3, 2, 32, 32)) < 0.3).astype(np.uint8)
    labels = np.array([0, 1, 2, 3])
    logits, grads = run(config, mode, x, labels)
    monkeypatch.setattr(network, "conv2d_forward", ref_conv2d_forward)
    monkeypatch.setattr(network, "conv2d_backward", ref_conv2d_backward)
    ref_logits, ref_grads = run(config, mode, x, labels)

    np.testing.assert_allclose(logits, ref_logits, rtol=0,
                               atol=1e-5 * np.abs(ref_logits).max())
    assert grads.keys() == ref_grads.keys()
    for name, ref in ref_grads.items():
        scale = np.abs(ref).max()
        assert scale > 0, f"{name}: no gradient reaches it, the comparison is vacuous"
        np.testing.assert_allclose(grads[name], ref, rtol=0, atol=1e-5 * scale,
                                   err_msg=name)
