"""Dense primitives against naive loop oracles and finite differences."""

import numpy as np
import pytest

from evsnn.nn.layers import (
    _batch_last,
    _columns,
    _fold,
    avg_pool_backward,
    avg_pool_forward,
    conv2d_backward,
    conv2d_forward,
    conv_out_size,
    global_pool_backward,
    global_pool_forward,
    linear_backward,
    linear_forward,
)
from evsnn.nn.network import SEW, Conv2d, sew18, sew_tiny


def conv_oracle(x, weight, bias, stride, padding):
    """Quadruple-loop reference convolution."""
    b, c_in, h, w = x.shape
    c_out, _, k, _ = weight.shape
    oh = conv_out_size(h, k, stride, padding)
    ow = conv_out_size(w, k, stride, padding)
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    y = np.zeros((b, c_out, oh, ow))
    for n in range(b):
        for co in range(c_out):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[n, :, i * stride:i * stride + k,
                               j * stride:j * stride + k]
                    y[n, co, i, j] = (patch * weight[co]).sum()
            if bias is not None:
                y[n, co] += bias[co]
    return y


def fd_grad(f, x, eps=1e-6):
    """Central-difference gradient of scalar f at x, elementwise."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + eps
        up = f()
        flat[i] = keep - eps
        dn = f()
        flat[i] = keep
        gf[i] = (up - dn) / (2 * eps)
    return g


CONV_CASES = [
    # (c_in, c_out, k, stride, padding, h, w)
    (1, 1, 1, 1, 0, 3, 3),
    (2, 3, 3, 1, 1, 5, 4),
    (2, 4, 3, 2, 1, 6, 6),
    (3, 2, 5, 2, 2, 7, 5),
]


class TestConvForward:
    @pytest.mark.parametrize("c_in,c_out,k,stride,padding,h,w", CONV_CASES)
    def test_matches_loop_oracle(self, c_in, c_out, k, stride, padding, h, w, rng):
        x = rng.normal(size=(2, c_in, h, w))
        weight = rng.normal(size=(c_out, c_in, k, k))
        bias = rng.normal(size=c_out)
        got = conv2d_forward(x, weight, bias, stride, padding)
        np.testing.assert_allclose(got, conv_oracle(x, weight, bias, stride, padding),
                                   rtol=1e-12, atol=1e-12)

    def test_no_bias(self, rng):
        x = rng.normal(size=(1, 2, 4, 4))
        weight = rng.normal(size=(3, 2, 3, 3))
        got = conv2d_forward(x, weight, None, 1, 1)
        np.testing.assert_allclose(got, conv_oracle(x, weight, None, 1, 1),
                                   rtol=1e-12, atol=1e-12)

    def test_identity_kernel(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        weight = np.ones((1, 1, 1, 1))
        np.testing.assert_array_equal(conv2d_forward(x, weight, None, 1, 0), x)

    def test_deterministic_bytes(self, rng):
        x = rng.normal(size=(2, 2, 5, 5))
        weight = rng.normal(size=(3, 2, 3, 3))
        a = conv2d_forward(x, weight, None, 2, 1)
        b = conv2d_forward(x, weight, None, 2, 1)
        assert a.tobytes() == b.tobytes()


def columns(x, k, stride, padding):
    """im2col as the conv builds it: the (C*k*k, OH*OW*B) patch columns
    of a (B, C, H, W) x. ``_fold`` is its adjoint, col2im."""
    return _columns(_batch_last(x, padding), k, stride)


class TestColOps:
    def test_im2col_shape(self, rng):
        x = rng.normal(size=(2, 3, 6, 5))
        cols = columns(x, 3, 2, 1)
        oh, ow = conv_out_size(6, 3, 2, 1), conv_out_size(5, 3, 2, 1)
        assert cols.shape == (3 * 9, oh * ow * 2)

    @pytest.mark.parametrize("k,stride,padding", [(1, 1, 0), (3, 1, 1), (3, 2, 1),
                                                  (2, 2, 0)])
    def test_adjoint_identity(self, k, stride, padding, rng):
        # <columns(x), c> == <x, fold(c)> for all x, c: the pair is adjoint
        b, c_in, h, w = shape = (2, 2, 6, 6)
        x = rng.normal(size=shape)
        cols = columns(x, k, stride, padding)
        c = rng.normal(size=cols.shape)
        oh, ow = (conv_out_size(n, k, stride, padding) for n in (h, w))
        folded = _fold(c.reshape(c_in, k, k, oh, ow, b), h, w, stride, padding)
        lhs = float((cols * c).sum())
        rhs = float((x.transpose(1, 2, 3, 0) * folded).sum())
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_col2im_counts_overlaps(self):
        # folding all-ones columns counts how many windows cover each pixel
        out = _fold(np.ones((1, 3, 3, 3, 3, 1)), 3, 3, 1, 1)
        expected = np.array([[4, 6, 4], [6, 9, 6], [4, 6, 4]], dtype=float)
        np.testing.assert_array_equal(out[0, :, :, 0], expected)


class TestConvBackward:
    @pytest.mark.parametrize("c_in,c_out,k,stride,padding,h,w", CONV_CASES)
    def test_matches_fd(self, c_in, c_out, k, stride, padding, h, w, rng):
        x = rng.normal(size=(2, c_in, h, w))
        weight = rng.normal(size=(c_out, c_in, k, k))
        bias = rng.normal(size=c_out)
        proj = rng.normal(size=conv2d_forward(x, weight, bias, stride, padding).shape)

        def loss():
            return float((conv2d_forward(x, weight, bias, stride, padding) * proj).sum())

        dx, dw, db = conv2d_backward(x, weight, proj, stride, padding, with_bias=True)
        np.testing.assert_allclose(dx, fd_grad(loss, x), rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(dw, fd_grad(loss, weight), rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(db, fd_grad(loss, bias), rtol=1e-6, atol=1e-8)

    def test_no_bias_grad(self, rng):
        x = rng.normal(size=(1, 2, 4, 4))
        weight = rng.normal(size=(2, 2, 3, 3))
        dy = rng.normal(size=(1, 2, 4, 4))
        _, _, db = conv2d_backward(x, weight, dy, 1, 1, with_bias=False)
        assert db is None


class TestPooling:
    def test_avg_pool_hand_case(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        np.testing.assert_array_equal(avg_pool_forward(x, 2), [[[[2.5]]]])

    def test_avg_pool_indivisible(self):
        with pytest.raises(ValueError, match="divide"):
            avg_pool_forward(np.zeros((1, 1, 5, 4)), 2)

    def test_avg_pool_fd(self, rng):
        x = rng.normal(size=(2, 3, 4, 6))
        proj = rng.normal(size=(2, 3, 2, 3))

        def loss():
            return float((avg_pool_forward(x, 2) * proj).sum())

        np.testing.assert_allclose(avg_pool_backward(proj, 2), fd_grad(loss, x),
                                   rtol=1e-6, atol=1e-9)

    def test_global_pool(self, rng):
        x = rng.normal(size=(2, 3, 4, 5))
        np.testing.assert_allclose(global_pool_forward(x), x.mean(axis=(2, 3)))
        proj = rng.normal(size=(2, 3))

        def loss():
            return float((global_pool_forward(x) * proj).sum())

        np.testing.assert_allclose(global_pool_backward(proj, 4, 5),
                                   fd_grad(loss, x), rtol=1e-6, atol=1e-9)


class TestLinear:
    def test_forward_oracle(self, rng):
        x = rng.normal(size=(4, 6))
        weight = rng.normal(size=(3, 6))
        bias = rng.normal(size=3)
        want = np.array([[x[n] @ weight[o] + bias[o] for o in range(3)]
                         for n in range(4)])
        np.testing.assert_allclose(linear_forward(x, weight, bias), want,
                                   rtol=1e-12)

    def test_backward_fd(self, rng):
        x = rng.normal(size=(4, 6))
        weight = rng.normal(size=(3, 6))
        bias = rng.normal(size=3)
        proj = rng.normal(size=(4, 3))

        def loss():
            return float((linear_forward(x, weight, bias) * proj).sum())

        dx, dw, db = linear_backward(x, weight, proj, with_bias=True)
        np.testing.assert_allclose(dx, fd_grad(loss, x), rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(dw, fd_grad(loss, weight), rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(db, fd_grad(loss, bias), rtol=1e-6, atol=1e-9)


def conv_backward_direct(x, weight, dy, stride, padding):
    """float64 (dx, dw, db) by a direct sum over kernel taps."""
    x, weight, dy = (a.astype(np.float64) for a in (x, weight, dy))
    k = weight.shape[2]
    oh, ow = dy.shape[2], dy.shape[3]
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(weight)
    for p in range(k):
        for q in range(k):
            win = (slice(None), slice(None), slice(p, p + stride * oh, stride),
                   slice(q, q + stride * ow, stride))
            dw[:, :, p, q] = np.einsum("bohw,bchw->oc", dy, xp[win])
            dxp[win] += np.einsum("bohw,oc->bchw", dy, weight[:, :, p, q])
    dx = dxp[:, :, padding:padding + x.shape[2], padding:padding + x.shape[3]]
    return dx, dw, dy.sum(axis=(0, 2, 3))


# (c_in, c_out, k, stride, padding, h, w); stride 1 with padding < k takes the
# correlation path for dx, everything else the fold path
CORRELATION_CASES = [
    (1, 1, 1, 1, 0, 3, 3),
    (2, 3, 1, 1, 0, 4, 5),
    (3, 4, 3, 1, 1, 5, 4),
    (2, 2, 5, 1, 2, 6, 5),
    (2, 3, 3, 1, 0, 5, 6),
]
FOLD_CASES = [
    (3, 2, 2, 2, 0, 6, 6),
    (2, 4, 3, 2, 1, 6, 6),
    (2, 3, 3, 2, 1, 7, 5),
    (3, 2, 5, 2, 2, 7, 5),
    (2, 3, 1, 1, 1, 4, 4),
]


class TestConvBackwardPaths:
    @pytest.mark.parametrize("c_in,c_out,k,stride,padding,h,w",
                             CORRELATION_CASES + FOLD_CASES)
    def test_matches_direct_sum(self, c_in, c_out, k, stride, padding, h, w, rng):
        x = rng.integers(0, 3, size=(3, c_in, h, w)).astype(np.float64)
        weight = rng.normal(size=(c_out, c_in, k, k))
        oh, ow = conv_out_size(h, k, stride, padding), conv_out_size(w, k, stride, padding)
        dy = rng.normal(size=(3, c_out, oh, ow))
        dx, dw, db = conv2d_backward(x, weight, dy, stride, padding, with_bias=True)
        want_dx, want_dw, want_db = conv_backward_direct(x, weight, dy, stride, padding)
        for got, want in ((dx, want_dx), (dw, want_dw), (db, want_db)):
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("c_in,c_out,k,stride,padding,h,w",
                             CORRELATION_CASES[2:4] + FOLD_CASES[1:3])
    def test_float32_matches_direct_sum(self, c_in, c_out, k, stride, padding, h, w, rng):
        x = rng.integers(0, 3, size=(4, c_in, h, w)).astype(np.float32)
        weight = rng.normal(size=(c_out, c_in, k, k)).astype(np.float32)
        oh, ow = conv_out_size(h, k, stride, padding), conv_out_size(w, k, stride, padding)
        dy = rng.normal(size=(4, c_out, oh, ow)).astype(np.float32)
        dx, dw, db = conv2d_backward(x, weight, dy, stride, padding, with_bias=True)
        assert dx.dtype == dw.dtype == db.dtype == np.float32
        assert dx.transpose(1, 2, 3, 0).flags.c_contiguous
        for got, want in zip((dx, dw, db), conv_backward_direct(x, weight, dy, stride, padding)):
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5 * np.abs(want).max())

    @pytest.mark.parametrize("c_in,c_out,k,stride,padding,h,w",
                             [CORRELATION_CASES[2], FOLD_CASES[1]])
    def test_without_input_gradient(self, c_in, c_out, k, stride, padding, h, w, rng):
        x = rng.normal(size=(2, c_in, h, w))
        weight = rng.normal(size=(c_out, c_in, k, k))
        dy = rng.normal(size=conv2d_forward(x, weight, None, stride, padding).shape)
        _, dw, db = conv2d_backward(x, weight, dy, stride, padding, True)
        skipped = conv2d_backward(x, weight, dy, stride, padding, True, need_dx=False)
        assert skipped[0] is None
        assert skipped[1].tobytes() == dw.tobytes()
        assert skipped[2].tobytes() == db.tobytes()

    def test_forward_output_is_batch_innermost(self, rng):
        y = conv2d_forward(rng.normal(size=(2, 3, 6, 6)), rng.normal(size=(4, 3, 3, 3)),
                           rng.normal(size=4), 2, 1)
        assert y.shape == (2, 4, 3, 3) and y.transpose(1, 2, 3, 0).flags.c_contiguous


class TestAvgPoolSum:
    def reshape_mean(self, x, window):
        b, c, h, w = x.shape
        return x.reshape(b, c, h // window, window, w // window, window).mean(axis=(3, 5))

    @pytest.mark.parametrize("window", [1, 2, 3])
    def test_exact_on_spike_counts(self, window, rng):
        x = rng.integers(0, 3, size=(3, 4, 6 * window, 2 * window)).astype(np.float32)
        got = avg_pool_forward(x, window)
        assert got.dtype == np.float32
        assert got.tobytes() == self.reshape_mean(x, window).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_float_inputs(self, dtype, rng):
        # positive values: a window sum has no cancellation, so rtol holds
        x = rng.random(size=(2, 3, 8, 12)).astype(dtype)
        np.testing.assert_allclose(avg_pool_forward(x, 2), self.reshape_mean(x, 2),
                                   rtol=1e-6)


# every (C_in, stride, padding) the layout must handle, at batch sizes that put
# one, a few and the training batch's samples side by side in a window row;
# H != W so a swapped OH/OW shows. C_in 12 is the dense twin's first conv.
LAYOUT_CASES = [(b, c_in, stride, padding)
                for b in (1, 3, 16) for c_in in (2, 12)
                for stride in (1, 2) for padding in (0, 1, 2)]
LAYOUT_H, LAYOUT_W, LAYOUT_C_OUT = 7, 5, 3


def layout_operands(rng, b, c_in, stride, padding):
    x = rng.normal(size=(b, c_in, LAYOUT_H, LAYOUT_W))
    weight = rng.normal(size=(LAYOUT_C_OUT, c_in, 3, 3))
    oh = conv_out_size(LAYOUT_H, 3, stride, padding)
    ow = conv_out_size(LAYOUT_W, 3, stride, padding)
    dy = rng.normal(size=(b, LAYOUT_C_OUT, oh, ow))
    return x, weight, dy


class TestBatchInnermostLayout:
    @pytest.mark.parametrize("b,c_in,stride,padding", LAYOUT_CASES)
    def test_forward_matches_loop_oracle(self, b, c_in, stride, padding, rng):
        x, weight, dy = layout_operands(rng, b, c_in, stride, padding)
        bias = rng.normal(size=LAYOUT_C_OUT)
        got = conv2d_forward(x, weight, bias, stride, padding)
        assert got.shape == dy.shape and got.transpose(1, 2, 3, 0).flags.c_contiguous
        np.testing.assert_allclose(got, conv_oracle(x, weight, bias, stride, padding),
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("b,c_in,stride,padding", LAYOUT_CASES)
    def test_backward_matches_direct_sum(self, b, c_in, stride, padding, rng):
        x, weight, dy = layout_operands(rng, b, c_in, stride, padding)
        dx, dw, db = conv2d_backward(x, weight, dy, stride, padding, with_bias=True)
        assert dx.shape == x.shape and dx.transpose(1, 2, 3, 0).flags.c_contiguous
        for got, want in zip((dx, dw, db), conv_backward_direct(x, weight, dy, stride, padding)):
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("b,c_in,stride,padding", LAYOUT_CASES)
    def test_weight_gradient_without_dx(self, b, c_in, stride, padding, rng):
        x, weight, dy = layout_operands(rng, b, c_in, stride, padding)
        dx, dw, db = conv2d_backward(x, weight, dy, stride, padding, True, need_dx=False)
        assert dx is None and dw.shape == weight.shape
        _, want_dw, want_db = conv_backward_direct(x, weight, dy, stride, padding)
        np.testing.assert_allclose(dw, want_dw, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(db, want_db, rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_c_contiguous_input_gives_a_batch_innermost_view(self, stride, rng):
        # one result layout: a view of the batch-last buffer the computation
        # filled, never a copy into the input's C order
        x, weight, dy = layout_operands(rng, 3, 2, stride, 1)
        assert x.flags.c_contiguous and dy.flags.c_contiguous
        y = conv2d_forward(x, weight, None, stride, 1)
        dx, _, _ = conv2d_backward(x, weight, dy, stride, 1, True)
        for got in (y, dx):
            assert not got.flags.owndata and got.transpose(1, 2, 3, 0).flags.c_contiguous
        means = global_pool_forward(x)
        assert not means.flags.owndata and means.T.flags.c_contiguous

    @pytest.mark.parametrize("b,stride,padding", [(1, 1, 0), (3, 2, 1), (16, 2, 2)])
    def test_im2col_rows_are_patches(self, b, stride, padding, rng):
        x = rng.normal(size=(b, 2, LAYOUT_H, LAYOUT_W))
        cols = columns(x, 3, stride, padding)
        oh = conv_out_size(LAYOUT_H, 3, stride, padding)
        ow = conv_out_size(LAYOUT_W, 3, stride, padding)
        xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        want = np.stack([xp[:, :, i * stride:i * stride + 3, j * stride:j * stride + 3]
                         .reshape(b, -1) for i in range(oh) for j in range(ow)], axis=2)
        np.testing.assert_array_equal(cols, want.transpose(1, 2, 0).reshape(cols.shape))


def batch_innermost(a):
    """The same values as a (B, ...) view over (..., B) memory."""
    order = tuple(range(1, a.ndim)) + (0,)
    back = (a.ndim - 1,) + tuple(range(a.ndim - 1))
    return np.ascontiguousarray(a.transpose(order)).transpose(back)


def assert_order_kept(got, want, b):
    """got (from a batch-innermost input) keeps the batch axis innermost and
    equals want (from the C-contiguous input) bit for bit. At B=1 the two
    orders are the same memory."""
    assert got.shape == want.shape and got.dtype == want.dtype
    if b == 1:
        assert got.flags.c_contiguous
    else:
        assert got.strides[0] == got.itemsize
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


# B=1 is where both orders are contiguous; stride 1 takes the correlation
# backward, stride 2 the fold
ORDER_CASES = [(b, stride, padding, dtype)
               for b in (1, 3, 16) for stride in (1, 2) for padding in (0, 1)
               for dtype in (np.float32, np.float64)]


class TestOutputFollowsInputOrder:
    @pytest.mark.parametrize("b,stride,padding,dtype", ORDER_CASES)
    def test_conv_forward(self, b, stride, padding, dtype, rng):
        x, weight, _ = (a.astype(dtype) for a in layout_operands(rng, b, 2, stride, padding))
        bias = rng.normal(size=LAYOUT_C_OUT).astype(dtype)
        want = conv2d_forward(x, weight, bias, stride, padding)
        got = conv2d_forward(batch_innermost(x), weight, bias, stride, padding)
        assert_order_kept(got, want, b)
        # handed back as a view over the (C_out, OH, OW, B) GEMM output
        assert got.transpose(1, 2, 3, 0).flags.c_contiguous

    @pytest.mark.parametrize("b,stride,padding,dtype", ORDER_CASES)
    @pytest.mark.parametrize("need_dx", [True, False])
    def test_conv_backward(self, b, stride, padding, dtype, need_dx, rng):
        x, weight, dy = (a.astype(dtype) for a in layout_operands(rng, b, 2, stride, padding))
        want = conv2d_backward(x, weight, dy, stride, padding, True, need_dx=need_dx)
        got = conv2d_backward(batch_innermost(x), weight, batch_innermost(dy),
                              stride, padding, True, need_dx=need_dx)
        if need_dx:
            assert_order_kept(got[0], want[0], b)
        else:
            assert got[0] is None and want[0] is None
        for g, w in zip(got[1:], want[1:]):
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("b", [1, 3, 16])
    @pytest.mark.parametrize("window", [1, 2])
    def test_avg_pool(self, b, window, rng):
        x = rng.normal(size=(b, 3, 4, 6)).astype(np.float32)
        assert_order_kept(avg_pool_forward(batch_innermost(x), window),
                          avg_pool_forward(x, window), b)
        dy = rng.normal(size=(b, 3, 4 // window, 6 // window)).astype(np.float32)
        assert_order_kept(avg_pool_backward(batch_innermost(dy), window),
                          avg_pool_backward(dy, window), b)

    @pytest.mark.parametrize("b", [1, 3, 16])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_global_pool(self, b, dtype, rng):
        x = rng.normal(size=(b, 5, 4, 3)).astype(dtype)
        want = global_pool_forward(x)
        assert_order_kept(global_pool_forward(batch_innermost(x)), want, b)
        np.testing.assert_allclose(want, x.mean(axis=(2, 3)), rtol=0,
                                   atol=1e-6 * np.abs(x).max())
        # a (B, C) gradient has no spatial order: batch-innermost either way
        dy = rng.normal(size=(b, 5)).astype(dtype)
        back = global_pool_backward(dy, 4, 3)
        assert back.transpose(1, 2, 3, 0).flags.c_contiguous
        assert global_pool_backward(np.asfortranarray(dy), 4, 3).tobytes() == back.tobytes()
        np.testing.assert_array_equal(back, np.broadcast_to(dy[:, :, None, None] / 12,
                                                            (b, 5, 4, 3)))


def conv_geometries(config):
    """(input (C, H, W), Conv2d) of every distinct conv of ``config``."""
    seen = {}
    for lay, shape in zip(config.encoder_layers, config.encoder_shapes()):
        conv = lay.conv if isinstance(lay, SEW) else lay
        if isinstance(conv, Conv2d):
            seen[(shape, conv.k, conv.stride, conv.padding)] = (shape, conv)
    return list(seen.values())


COLUMN_CASES = [*conv_geometries(sew_tiny(4)), *conv_geometries(sew18(4)),
                ((3, 5, 4), Conv2d(3, 3, k=1, padding=0))]


def strided_columns(x, k, stride, padding):
    """The patch columns from an ``as_strided`` window view of x (B, C, H,
    W), padded and moved batch-last here, reshaped into a fresh array."""
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    xp = np.ascontiguousarray(xp.transpose(1, 2, 3, 0))
    c, h, w, b = xp.shape
    sc, sh, sw, sb = xp.strides
    oh, ow = (h - k) // stride + 1, (w - k) // stride + 1
    win = np.lib.stride_tricks.as_strided(
        xp, shape=(c, k, k, oh, ow, b),
        strides=(sc, sh, sw, stride * sh, stride * sw, sb), writeable=False)
    return np.array(win).reshape(c * k * k, oh * ow * b)


class TestColumns:
    """``_columns`` builds its window view with the ndarray constructor; it
    must give what an ``as_strided`` view gives, and never a writeable
    array over its input."""

    @pytest.mark.parametrize("shape,conv", COLUMN_CASES,
                             ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple)
                             else f"k{v.k}s{v.stride}p{v.padding}")
    @pytest.mark.parametrize("order", ["batch_major", "batch_innermost"])
    def test_matches_as_strided(self, shape, conv, order, rng):
        x = (rng.random((2, *shape)) < 0.3).astype(np.float32)
        src = batch_innermost(x) if order == "batch_innermost" else x
        padded = _batch_last(src, conv.padding)
        got = _columns(padded, conv.k, conv.stride)
        want = strided_columns(x, conv.k, conv.stride, conv.padding)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        assert got.flags.c_contiguous
        for base in (src, padded):
            assert not (got.flags.writeable and np.shares_memory(got, base))

    def test_view_of_the_input_is_read_only(self, rng):
        # k=1, stride 1, unpadded and batch-innermost: the reshape is a view
        x = batch_innermost(rng.random((3, 4, 5, 6)).astype(np.float32))
        cols = _columns(_batch_last(x, 0), 1, 1)
        assert np.shares_memory(cols, x) and not cols.flags.writeable


def padded_fold(dcols, h, w, stride, padding):
    """The fold into a zero-padded buffer, its padding cut off at the end."""
    c, k, _, oh, ow, b = dcols.shape
    out = np.zeros((c, h + 2 * padding, w + 2 * padding, b), dtype=dcols.dtype)
    for i in range(k):
        for j in range(k):
            out[:, i:i + stride * oh:stride, j:j + stride * ow:stride] += dcols[:, i, j]
    return out[:, padding:padding + h, padding:padding + w]


class TestFold:
    """``_fold`` sums each tap clipped to the unpadded image: the same bits
    as summing into a padded buffer, in a contiguous result."""

    # (H, W, k, stride, padding): sew18's first conv, a stride of 3, k=1,
    # and padding wider than the kernel, where some taps miss the image
    @pytest.mark.parametrize("h,w,k,stride,padding", [
        (16, 16, 3, 2, 1), (8, 8, 3, 2, 1), (20, 18, 7, 2, 3), (9, 11, 3, 3, 1),
        (7, 7, 1, 2, 0), (6, 6, 2, 2, 3), (6, 6, 3, 2, 5), (10, 7, 5, 3, 2), (6, 6, 3, 1, 4)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_padded_fold(self, h, w, k, stride, padding, dtype, rng):
        oh, ow = conv_out_size(h, k, stride, padding), conv_out_size(w, k, stride, padding)
        dcols = rng.standard_normal((3, k, k, oh, ow, 4)).astype(dtype)
        got = _fold(dcols, h, w, stride, padding)
        want = padded_fold(dcols, h, w, stride, padding)
        assert got.flags.c_contiguous and got.shape == (3, h, w, 4)
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()

    def test_strided_input_gradient_owns_its_memory(self, rng):
        x, weight, dy = layout_operands(rng, 16, 2, 2, 1)
        dx, _, _ = conv2d_backward(batch_innermost(x), weight, batch_innermost(dy), 2, 1, True)
        assert dx.base.flags.c_contiguous and dx.base.shape == (2, LAYOUT_H, LAYOUT_W, 16)


class TestGlobalPoolMean:
    @pytest.mark.parametrize("shape", [(3, 5, 4, 3), (16, 64, 4, 4), (2, 3, 16, 16),
                                       (1, 4, 25, 25)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("order", ["batch_major", "batch_innermost"])
    def test_bitwise_equal_to_mean(self, shape, dtype, order, rng):
        x = rng.normal(size=shape).astype(dtype)
        src = batch_innermost(x) if order == "batch_innermost" else x
        got = np.ascontiguousarray(global_pool_forward(src))
        assert got.dtype == dtype
        assert got.tobytes() == x.mean(axis=(2, 3)).tobytes()
