"""Backprop through time against finite differences, in every network mode.

The relaxed forward replaces the Heaviside step with the smooth surrogate,
so the network becomes exactly differentiable and the shared backward code
must match central finite differences. In spike mode the same code is a
surrogate-gradient estimator; there we check structure, not FD agreement.
"""

import numpy as np
import pytest

from evsnn.nn import (
    IF,
    SEW,
    Accumulator,
    AvgPool,
    Classifier,
    Conv2d,
    GlobalPool,
    NetworkConfig,
    backward,
    forward,
    init_params,
    softmax,
)
from evsnn.nn.train import _batch_grads, cross_entropy


def small_config(g="add", reset="subtract", input_timing="same_step",
                 theta=1.0, bias=True, pool=False):
    layers = [Conv2d(2, 3, k=3, stride=2, padding=1, bias=bias), IF(theta)]
    if pool:
        layers += [AvgPool(2)]
    layers += [SEW(3, g=g, theta=theta, bias=bias), GlobalPool(), IF(theta),
               Accumulator(3), Classifier(2, bias=bias)]
    return NetworkConfig(time_steps=3, height=8, width=8, layers=tuple(layers),
                         reset=reset, input_timing=input_timing)


def fd_check(config, params, x, labels, eps=1e-5, grads=None):
    """Max norm-relative error between BPTT (``grads``, by default one
    backward pass over the whole batch) and central differences."""
    def loss():
        logits, _ = forward(config, params, x, mode="relaxed")
        return cross_entropy(logits, labels)

    if grads is None:
        _, trace = forward(config, params, x, mode="relaxed")
        grads = backward(config, params, trace, labels)
    worst = 0.0
    for name, w in params.items():
        fd = np.zeros_like(w)
        flat, fdf = w.reshape(-1), fd.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            up = loss()
            flat[i] = keep - eps
            dn = loss()
            flat[i] = keep
            fdf[i] = (up - dn) / (2 * eps)
        denom = max(np.linalg.norm(fd), 1e-12)
        worst = max(worst, np.linalg.norm(grads[name] - fd) / denom)
    return worst


@pytest.fixture
def xy(rng):
    def make(config, batch=2, density=0.4):
        shape = (batch, config.time_steps, config.in_channels,
                 config.height, config.width)
        x = (rng.random(shape) < density).astype(np.float64)
        labels = rng.integers(0, config.classifier.classes, size=batch)
        return x, labels
    return make


class TestFiniteDifferences:
    @pytest.mark.parametrize("reset", ["subtract", "zero"])
    @pytest.mark.parametrize("timing", ["same_step", "delayed"])
    def test_reset_and_timing_modes(self, reset, timing, xy):
        config = small_config(reset=reset, input_timing=timing)
        params = init_params(config, seed=10, dtype=np.float64)
        x, labels = xy(config)
        assert fd_check(config, params, x, labels) < 1e-4

    @pytest.mark.parametrize("g", ["and", "iand"])
    def test_junctions(self, g, xy):
        config = small_config(g=g)
        params = init_params(config, seed=11, dtype=np.float64)
        x, labels = xy(config)
        assert fd_check(config, params, x, labels) < 1e-4

    def test_biasless(self, xy):
        config = small_config(bias=False)
        params = init_params(config, seed=12, dtype=np.float64)
        x, labels = xy(config)
        assert fd_check(config, params, x, labels) < 1e-4

    def test_with_avg_pool_and_mixed_theta(self, xy):
        config = small_config(pool=True, theta=0.7)
        params = init_params(config, seed=13, dtype=np.float64)
        x, labels = xy(config)
        assert fd_check(config, params, x, labels) < 1e-4

    @pytest.mark.parametrize("batch", [3, 4])
    def test_training_step_halves(self, xy, batch):
        # a training step's gradient: its halves' gradients, each over the
        # whole batch's size, added
        config = small_config()
        params = init_params(config, seed=15, dtype=np.float64)
        x, labels = xy(config, batch=batch)
        grads = _batch_grads(config, params, x, labels, "relaxed")[1]
        assert fd_check(config, params, x, labels, grads=grads) < 1e-4

    def test_passthrough(self, xy):
        config = NetworkConfig(time_steps=2, height=2, width=2,
                               layers=(Accumulator(8), Classifier(3)))
        params = init_params(config, seed=14, dtype=np.float64)
        x, labels = xy(config, batch=3)
        assert fd_check(config, params, x, labels) < 1e-10


class TestDenseTwin:
    def test_fd(self, rng):
        config = small_config()
        params = init_params(config, seed=20, dtype=np.float64, kind="dense")
        x = (rng.random((2, 3, 2, 8, 8)) < 0.4).astype(np.float64)
        labels = np.array([0, 1])

        def loss():
            logits, _ = forward(config, params, x, mode="dense")
            return cross_entropy(logits, labels)

        _, trace = forward(config, params, x, mode="dense")
        grads = backward(config, params, trace, labels)
        eps = 1e-6
        worst = 0.0
        for name, w in params.items():
            fd = np.zeros_like(w)
            flat, fdf = w.reshape(-1), fd.reshape(-1)
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + eps
                up = loss()
                flat[i] = keep - eps
                dn = loss()
                flat[i] = keep
                fdf[i] = (up - dn) / (2 * eps)
            denom = max(np.linalg.norm(fd), 1e-12)
            worst = max(worst, np.linalg.norm(grads[name] - fd) / denom)
        assert worst < 1e-4


class TestSpikeModeStructure:
    def test_grad_keys_and_shapes(self, rng):
        config = small_config()
        params = init_params(config, seed=30)
        x = (rng.random((2, 3, 2, 8, 8)) < 0.4).astype(np.float32)
        _, trace = forward(config, params, x)
        grads = backward(config, params, trace, np.array([0, 1]))
        assert set(grads) == set(params)
        for name in params:
            assert grads[name].shape == params[name].shape
            assert np.isfinite(grads[name]).all()

    def test_deterministic(self, rng):
        config = small_config()
        params = init_params(config, seed=31)
        x = (rng.random((2, 3, 2, 8, 8)) < 0.4).astype(np.float32)
        _, trace = forward(config, params, x)
        a = backward(config, params, trace, np.array([1, 0]))
        b = backward(config, params, trace, np.array([1, 0]))
        assert all(a[k].tobytes() == b[k].tobytes() for k in a)

    def test_record_false_cannot_backprop(self, rng):
        config = small_config()
        params = init_params(config, seed=32)
        x = (rng.random((1, 3, 2, 8, 8)) < 0.4).astype(np.float32)
        _, trace = forward(config, params, x, record=False)
        with pytest.raises(ValueError, match="record"):
            backward(config, params, trace, np.array([0]))


class TestDeadInput:
    """All-zero input: weight gradients vanish (every synaptic input is
    zero) but bias gradients survive through the surrogate at -theta."""

    def test_weight_grads_zero_bias_grads_alive(self):
        config = small_config()
        params = init_params(config, seed=40, dtype=np.float64)
        x = np.zeros((2, 3, 2, 8, 8))
        # shared label: per-sample gradients must not cancel across the batch
        labels = np.array([0, 0])
        _, trace = forward(config, params, x)
        grads = backward(config, params, trace, labels)
        for name, g in grads.items():
            if name.endswith(".weight"):
                assert not g.any(), name
            else:
                assert g.any(), name

    def test_classifier_grad_is_softmax_minus_onehot(self):
        config = small_config()
        params = init_params(config, seed=41, dtype=np.float64)
        x = np.zeros((4, 3, 2, 8, 8))
        labels = np.array([0, 1, 0, 1])
        logits, trace = forward(config, params, x)
        grads = backward(config, params, trace, labels)
        dlogits = softmax(logits)
        dlogits[np.arange(4), labels] -= 1.0
        dlogits /= 4
        np.testing.assert_allclose(grads["06.cls.bias"], dlogits.sum(axis=0),
                                   rtol=1e-12, atol=1e-15)


class TestDegenerateLinear:
    def test_matches_linear_classifier_gradient(self, rng):
        # passthrough net at T=1: gradient must equal the textbook
        # linear-softmax formulas exactly
        config = NetworkConfig(time_steps=1, height=2, width=2,
                               layers=(Accumulator(8), Classifier(3)))
        params = init_params(config, seed=50, dtype=np.float64)
        x = (rng.random((5, 1, 2, 2, 2)) < 0.5).astype(np.float64)
        labels = rng.integers(0, 3, size=5)
        logits, trace = forward(config, params, x)
        grads = backward(config, params, trace, labels)

        flat = x.reshape(5, 8)
        acc = flat @ params["00.acc.weight"].T
        dlogits = softmax(logits)
        dlogits[np.arange(5), labels] -= 1.0
        dlogits /= 5
        np.testing.assert_allclose(grads["01.cls.weight"], dlogits.T @ acc,
                                   rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(grads["01.cls.bias"], dlogits.sum(axis=0),
                                   rtol=1e-12, atol=1e-15)
        dacc = dlogits @ params["01.cls.weight"]
        np.testing.assert_allclose(grads["00.acc.weight"], dacc.T @ flat,
                                   rtol=1e-12, atol=1e-15)


class TestDenseRule:
    """The dense twin is one step on the time-folded input with ReLU sites.
    Site timing, reset rule and SEW join belong to the spiking model and must
    not reach it: a delayed site at one step would see only zeros."""

    @pytest.mark.parametrize("spiking_only", [
        dict(input_timing="delayed"), dict(reset="zero"), dict(g="and"),
        dict(g="iand"), dict(input_timing="delayed", reset="zero", g="iand")])
    def test_spiking_settings_leave_twin_unchanged(self, spiking_only, rng):
        base, other = small_config(), small_config(**spiking_only)
        params = init_params(base, seed=21, dtype=np.float64, kind="dense")
        x = (rng.random((2, 3, 2, 8, 8)) < 0.4).astype(np.float64)
        labels = np.array([0, 1])
        want_logits, want_trace = forward(base, params, x, mode="dense")
        got_logits, got_trace = forward(other, params, x, mode="dense")
        assert got_trace.time_steps == 1
        np.testing.assert_array_equal(got_logits, want_logits)
        want = backward(base, params, want_trace, labels)
        got = backward(other, params, got_trace, labels)
        assert set(got) == set(params)
        for name in want:
            np.testing.assert_array_equal(got[name], want[name])
