"""Network config validation, forward semantics, accumulation, JSON."""

import contextlib
import functools
import json
import os
import platform
import subprocess
import sys
import signal
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evsnn
from evsnn import _blas, _heap, _helper
from evsnn._schema import canonical
from evsnn.energy import estimate_from_traces
from evsnn.events import voxelize_set
from evsnn.nn import (
    IF,
    SEW,
    Accumulator,
    AvgPool,
    Classifier,
    ConfigError,
    Conv2d,
    GlobalPool,
    NetworkConfig,
    accumulate,
    config_from_json,
    config_to_json,
    forward,
    init_params,
    sew18,
    sew_tiny,
    softmax,
)
from evsnn.nn import network
from evsnn.nn.layers import avg_pool_forward, conv_out_size
from evsnn.synth import SynthParams, generate_dataset
from conftest import logging_pids


def tiny_config(classes=3, time_steps=3, g="add", **kw):
    """Conv -> IF -> SEW -> GlobalPool -> IF head on an 8x8 sensor."""
    return NetworkConfig(
        time_steps=time_steps, height=8, width=8,
        layers=(
            Conv2d(2, 4, k=3, stride=2, padding=1), IF(),
            SEW(4, g=g),
            GlobalPool(), IF(),
            Accumulator(4),
            Classifier(classes),
        ), **kw)


def passthrough_config(classes=2, time_steps=6, height=1, width=1):
    """No encoder: the accumulator sees the flattened event tensor itself."""
    d = 2 * height * width
    return NetworkConfig(time_steps=time_steps, height=height, width=width,
                         layers=(Accumulator(d), Classifier(classes)))


def binary_input(rng, config, batch=2, density=0.3):
    shape = (batch, config.time_steps, config.in_channels,
             config.height, config.width)
    return (rng.random(shape) < density).astype(np.uint8)


class TestConfigValidation:
    def test_builders_validate(self):
        assert sew_tiny(4).feature_dim == 64
        assert sew18(10).feature_dim == 512

    def test_missing_head(self):
        with pytest.raises(ConfigError, match="Accumulator then Classifier"):
            NetworkConfig(time_steps=1, height=4, width=4,
                          layers=(Conv2d(2, 4), IF()))

    def test_head_in_middle(self):
        with pytest.raises(ConfigError, match="only allowed at the end"):
            NetworkConfig(time_steps=1, height=1, width=1,
                          layers=(Accumulator(2), Accumulator(2), Classifier(2)))

    def test_channel_mismatch(self):
        with pytest.raises(ConfigError, match="expects 3 channels"):
            NetworkConfig(time_steps=1, height=4, width=4,
                          layers=(Conv2d(3, 4), IF(), GlobalPool(),
                                  Accumulator(4), Classifier(2)))

    def test_spatial_collapse(self):
        with pytest.raises(ConfigError, match="collapses"):
            NetworkConfig(time_steps=1, height=2, width=2,
                          layers=(Conv2d(2, 4, k=3, stride=4, padding=0), IF(),
                                  GlobalPool(), Accumulator(4), Classifier(2)))

    def test_sew_channel_mismatch(self):
        with pytest.raises(ConfigError, match="expects"):
            NetworkConfig(time_steps=1, height=4, width=4,
                          layers=(Conv2d(2, 4), IF(), SEW(8), GlobalPool(),
                                  Accumulator(4), Classifier(2)))

    def test_sew_bad_junction(self):
        with pytest.raises(ConfigError, match="g must be"):
            tiny_config(g="xor")

    def test_sew_even_kernel(self):
        # padding k // 2 would grow the map by one pixel and break the join
        with pytest.raises(ConfigError, match="k must be odd"):
            NetworkConfig(time_steps=1, height=4, width=4,
                          layers=(Conv2d(2, 4), IF(), SEW(4, k=2), GlobalPool(),
                                  Accumulator(4), Classifier(2)))

    def test_pool_does_not_tile(self):
        with pytest.raises(ConfigError, match="does not tile"):
            NetworkConfig(time_steps=1, height=5, width=5,
                          layers=(Conv2d(2, 4, stride=1), IF(), AvgPool(2),
                                  GlobalPool(), Accumulator(4), Classifier(2)))

    def test_accumulator_dim_mismatch(self):
        with pytest.raises(ConfigError, match="accumulator dim"):
            NetworkConfig(time_steps=1, height=4, width=4,
                          layers=(Conv2d(2, 4), IF(), GlobalPool(),
                                  Accumulator(8), Classifier(2)))

    def test_features_must_be_vector(self):
        with pytest.raises(ConfigError, match="vector features"):
            NetworkConfig(time_steps=1, height=4, width=4,
                          layers=(Conv2d(2, 4), IF(),
                                  Accumulator(64), Classifier(2)))

    def test_bad_scalar_fields(self):
        with pytest.raises(ConfigError, match="time_steps"):
            passthrough_config(time_steps=0)
        with pytest.raises(ConfigError, match="reset"):
            tiny_config(reset="leak")
        with pytest.raises(ConfigError, match="input_timing"):
            tiny_config(input_timing="future")
        with pytest.raises(ConfigError, match="theta"):
            NetworkConfig(time_steps=1, height=4, width=4,
                          layers=(Conv2d(2, 4), IF(theta=0.0), GlobalPool(),
                                  Accumulator(4), Classifier(2)))

    @pytest.mark.parametrize("theta", [0.0, -1.0, float("nan")])
    def test_sew_theta_must_be_positive(self, theta):
        with pytest.raises(ConfigError, match=r"^layer 2 \(SEW\): theta must be > 0, got "):
            NetworkConfig(time_steps=1, height=4, width=4,
                          layers=(Conv2d(2, 4), IF(), SEW(4, theta=theta), GlobalPool(),
                                  IF(), Accumulator(4), Classifier(2)))

    @pytest.mark.parametrize("layer, message", [
        (Conv2d(4, 4), "layer 3 (Conv2d): needs (C,H,W) input, got (4,)"),
        (SEW(4), "layer 3 (SEW): expects (4,H,W), got (4,)"),
        (AvgPool(2), "layer 3 (AvgPool): window 2 does not tile (4,)"),
        (GlobalPool(), "layer 3 (GlobalPool): needs (C,H,W) input, got (4,)"),
    ])
    def test_layer_after_global_pool(self, layer, message):
        # each kind keeps its own check and message for a vector input
        with pytest.raises(ConfigError) as err:
            NetworkConfig(time_steps=1, height=4, width=4,
                          layers=(Conv2d(2, 4), IF(), GlobalPool(), layer, IF(),
                                  Accumulator(4), Classifier(2)))
        assert str(err.value) == message

    def test_unsupported_layer_kind(self):
        @dataclass(frozen=True)
        class MaxPool:
            window: int = 2

        with pytest.raises(ConfigError) as err:
            NetworkConfig(time_steps=1, height=4, width=4,
                          layers=(Conv2d(2, 4), IF(), MaxPool(), GlobalPool(),
                                  Accumulator(4), Classifier(2)))
        assert str(err.value) == "layer 2 (MaxPool): unsupported layer kind"

    @pytest.mark.parametrize("field", ["time_steps", "height", "width"])
    def test_sizes_at_most_u16(self, field):
        with pytest.raises(ConfigError, match=f"network config: {field} must be <= 65535"):
            passthrough_config(**{field: 0x10000})


class TestInitParams:
    def test_keys_and_shapes(self):
        config = tiny_config()
        params = init_params(config, seed=0)
        assert set(params) == {
            "00.conv.weight", "00.conv.bias",
            "02.sew.conv1.weight", "02.sew.conv1.bias",
            "02.sew.conv2.weight", "02.sew.conv2.bias",
            "05.acc.weight",
            "06.cls.weight", "06.cls.bias",
        }
        assert params["00.conv.weight"].shape == (4, 2, 3, 3)
        assert params["05.acc.weight"].shape == (4, 4)
        assert params["06.cls.weight"].shape == (3, 4)

    def test_biases_zero_weights_bounded(self):
        params = init_params(tiny_config(), seed=1)
        assert not params["00.conv.bias"].any()
        bound = np.sqrt(6.0 / (2 * 9))
        w = params["00.conv.weight"]
        assert np.abs(w).max() <= bound

    def test_seeded(self):
        a = init_params(tiny_config(), seed=5)
        b = init_params(tiny_config(), seed=5)
        c = init_params(tiny_config(), seed=6)
        assert all(np.array_equal(a[k], b[k]) for k in a)
        assert any(not np.array_equal(a[k], c[k]) for k in a)

    def test_dense_widens_first_conv(self):
        config = tiny_config(time_steps=4)
        params = init_params(config, seed=0, kind="dense")
        assert params["00.conv.weight"].shape == (4, 8, 3, 3)

    def test_bad_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            init_params(tiny_config(), seed=0, kind="hybrid")


class TestForward:
    def test_silence_gives_bias(self, rng):
        config = tiny_config()
        params = init_params(config, seed=0)
        params["06.cls.bias"] = rng.normal(size=3).astype(np.float32)
        x = np.zeros((2, 3, 2, 8, 8), dtype=np.uint8)
        logits, trace = forward(config, params, x)
        np.testing.assert_allclose(logits,
                                   np.tile(params["06.cls.bias"], (2, 1)))
        assert not trace.features.any()
        assert not trace.accumulated.any()

    def test_features_binary(self, rng):
        config = tiny_config()
        params = init_params(config, seed=2)
        _, trace = forward(config, params, binary_input(rng, config))
        assert set(np.unique(trace.features)) <= {0.0, 1.0}

    def test_deterministic(self, rng):
        config = tiny_config()
        params = init_params(config, seed=3)
        x = binary_input(rng, config)
        a, _ = forward(config, params, x)
        b, _ = forward(config, params, x)
        assert a.tobytes() == b.tobytes()

    def test_spike_counts_match_caches(self, rng):
        config = tiny_config()
        params = init_params(config, seed=4)
        x = binary_input(rng, config, batch=3)
        _, trace = forward(config, params, x)
        # recount: IF at layer 1 caches (v, spikes); SEW at 2 caches
        # (x_in, v1, s1, v2, s2); IF at 4 caches (v, spikes)
        by_site = {"01": 0.0, "02a": 0.0, "02b": 0.0, "04": 0.0}
        for step in trace.caches:
            by_site["01"] += step[1][1].sum()
            by_site["02a"] += step[2][2].sum()
            by_site["02b"] += step[2][4].sum()
            by_site["04"] += step[4][1].sum()
        for site, count in by_site.items():
            assert trace.spike_counts[site] == count
        assert trace.synaptic_inputs["00.conv"] == (x.sum(), 2 * 8 * 8)
        assert set(trace.spike_counts) == {"01", "02a", "02b", "04"}

    def test_record_false_matches(self, rng):
        config = tiny_config()
        params = init_params(config, seed=5)
        x = binary_input(rng, config)
        a, ta = forward(config, params, x, record=True)
        b, tb = forward(config, params, x, record=False)
        np.testing.assert_array_equal(a, b)
        assert ta.caches is not None
        assert tb.caches is None

    def test_shape_mismatch(self):
        config = tiny_config()
        params = init_params(config, seed=0)
        with pytest.raises(ConfigError, match="does not match"):
            forward(config, params, np.zeros((3, 2, 4, 4), dtype=np.uint8))

    @pytest.mark.parametrize("record", [True, False])
    def test_empty_batch(self, record):
        # an empty batch ended in IndexError at the first conv's input size
        config = tiny_config()
        params = init_params(config, seed=0)
        with pytest.raises(ConfigError, match="at least one sample"):
            forward(config, params, np.zeros((0, 3, 2, 8, 8), dtype=np.uint8), record=record)

    def test_unbatched_input(self, rng):
        config = tiny_config()
        params = init_params(config, seed=6)
        x = binary_input(rng, config, batch=1)
        a, _ = forward(config, params, x)
        b, _ = forward(config, params, x[0])
        np.testing.assert_array_equal(a, b)

    def test_junction_modes_differ(self, rng):
        x = None
        logits = {}
        for g in ("add", "and", "iand"):
            config = tiny_config(g=g)
            params = init_params(config, seed=7)
            if x is None:
                x = binary_input(rng, config, density=0.6)
            logits[g], _ = forward(config, params, x)
        assert not np.allclose(logits["add"], logits["and"])
        assert not np.allclose(logits["and"], logits["iand"])

    def test_delayed_timing_shifts_features(self):
        # single IF encoder on a 1x1 sensor: delayed features are the
        # same-step features shifted one step right, zero-padded in front
        base = dict(time_steps=4, height=1, width=1,
                    layers=(IF(), Accumulator(2), Classifier(2)))
        same = NetworkConfig(**base)
        late = NetworkConfig(**base, input_timing="delayed")
        params = init_params(same, seed=0)
        x = np.array([[[[1]], [[0]]], [[[0]], [[1]]],
                      [[[1]], [[1]]], [[[0]], [[0]]]], dtype=np.uint8)
        _, ts = forward(same, params, x)
        _, tl = forward(late, params, x)
        np.testing.assert_array_equal(ts.features[0, :3], tl.features[0, 1:])
        assert not tl.features[0, 0].any()


class TestAccumulate:
    def test_identity_weight_counts_steps(self):
        # constant e1 feature over 6 steps with identity weights -> 6 * e1
        d, t_steps = 4, 6
        f = np.zeros((t_steps, d))
        f[:, 1] = 1.0
        out = accumulate(f, np.eye(d))
        np.testing.assert_array_equal(out, [0.0, 6.0, 0.0, 0.0])

    def test_doubling_steps_doubles(self, rng):
        f = (rng.random((1, 5, 4)) < 0.5).astype(float)
        w = rng.normal(size=(4, 4))
        once = accumulate(f, w)
        twice = accumulate(np.concatenate([f, f], axis=1), w)
        np.testing.assert_allclose(twice, 2 * once, rtol=1e-12)

    def test_matches_loop_oracle(self, rng):
        f = (rng.random((3, 7, 5)) < 0.4).astype(float)
        w = rng.normal(size=(6, 5))
        want = np.zeros((3, 6))
        for b in range(3):
            for t in range(7):
                want[b] += w @ f[b, t]
        np.testing.assert_allclose(accumulate(f, w), want, rtol=1e-12)

    def test_trivials(self, rng):
        w = rng.normal(size=(4, 4))
        assert not accumulate(np.zeros((3, 4)), w).any()
        f1 = (rng.random((1, 4)) < 0.5).astype(float)
        np.testing.assert_allclose(accumulate(f1, w), w @ f1[0], rtol=1e-12)

    def test_forward_uses_same_rule(self, rng):
        config = tiny_config()
        params = init_params(config, seed=8)
        _, trace = forward(config, params, binary_input(rng, config))
        want = accumulate(trace.features.astype(np.float64),
                          params["05.acc.weight"].astype(np.float64))
        np.testing.assert_allclose(trace.accumulated, want, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("mode", ["spike", "relaxed", "dense"])
    def test_forward_calls_accumulate(self, mode, rng):
        # forward runs the accumulator through accumulate() itself, so the
        # two agree to the last bit
        config = tiny_config()
        params = init_params(config, seed=8, kind="dense" if mode == "dense" else "spiking")
        _, trace = forward(config, params, binary_input(rng, config), mode=mode)
        want = accumulate(trace.features, params["05.acc.weight"])
        assert trace.accumulated.tobytes() == want.tobytes()

    def test_passthrough_identity_network(self):
        # no encoder, identity accumulator: the network literally counts
        # active input pixels per position
        config = passthrough_config(classes=2, time_steps=6)
        params = init_params(config, seed=0)
        params["00.acc.weight"] = np.eye(2, dtype=np.float32)
        x = np.zeros((6, 2, 1, 1), dtype=np.uint8)
        x[:, 0] = 1  # e1 at every step
        _, trace = forward(config, params, x)
        np.testing.assert_array_equal(trace.accumulated, [[6.0, 0.0]])
        double = passthrough_config(classes=2, time_steps=12)
        params12 = init_params(double, seed=0)
        params12["00.acc.weight"] = np.eye(2, dtype=np.float32)
        _, trace12 = forward(double, params12, np.tile(x, (2, 1, 1, 1)))
        np.testing.assert_array_equal(trace12.accumulated, 2 * trace.accumulated)


class TestDegenerateLinear:
    def test_logits_are_plain_linear(self, rng):
        # passthrough encoder at T=1 is an ordinary two-layer linear map
        config = passthrough_config(classes=3, time_steps=1, height=2, width=2)
        params = init_params(config, seed=1)
        params["01.cls.bias"] = rng.normal(size=3).astype(np.float32)
        x = (rng.random((4, 1, 2, 2, 2)) < 0.5).astype(np.uint8)
        logits, _ = forward(config, params, x)
        flat = x.reshape(4, 8).astype(np.float64)
        want = flat @ params["00.acc.weight"].T.astype(np.float64)
        want = want @ params["01.cls.weight"].T + params["01.cls.bias"]
        np.testing.assert_allclose(logits, want, rtol=1e-5, atol=1e-6)


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        z = rng.normal(size=(5, 7)) * 10
        p = softmax(z)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=1e-12)
        assert (p > 0).all()

    def test_shift_invariant(self, rng):
        z = rng.normal(size=(2, 4))
        np.testing.assert_allclose(softmax(z), softmax(z + 100.0), rtol=1e-12)

    def test_no_overflow(self):
        p = softmax(np.array([[1000.0, 0.0]]))
        np.testing.assert_allclose(p, [[1.0, 0.0]], atol=1e-12)


class TestConfigJson:
    def test_roundtrip_builders(self):
        for config in (sew_tiny(4), sew_tiny(2, height=32, width=32, g="iand"),
                       tiny_config(reset="zero", input_timing="delayed")):
            again = config_from_json(config_to_json(config))
            assert again == config

    def test_doc_survives_json_text(self):
        import json
        config = sew_tiny(4)
        text = json.dumps(config_to_json(config), sort_keys=True)
        assert config_from_json(json.loads(text)) == config

    def test_unknown_layer_kind(self):
        doc = config_to_json(passthrough_config())
        doc["layers"].insert(0, {"kind": "maxpool"})
        with pytest.raises(ConfigError, match="unknown kind"):
            config_from_json(doc)

    def test_unknown_layer_key_rejected(self):
        doc = config_to_json(passthrough_config())
        doc["layers"][0]["gain"] = 2.0
        with pytest.raises(ConfigError, match="unknown keys"):
            config_from_json(doc)

    def test_unknown_top_key_rejected(self):
        doc = config_to_json(passthrough_config())
        doc["dropout"] = 0.5
        with pytest.raises(ConfigError, match=r"network config: unknown keys \['dropout'\]"):
            config_from_json(doc)


class TestDenseParams:
    def test_sew_tiny_dense_tensors_pinned(self):
        # dense checkpoints share the on-disk format: same names and order as
        # the spiking model, only the first conv takes the 2*T folded frames
        dense = init_params(sew_tiny(4), seed=0, kind="dense")
        assert [(name, p.shape) for name, p in dense.items()] == [
            ("00.conv.weight", (16, 12, 3, 3)), ("00.conv.bias", (16,)),
            ("03.sew.conv1.weight", (16, 16, 3, 3)), ("03.sew.conv1.bias", (16,)),
            ("03.sew.conv2.weight", (16, 16, 3, 3)), ("03.sew.conv2.bias", (16,)),
            ("04.conv.weight", (32, 16, 3, 3)), ("04.conv.bias", (32,)),
            ("06.sew.conv1.weight", (32, 32, 3, 3)), ("06.sew.conv1.bias", (32,)),
            ("06.sew.conv2.weight", (32, 32, 3, 3)), ("06.sew.conv2.bias", (32,)),
            ("07.conv.weight", (64, 32, 3, 3)), ("07.conv.bias", (64,)),
            ("09.sew.conv1.weight", (64, 64, 3, 3)), ("09.sew.conv1.bias", (64,)),
            ("09.sew.conv2.weight", (64, 64, 3, 3)), ("09.sew.conv2.bias", (64,)),
            ("12.acc.weight", (64, 64)),
            ("13.cls.weight", (4, 64)), ("13.cls.bias", (4,)),
        ]
        spiking = init_params(sew_tiny(4), seed=0)
        assert list(spiking) == list(dense)
        assert spiking["00.conv.weight"].shape == (16, 2, 3, 3)


def mixed_config():
    """conv -> AvgPool -> IF, conv -> conv -> IF, then a k=1 SEW without bias."""
    return NetworkConfig(
        time_steps=2, height=16, width=16,
        layers=(
            Conv2d(2, 8), AvgPool(2), IF(),
            Conv2d(8, 8, k=3, stride=2, padding=1, bias=False),
            Conv2d(8, 12, k=1, padding=0), IF(),
            SEW(12, k=1, bias=False),
            GlobalPool(), IF(),
            Accumulator(12),
            Classifier(3),
        ))


class TestConvWalk:
    """Every conv is described once: init, the energy listing, forward and
    backward all walk the same (name, conv, output, site) list."""

    def sites(self, config, kind="spiking"):
        return {lay.name: lay.out_site for lay in network.synaptic_layers(config, kind)}

    @pytest.mark.parametrize("kind", ["spiking", "dense"])
    def test_conv_feeds_the_if_after_a_pool(self, kind):
        assert self.sites(mixed_config(), kind)["00.conv"] == "02"

    @pytest.mark.parametrize("kind", ["spiking", "dense"])
    def test_conv_into_conv_feeds_no_site(self, kind):
        sites = self.sites(mixed_config(), kind)
        assert sites["03.conv"] is None
        assert sites["04.conv"] == "05"

    def test_sew_stages_feed_their_own_sites(self):
        sites = self.sites(mixed_config())
        assert (sites["06.sew.conv1"], sites["06.sew.conv2"]) == ("06a", "06b")
        tiny = self.sites(sew_tiny(4))
        for tag in ("03", "06", "09"):
            assert (tiny[f"{tag}.sew.conv1"], tiny[f"{tag}.sew.conv2"]) == \
                (f"{tag}a", f"{tag}b")
        assert (tiny["00.conv"], tiny["04.conv"], tiny["07.conv"]) == ("01", "05", "08")

    def test_mixed_listing_pinned(self):
        assert [(lay.name, lay.op, lay.k, lay.out_h, lay.out_w, lay.c_in, lay.c_out)
                for lay in network.synaptic_layers(mixed_config())] == [
            ("00.conv", "conv", 3, 16, 16, 2, 8),
            ("03.conv", "conv", 3, 4, 4, 8, 8),
            ("04.conv", "conv", 1, 4, 4, 8, 12),
            ("06.sew.conv1", "conv", 1, 4, 4, 12, 12),
            ("06.sew.conv2", "conv", 1, 4, 4, 12, 12),
            ("09.acc", "linear", 1, 1, 1, 12, 12),
            ("10.cls", "linear", 1, 1, 1, 12, 3),
        ]

    def test_last_conv_to_one_pixel(self):
        config = NetworkConfig(time_steps=1, height=4, width=4,
                               layers=(Conv2d(2, 5, k=4, padding=0),
                                       Accumulator(5), Classifier(2)))
        conv = network.synaptic_layers(config)[0]
        assert (conv.out_h, conv.out_w, conv.c_out, conv.out_site) == (1, 1, 5, None)

    def test_mixed_init_pinned(self):
        params = init_params(mixed_config(), seed=0)
        assert [(name, p.shape) for name, p in params.items()] == [
            ("00.conv.weight", (8, 2, 3, 3)), ("00.conv.bias", (8,)),
            ("03.conv.weight", (8, 8, 3, 3)),
            ("04.conv.weight", (12, 8, 1, 1)), ("04.conv.bias", (12,)),
            ("06.sew.conv1.weight", (12, 12, 1, 1)),
            ("06.sew.conv2.weight", (12, 12, 1, 1)),
            ("09.acc.weight", (12, 12)),
            ("10.cls.weight", (3, 12)), ("10.cls.bias", (3,)),
        ]
        dense = init_params(mixed_config(), seed=0, kind="dense")
        assert list(dense) == list(params)
        assert dense["00.conv.weight"].shape == (8, 4, 3, 3)


class TestKeepHeap:
    """forward asks the C allocator, once per process, to keep freed trace
    memory instead of trimming it back to the kernel."""

    @pytest.fixture(autouse=True)
    def fresh_helper(self):
        _heap.keep_heap.cache_clear()
        yield
        _heap.keep_heap.cache_clear()  # the next forward sets the real one

    @pytest.fixture
    def net(self, rng):
        config = tiny_config()
        return config, init_params(config, seed=0), binary_input(rng, config)

    def test_set_once_per_process(self, net, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(_heap.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
        forward(*net)
        forward(*net)
        assert calls == [(_heap.M_TOP_PAD, 64 << 20), (_heap.M_MMAP_THRESHOLD, 32 << 20)]

    @pytest.mark.parametrize("libc", ["no_symbol", "no_library"])
    def test_no_op_without_mallopt(self, net, monkeypatch, libc):
        def cdll(name):
            if libc == "no_library":
                raise OSError("no C library")
            return SimpleNamespace()  # a libc without mallopt, as on macOS

        want = forward(*net)[0]
        _heap.keep_heap.cache_clear()
        monkeypatch.setattr(_heap.ctypes, "CDLL", cdll)
        assert _heap.keep_heap() is False
        assert forward(*net)[0].tobytes() == want.tobytes()

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="needs glibc mallopt")
    def test_takes_on_glibc(self):
        assert _heap.keep_heap() is True

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="needs glibc mallopt")
    def test_large_blocks_reuse_the_heap(self):
        # a fresh interpreter, so no earlier free has raised glibc's mmap
        # threshold: without the pinned threshold every 324 KiB array below
        # is mmapped and its 81 pages faulted in again on each allocation
        script = """
import resource
import numpy as np
from evsnn._heap import keep_heap

assert keep_heap()

def allocate():
    return float((np.zeros(331_776 // 8) + 1.0)[-1])

allocate()  # the first allocation faults the heap pages in once
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(200):
    allocate()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
        src = Path(evsnn.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 200


def batch_innermost_input(x):
    """(B, T, C, H, W) values over (T, C, H, W, B) memory, as train() builds them."""
    return np.ascontiguousarray(x.transpose(1, 2, 3, 4, 0)).transpose(4, 0, 1, 2, 3)


class TestBatchInnermostActivations:
    """The encoder keeps its activations batch-innermost from the first
    conv's input on; the input's own memory order changes no value."""

    @pytest.fixture(scope="class")
    def batch(self):
        rng = np.random.default_rng(21)
        x = (rng.random((16, 6, 2, 64, 64)) < 0.05).astype(np.uint8)
        return x, rng.integers(0, 4, 16)

    @pytest.mark.parametrize("g", ["add", "and", "iand"])
    def test_cached_activations_are_batch_innermost(self, batch, g):
        config = sew_tiny(4, theta=0.5, g=g)
        _, trace = forward(config, init_params(config, 2), batch[0])
        cached = [a for step in trace.caches for entry in step for a in entry
                  if isinstance(a, np.ndarray)]
        # per step: 3 conv inputs, 3 IF (v, spikes), 3 SEW (x, v1, s1, v2, s2)
        # and the head IF (v, spikes)
        assert len(cached) == config.time_steps * (3 + 6 + 15 + 2)
        for a in cached:
            assert a.shape[0] == 16 and a.strides[0] == a.itemsize

    @pytest.mark.parametrize("mode", ["spike", "relaxed", "dense"])
    def test_input_order_changes_no_value(self, batch, mode):
        config = sew_tiny(4, height=32, width=32, time_steps=3, theta=0.5)
        params = init_params(config, 3, kind="dense" if mode == "dense" else "spiking")
        x = batch[0][:, :3, :, :32, :32]
        logits, trace = forward(config, params, np.ascontiguousarray(x), mode=mode)
        logits_bi, trace_bi = forward(config, params, batch_innermost_input(x), mode=mode)
        assert logits.tobytes() == logits_bi.tobytes()
        assert trace.spike_counts == trace_bi.spike_counts
        assert trace.features.tobytes() == trace_bi.features.tobytes()

    def test_every_conv_goes_through_the_module_functions(self, batch, monkeypatch):
        # the conv-parity test and the benchmark tracer swap or wrap these
        # names; a conv that bypassed them would make both vacuous
        config = sew_tiny(4, theta=0.5)
        params = init_params(config, 2)
        calls = {"forward": 0, "backward": 0}

        def counting(kind, fn):
            def wrapper(*args, **kwargs):
                calls[kind] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(network, "conv2d_forward",
                            counting("forward", network.conv2d_forward))
        monkeypatch.setattr(network, "conv2d_backward",
                            counting("backward", network.conv2d_backward))
        _, trace = forward(config, params, batch[0])
        network.backward(config, params, trace, batch[1])
        convs = [s for s in network.synaptic_layers(config) if s.op == "conv"]
        assert len(convs) == 9
        assert calls == {"forward": 9 * config.time_steps,
                         "backward": 9 * config.time_steps}


def trace_bytes(trace, batch) -> int:
    """Bytes of the arrays a trace holds, each base buffer counted once,
    the input batch left out."""
    def arrays(v):
        if isinstance(v, np.ndarray):
            yield v
        elif isinstance(v, (list, tuple)):
            for a in v:
                yield from arrays(a)
    bases = {}
    for value in vars(trace).values():
        for a in arrays(value):
            while isinstance(a.base, np.ndarray):
                a = a.base
            if not np.may_share_memory(a, batch):
                bases[id(a)] = a
    return sum(a.nbytes for a in bases.values())


class TestHeldFrames:
    """A recorded forward of uint8 frames, as voxelize_set builds them: the
    first conv reads the frames themselves and the trace keeps its uint8
    patch columns for the weight gradient, outside ``caches``."""

    @pytest.fixture(scope="class")
    def run(self):
        rng = np.random.default_rng(21)
        x = batch_innermost_input((rng.random((16, 6, 2, 64, 64)) < 0.05).astype(np.uint8))
        config = sew_tiny(4, theta=0.5)
        params = init_params(config, 2)
        return config, params, x, forward(config, params, x)[1]

    def test_first_conv_input_is_the_batch(self, run):
        _, _, x, trace = run
        for t, step in enumerate(trace.caches):
            (frame,) = step[0]
            assert frame.dtype == np.uint8 and np.shares_memory(frame, x)
            assert np.array_equal(frame, x[:, t])

    def test_columns_are_uint8_one_per_step(self, run):
        config, _, x, trace = run
        assert len(trace.columns) == config.time_steps
        for t, cols in enumerate(trace.columns):
            assert cols.dtype == np.uint8 and cols.shape == (2 * 3 * 3, 32 * 32 * 16)
            assert not np.may_share_memory(cols, x)

    def test_unrecorded_forward_keeps_no_columns(self, run):
        config, params, x, _ = run
        assert forward(config, params, x, record=False)[1].columns is None

    def test_trace_size(self, run):
        # 31.57 MiB when each step held a float32 copy of its frame and no
        # columns; a float32 copy of either on top of the kept columns fails
        assert trace_bytes(run[3], run[2]) <= 31.6 * 2**20

    def test_trace_size_with_one_byte_spikes(self, run):
        # 30.26 MiB while every spike was a float32 0.0/1.0; 20.96 with bool
        assert trace_bytes(run[3], run[2]) <= 21.0 * 2**20

    def test_trace_size_with_one_byte_maps(self, run):
        # 20.96 MiB while the pool and the joins a conv or SEW caches were
        # float32; 18.15 with their uint8 counts
        assert trace_bytes(run[3], run[2]) <= 18.2 * 2**20

    def test_batch_slice_shares_every_frame(self, run):
        # a 16-of-64 slice of a batch-innermost batch, as a recorded forward
        # of part of a voxelized set reads it: each step's frame is the
        # batch's own, where a copy per step held 0.75 MiB more
        config, params, _, whole = run
        rng = np.random.default_rng(22)
        batch = batch_innermost_input((rng.random((64, 6, 2, 64, 64)) < 0.05).astype(np.uint8))
        part = batch[16:32]
        logits, trace = forward(config, params, part)
        for t, step in enumerate(trace.caches):
            (frame,) = step[0]
            assert np.shares_memory(frame, batch) and np.array_equal(frame, part[:, t])
        assert trace_bytes(trace, batch) <= 18.2 * 2**20
        copied = forward(config, params, batch_innermost_input(part.copy()))[0]
        assert logits.tobytes() == copied.tobytes()


def spike_positions(config):
    """Per encoder layer, the positions of its cache entry that hold spikes:
    an IF's (v, spikes), a SEW's (x, v1, s1, v2, s2), and the input of a
    conv or SEW right above an IF, a conv's (x,)."""
    out, above_if = [], False
    for lay in config.encoder_layers:
        at = (0,) if above_if and isinstance(lay, (Conv2d, SEW)) else ()
        out.append((1,) if isinstance(lay, IF) else at + (2, 4) * isinstance(lay, SEW))
        above_if = isinstance(lay, IF)
    return out


def count_positions(config):
    """Per encoder layer, whether its cache entry starts with a uint8 count:
    the input of a conv or SEW right above a 2x2 pool or a SEW, in the
    configs here (grains that fit a byte)."""
    out, above = [], False
    for lay in config.encoder_layers:
        out.append(above and isinstance(lay, (Conv2d, SEW)))
        above = isinstance(lay, (AvgPool, SEW))
    return out


class TestOneByteSpikes:
    """A recorded spike-mode trace keeps each site's threshold comparison,
    a bool array, while the layers above read its float cast; backward
    reads the bool spikes with the bits their float cast gave. Relaxed and
    dense spikes stay real-valued."""

    NETS = pytest.mark.parametrize("net", ["add", "and", "iand", "if_if"])

    @staticmethod
    def config(net, reset, timing, side=16):
        """sew_tiny with SEW join ``net``, or for "if_if" a stack with an IF
        right after an IF and a conv right after that."""
        if net != "if_if":
            return sew_tiny(4, height=side, width=side, time_steps=3, theta=0.5, g=net,
                            reset=reset, input_timing=timing)
        return NetworkConfig(
            time_steps=3, height=side, width=side, reset=reset, input_timing=timing,
            layers=(Conv2d(2, 8, stride=2), IF(0.5), IF(0.25), Conv2d(8, 8), IF(0.5),
                    AvgPool(2), GlobalPool(), IF(0.25), Accumulator(8), Classifier(4)))

    @pytest.mark.parametrize("timing", ["same_step", "delayed"])
    @pytest.mark.parametrize("reset", ["subtract", "zero"])
    @NETS
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_cache_dtypes(self, net, reset, timing, dtype):
        # spike mode: bool spikes (a conv or SEW above may cache the same
        # array), the uint8 frames, uint8 counts of the 2x2 pools and SEW
        # joins a conv or SEW caches, everything else in the parameters'
        # dtype; a float spike or count cached above a site, or a float64
        # membrane at float32, fails
        config = self.config(net, reset, timing)
        x = binary_input(np.random.default_rng(3), config, batch=4, density=0.2)
        positions, counted = spike_positions(config), count_positions(config)
        for mode in ("spike", "relaxed", "dense"):
            params = init_params(config, 1, dtype, "dense" if mode == "dense" else "spiking")
            _, trace = forward(config, params, x, mode=mode)
            spikes = {id(entry[i]) for step in trace.caches
                      for entry, at in zip(step, positions) for i in at}
            counts = {id(entry[0]) for step in trace.caches
                      for entry, at in zip(step, counted) if at}
            for step in trace.caches:
                assert step[0][0].dtype == np.uint8  # the frame
                for entry in step[1:]:
                    for a in entry:
                        if isinstance(a, np.ndarray):
                            want = (dtype if mode != "spike" else np.bool_ if id(a) in spikes
                                    else np.uint8 if id(a) in counts else dtype)
                            assert a.dtype == want, (mode, a.shape)
            assert trace.features.dtype == dtype

    @pytest.mark.parametrize("timing", ["same_step", "delayed"])
    @pytest.mark.parametrize("reset", ["subtract", "zero"])
    @NETS
    def test_backward_reads_bool_spikes_as_their_float_cast(self, net, reset, timing):
        config = self.config(net, reset, timing, side=32)
        rng = np.random.default_rng(4)
        x = binary_input(rng, config, batch=4, density=0.2)
        params = init_params(config, 2)
        _, trace = forward(config, params, x)

        def cast(a):
            return a.astype(np.float32) if isinstance(a, np.ndarray) and a.dtype == bool else a

        caches = [[tuple(map(cast, entry)) for entry in step] for step in trace.caches]
        assert any(a.dtype == bool for step in trace.caches for entry in step
                   for a in entry if isinstance(a, np.ndarray))
        labels = rng.integers(0, 4, 4)
        got = network.backward(config, params, trace, labels)
        want = network.backward(config, params, replace(trace, caches=caches), labels)
        assert list(got) == list(want)
        for name in want:
            assert got[name].dtype == want[name].dtype == np.float32, name
            assert got[name].tobytes() == want[name].tobytes(), name


def float_caches(trace, dens):
    """trace's caches with the input that layer i caches, where i is a key of
    ``dens``, replaced by its float32 values, the count over dens[i]."""
    return [[(entry[0].astype(np.float32) / dens[i], *entry[1:]) if i in dens else entry
             for i, entry in enumerate(step)] for step in trace.caches]


def pool_then_sews(window, side, g="add", sews=1, theta=0.5):
    """conv, IF, AvgPool(window), ``sews`` SEW blocks with join g, a 1x1
    conv, then the global-pool head: the conv's and each SEW's cached input
    is a pool or a join."""
    return NetworkConfig(
        time_steps=2, height=side, width=side,
        layers=(Conv2d(2, 4), IF(theta), AvgPool(window),
                *(SEW(4, g=g, theta=theta) for _ in range(sews)),
                Conv2d(4, 4, k=1, padding=0), IF(theta), GlobalPool(), IF(theta),
                Accumulator(4), Classifier(3)))


class TestOneByteMaps:
    """A recorded spike-mode trace holds each pool and SEW join that a conv
    or SEW above caches as the uint8 count h * den, where ``_layer_plan``'s
    grain is known and den * bound fits a byte; backward reads the count as
    q / den, with the bits the float map gave."""

    # sew_tiny: the layers whose cached input is a count, with its den: SEW
    # 03's pooled input (quarters), SEW 03's join (quarters up to 2) read by
    # conv 04 and SEW 06's join (0 to 2) read by conv 07
    SEW_TINY = {3: 4, 4: 4, 7: 1}

    @pytest.fixture(scope="class")
    def x(self):
        return binary_input(np.random.default_rng(5), sew_tiny(4, 32, 32, 3), batch=4,
                            density=0.2)

    def test_plan_dens(self):
        for g in ("add", "and", "iand"):
            dens = [entry.den for entry in network._layer_plan(sew_tiny(4, g=g))]
            assert dens == [None, None, 4, 4, None, 1, 1, None, 1, None, None, None]

    @pytest.mark.parametrize("g", ["add", "and", "iand"])
    def test_counts_sit_at_kept_pools_and_joins(self, x, g):
        config = sew_tiny(4, 32, 32, 3, theta=0.5, g=g)
        _, trace = forward(config, init_params(config, 2), x)
        for step in trace.caches:
            for i, entry in enumerate(step):
                for j, a in enumerate(entry):
                    if isinstance(a, np.ndarray):
                        counted = j == 0 and (i == 0 or i in self.SEW_TINY)  # or the frame
                        assert (a.dtype == np.uint8) == counted, (i, j, a.dtype)
            # the pool's count is its window's spikes; a join's count is the
            # join of SEW 03's or 06's input count q with its second spikes k2
            pooled = avg_pool_forward(step[1][1].astype(np.float32), 2)
            assert np.array_equal(step[3][0], pooled * 4)
            for i, (sew, den) in ((4, (3, 4)), (7, (6, 1))):
                q, k2 = step[sew][0], step[sew][4]
                join = {"add": k2 * den + q, "and": k2 * q, "iand": ~k2 * q}[g]
                assert np.array_equal(step[i][0], join)

    @pytest.mark.parametrize("window, side", [(3, 12), (16, 32)])
    def test_pools_off_the_grain_stay_float(self, window, side):
        # a 3x3 pool's ninths and a 16x16 pool's 256ths (den 256) fit no byte
        config = pool_then_sews(window, side)
        x = binary_input(np.random.default_rng(6), config, batch=3, density=0.3)
        _, trace = forward(config, init_params(config, 1), x)
        dens = [entry.den for entry in network._layer_plan(config)]
        assert dens[2:4] == [None, None]
        for step in trace.caches:
            assert step[3][0].dtype == step[4][0].dtype == np.float32

    def test_chained_pools_hold_one_count_each(self):
        # two 2x2 pools: only the second's map, the sixteenths the SEW above
        # caches, is held as a count
        config = NetworkConfig(
            time_steps=2, height=16, width=16,
            layers=(Conv2d(2, 4), IF(0.5), AvgPool(2), AvgPool(2), SEW(4, theta=0.5),
                    GlobalPool(), IF(0.5), Accumulator(4), Classifier(3)))
        dens = [entry.den for entry in network._layer_plan(config)]
        assert dens[:5] == [None, None, None, 16, None]
        x = binary_input(np.random.default_rng(8), config, batch=3, density=0.3)
        params = init_params(config, 4)
        _, trace = forward(config, params, x)
        for step in trace.caches:
            spikes = step[1][1].astype(np.float32)
            assert step[4][0].dtype == np.uint8
            assert np.array_equal(step[4][0], avg_pool_forward(spikes, 4) * 16)
        labels = np.arange(3) % 3
        got = network.backward(config, params, trace, labels)
        want = network.backward(config, params,
                                replace(trace, caches=float_caches(trace, {4: 16})), labels)
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name

    def test_a_conv_output_leaves_no_grain(self):
        # a conv's real-valued output, pooled and fed to a SEW above an IF,
        # is cached as float32, however the map below the conv was held
        config = NetworkConfig(
            time_steps=2, height=16, width=16,
            layers=(Conv2d(2, 4, stride=2), IF(0.5), Conv2d(4, 4), AvgPool(2),
                    SEW(4, theta=0.5), GlobalPool(), IF(0.5), Accumulator(4), Classifier(3)))
        dens = [entry.den for entry in network._layer_plan(config)]
        assert dens[:5] == [None, 1, None, None, None]
        x = binary_input(np.random.default_rng(9), config, batch=3, density=0.3)
        _, trace = forward(config, init_params(config, 5), x)
        for step in trace.caches:
            assert step[2][0].dtype == np.bool_ and step[4][0].dtype == np.float32

    @pytest.mark.parametrize("g", ["add", "and", "iand"])
    def test_den_times_bound_caps_at_255(self, g):
        # AvgPool(8) gives 64ths; each add join raises the bound by one, so
        # the third join's 64ths up to 4 (256) stay float, while and and iand
        # keep the bound at 1
        config = pool_then_sews(8, 16, g=g, sews=3, theta=0.05)
        x = binary_input(np.random.default_rng(7), config, batch=3, density=0.5)
        params = init_params(config, 3)
        _, trace = forward(config, params, x)
        counted = {3: 64, 4: 64, 5: 64} if g == "add" else {3: 64, 4: 64, 5: 64, 6: 64}
        for step in trace.caches:
            for i in (3, 4, 5, 6):
                assert step[i][0].dtype == (np.uint8 if i in counted else np.float32), i
        if g == "add":  # the second join's counts pass 2 * 64
            assert max(int(step[5][0].max()) for step in trace.caches) > 128
        labels = np.arange(3) % 3
        got = network.backward(config, params, trace, labels)
        want = network.backward(config, params,
                                replace(trace, caches=float_caches(trace, counted)), labels)
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name

    @pytest.mark.parametrize("mode", ["relaxed", "dense"])
    def test_float_modes_hold_no_counts(self, x, mode):
        config = sew_tiny(4, 32, 32, 3, theta=0.5)
        params = init_params(config, 2, kind="dense" if mode == "dense" else "spiking")
        _, trace = forward(config, params, x, mode=mode)
        held = [a for step in trace.caches for entry in step for a in entry
                if isinstance(a, np.ndarray)]
        assert sum(a.dtype == np.uint8 for a in held) == len(trace.caches)  # the frames

    @pytest.mark.parametrize("g", ["add", "and", "iand"])
    def test_backward_reads_counts_as_their_float_values(self, x, g):
        config = sew_tiny(4, 32, 32, 3, theta=0.5, g=g)
        params = init_params(config, 2)
        _, trace = forward(config, params, x)
        labels = np.arange(4) % 4
        got = network.backward(config, params, trace, labels)
        want = network.backward(config, params,
                                replace(trace, caches=float_caches(trace, self.SEW_TINY)),
                                labels)
        assert list(got) == list(want)
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name


@st.composite
def spike_stacks(draw):
    """(config, batch): a small stack of Conv2d, IF, AvgPool and SEW layers
    in an order ``NetworkConfig`` accepts, then the global-pool head, under
    either reset and input timing. It is built of runs, each one layer of any
    kind or an IF followed by up to three pools and SEWs and maybe a conv,
    so that many stacks cache pools and joins of spikes."""
    sensor = draw(st.integers(4, 16))
    c, side = 2, sensor  # the square map's channels and side after each layer
    theta = st.sampled_from([0.25, 0.5, 1.0])
    layers = []

    def add(kind):
        nonlocal c, side
        if kind == "conv":
            k, stride = draw(st.sampled_from([1, 3])), draw(st.integers(1, 2))
            layers.append(Conv2d(c, draw(st.integers(1, 4)), k, stride, k // 2))
            c, side = layers[-1].c_out, conv_out_size(side, k, stride, k // 2)
        elif kind == "if":
            layers.append(IF(draw(theta)))
        elif kind == "pool":
            layers.append(AvgPool(draw(st.sampled_from([n for n in range(1, 5) if side % n == 0]))))
            side //= layers[-1].window
        else:
            layers.append(SEW(c, k=draw(st.sampled_from([1, 3])),
                              g=draw(st.sampled_from(["add", "and", "iand"])), theta=draw(theta)))

    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            add(draw(st.sampled_from(["conv", "if", "pool", "sew"])))
        else:
            add("if")
            for _ in range(draw(st.integers(0, 3))):
                add(draw(st.sampled_from(["pool", "sew"])))
            if draw(st.booleans()):
                add("conv")
    config = NetworkConfig(
        time_steps=draw(st.integers(1, 3)), height=sensor, width=sensor,
        layers=(*layers, GlobalPool(), IF(0.5), Accumulator(c), Classifier(3)),
        reset=draw(st.sampled_from(["subtract", "zero"])),
        input_timing=draw(st.sampled_from(["same_step", "delayed"])))
    return config, draw(st.integers(1, 3))


class TestCountsFromTheFloatMap:
    """``network._count`` makes every uint8 count a recorded spike-mode
    trace holds, from the float map the forward computed, at the pool or SEW
    join whose output the next layer, a conv or SEW, caches."""

    @staticmethod
    def spy(monkeypatch) -> list:
        """The den of each ``_count`` call from now on; each call's map must
        be the parameters' float32."""
        calls, count = [], network._count

        def counting(h, den):
            assert h.dtype == np.float32
            calls.append(den)
            return count(h, den)
        monkeypatch.setattr(network, "_count", counting)
        return calls

    @pytest.fixture(scope="class")
    def x(self):
        return binary_input(np.random.default_rng(5), sew_tiny(4, 32, 32, 3), batch=4,
                            density=0.2)

    @pytest.mark.parametrize("g", ["add", "and", "iand"])
    def test_three_counts_per_sew_tiny_step(self, monkeypatch, x, g):
        # SEW 03's pooled input (quarters), SEW 03's join and SEW 06's join
        config = sew_tiny(4, 32, 32, 3, theta=0.5, g=g)
        calls = self.spy(monkeypatch)
        forward(config, init_params(config, 2), x)
        assert calls == [4, 4, 1] * config.time_steps

    @pytest.mark.parametrize("mode, record", [("spike", False), ("relaxed", True),
                                              ("dense", True)])
    def test_no_counts_unrecorded_or_in_float_modes(self, monkeypatch, x, mode, record):
        config = sew_tiny(4, 32, 32, 3, theta=0.5)
        calls = self.spy(monkeypatch)
        forward(config, init_params(config, 2, kind="dense" if mode == "dense" else "spiking"),
                x, mode=mode, record=record)
        assert calls == []

    def test_chained_pools_make_one_count_per_step(self, monkeypatch):
        config = NetworkConfig(
            time_steps=2, height=16, width=16,
            layers=(Conv2d(2, 4), IF(0.5), AvgPool(2), AvgPool(2), SEW(4, theta=0.5),
                    GlobalPool(), IF(0.5), Accumulator(4), Classifier(3)))
        calls = self.spy(monkeypatch)
        x = binary_input(np.random.default_rng(8), config, batch=3, density=0.3)
        forward(config, init_params(config, 4), x)
        assert calls == [16, 16]

    @settings(max_examples=150, deadline=None)
    @given(stack=spike_stacks(), seed=st.integers(0, 2**16))
    def test_random_stacks(self, stack, seed):
        # each count equals the float map, kept where _count is bypassed,
        # times den, in the same memory order; backward reads the counts
        # with the bits their float values give
        config, b = stack
        rng = np.random.default_rng(seed)
        x = binary_input(rng, config, batch=b, density=0.3)
        params = init_params(config, seed)
        dens = [entry.den for entry in network._layer_plan(config)]
        layers = config.encoder_layers
        counted = {i: dens[i - 1] for i in range(1, len(layers))
                   if dens[i - 1] is not None and not isinstance(layers[i - 1], IF)}
        _, trace = forward(config, params, x)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(network, "_count", lambda h, den: h)
            _, floats = forward(config, params, x)
        for step, float_step in zip(trace.caches, floats.caches):
            for i, (entry, float_entry) in enumerate(zip(step, float_step)):
                for j, (a, f) in enumerate(zip(entry, float_entry)):
                    if not isinstance(a, np.ndarray):
                        continue
                    if j == 0 and i in counted:
                        assert a.dtype == np.uint8 and f.dtype == np.float32, i
                        assert np.array_equal(a, f * counted[i]), i
                        assert [n for n, k in zip(a.strides, a.shape) if k > 1] == \
                            [n // f.itemsize for n, k in zip(f.strides, f.shape) if k > 1], i
                    else:
                        assert a.dtype == f.dtype and np.array_equal(a, f), (i, j)
                        assert a.dtype != np.uint8 or i == j == 0, (i, j)  # or the frame
        labels = rng.integers(0, 3, b)
        got = network.backward(config, params, trace, labels)
        want = network.backward(config, params,
                                replace(trace, caches=float_caches(trace, counted)), labels)
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name


class TestLayerGrammar:
    """On random stacks ``NetworkConfig`` accepts, ``_layer_plan``'s output
    shapes are the shapes a recorded forward computes, ``param_shapes`` the
    shapes ``init_params`` draws, and the JSON grammar gives the config
    back."""

    @settings(max_examples=100, deadline=None)
    @given(stack=spike_stacks(), seed=st.integers(0, 2**16))
    def test_random_stacks(self, stack, seed):
        config, b = stack
        assert config_from_json(config_to_json(config)) == config
        params = init_params(config, seed)
        assert [(name, p.shape) for name, p in params.items()] == \
            list(network.param_shapes(config).items())
        plan = network._layer_plan(config)
        # the input of layer i is shapes[i], its output shapes[i + 1]
        shapes = [(config.in_channels, config.height, config.width),
                  *(entry.shape for entry in plan)]
        x = binary_input(np.random.default_rng(seed), config, batch=b)
        _, trace = forward(config, params, x)
        for step in trace.caches:
            for i, (entry, cache) in enumerate(zip(plan, step)):
                if isinstance(entry.layer, (Conv2d, SEW)):  # the input it caches
                    assert cache[0].shape == (b, *shapes[i]), i
                if isinstance(entry.layer, IF):  # its membrane
                    assert cache[0].shape == (b, *entry.shape), i
                elif isinstance(entry.layer, SEW):  # its stages' membranes
                    assert cache[1].shape == cache[3].shape == (b, *entry.shape), i
                elif isinstance(entry.layer, GlobalPool):  # its input's (H, W)
                    assert cache == shapes[i][1:], i
        assert trace.feature_shape == plan[-1].shape
        assert trace.features.shape == (b, config.time_steps, int(np.prod(plan[-1].shape)))


class FakeBlas:
    """Stands in for the OpenBLAS thread lookup, so a test picks whether
    ``forward`` forks a helper and sees every count it sets. A helper that
    lives from before is stopped first: it would run the halves whatever
    the new counts."""

    def __init__(self, monkeypatch, counts):
        _helper.stop()
        self.counts, self.set_calls = counts, []
        monkeypatch.setattr(_blas, "threads", lambda: list(self.counts))
        monkeypatch.setattr(_blas, "set_threads", self.set_threads)

    def set_threads(self, counts):
        self.set_calls.append(list(counts))
        self.counts = list(counts)


SPLIT_MIN = network._SPLIT_MIN

# sew_tiny with each SEW join, and a config with a conv-fed conv
NETS = {"sew_add": lambda: sew_tiny(4, height=32, width=32, theta=0.5),
        "sew_and": lambda: sew_tiny(4, height=32, width=32, theta=0.5, g="and"),
        "sew_iand": lambda: sew_tiny(4, height=32, width=32, theta=0.5, g="iand"),
        "mixed": mixed_config}


class HalfFailed(Exception):
    """Raised in one half of a split batch; defined here so that it pickles."""


class TestShardedForward:
    """forward(record=False) on a large enough batch encodes it in halves
    and returns the trace of the whole batch: in a process whose OpenBLAS
    runs two or more threads, the second half in a helper process while the
    caller encodes the first; at one, both here. The fixture below lets
    every batch of two or more split; ``test_size_floor`` restores the
    floor."""

    @pytest.fixture(autouse=True)
    def any_size_splits(self, monkeypatch):
        monkeypatch.setattr(network, "_SPLIT_MIN", 1)

    # the config, and the layers whose input is a conv's float output; every
    # other input is spikes, their SEW sums or pool means: integer or quarter
    # values whose float32 sums are exact
    CONFIGS = {"sew_tiny": (lambda: sew_tiny(4, theta=0.5), ()),
               "mixed": (mixed_config, ("04.conv",))}
    # each counter is a float32 sum: the halves' two sums differ from the
    # batch's one by float32 rounding, within a few hundred eps
    FLOAT32_RTOL = 1e-5

    def run(self, monkeypatch, config, params, x, mode="spike", threads=2):
        blas = FakeBlas(monkeypatch, [threads])
        logits, trace = forward(config, params, x, mode=mode, record=False)
        return logits, trace, blas

    def assert_close(self, got: dict, want: dict):
        assert list(got) == list(want)
        np.testing.assert_allclose(np.array(list(got.values()), dtype=float),
                                   np.array(list(want.values()), dtype=float),
                                   rtol=self.FLOAT32_RTOL)

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    @pytest.mark.parametrize("batch", [2, 3, 16, 17])
    def test_spike_mode_bitwise_equal(self, monkeypatch, rng, name, batch):
        # thresholded spikes: equal even where the conv GEMMs of a half
        # differ in the last bit from the full batch's (4x4 maps at B = 1)
        build, float_inputs = self.CONFIGS[name]
        config = build()
        params = init_params(config, 1)
        x = binary_input(rng, config, batch, density=0.05)
        logits, trace, blas = self.run(monkeypatch, config, params, x, threads=2)
        assert blas.set_calls == [[1]]
        want_logits, want, whole = self.run(monkeypatch, config, params, x, threads=1)
        assert whole.set_calls == []
        assert logits.tobytes() == want_logits.tobytes()
        for field in ("logits", "features", "accumulated"):
            assert getattr(trace, field).tobytes() == getattr(want, field).tobytes(), field
        assert trace.spike_counts == want.spike_counts
        assert list(trace.synaptic_inputs) == list(want.synaptic_inputs)
        exact = {k: v for k, v in want.synaptic_inputs.items() if k not in float_inputs}
        assert {k: trace.synaptic_inputs[k] for k in exact} == exact
        self.assert_close(trace.synaptic_inputs, want.synaptic_inputs)
        assert trace.site_sizes == want.site_sizes
        assert (trace.batch, trace.feature_shape, trace.caches) == (batch, want.feature_shape,
                                                                    None)

    @pytest.mark.parametrize("mode", ["relaxed", "dense"])
    @pytest.mark.parametrize("batch", [16, 17])
    def test_float_modes(self, monkeypatch, rng, mode, batch):
        config = sew_tiny(4, theta=0.5)
        kind = "dense" if mode == "dense" else "spiking"
        params = init_params(config, 1, kind=kind)
        x = binary_input(rng, config, batch, density=0.05)
        logits, trace, _ = self.run(monkeypatch, config, params, x, mode)
        want_logits, want, _ = self.run(monkeypatch, config, params, x, mode, threads=1)
        assert trace.spike_counts == want.spike_counts
        assert trace.synaptic_inputs == want.synaptic_inputs
        assert logits.tobytes() == want_logits.tobytes()

    @pytest.mark.parametrize("mode", ["spike", "relaxed", "dense"])
    @pytest.mark.parametrize("name", sorted(NETS))
    def test_thread_count_changes_nothing(self, monkeypatch, rng, name, mode):
        # at two BLAS threads the second half runs in the helper, at one
        # here after the first: the same bits either way, and in spike mode
        # the same energy report, which charges mixed's conv-fed 04.conv as
        # dense passes
        config = NETS[name]()
        params = init_params(config, 1, kind="dense" if mode == "dense" else "spiking")
        x = binary_input(rng, config, 16, density=0.05)
        runs = []
        for threads in (1, 2):
            logits, trace, blas = self.run(monkeypatch, config, params, x, mode, threads)
            assert blas.set_calls == ([[1]] if threads == 2 else [])
            report = (canonical(estimate_from_traces(config, [trace]).to_json_dict())
                      if mode == "spike" else None)
            runs.append((logits.tobytes(), trace.features.tobytes(),
                         trace.accumulated.tobytes(), trace.spike_counts,
                         trace.synaptic_inputs, trace.site_sizes, report))
        assert runs[0] == runs[1]

    @pytest.fixture
    def small(self, rng):
        config = tiny_config()
        return config, init_params(config, seed=0), binary_input(rng, config, batch=4)

    def test_no_helper_without_a_split(self, monkeypatch, small):
        # at one BLAS thread (as bench._init_worker leaves a sweep worker, or
        # without OpenBLAS), with record=True, or below the size floor
        def no_fork(*args, **kwargs):
            raise AssertionError("forward forked a helper")

        monkeypatch.setattr(_helper, "_Helper", no_fork)
        for counts in ([1], []):
            blas = FakeBlas(monkeypatch, counts)
            forward(*small, record=False)
            assert blas.set_calls == []
        blas = FakeBlas(monkeypatch, [2])
        forward(*small, record=True)
        monkeypatch.setattr(network, "_SPLIT_MIN", SPLIT_MIN)
        forward(*small, record=False)
        assert blas.set_calls == []

    def test_record_runs_whole(self, monkeypatch, small):
        blas = FakeBlas(monkeypatch, [2])
        _, trace = forward(*small, record=True)
        assert blas.set_calls == [] and len(trace.caches) == small[0].time_steps

    @pytest.mark.parametrize("failing", ["main", "helper"])
    def test_error_in_a_half_is_raised_and_threads_restored(self, monkeypatch, small,
                                                            failing):
        # the first sample is in the caller's half, the last in the helper's;
        # a 7 in the input marks the half whose first conv fails
        config, params, x = small
        x = x.copy()
        x[0 if failing == "main" else -1, 0, 0, 0, 0] = 7

        def conv(h, *args, **kwargs):
            if (h == 7).any():
                raise HalfFailed(failing)
            return conv2d_forward(h, *args, **kwargs)

        conv2d_forward = network.conv2d_forward
        monkeypatch.setattr(network, "conv2d_forward", conv)
        blas = FakeBlas(monkeypatch, [2])
        with pytest.raises(HalfFailed, match=failing):
            forward(config, params, x, record=False)
        assert blas.set_calls == [[1]]
        assert _helper._current.process.is_alive()  # an error leaves the helper serving
        _helper.stop()
        assert blas.set_calls == [[1], [2]]

    @pytest.mark.parametrize("sample", [0, -1])
    def test_caller_error_settings_hold_in_either_half(self, monkeypatch, small, sample):
        config, params, x = small
        x = x.astype(np.float64)
        x[sample, 0, 0, 0, 0] = 1e39  # overflows the float32 cast of the first step
        blas = FakeBlas(monkeypatch, [2])
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            forward(config, params, x, record=False)
        assert blas.set_calls == [[1]]

    def test_each_call_sends_its_error_settings(self, monkeypatch, small):
        # the helper was forked under over="raise"; each later job runs under
        # the settings of its own call, not those the fork copied
        config, params, x = small
        blas = FakeBlas(monkeypatch, [2])
        with np.errstate(over="raise"):
            forward(config, params, x, record=False)
        helper = _helper._current
        x = x.astype(np.float64)
        x[-1, 0, 0, 0, 0] = 1e39  # overflows the float32 cast in the helper's half
        with np.errstate(all="ignore"):
            forward(config, params, x, record=False)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            forward(config, params, x, record=False)
        assert _helper._current is helper and blas.set_calls == [[1]]

    def test_real_blas_threads_restored(self, small, monkeypatch):
        before = _blas.threads()
        if max(before, default=1) < 2:
            pytest.skip("OpenBLAS runs one thread here, so forward does not split")
        forward(*small, record=False)
        _helper.stop()
        assert _blas.threads() == before

        def failing(*args, **kwargs):
            raise RuntimeError("conv failed")

        monkeypatch.setattr(network, "conv2d_forward", failing)
        with pytest.raises(RuntimeError, match="conv failed"):
            forward(*small, record=False)
        _helper.stop()
        assert _blas.threads() == before

    @pytest.mark.parametrize("batch,splits", [(5, False), (6, True)])
    def test_size_floor(self, monkeypatch, rng, batch, splits):
        # sew_tiny at 64x64, T=6: 49,152 input values per sample, so the
        # smaller half reaches 2**17 at 3 samples
        monkeypatch.setattr(network, "_SPLIT_MIN", SPLIT_MIN)
        config = sew_tiny(4, theta=0.5)
        x = binary_input(rng, config, batch, density=0.05)
        _, _, blas = self.run(monkeypatch, config, init_params(config, 1), x)
        assert blas.set_calls == ([[1]] if splits else [])

    @staticmethod
    def assert_same(got, want):
        (logits, trace), (want_logits, want_trace) = got, want
        assert logits.tobytes() == want_logits.tobytes()
        assert trace.features.tobytes() == want_trace.features.tobytes()
        assert trace.spike_counts == want_trace.spike_counts
        assert trace.synaptic_inputs == want_trace.synaptic_inputs

    def test_no_process_left_after_exit(self):
        script = """
from evsnn import _blas, _helper
from evsnn.nn import network
import numpy as np
_blas.threads = lambda: [2]
_blas.set_threads = lambda counts: None
network._SPLIT_MIN = 1
config = network.sew_tiny(4, height=16, width=16)
network.forward(config, network.init_params(config, 0),
                np.zeros((4, 6, 2, 16, 16), np.uint8), record=False)
print(_helper._current.process.pid)
"""
        src = Path(evsnn.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0 and not proc.stderr, proc.stderr
        with pytest.raises(ProcessLookupError):
            os.kill(int(proc.stdout), 0)

    def test_exit_kills_a_helper_that_does_not_leave(self, tmp_path):
        # multiprocessing's exit handler would join the stopped helper with
        # no timeout; _helper.stop runs first and kills it after _JOIN_S
        pid_file = tmp_path / "helper.pid"
        script = f"""
import os, pathlib, signal
from evsnn import _blas, _helper
from evsnn.nn import network
import numpy as np
_blas.threads = lambda: [2]
_blas.set_threads = lambda counts: None
network._SPLIT_MIN = 1
config = network.sew_tiny(4, height=16, width=16)
network.forward(config, network.init_params(config, 0),
                np.zeros((4, 6, 2, 16, 16), np.uint8), record=False)
pid = _helper._current.process.pid
pathlib.Path({str(pid_file)!r}).write_text(str(pid))
os.kill(pid, signal.SIGSTOP)
"""
        src = Path(evsnn.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen([sys.executable, "-c", script], stderr=subprocess.PIPE,
                                text=True, env=env)
        try:
            _, err = proc.communicate(timeout=20)
            assert proc.returncode == 0 and not err, err
            with pytest.raises(ProcessLookupError):
                os.kill(int(pid_file.read_text()), 0)
        finally:
            if proc.poll() is None:  # hung in its exit: kill it and its helper
                helper = [int(pid_file.read_text())] if pid_file.exists() else []
                for left in [proc.pid, *helper]:
                    with contextlib.suppress(ProcessLookupError):
                        os.kill(left, signal.SIGKILL)
                proc.communicate(timeout=60)

    def test_killed_helper_is_forked_again(self, monkeypatch, small):
        FakeBlas(monkeypatch, [1])
        want = forward(*small, record=False)
        FakeBlas(monkeypatch, [2])
        forward(*small, record=False)
        killed = _helper._current.process
        os.kill(killed.pid, signal.SIGKILL)
        killed.join(timeout=30)
        assert not killed.is_alive()
        self.assert_same(forward(*small, record=False), want)
        assert _helper._current.process is not killed and _helper._current.process.is_alive()

    def test_forked_child_forks_its_own_helper(self, monkeypatch, small):
        FakeBlas(monkeypatch, [2])
        want = forward(*small, record=False)
        parent_helper = _helper._current.process.pid
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child reports its helper's pid and whether its split matched
            try:
                got = forward(*small, record=False)[0].tobytes() == want[0].tobytes()
                child_helper = _helper._current.process.pid
                _helper.stop()
                os.write(write, f"{child_helper} {int(got)}".encode())
            finally:
                os._exit(0)
        os.close(write)
        with os.fdopen(read) as fh:
            report = fh.read()
        os.waitpid(pid, 0)
        child_helper, same = map(int, report.split())
        assert child_helper != parent_helper and same == 1
        self.assert_same(forward(*small, record=False), want)
        assert _helper._current.process.pid == parent_helper

    def test_threads_take_turns(self, monkeypatch, rng):
        # more caller threads than cores, every call split
        monkeypatch.setattr(_blas, "threads", lambda: [2])
        monkeypatch.setattr(_blas, "set_threads", lambda counts: None)
        config = tiny_config()
        params = init_params(config, 0)
        inputs = [binary_input(rng, config, batch=6) for _ in range(4)]
        wants = [forward(config, params, x, record=True) for x in inputs]  # whole
        results: list = [None] * len(inputs)

        def run(i):
            results[i] = [forward(config, params, inputs[i], record=False) for _ in range(3)]

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(inputs))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        for got, want in zip(results, wants):
            assert got is not None
            for one in got:
                self.assert_same(one, want)


class TestThreadHandOff:
    """The helper's lifetime holds the OpenBLAS hand-off: its fork drops the
    caller to one thread, its stop gives the caller's counts back, and no
    split call in between sets a count."""

    @pytest.fixture(autouse=True)
    def any_size_splits(self, monkeypatch):
        monkeypatch.setattr(network, "_SPLIT_MIN", 1)

    @pytest.fixture
    def small(self, rng):
        config = tiny_config()
        return config, init_params(config, seed=0), binary_input(rng, config, batch=4)

    def test_one_thread_from_first_split_until_stop(self, monkeypatch, small):
        blas = FakeBlas(monkeypatch, [2, 3])
        seen, conv = [], network.conv2d_forward

        def spy(*args, **kwargs):  # the caller's counts at each of its convs
            seen.append(_blas.threads())
            return conv(*args, **kwargs)

        monkeypatch.setattr(network, "conv2d_forward", spy)
        forward(*small, record=True)  # no split: the caller's own counts
        assert seen and all(t == [2, 3] for t in seen) and _helper._current is None
        seen.clear()
        forward(*small, record=False)
        forward(*small, record=True)  # a whole batch beside the living helper
        forward(*small, record=False)
        assert seen and all(t == [1, 1] for t in seen)
        assert blas.set_calls == [[1, 1]]
        assert _helper.threads() == [2, 3] and _blas.threads() == [1, 1]
        _helper.stop()
        assert blas.set_calls == [[1, 1], [2, 3]]
        assert _helper.threads() == _blas.threads() == [2, 3]

    def test_each_split_runs_the_half_once_here_once_there(self, monkeypatch, small,
                                                           tmp_path):
        log = tmp_path / "pids"
        logging_pids(monkeypatch, network, "_encode", log)
        FakeBlas(monkeypatch, [2])
        for _ in range(2):
            forward(*small, record=False)
        pids = log.read_text().split()
        helper = str(_helper._current.process.pid)
        assert sorted(pids) == sorted([str(os.getpid()), helper] * 2)

    def test_killed_mid_job_gives_threads_back(self, monkeypatch, small, tmp_path):
        # the helper SIGKILLs itself at its first job: the caller finishes
        # its own half, finds the pipe closed, takes its counts back and
        # runs the second half here; the next split forks again
        want = forward(*small, record=True)
        killed, caller, real = tmp_path / "killed", os.getpid(), network._encode

        @functools.wraps(real)
        def dying(*args):
            if os.getpid() != caller and not killed.exists():
                killed.touch()
                os.kill(os.getpid(), signal.SIGKILL)
            return real(*args)

        monkeypatch.setattr(network, "_encode", dying)
        blas = FakeBlas(monkeypatch, [2])
        got = forward(*small, record=False)
        assert killed.exists() and _helper._current is None
        assert blas.set_calls == [[1], [2]] and _blas.threads() == [2]
        TestShardedForward.assert_same(got, want)
        TestShardedForward.assert_same(forward(*small, record=False), want)
        assert blas.set_calls == [[1], [2], [1]] and _helper._current.process.is_alive()

    def test_real_blas_in_helper_and_forked_child(self):
        # a fresh interpreter at two OpenBLAS threads: one in the caller and
        # the helper while the helper lives, the caller's own counts in a
        # child forked meanwhile and after the stop
        script = """
import json, os
import numpy as np
from evsnn import _blas, _helper
from evsnn.nn import network

def counts(arrays):
    return _blas.threads()

before = _blas.threads()
if max(before, default=1) < 2:
    print(json.dumps(None))
    raise SystemExit
network._SPLIT_MIN = 1
config = network.sew_tiny(4, height=16, width=16)
x = np.zeros((4, 6, 2, 16, 16), np.uint8)
network.forward(config, network.init_params(config, 0), x, record=False)
during = _blas.threads()
here, helper = _helper.beside(counts, {}, {"x": x})
read, write = os.pipe()
pid = os.fork()
if pid == 0:
    os.write(write, json.dumps([_blas.threads(), _helper._current is None]).encode())
    os._exit(0)
os.close(write)
with os.fdopen(read) as fh:
    child = json.loads(fh.read())
os.waitpid(pid, 0)
_helper.stop()
print(json.dumps([before, during, here, helper, child, _blas.threads()]))
"""
        src = Path(evsnn.__file__).resolve().parents[1]
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0 and not proc.stderr, proc.stderr
        got = json.loads(proc.stdout)
        if got is None:
            pytest.skip("no OpenBLAS at two threads in a fresh interpreter")
        before, during, here, helper, (child, forgot), after = got
        one = [1] * len(before)
        assert (during, here, helper) == (one, one, one)
        assert child == before and forgot
        assert after == before

    def test_halves_cut_every_batch_array(self, monkeypatch):
        FakeBlas(monkeypatch, [1])  # both halves here
        params = {"w": np.ones(2)}
        batch = {"x": np.arange(10).reshape(5, 2), "labels": np.arange(5)}
        calls = []

        def fn(arrays, *args):
            calls.append(({name: a.tolist() for name, a in arrays.items()}, args))
            return len(calls)

        assert network._parts(fn, params, batch, "a", 7) == (1, 2)
        assert calls == [({"w": [1.0, 1.0], "x": [[0, 1], [2, 3], [4, 5]],
                           "labels": [0, 1, 2]}, ("a", 7)),
                         ({"w": [1.0, 1.0], "x": [[6, 7], [8, 9]], "labels": [3, 4]},
                          ("a", 7))]
        monkeypatch.setattr(network, "_SPLIT_MIN", 5)  # the second half holds 4 values
        assert network._parts(fn, params, batch) == (3,)  # one call on the whole batch
        assert calls[2] == ({"w": [1.0, 1.0], "x": batch["x"].tolist(),
                             "labels": [0, 1, 2, 3, 4]}, ())

    def test_a_second_half_at_the_floor_splits(self, monkeypatch):
        FakeBlas(monkeypatch, [1])  # both halves here
        monkeypatch.setattr(network, "_SPLIT_MIN", 4)  # the second half holds 4 values
        batch = {"x": np.arange(10).reshape(5, 2)}
        assert network._parts(lambda arrays: len(arrays["x"]), {}, batch) == (3, 2)


class TestHelperFailures:
    """Where the helper cannot be forked, sent a job or waited on, both
    halves of a split batch run in the caller, or the caller's interrupt
    propagates; either way the helper is stopped and the caller gets its
    thread counts back. A helper that ignores the stop is killed."""

    @pytest.fixture(autouse=True)
    def any_size_splits(self, monkeypatch):
        monkeypatch.setattr(network, "_SPLIT_MIN", 1)

    @pytest.fixture
    def small(self, rng):
        # five samples, so the caller's halves show as convs of 3 and 2
        config = tiny_config()
        return config, init_params(config, seed=0), binary_input(rng, config, batch=5)

    @staticmethod
    def conv_batches(monkeypatch):
        """The batch size of each conv this process runs from here on."""
        sizes, conv = [], network.conv2d_forward

        def spy(h, *args, **kwargs):
            sizes.append(len(h))
            return conv(h, *args, **kwargs)

        monkeypatch.setattr(network, "conv2d_forward", spy)
        return sizes

    @staticmethod
    def assert_both_halves_here(sizes):
        assert sizes and sizes.count(3) == sizes.count(2) == len(sizes) // 2

    def test_fork_fails(self, monkeypatch, small):
        want = forward(*small, record=True)

        def no_fork(*args, **kwargs):
            raise OSError("fork failed")

        monkeypatch.setattr(_helper, "_Helper", no_fork)
        blas = FakeBlas(monkeypatch, [2])
        sizes = self.conv_batches(monkeypatch)
        TestShardedForward.assert_same(forward(*small, record=False), want)
        self.assert_both_halves_here(sizes)
        assert _helper._current is None
        assert blas.set_calls == [[1], [2]] and _blas.threads() == [2]

    def test_send_fails(self, monkeypatch, small):
        want = forward(*small, record=True)
        blas = FakeBlas(monkeypatch, [2])
        forward(*small, record=False)
        helper = _helper._current
        send = helper.conn.send

        def broken(message):  # the job fails to go; the stop's None still reaches the helper
            if message is not None:
                raise OSError("broken pipe")
            send(message)

        monkeypatch.setattr(helper.conn, "send", broken)
        sizes = self.conv_batches(monkeypatch)
        TestShardedForward.assert_same(forward(*small, record=False), want)
        self.assert_both_halves_here(sizes)
        assert _helper._current is None and helper.conn.closed
        assert blas.set_calls == [[1], [2]] and _blas.threads() == [2]

    def test_interrupted_while_waiting(self, monkeypatch, small):
        want = forward(*small, record=True)
        blas = FakeBlas(monkeypatch, [2])
        forward(*small, record=False)
        helper = _helper._current

        def interrupted():
            raise KeyboardInterrupt

        monkeypatch.setattr(helper.conn, "recv", interrupted)
        with pytest.raises(KeyboardInterrupt):
            forward(*small, record=False)
        assert _helper._current is None and helper.conn.closed
        assert blas.set_calls == [[1], [2]] and _blas.threads() == [2]
        TestShardedForward.assert_same(forward(*small, record=False), want)
        assert _helper._current is not helper and _helper._current.process.is_alive()
        assert blas.set_calls == [[1], [2], [1]]

    def test_stop_kills_a_helper_that_does_not_leave(self, monkeypatch, small):
        blas = FakeBlas(monkeypatch, [2])
        forward(*small, record=False)
        pid = _helper._current.process.pid
        os.kill(pid, signal.SIGSTOP)
        monkeypatch.setattr(_helper, "_JOIN_S", 0.1)
        _helper.stop()
        with pytest.raises(ChildProcessError):  # killed and reaped
            os.waitpid(pid, os.WNOHANG)
        assert _helper._current is None
        assert blas.set_calls == [[1], [2]] and _blas.threads() == [2]


class TestExactCounts:
    """In spike mode a site's count comes from its threshold comparison, and
    a conv fed by spikes, their power-of-two pools or additive joins reuses
    that count as its input sum: exact past float32's 2**24."""

    def test_count_past_float32_integers(self, monkeypatch):
        # 97 * 257 * 673 = 2**24 + 1 neurons of one channel, all firing in the
        # one step; a float32 sum of that many ones rounds to 2**24
        config = NetworkConfig(
            time_steps=1, height=257, width=673, in_channels=1,
            layers=(Conv2d(1, 1, k=1, padding=0), IF(),
                    Conv2d(1, 1, k=1, padding=0, bias=False),
                    GlobalPool(), IF(), Accumulator(1), Classifier(2)))
        params = init_params(config, seed=0)
        params["00.conv.weight"][...] = 0.0
        params["00.conv.bias"][...] = 1.0  # v = 1 = theta everywhere
        FakeBlas(monkeypatch, [1])
        x = np.zeros((97, 1, 1, 257, 673), dtype=np.uint8)
        _, trace = forward(config, params, x, record=False)
        assert trace.spike_counts["01"] == 2**24 + 1
        assert trace.synaptic_inputs["02.conv"] == (2**24 + 1, 257 * 673)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_input_count_of_a_batch_slice(self, monkeypatch, threads):
        # the infer layout: 16 samples of a batch-innermost 64-sample set
        streams = generate_dataset(SynthParams(), samples_per_class=16, seed=4)
        x = voxelize_set(streams, time_bins=6)[16:32]
        config = sew_tiny(4, theta=0.5)
        FakeBlas(monkeypatch, [threads])
        _, trace = forward(config, init_params(config, 1), x, record=False)
        assert trace.synaptic_inputs["00.conv"][0] == x.sum()


class TestCounterReferences:
    """Every counter against a float64 reference taken from the tensors
    themselves: a conv's input sum from the inputs ``conv2d_forward``
    receives, a site's spike count from the site's outputs in the
    record=True caches. Spike-mode counters are exact, so they equal their
    references; relaxed and dense traces hold none. At one BLAS thread both
    halves of a split batch run in this process, inside the patch's reach."""

    @pytest.fixture(params=sorted(NETS))
    def net(self, request):
        return NETS[request.param]()

    @pytest.mark.parametrize("mode", ["spike", "relaxed", "dense"])
    @pytest.mark.parametrize("split", [False, True])
    def test_synaptic_inputs(self, monkeypatch, net, mode, split):
        kind = "dense" if mode == "dense" else "spiking"
        params = init_params(net, 1, kind=kind)
        x = binary_input(np.random.default_rng(5), net, batch=6, density=0.1)
        FakeBlas(monkeypatch, [1])
        monkeypatch.setattr(network, "_SPLIT_MIN", 1 if split else SPLIT_MIN)
        inputs, conv = [], network.conv2d_forward

        def recording(h, *args, **kwargs):
            inputs.append((float(np.sum(h, dtype=np.float64)), h[0].size))
            return conv(h, *args, **kwargs)

        monkeypatch.setattr(network, "conv2d_forward", recording)
        _, trace = forward(net, params, x, mode=mode, record=False)
        layers = network.synaptic_layers(net, kind)
        convs = [lay.name for lay in layers if lay.op == "conv"]
        assert len(inputs) == len(convs) * (1 if mode == "dense" else net.time_steps) * (1 + split)
        if mode != "spike":
            assert trace.synaptic_inputs == {}
            return
        totals, sizes = {}, {}
        for i, (total, size) in enumerate(inputs):  # each half steps through every conv
            name = convs[i % len(convs)]
            totals[name] = totals.get(name, 0.0) + total
            sizes[name] = size
        acc = layers[-2].name
        totals[acc] = float(np.sum(trace.features, dtype=np.float64))
        sizes[acc] = net.feature_dim
        # the ledger reads no input sum of a layer fed by a conv's real-valued output
        read = [lay.name for lay in layers[:-1] if not lay.real_input]
        assert list(trace.synaptic_inputs) == read
        assert trace.synaptic_inputs == {name: (totals[name], sizes[name]) for name in read}

    @pytest.mark.parametrize("mode", ["spike", "relaxed", "dense"])
    def test_spike_counts(self, monkeypatch, net, mode):
        params = init_params(net, 1, kind="dense" if mode == "dense" else "spiking")
        x = binary_input(np.random.default_rng(6), net, batch=6, density=0.1)
        FakeBlas(monkeypatch, [1])
        monkeypatch.setattr(network, "_SPLIT_MIN", 1)
        _, recorded = forward(net, params, x, mode=mode, record=True)
        split = forward(net, params, x, mode=mode, record=False)[1]
        if mode != "spike":
            for trace in (recorded, split):
                assert trace.spike_counts == trace.site_sizes == {}
            return
        counts, sizes = {}, {}
        for step in recorded.caches:
            for entry, cache in zip(network._layer_plan(net), step):
                outputs = ((cache[1],) if isinstance(entry.layer, IF)
                           else (cache[2], cache[4]) if isinstance(entry.layer, SEW) else ())
                for site, out in zip(entry.sites, outputs):
                    counts[site] = counts.get(site, 0.0) + float(np.sum(out, dtype=np.float64))
                    sizes[site] = out[0].size
        for trace in (recorded, split):
            assert list(trace.spike_counts) == list(counts)
            assert trace.spike_counts == counts
            assert trace.site_sizes == sizes


class TestConvCallCounts:
    """The benchmark tracer counts convs by rebinding ``network.conv2d_forward``
    and ``network.conv2d_backward``; every conv of every step must call the
    module-level name at call time. sew_tiny has 9 convs, so 54 calls at
    T=6. A split forward makes 54 per half: at one BLAS thread both halves
    run in the caller's process, 108 calls; at two the helper process makes
    the second half's, out of a monkeypatch's reach."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"forward": 0, "backward": 0}

        def counting(kind, fn):
            def wrapper(*args, **kwargs):
                calls[kind] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(network, "conv2d_forward",
                            counting("forward", network.conv2d_forward))
        monkeypatch.setattr(network, "conv2d_backward",
                            counting("backward", network.conv2d_backward))
        return calls

    @pytest.fixture(scope="class")
    def net(self):
        config = sew_tiny(4, height=16, width=16, theta=0.5)
        x = binary_input(np.random.default_rng(3), config, batch=4, density=0.1)
        return config, init_params(config, 2), x

    @pytest.mark.parametrize("record,threads,want", [(True, 2, 54), (False, 1, 108),
                                                     (False, 2, 54)])
    def test_forward(self, monkeypatch, calls, net, record, threads, want):
        monkeypatch.setattr(network, "_SPLIT_MIN", 1)
        blas = FakeBlas(monkeypatch, [threads])
        forward(*net, record=record)
        assert calls == {"forward": want, "backward": 0}
        assert blas.set_calls == ([[1]] if threads == 2 and not record else [])

    def test_backward(self, calls, net):
        config, params, x = net
        _, trace = forward(config, params, x)
        calls["forward"] = 0
        network.backward(config, params, trace, np.arange(len(x)) % 4)
        assert calls == {"forward": 0, "backward": 54}
