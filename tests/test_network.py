"""Network config validation, forward semantics, accumulation, JSON."""

import numpy as np
import pytest

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
        assert trace.spike_counts["input"] == x.sum()
        assert set(trace.spike_counts) == {"input", "01", "02a", "02b", "04"}

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
        with pytest.raises(ConfigError, match="unknown network config"):
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
