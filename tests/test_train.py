"""Loss, schedule, optimizer, and the epoch loop on a separable toy task."""

import io
import json
import weakref

import numpy as np
import pytest

from evsnn.augment import (COMMON_EDAS, SPECIFIC_EDAS, AugmentSpec, TransformSpec,
                           apply_pipeline)
from evsnn.events import EventStream, InvalidStreamError, voxelize
from evsnn.nn import (Accumulator, Classifier, ConfigError, NetworkConfig, init_params,
                      synaptic_layers)
from evsnn.nn import train as nn_train
from evsnn.nn.train import (
    TrainingDiverged,
    TrainSettings,
    accuracy,
    cosine_lr,
    cross_entropy,
    predict,
    sgd_step,
    train,
    voxelize_set,
)


def toy_config(classes=2):
    return NetworkConfig(time_steps=2, height=8, width=8,
                         layers=(Accumulator(128), Classifier(classes)))


def toy_stream(rng, label, width=8, height=8, n=30):
    # class 0 lives on the left half of the sensor, class 1 on the right
    x0 = 0 if label == 0 else width // 2
    return EventStream(
        x=rng.integers(x0, x0 + width // 2, n),
        y=rng.integers(0, height, n),
        t=np.sort(rng.integers(0, 100, n)),
        p=rng.integers(0, 2, n) * 2 - 1,
        width=width, height=height, t_start=0, t_end=100, label=label)


def toy_data(rng, n_train=12, n_val=8):
    train_streams = [toy_stream(rng, i % 2) for i in range(n_train)]
    val_streams = [toy_stream(rng, i % 2) for i in range(n_val)]
    return (train_streams, np.array([s.label for s in train_streams]),
            voxelize_set(val_streams, 2), np.array([s.label for s in val_streams]))


class TestCrossEntropy:
    def test_uniform(self):
        assert cross_entropy(np.zeros((1, 4)), [0]) == pytest.approx(np.log(4))
        assert cross_entropy(np.full((3, 10), 7.5), [1, 5, 9]) == pytest.approx(np.log(10))

    def test_saturated_true_class(self):
        with np.errstate(over="raise"):
            loss = cross_entropy(np.array([[1000.0, 0.0, 0.0]]), [0])
        assert 0.0 <= loss < 1e-10

    def test_saturated_wrong_class(self):
        with np.errstate(over="raise"):
            loss = cross_entropy(np.array([[1000.0, 0.0]]), [1])
        assert loss == pytest.approx(1000.0)

    def test_frozen_oracle(self):
        # mpmath at 60 digits on these exact logits
        logits = np.array([[0.3, -1.2, 2.5], [1.0, 1.0, -0.5]])
        got = cross_entropy(logits, [2, 0])
        np.testing.assert_allclose(got, 0.46300638382110575, rtol=0, atol=1e-10)

    def test_mean_semantics(self, rng):
        logits = rng.normal(size=(6, 5))
        labels = rng.integers(0, 5, 6)
        per = [cross_entropy(logits[i:i + 1], labels[i:i + 1]) for i in range(6)]
        assert cross_entropy(logits, labels) == pytest.approx(np.mean(per))


class TestCosineSchedule:
    def test_endpoints_and_half(self):
        assert cosine_lr(0, 50, 0.01) == pytest.approx(0.01)
        assert cosine_lr(50, 50, 0.01) == pytest.approx(0.0, abs=1e-18)
        assert cosine_lr(25, 50, 0.01) == pytest.approx(0.005)

    def test_monotone_nonincreasing(self):
        values = [cosine_lr(e, 30, 0.1) for e in range(31)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert all(v >= 0 for v in values)

    def test_bad_total(self):
        with pytest.raises(ValueError, match="total_epochs"):
            cosine_lr(0, 0, 0.1)


class TestSgd:
    def test_hand_trace(self):
        params = {"w": np.array([1.0])}
        grads = {"w": np.array([0.5])}
        v = sgd_step(params, grads, lr=0.1, momentum=0.9)
        np.testing.assert_allclose(params["w"], 0.95)
        np.testing.assert_allclose(v["w"], 0.5)
        sgd_step(params, grads, lr=0.1, momentum=0.9, velocity=v)
        np.testing.assert_allclose(params["w"], 0.855)  # v = 0.95
        np.testing.assert_allclose(v["w"], 0.95)

    def test_zero_momentum_is_plain_sgd(self, rng):
        w0 = rng.normal(size=4)
        params = {"w": w0.copy()}
        grads = {"w": rng.normal(size=4)}
        sgd_step(params, grads, lr=0.2, momentum=0.0)
        np.testing.assert_allclose(params["w"], w0 - 0.2 * grads["w"])

    def test_in_place(self):
        arr = np.array([1.0])
        params = {"w": arr}
        sgd_step(params, {"w": np.array([1.0])}, lr=0.1, momentum=0.9)
        assert params["w"] is arr
        np.testing.assert_allclose(arr, 0.9)

    def test_divergence_raises(self):
        params = {"w": np.array([1.0])}
        with pytest.raises(TrainingDiverged, match="w"):
            sgd_step(params, {"w": np.array([np.inf])}, lr=0.1)
        params = {"w": np.array([np.nan])}
        with pytest.raises(TrainingDiverged):
            sgd_step(params, {"w": np.array([0.0])}, lr=0.1)


class TestSettings:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainSettings(epochs=-1)
        with pytest.raises(ValueError):
            TrainSettings(batch_size=0)


class TestVoxelizeSet:
    def test_batch_innermost(self, rng):
        # (N, T, 2, H, W) over (T, 2, H, W, N) memory: forward's per-step
        # cast of a batch-innermost input is a contiguous copy
        out = voxelize_set([toy_stream(rng, i % 2) for i in range(5)], 3)
        assert out.shape == (5, 3, 2, 8, 8) and out.dtype == np.uint8
        assert out.transpose(1, 2, 3, 4, 0).flags.c_contiguous

    def test_equals_stacked_voxelize(self, rng):
        streams = [toy_stream(rng, i % 2, n=n) for i, n in enumerate([0, 1, 30, 200])]
        np.testing.assert_array_equal(voxelize_set(streams, 4),
                                      np.stack([voxelize(s, 4) for s in streams]))

    def test_mixed_geometry(self, rng):
        with pytest.raises(ValueError, match="16x8 stream does not voxelize"):
            voxelize_set([toy_stream(rng, 0), toy_stream(rng, 0, width=16)], 2)

    def test_invalid_stream(self, rng):
        bad = EventStream(x=[0, 8], y=[0, 0], t=[0, 1], p=[1, 1], width=8, height=8,
                          t_start=0, t_end=100)
        with pytest.raises(InvalidStreamError, match="x_bounds"):
            voxelize_set([toy_stream(rng, 0), bad], 2)

    def test_empty(self):
        with pytest.raises(ValueError):
            voxelize_set([], 2)


class TestTrainLoop:
    def settings(self, **kw):
        base = dict(epochs=10, batch_size=4, lr=0.1, seed=0, early_stop_acc=None)
        base.update(kw)
        return TrainSettings(**base)

    def test_loss_decreases(self, rng):
        config = toy_config()
        params = init_params(config, seed=0, dtype=np.float64)
        tr_s, tr_y, va_x, va_y = toy_data(rng)
        result = train(config, params, tr_s, tr_y, va_x, va_y, self.settings())
        losses = [row["loss"] for row in result.history]
        assert len(losses) == 10
        increases = sum(b > a for a, b in zip(losses, losses[1:]))
        assert increases <= 1
        assert losses[-1] < losses[0]

    def test_learns_separable_task(self, rng):
        config = toy_config()
        params = init_params(config, seed=0, dtype=np.float64)
        tr_s, tr_y, va_x, va_y = toy_data(rng)
        result = train(config, params, tr_s, tr_y, va_x, va_y, self.settings())
        assert result.best_val_acc == 1.0

    def test_deterministic(self, rng):
        config = toy_config()
        tr_s, tr_y, va_x, va_y = toy_data(rng)
        runs = []
        for _ in range(2):
            params = init_params(config, seed=3, dtype=np.float64)
            runs.append(train(config, params, tr_s, tr_y, va_x, va_y,
                              self.settings(seed=7)))
        assert runs[0].history == runs[1].history
        assert all(runs[0].params[k].tobytes() == runs[1].params[k].tobytes()
                   for k in runs[0].params)

    def test_zero_epochs(self, rng):
        config = toy_config()
        params = init_params(config, seed=1)
        init_copy = {k: v.copy() for k, v in params.items()}
        tr_s, tr_y, va_x, va_y = toy_data(rng)
        result = train(config, params, tr_s, tr_y, va_x, va_y,
                       self.settings(epochs=0))
        assert result.best_epoch == -1
        assert result.history == []
        assert all(np.array_equal(result.params[k], init_copy[k])
                   for k in init_copy)

    def test_early_stop(self, rng):
        config = toy_config()
        params = init_params(config, seed=2, dtype=np.float64)
        tr_s, tr_y, va_x, va_y = toy_data(rng)
        result = train(config, params, tr_s, tr_y, va_x, va_y,
                       self.settings(early_stop_acc=0.0))
        assert len(result.history) == 1

    def test_best_snapshot_reproduces_best_acc(self, rng):
        config = toy_config()
        params = init_params(config, seed=4, dtype=np.float64)
        tr_s, tr_y, va_x, va_y = toy_data(rng)
        result = train(config, params, tr_s, tr_y, va_x, va_y, self.settings())
        assert result.best_val_acc == max(r["val_acc"] for r in result.history)
        assert result.best_epoch == min(r["epoch"] for r in result.history
                                        if r["val_acc"] == result.best_val_acc)
        got = accuracy(config, result.params, va_x, va_y)
        assert got == result.best_val_acc

    def test_log_file_matches_history(self, rng):
        config = toy_config()
        params = init_params(config, seed=5, dtype=np.float64)
        tr_s, tr_y, va_x, va_y = toy_data(rng)
        buf = io.StringIO()
        result = train(config, params, tr_s, tr_y, va_x, va_y,
                       self.settings(epochs=3), log_file=buf)
        rows = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert rows == result.history

    def test_augmented_run_deterministic(self, rng):
        config = toy_config()
        spec = AugmentSpec(transforms=(TransformSpec("noise", prob=1.0,
                                                     params={"ratio": 0.2}),
                                       TransformSpec("polflip", prob=0.5)))
        tr_s, tr_y, va_x, va_y = toy_data(rng)
        results = []
        for _ in range(2):
            params = init_params(config, seed=6, dtype=np.float64)
            results.append(train(config, params, tr_s, tr_y, va_x, va_y,
                                 self.settings(epochs=4), augment=spec))
        assert results[0].history == results[1].history

    def test_one_trace_alive_per_step(self, rng, monkeypatch):
        # each training forward starts after the previous step's trace is gone
        config = toy_config()
        params = init_params(config, seed=0)
        tr_s, tr_y, va_x, va_y = toy_data(rng)
        real_forward, traces = nn_train.forward, []

        def recording_forward(*args, **kwargs):
            if kwargs.get("record", True):
                alive = [ref for ref in traces if ref() is not None]
                assert not alive, "a previous step's ForwardTrace is still referenced"
            logits, trace = real_forward(*args, **kwargs)
            if kwargs.get("record", True):
                traces.append(weakref.ref(trace))
            return logits, trace

        monkeypatch.setattr(nn_train, "forward", recording_forward)
        train(config, params, tr_s, tr_y, va_x, va_y, self.settings(epochs=2))
        assert len(traces) == 6  # 12 streams, batch 4, 2 epochs

    def test_batch_built_batch_innermost(self, rng, monkeypatch):
        # each training batch is a (B, T, C, H, W) view over (T, C, H, W, B)
        # memory holding the voxelized streams in the epoch's order
        config = toy_config()
        params = init_params(config, seed=0)
        tr_s, tr_y, va_x, va_y = toy_data(rng)
        real_forward, batches = nn_train.forward, []

        def recording_forward(config, params, x, **kwargs):
            if kwargs.get("record", True):
                assert x.transpose(1, 2, 3, 4, 0).flags.c_contiguous
                batches.append(x.copy())
            return real_forward(config, params, x, **kwargs)

        monkeypatch.setattr(nn_train, "forward", recording_forward)
        settings = self.settings(epochs=1)
        train(config, params, tr_s, tr_y, va_x, va_y, settings)
        order = nn_train._epoch_rngs(settings.seed, 0)[0].permutation(len(tr_s))
        assert [len(b) for b in batches] == [4, 4, 4]
        np.testing.assert_array_equal(np.concatenate(batches),
                                      voxelize_set(tr_s, 2)[order])

    def test_augmented_batches_equal_voxelize_set(self, rng, monkeypatch):
        # samples are voxelized straight into their batch slots, a short last
        # batch included: every batch equals voxelize_set of the epoch's
        # augmented streams in the epoch's order
        config = toy_config()
        params = init_params(config, seed=0)
        tr_s, tr_y, va_x, va_y = toy_data(rng)
        spec = AugmentSpec(tuple(TransformSpec(kind, prob=0.5)
                                 for kind in COMMON_EDAS + SPECIFIC_EDAS))
        real_forward, batches = nn_train.forward, []

        def recording_forward(config, params, x, **kwargs):
            if kwargs.get("record", True):
                batches.append(x.copy())
            return real_forward(config, params, x, **kwargs)

        monkeypatch.setattr(nn_train, "forward", recording_forward)
        settings = self.settings(epochs=2, batch_size=5)
        train(config, params, tr_s, tr_y, va_x, va_y, settings, augment=spec)
        want = []
        for epoch in range(2):
            shuffle_rng, aug_seed = nn_train._epoch_rngs(settings.seed, epoch)
            epoch_spec = spec.with_seed(aug_seed)
            want += [apply_pipeline(tr_s[i], epoch_spec, sample_index=int(i))
                     for i in shuffle_rng.permutation(len(tr_s))]
        assert [len(b) for b in batches] == [5, 5, 2, 5, 5, 2]
        np.testing.assert_array_equal(np.concatenate(batches), voxelize_set(want, 2))

    def test_every_sample_checked(self, rng):
        config = toy_config()
        params = init_params(config, seed=0)
        tr_s, tr_y, va_x, va_y = toy_data(rng)
        bad = EventStream(x=[0, 8], y=[0, 0], t=[0, 1], p=[1, 1], width=8, height=8,
                          t_start=0, t_end=100, label=0)
        with pytest.raises(InvalidStreamError, match="x_bounds"):
            train(config, params, tr_s[:-1] + [bad], tr_y, va_x, va_y, self.settings())
        wide = toy_stream(rng, 0, width=16)
        with pytest.raises(ValueError, match="16x8 stream does not voxelize"):
            train(config, params, tr_s[:-1] + [wide], tr_y, va_x, va_y, self.settings())

    def test_predict_empty(self):
        config = toy_config()
        params = init_params(config, seed=0)
        out = predict(config, params, np.zeros((0, 2, 2, 8, 8), dtype=np.uint8))
        assert out.shape == (0,)


@pytest.mark.parametrize("call", [
    lambda config, params, data: synaptic_layers(config, kind="hybrid"),
    lambda config, params, data: predict(config, params, data[2], kind="hybrid"),
    lambda config, params, data: accuracy(config, params, data[2], data[3], kind="hybrid"),
    lambda config, params, data: train(config, params, *data, TrainSettings(epochs=1),
                                       kind="hybrid"),
], ids=["synaptic_layers", "predict", "accuracy", "train"])
def test_unknown_model_kind_rejected(rng, call):
    # init_params already rejects it; none of these may fall back to spiking
    config = toy_config()
    params = init_params(config, seed=0)
    with pytest.raises(ConfigError, match="kind must be spiking or dense"):
        call(config, params, toy_data(rng))
