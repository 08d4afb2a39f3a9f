"""Loss, schedule, optimizer, and the epoch loop on a separable toy task."""

import io
import json
import os
import signal
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import evsnn
from evsnn import _blas, _helper
from evsnn.augment import (COMMON_EDAS, SPECIFIC_EDAS, AugmentSpec, TransformSpec,
                           apply_pipeline)
from evsnn.events import EventStream, InvalidStreamError, voxelize
from evsnn.nn import (Accumulator, Classifier, ConfigError, NetworkConfig, init_params,
                      network, sew_tiny, synaptic_layers)
from evsnn.nn import train as nn_train
from evsnn.nn.checkpoint import save_checkpoint
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
from conftest import logging_pids


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
        # 12 streams in batches of 4, each whole below the split floor, 2 epochs
        assert len(traces) == 6

    def test_batch_built_batch_innermost(self, rng, monkeypatch):
        # each training batch is a (B, T, C, H, W) view over (T, C, H, W, B)
        # memory holding the voxelized streams in the epoch's order
        config = toy_config()
        params = init_params(config, seed=0)
        tr_s, tr_y, va_x, va_y = toy_data(rng)
        real_step, batches = nn_train._train_step, []

        def recording_step(config, params, batch, *args):
            assert batch.transpose(1, 2, 3, 4, 0).flags.c_contiguous
            batches.append(batch.copy())
            return real_step(config, params, batch, *args)

        monkeypatch.setattr(nn_train, "_train_step", recording_step)
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
        real_step, batches = nn_train._train_step, []

        def recording_step(config, params, batch, *args):
            batches.append(batch.copy())
            return real_step(config, params, batch, *args)

        monkeypatch.setattr(nn_train, "_train_step", recording_step)
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

    @pytest.mark.parametrize("labels", [np.array([0]), np.array([], dtype=np.int64),
                                        np.zeros((6, 1), dtype=np.int64)])
    def test_accuracy_needs_one_label_per_sample(self, labels):
        # six samples against one label broadcast to a score of 1.0
        config = toy_config()
        params = init_params(config, seed=0)
        with pytest.raises(ValueError, match="one label per sample"):
            accuracy(config, params, np.zeros((6, 2, 2, 8, 8), dtype=np.uint8), labels)

    def test_accuracy_needs_a_sample(self):
        # no sample read NaN, with two RuntimeWarnings
        config = toy_config()
        params = init_params(config, seed=0)
        with pytest.raises(ValueError, match="at least one sample"):
            accuracy(config, params, np.zeros((0, 2, 2, 8, 8), dtype=np.uint8),
                     np.zeros(0, dtype=np.int64))

    @pytest.mark.parametrize("n_val", [0, 3])
    def test_validation_set_checked_before_training(self, rng, monkeypatch, n_val):
        # an empty one ran every epoch and returned the initial parameters
        # with best_epoch -1: a NaN accuracy never beats -1
        config = toy_config()
        params = init_params(config, seed=0)
        tr_s, tr_y, va_x, _ = toy_data(rng)

        def no_step(*args):
            raise AssertionError("a step ran before the validation set was checked")

        monkeypatch.setattr(nn_train, "_train_step", no_step)
        with pytest.raises(ValueError, match="one label per sample"):
            train(config, params, tr_s, tr_y, va_x[:n_val], np.zeros(2, dtype=np.int64),
                  self.settings())

    def test_predict_empty(self):
        config = toy_config()
        params = init_params(config, seed=0)
        out = predict(config, params, np.zeros((0, 2, 2, 8, 8), dtype=np.uint8))
        assert out.shape == (0,)


SPLIT_MIN = network._SPLIT_MIN  # the floor the fixtures below may lower


def fake_threads(monkeypatch, count):
    """Fakes the OpenBLAS thread lookup at ``count`` threads, having stopped
    any helper forked at the counts before; returns the list of the thread
    counts then set."""
    _helper.stop()
    calls = []
    monkeypatch.setattr(_blas, "threads", lambda: [count])
    monkeypatch.setattr(_blas, "set_threads", calls.append)
    return calls


class TestHalfBatchGradient:
    """A training batch's gradient is the sum of its two halves' gradients,
    each over the whole batch's size, first half first. Split (the second
    half in the helper process, at two BLAS threads) or whole (both halves
    here, at one), the bits are the same. The fixture lets every batch of
    two or more split."""

    @pytest.fixture(autouse=True)
    def any_size_splits(self, monkeypatch):
        monkeypatch.setattr(network, "_SPLIT_MIN", 1)

    @pytest.fixture
    def data(self, rng):
        # 16x16 sew_tiny: convs, IF sites and SEW blocks, so each half runs
        # the encoder's BPTT
        streams = [toy_stream(rng, i % 2, width=16, height=16, n=120) for i in range(16)]
        labels = np.array([s.label for s in streams])
        return (sew_tiny(2, height=16, width=16, time_steps=2, theta=0.5),
                streams[:12], labels[:12], voxelize_set(streams[12:], 2), labels[12:])

    def train_run(self, data, kind="spiking", batch_size=4):
        config, streams, labels, val_x, val_y = data
        params = init_params(config, 3, kind=kind)
        settings = TrainSettings(epochs=2, batch_size=batch_size, lr=0.1, seed=1,
                                 early_stop_acc=None)
        return params, train(config, params, streams, labels, val_x, val_y, settings,
                             kind=kind)

    @staticmethod
    def assert_same_run(got, want, tmp_path):
        (params, result), (want_params, want_result) = got, want
        assert list(params) == list(want_params)
        for name in params:
            assert params[name].tobytes() == want_params[name].tobytes(), name
        assert result.history == want_result.history
        for run, (_, res) in enumerate((got, want)):
            save_checkpoint(tmp_path / f"{run}.evck", res.params, {"epoch": res.best_epoch})
        assert (tmp_path / "0.evck").read_bytes() == (tmp_path / "1.evck").read_bytes()

    @pytest.mark.parametrize("mode", ["spike", "relaxed", "dense"])
    @pytest.mark.parametrize("batch", [16, 5, 1])
    def test_gradients_bitwise_equal(self, monkeypatch, data, mode, batch):
        config, streams, labels, val_x, val_y = data
        params = init_params(config, 1, kind="dense" if mode == "dense" else "spiking")
        x = voxelize_set((streams + streams)[:batch], 2)
        y = np.concatenate([labels, labels])[:batch]
        split_calls = fake_threads(monkeypatch, 2)
        logits, grads = nn_train._batch_grads(config, params, x, y, mode)
        assert split_calls == ([[1]] if batch > 1 else [])  # one sample never splits
        assert fake_threads(monkeypatch, 1) == []
        want_logits, want = nn_train._batch_grads(config, params, x, y, mode)
        assert logits.shape == (batch, 2) and logits.tobytes() == want_logits.tobytes()
        assert list(grads) == list(params)
        for name in params:
            assert grads[name].tobytes() == want[name].tobytes(), name
        assert any(np.any(g) for name, g in grads.items() if name.startswith("00."))

    @pytest.mark.parametrize("kind", ["spiking", "dense"])
    # 12 samples in batches of 5, 5 and 2 (halves of 3 + 2 and 1 + 1), or of 1
    @pytest.mark.parametrize("batch_size,split_steps", [(5, 3), (1, 0)])
    def test_epochs_bitwise_equal(self, monkeypatch, data, tmp_path, kind, batch_size,
                                  split_steps):
        split_calls = fake_threads(monkeypatch, 2)
        split = self.train_run(data, kind, batch_size)
        # two epochs, each with its split steps and its split validation
        # forward: the first split forks the helper, which outlives the run
        assert split_calls == [[1]]
        fake_threads(monkeypatch, 1)
        self.assert_same_run(split, self.train_run(data, kind, batch_size), tmp_path)

    @pytest.mark.parametrize("mode", ["spike", "relaxed", "dense"])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_step_rule(self, monkeypatch, data, mode, threads):
        # below the floor a step is _grads on the whole batch; above it, the
        # sum of _grads on its halves, first half first; at either thread count
        config, streams, labels = data[:3]
        params = init_params(config, 1, kind="dense" if mode == "dense" else "spiking")
        x, y = voxelize_set(streams[:5], 2), labels[:5]
        fake_threads(monkeypatch, threads)
        halves = [nn_train._grads(config, params, x[part], y[part], mode, 5)
                  for part in (slice(0, 3), slice(3, 5))]
        for name, g in halves[0][1].items():
            g += halves[1][1][name]
        for floor, (want_logits, want) in (
                (SPLIT_MIN, nn_train._grads(config, params, x, y, mode, 5)),
                (1, (np.concatenate([halves[0][0], halves[1][0]]), halves[0][1]))):
            monkeypatch.setattr(network, "_SPLIT_MIN", floor)
            logits, grads = nn_train._batch_grads(config, params, x, y, mode)
            assert logits.tobytes() == want_logits.tobytes()
            assert all(grads[name].tobytes() == want[name].tobytes() for name in params)

    def test_each_split_runs_the_half_once_here_once_there(self, monkeypatch, data,
                                                           tmp_path):
        config, streams, labels = data[:3]
        params = init_params(config, 1)
        x, y = voxelize_set(streams[:5], 2), labels[:5]
        log = tmp_path / "pids"
        logging_pids(monkeypatch, nn_train, "_grads_half", log)
        fake_threads(monkeypatch, 2)
        for _ in range(2):
            nn_train._batch_grads(config, params, x, y, "spike")
        helper = str(_helper._current.process.pid)
        assert sorted(log.read_text().split()) == sorted([str(os.getpid()), helper] * 2)

    @staticmethod
    def kill_helper_at_second_job(monkeypatch, tmp_path):
        """Makes the helper SIGKILL itself at the start of its second job,
        once; that step runs both halves here and the next step forks a new
        helper. Returns the flag file the helper leaves."""
        caller, jobs, real_grads = os.getpid(), [0], nn_train._grads
        killed = tmp_path / "killed"

        def dying(*args):
            if os.getpid() != caller:
                jobs[0] += 1
                if jobs[0] == 2 and not killed.exists():
                    killed.touch()
                    os.kill(os.getpid(), signal.SIGKILL)
            return real_grads(*args)

        monkeypatch.setattr(nn_train, "_grads", dying)
        return killed

    def test_helper_killed_mid_epoch(self, monkeypatch, data, tmp_path):
        killed = self.kill_helper_at_second_job(monkeypatch, tmp_path)
        fake_threads(monkeypatch, 2)
        split = self.train_run(data)
        assert killed.exists() and _helper._current.process.is_alive()
        fake_threads(monkeypatch, 1)
        self.assert_same_run(split, self.train_run(data), tmp_path)

    def test_real_blas_paths(self, monkeypatch, data, tmp_path):
        # the real OpenBLAS, nothing faked: split at its thread count and a
        # helper killed mid-epoch, each against a run held at one thread; and
        # below the size floor, a step is _grads on the whole batch at that
        # count, and a run equals one held at one thread
        before = _blas.threads()
        if max(before, default=1) < 2:
            pytest.skip("OpenBLAS runs one thread here, so a training step does not split")
        caller, seen, real_grads = os.getpid(), [], nn_train._grads

        def spy(*args):  # the caller's OpenBLAS threads at each half it runs
            if os.getpid() == caller:
                seen.append(_blas.threads())
            return real_grads(*args)

        monkeypatch.setattr(nn_train, "_grads", spy)
        _blas.set_threads([1] * len(before))
        try:
            whole = self.train_run(data)
        finally:
            _blas.set_threads(before)
        assert _blas.threads() == before

        seen.clear()
        self.assert_same_run(self.train_run(data), whole, tmp_path)
        assert seen and all(t == [1] * len(before) for t in seen)  # every step split

        _helper.stop()
        seen.clear()
        with monkeypatch.context() as floor:
            floor.setattr(network, "_SPLIT_MIN", SPLIT_MIN)  # no toy half reaches it
            config, streams, labels = data[:3]
            params = init_params(config, 3)
            x, y = voxelize_set(streams[:4], 2), labels[:4]
            logits, grads = nn_train._batch_grads(config, params, x, y, "spike")
            assert seen == [before]  # one whole-batch _grads, at the real count
            want_logits, want = real_grads(config, params, x, y, "spike", 4)
            assert logits.tobytes() == want_logits.tobytes()
            assert all(grads[name].tobytes() == want[name].tobytes() for name in params)
            _blas.set_threads([1] * len(before))
            try:
                whole_below = self.train_run(data)
            finally:
                _blas.set_threads(before)
            self.assert_same_run(self.train_run(data), whole_below, tmp_path)
        assert all(t in (before, [1] * len(before)) for t in seen)
        assert _helper._current is None

        killed = self.kill_helper_at_second_job(monkeypatch, tmp_path)
        self.assert_same_run(self.train_run(data), whole, tmp_path)
        assert killed.exists() and _helper._current.process.is_alive()
        _helper.stop()
        assert _blas.threads() == before

    def test_no_process_left_after_exit(self):
        script = """
import numpy as np
from evsnn import _blas, _helper
from evsnn.events import EventStream, voxelize_set
from evsnn.nn import network
from evsnn.nn.train import TrainSettings, train
_blas.threads = lambda: [2]
_blas.set_threads = lambda counts: None
network._SPLIT_MIN = 1
rng = np.random.default_rng(0)
streams = [EventStream(x=rng.integers(0, 8, 40), y=rng.integers(0, 8, 40),
                       t=np.sort(rng.integers(0, 100, 40)), p=rng.integers(0, 2, 40) * 2 - 1,
                       width=8, height=8, t_start=0, t_end=100, label=i % 2)
           for i in range(8)]
labels = np.array([s.label for s in streams])
config = network.sew_tiny(2, height=8, width=8, time_steps=2)
train(config, network.init_params(config, 0), streams, labels, voxelize_set(streams, 2),
      labels, TrainSettings(epochs=1, batch_size=4))
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
