"""Fold planning, cross-validation, and the 32-combination sweep."""

import json
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from evsnn import _blas, bench
from evsnn.augment import COMMON_EDAS
from evsnn.bench import (
    BenchError,
    FoldPlan,
    FoldReport,
    SweepResult,
    derive_seed,
    format_sweep_text,
    kfold_split,
    run_cv,
    run_specific_eda,
    spec_for_mask,
    sweep_common_eda,
)
from evsnn.events import EventStream
from evsnn.nn import Accumulator, Classifier, NetworkConfig
from evsnn.nn.train import TrainSettings


def toy_config(classes=2):
    return NetworkConfig(time_steps=2, height=8, width=8,
                         layers=(Accumulator(128), Classifier(classes)))


def toy_stream(rng, label, width=8, height=8, n=30):
    x0 = 0 if label == 0 else width // 2
    return EventStream(
        x=rng.integers(x0, x0 + width // 2, n),
        y=rng.integers(0, height, n),
        t=np.sort(rng.integers(0, 100, n)),
        p=rng.integers(0, 2, n) * 2 - 1,
        width=width, height=height, t_start=0, t_end=100, label=label)


def toy_dataset(n=20, seed=99):
    rng = np.random.default_rng(seed)
    streams = [toy_stream(rng, i % 2) for i in range(n)]
    return streams, np.array([s.label for s in streams])


FAST = TrainSettings(epochs=3, batch_size=8, lr=0.3, seed=0)


class TestKfold:
    def test_equal_folds(self):
        plan = kfold_split(100, 10, seed=0)
        assert plan.k == 10
        assert all(len(f) == 10 for f in plan.folds)

    def test_remainder_goes_to_first_folds(self):
        plan = kfold_split(101, 10, seed=0)
        assert [len(f) for f in plan.folds] == [11] + [10] * 9
        plan = kfold_split(103, 10, seed=0)
        assert [len(f) for f in plan.folds] == [11, 11, 11] + [10] * 7

    def test_deterministic(self):
        assert kfold_split(40, 7, seed=5) == kfold_split(40, 7, seed=5)
        assert kfold_split(40, 7, seed=5) != kfold_split(40, 7, seed=6)

    @hyp_settings(deadline=None, max_examples=40)
    @given(n=st.integers(1, 60), k=st.integers(1, 10), seed=st.integers(0, 99))
    def test_partition_property(self, n, k, seed):
        if n < k:
            with pytest.raises(ValueError, match="at least"):
                kfold_split(n, k, seed)
            return
        plan = kfold_split(n, k, seed)
        flat = sorted(i for fold in plan.folds for i in fold)
        assert flat == list(range(n))
        sizes = [len(f) for f in plan.folds]
        assert max(sizes) - min(sizes) <= 1

    def test_train_indices_complement(self):
        plan = kfold_split(23, 4, seed=1)
        for fold in range(4):
            train = set(plan.train_indices(fold))
            assert train.isdisjoint(plan.folds[fold])
            assert train | set(plan.folds[fold]) == set(range(23))

    def test_plan_rejects_non_partition(self):
        with pytest.raises(ValueError, match="partition"):
            FoldPlan(k=2, seed=0, folds=((0, 0), (1, 2)))
        with pytest.raises(ValueError, match="partition"):
            FoldPlan(k=2, seed=0, folds=((0, 2), (3,)))

    def test_plan_rejects_lopsided_sizes(self):
        with pytest.raises(ValueError, match="sizes"):
            FoldPlan(k=2, seed=0, folds=((0, 1, 2), (3,)))


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        assert derive_seed(1, 2, 3) != derive_seed(1, 2, 4)
        assert derive_seed(1, 2) != derive_seed(2, 1)

    def test_uint32_range(self):
        for parts in [(0,), (7, 3), (123456, 0, 9)]:
            s = derive_seed(*parts)
            assert isinstance(s, int) and 0 <= s < 2 ** 32


class TestRunCv:
    def test_report_shape(self):
        streams, labels = toy_dataset()
        report = run_cv(streams, labels, toy_config(), FAST, k=4)
        assert report.k == 4
        assert len(report.fold_acc) == 4
        assert report.mean_acc == pytest.approx(np.mean(report.fold_acc))
        for i, row in enumerate(report.per_fold):
            assert row["fold"] == i
            assert row["train_size"] == 15 and row["val_size"] == 5
            assert 0 <= row["best_epoch"] < row["epochs_run"] <= FAST.epochs

    def test_deterministic(self):
        streams, labels = toy_dataset()
        a = run_cv(streams, labels, toy_config(), FAST, k=4)
        b = run_cv(streams, labels, toy_config(), FAST, k=4)
        assert a.fold_acc == b.fold_acc
        assert a.per_fold == b.per_fold

    def test_learns_separable_task(self):
        streams, labels = toy_dataset()
        report = run_cv(streams, labels, toy_config(), FAST, k=4)
        assert report.mean_acc >= 0.9

    def test_zero_epochs_reports_init_params(self):
        streams, labels = toy_dataset()
        rest = TrainSettings(epochs=0, batch_size=8, lr=0.3, seed=0)
        report = run_cv(streams, labels, toy_config(), rest, k=4)
        for row in report.per_fold:
            assert row["best_epoch"] == -1
            assert row["epochs_run"] == 0
        trained = run_cv(streams, labels, toy_config(), FAST, k=4)
        assert trained.mean_acc >= report.mean_acc

    def test_shuffled_bins_equal_for_bin_sum_model(self):
        # the passthrough network sums voxels over time, so permuting the
        # time bins of the evaluation tensors cannot change its predictions;
        # a temporal model must beat this baseline to claim order sensitivity
        streams, labels = toy_dataset()
        report = run_cv(streams, labels, toy_config(), FAST, k=4,
                        eval_shuffled_bins=True)
        assert report.shuffled_fold_acc == report.fold_acc
        assert report.shuffled_mean_acc == pytest.approx(report.mean_acc)
        doc = report.to_json_dict()
        assert doc["shuffled_bins_fold_accuracies"] == report.shuffled_fold_acc

    def test_nested_validation_holds_out_two_folds(self):
        streams, labels = toy_dataset()
        report = run_cv(streams, labels, toy_config(), FAST, k=4,
                        validation="nested")
        assert report.validation == "nested"
        for row in report.per_fold:
            assert row["train_size"] == 10 and row["val_size"] == 5
        assert "separate validation fold" in report.to_json_dict()["validation_note"]

    def test_heldout_flagged_optimistic(self):
        streams, labels = toy_dataset()
        report = run_cv(streams, labels, toy_config(), FAST, k=4)
        assert report.validation == "heldout"
        assert "optimistic" in report.to_json_dict()["validation_note"]

    def test_bad_kind_and_validation(self):
        streams, labels = toy_dataset(n=8)
        with pytest.raises(ValueError, match="kind"):
            run_cv(streams, labels, toy_config(), FAST, k=2, kind="conv")
        with pytest.raises(ValueError, match="validation"):
            run_cv(streams, labels, toy_config(), FAST, k=2, validation="loocv")

    @pytest.mark.parametrize("k, validation, message", [
        (1, "heldout", "k=1 leaves nothing to train on outside held folds (0,)"),
        (2, "nested", "k=2 leaves nothing to train on outside held folds (0, 1)"),
        (0, "heldout", "k must be >= 1, got 0"),
        (-1, "heldout", "k must be >= 1, got -1"),
    ], ids=["k1", "nested_k2", "k0", "k_negative"])
    def test_split_without_training_samples(self, k, validation, message):
        streams, labels = toy_dataset(n=8)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_cv(streams, labels, toy_config(), FAST, k=k, validation=validation)

    def test_sweep_split_without_training_samples(self):
        streams, labels = toy_dataset(n=8)
        with pytest.raises(ValueError, match=r"^k=1 leaves nothing to train on"):
            sweep_common_eda(streams, labels, toy_config(), FAST, k=1)

    def test_divergence_names_fold(self):
        streams, labels = toy_dataset(n=8)
        bad = TrainSettings(epochs=1, batch_size=8, lr=float("inf"), seed=0)
        with np.errstate(invalid="ignore"), \
                pytest.raises(BenchError, match="fold 0"):
            run_cv(streams, labels, toy_config(), bad, k=2)

    def test_parallel_matches_serial(self):
        streams, labels = toy_dataset(n=12)
        fast = TrainSettings(epochs=1, batch_size=8, lr=0.3, seed=0)
        serial = run_cv(streams, labels, toy_config(), fast, k=2, jobs=1)
        parallel = run_cv(streams, labels, toy_config(), fast, k=2, jobs=2)
        assert serial.fold_acc == parallel.fold_acc
        assert serial.per_fold == parallel.per_fold

    def test_report_validation(self):
        with pytest.raises(ValueError, match="mean"):
            FoldReport(k=2, model_kind="spiking", validation="heldout",
                       fold_acc=[1.0, 0.5], mean_acc=0.9, per_fold=[])
        with pytest.raises(ValueError, match="0, 1"):
            FoldReport(k=2, model_kind="spiking", validation="heldout",
                       fold_acc=[1.5, 0.5], mean_acc=1.0, per_fold=[])

    def test_json_serializable(self):
        streams, labels = toy_dataset(n=8)
        report = run_cv(streams, labels, toy_config(), FAST, k=2)
        doc = json.loads(report.to_json())
        assert doc["k"] == 2
        assert doc["fold_accuracies"] == report.fold_acc
        assert doc["config"]["network"]["time_steps"] == 2


class TestSpecForMask:
    def test_empty_mask_is_none(self):
        assert spec_for_mask(0) is None

    def test_bit_order_is_canonical(self):
        spec = spec_for_mask(0b10101)
        assert [t.kind for t in spec.transforms] == ["crop", "noise", "reverse"]

    def test_extras_appended(self):
        spec = spec_for_mask(31, extra=("eventdrop", "mirror"))
        assert [t.kind for t in spec.transforms] == \
            list(COMMON_EDAS) + ["eventdrop", "mirror"]

    def test_extras_without_common(self):
        spec = spec_for_mask(0, extra=("eventdrop",))
        assert [t.kind for t in spec.transforms] == ["eventdrop"]

    def test_seed_and_prob_plumbed(self):
        spec = spec_for_mask(1, seed=77, prob=0.25)
        assert spec.seed == 77
        assert spec.transforms[0].prob == 0.25


@pytest.fixture(scope="module")
def sweep_setup():
    streams, labels = toy_dataset(n=8, seed=5)
    settings = TrainSettings(epochs=1, batch_size=8, lr=0.3, seed=0)
    result = sweep_common_eda(streams, labels, toy_config(), settings,
                              k=2, split_seed=3, sweep_seed=11)
    return streams, labels, settings, result


class TestSweep:
    def test_record_grid(self, sweep_setup):
        *_, result = sweep_setup
        assert len(result.records) == 64
        keys = [(r["model_kind"], r["mask"], r["fold"]) for r in result.records]
        assert keys == sorted(keys)
        assert keys == [("spiking", m, f) for m in range(32) for f in range(2)]
        assert all(0.0 <= r["accuracy"] <= 1.0 for r in result.records)

    def test_deterministic(self, sweep_setup):
        streams, labels, settings, result = sweep_setup
        again = sweep_common_eda(streams, labels, toy_config(), settings,
                                 k=2, split_seed=3, sweep_seed=11)
        assert again.records == result.records

    def test_empty_subset_matches_plain_cv(self, sweep_setup):
        streams, labels, settings, result = sweep_setup
        plain = run_cv(streams, labels, toy_config(), settings, k=2,
                       split_seed=3, base_seed=derive_seed(11, 0))
        sweep_accs = [r["accuracy"] for r in result.records if r["mask"] == 0]
        assert sweep_accs == plain.fold_acc

    def test_mean_by_mask(self, sweep_setup):
        *_, result = sweep_setup
        means = result.mean_by_mask("spiking")
        assert sorted(means) == list(range(32))
        for mask, mean in means.items():
            rows = [r["accuracy"] for r in result.records if r["mask"] == mask]
            assert mean == pytest.approx(np.mean(rows), abs=1e-12)

    def test_arrays_align_with_design(self, sweep_setup):
        *_, result = sweep_setup
        masks, acc = result.arrays("spiking")
        assert masks.shape == acc.shape == (64,)
        # each augmentation bit active in exactly half the cells
        for j in range(5):
            assert int(((masks >> j) & 1).sum()) == 32

    def test_best_mask_is_argmax(self, sweep_setup):
        *_, result = sweep_setup
        means = result.mean_by_mask("spiking")
        best = result.best_mask("spiking")
        assert means[best] == max(means.values())

    def test_best_mask_tie_breaks(self):
        def synthetic(high_masks):
            records = [{"mask": m, "fold": 0,
                        "accuracy": 0.9 if m in high_masks else 0.5,
                        "best_epoch": 0, "model_kind": "spiking"}
                       for m in range(32)]
            return SweepResult(k=1, seed=0, split_seed=0,
                               eda_names=COMMON_EDAS, records=records)
        # fewer active augmentations wins the tie, then the lower mask
        assert synthetic({3, 4}).best_mask("spiking") == 4
        assert synthetic({4, 8}).best_mask("spiking") == 4
        assert synthetic({7}).best_mask("spiking") == 7

    def test_record_count_validated(self):
        records = [{"mask": m, "fold": 0, "accuracy": 0.5, "best_epoch": 0,
                    "model_kind": "spiking"} for m in range(31)]
        with pytest.raises(ValueError, match="expected 32"):
            SweepResult(k=1, seed=0, split_seed=0, eda_names=COMMON_EDAS,
                        records=records)

    def test_json_round_trip(self, sweep_setup):
        *_, result = sweep_setup
        obj = json.loads(result.to_json())
        back = SweepResult.from_json_dict(obj)
        assert back.records == result.records
        assert back.eda_names == result.eda_names
        assert (back.k, back.seed, back.split_seed) == (2, 11, 3)

    def test_unknown_json_key_rejected(self, sweep_setup):
        *_, result = sweep_setup
        obj = result.to_json_dict()
        obj["extra"] = 1
        with pytest.raises(ValueError, match=r"sweep result: unknown keys \['extra'\]"):
            SweepResult.from_json_dict(obj)

    def test_format_text(self, sweep_setup):
        *_, result = sweep_setup
        text = format_sweep_text(result)
        assert "(none)" in text
        assert "<- best" in text
        assert "crop, hflip, noise, polflip, reverse" in text
        assert "crop+hflip+noise+polflip+reverse" in text

    def test_divergence_names_mask_and_fold(self):
        streams, labels = toy_dataset(n=4, seed=5)
        bad = TrainSettings(epochs=1, batch_size=8, lr=float("inf"), seed=0)
        with np.errstate(invalid="ignore"), \
                pytest.raises(BenchError, match=r"combination mask 0"):
            sweep_common_eda(streams, labels, toy_config(), bad, k=2)


class TestRunSpecificEda:
    def test_none_reproduces_best_cell(self, sweep_setup):
        streams, labels, settings, result = sweep_setup
        report = run_specific_eda(streams, labels, toy_config(), settings,
                                  result, "none")
        best = result.best_mask("spiking")
        cell = [r["accuracy"] for r in result.records if r["mask"] == best]
        assert report.fold_acc == cell
        assert report.echo["best_mask"] == best
        assert report.echo["which"] == "none"

    def test_extras_extend_pipeline(self, sweep_setup):
        streams, labels, settings, result = sweep_setup
        report = run_specific_eda(streams, labels, toy_config(), settings,
                                  result, "eventdrop+mirror")
        assert report.echo["pipeline"][-2:] == ["eventdrop", "mirror"]
        assert len(report.fold_acc) == 2

    def test_unknown_which(self, sweep_setup):
        streams, labels, settings, result = sweep_setup
        with pytest.raises(ValueError, match="which"):
            run_specific_eda(streams, labels, toy_config(), settings,
                             result, "cutmix")


class TestNestedFoldPath:
    """Nested validation runs through the same per-fold work unit as
    held-out validation, so shuffled-bin scoring and workers apply to it."""

    def test_nested_with_shuffled_bins(self):
        streams, labels = toy_dataset()
        report = run_cv(streams, labels, toy_config(), FAST, k=4,
                        validation="nested", eval_shuffled_bins=True)
        # the bin-sum model cannot see the order of the time bins
        assert report.shuffled_fold_acc == report.fold_acc
        doc = report.to_json_dict()
        assert doc["shuffled_bins_fold_accuracies"] == report.fold_acc
        assert doc["validation"] == "nested"

    def test_nested_runs_in_workers(self, monkeypatch):
        streams, labels = toy_dataset(n=12)
        fast = TrainSettings(epochs=1, batch_size=8, lr=0.3, seed=0)
        serial = run_cv(streams, labels, toy_config(), fast, k=3,
                        validation="nested", jobs=1)
        pools = []
        real_pool = bench.ProcessPoolExecutor

        def spy(*args, **kwargs):
            pools.append(kwargs["max_workers"])
            return real_pool(*args, **kwargs)

        monkeypatch.setattr(bench, "ProcessPoolExecutor", spy)
        parallel = run_cv(streams, labels, toy_config(), fast, k=3,
                          validation="nested", jobs=2)
        assert pools == [2]
        assert serial.fold_acc == parallel.fold_acc
        assert serial.per_fold == parallel.per_fold


def in_process_pool(monkeypatch) -> list[int]:
    """Swap bench's process pool for one that records its ``max_workers``
    and runs the initializer and the map in this process; starts nothing.
    The initializer's one-thread BLAS setting is kept off this process."""
    sizes = []

    class Pool:
        def __init__(self, max_workers, mp_context, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(bench, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(_blas, "set_threads", lambda counts: None)
    monkeypatch.setitem(sys.modules, "threadpoolctl", None)
    monkeypatch.setattr(bench, "_DATA", None)
    return sizes


class TestPoolSize:
    @pytest.mark.parametrize("jobs,workers", [(2, 2), (3, 3), (64, 3)])
    def test_no_more_workers_than_folds(self, jobs, workers, monkeypatch):
        streams, labels = toy_dataset(n=12)
        fast = TrainSettings(epochs=1, batch_size=8, lr=0.3, seed=0)
        serial = run_cv(streams, labels, toy_config(), fast, k=3, jobs=1)
        sizes = in_process_pool(monkeypatch)
        pooled = run_cv(streams, labels, toy_config(), fast, k=3, jobs=jobs)
        assert sizes == [workers]
        assert pooled.per_fold == serial.per_fold

    def test_workers_are_forked(self, monkeypatch):
        # named, so that Python 3.14's new default start method cannot
        # change how the workers start
        contexts, real_pool = [], bench.ProcessPoolExecutor

        def spy(*args, **kwargs):
            contexts.append(kwargs["mp_context"])
            return real_pool(*args, **kwargs)

        monkeypatch.setattr(bench, "ProcessPoolExecutor", spy)
        streams, labels = toy_dataset(n=8)
        fast = TrainSettings(epochs=1, batch_size=8, lr=0.3, seed=0)
        run_cv(streams, labels, toy_config(), fast, k=2, jobs=2)
        assert [context.get_start_method() for context in contexts] == ["fork"]


def _worker_blas_threads():
    return _blas.threads()


class TestWorkerThreads:
    def test_pool_worker_runs_one_blas_thread(self):
        # without threadpoolctl the initializer sets OpenBLAS through ctypes
        if not _blas.threads():
            pytest.skip("no OpenBLAS loaded in this process")
        streams, labels = toy_dataset(n=4)
        with bench.ProcessPoolExecutor(max_workers=1, initializer=bench._init_worker,
                                       initargs=(streams, labels)) as pool:
            threads = pool.submit(_worker_blas_threads).result(timeout=60)
        assert threads and all(n == 1 for n in threads)


def grid_records(k=2, kind="spiking"):
    """One record per (mask, fold) cell of a k-fold sweep."""
    return [{"mask": m, "fold": f, "accuracy": 0.5, "best_epoch": 0, "model_kind": kind}
            for m in range(32) for f in range(k)]


class TestSweepCells:
    """A sweep holds each (mask, fold) cell of 32 x k exactly once per model kind,
    and its masks are read in the COMMON_EDAS bit order."""

    def test_full_grid_per_kind(self):
        result = SweepResult(k=2, seed=0, split_seed=0, eda_names=COMMON_EDAS,
                             records=grid_records(kind="dense") + grid_records())
        assert result.kinds() == ["dense", "spiking"]

    @pytest.mark.parametrize("change, cell", [
        (lambda rs: [r.update(mask=0) for r in rs], "mask 1, fold 0"),
        (lambda rs: rs[0].update(fold=2), "mask 0, fold 0"),
        (lambda rs: rs[0].update(fold=-1), "mask 0, fold 0"),
        (lambda rs: rs[3].update(fold=0), "mask 1, fold 1"),
        (lambda rs: rs[5].update(mask=40), "mask 2, fold 1"),
    ], ids=["one_mask", "fold_k", "fold_negative", "repeated_cell", "mask_outside"])
    def test_uncovered_cell_refused(self, change, cell):
        records = grid_records()
        change(records)
        with pytest.raises(ValueError, match=f"^spiking: no record for {cell}; each of "
                                             r"the 32 x k=2 cells needs exactly one$"):
            SweepResult(k=2, seed=0, split_seed=0, eda_names=COMMON_EDAS, records=records)

    @pytest.mark.parametrize("names", [COMMON_EDAS[::-1], COMMON_EDAS[:2],
                                       COMMON_EDAS + ("mirror",)],
                             ids=["reversed", "two", "six"])
    def test_other_eda_names_refused(self, sweep_setup, names):
        *_, result = sweep_setup
        obj = json.loads(result.to_json())
        obj["eda_names"] = list(names)
        with pytest.raises(ValueError, match=re.escape(
                f"sweep result: eda_names must be {list(COMMON_EDAS)}, got {list(names)}")):
            SweepResult.from_json_dict(obj)

    def test_model_kind_is_a_choice(self, sweep_setup):
        *_, result = sweep_setup
        obj = json.loads(result.to_json())
        for record in obj["records"]:
            record["model_kind"] = "bogus/x"
        with pytest.raises(ValueError, match="^sweep record 0: model_kind must be spiking "
                                             "or dense, got 'bogus/x'$"):
            SweepResult.from_json_dict(obj)
