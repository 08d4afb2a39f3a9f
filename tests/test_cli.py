"""End-to-end command-line flows on a tiny synthetic dataset."""

import argparse
import inspect
import json
import os
import re
import shlex
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import evsnn
from evsnn import _blas, _helper, bench
from evsnn._schema import _schema, dumps
from evsnn.cli import _flags, build_parser, main
from evsnn.events import EventStream, voxelize, voxelize_set
from evsnn.evio import load_events, load_manifest, save_events
from evsnn.nn.checkpoint import load_checkpoint, save_checkpoint
from evsnn.nn import (
    IF,
    SEW,
    Accumulator,
    AvgPool,
    Classifier,
    Conv2d,
    GlobalPool,
    NetworkConfig,
)
from evsnn.nn import network
from evsnn.nn.network import config_to_json, sew_tiny
from evsnn.nn.train import accuracy


def passthrough_net(classes=2, side=16):
    return NetworkConfig(time_steps=2, height=side, width=side,
                         layers=(Accumulator(2 * side * side),
                                 Classifier(classes)))


def synth_args(out, classes=2, per_class=3, seed=1):
    return ["synth", "--classes", str(classes),
            "--samples-per-class", str(per_class),
            "--width", "16", "--height", "16", "--duration", "50000",
            "--events", "400", "--out", str(out), "--seed", str(seed)]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Dataset plus one experiment file for the train/eval/energy flow."""
    root = tmp_path_factory.mktemp("cli")
    assert main(synth_args(root / "ds")) == 0
    exp = {"dataset": "ds/manifest.json",
           "network": config_to_json(passthrough_net()),
           "train": {"epochs": 3, "batch_size": 8, "lr": 0.3},
           "folds": {"k": 3, "seed": 0},
           "seed": 2,
           "out_dir": str(root / "run")}
    (root / "exp.json").write_text(json.dumps(exp))
    return root


@pytest.fixture(scope="module")
def trained(workspace):
    assert main(["train", "--config", str(workspace / "exp.json")]) == 0
    return workspace / "run"


def first_event_file(workspace):
    manifest = load_manifest(workspace / "ds" / "manifest.json")
    return manifest.path(manifest.entries[0])


@pytest.mark.skipif(shutil.which("evsnn") is None,
                    reason="console script not on PATH")
def test_console_script_help():
    proc = subprocess.run(["evsnn", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "synth" in proc.stdout and "energy" in proc.stdout


class TestSynth:
    def test_manifest_and_files(self, workspace):
        manifest = load_manifest(workspace / "ds" / "manifest.json")
        assert len(manifest.entries) == 6
        assert manifest.num_classes == 2
        for entry in manifest.entries:
            assert manifest.path(entry).exists()

    def test_deterministic_bytes(self, tmp_path):
        assert main(synth_args(tmp_path / "a", per_class=2, seed=7)) == 0
        assert main(synth_args(tmp_path / "b", per_class=2, seed=7)) == 0
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_bad_class_count(self, tmp_path, capsys):
        assert main(synth_args(tmp_path / "x", classes=0)) == 2
        assert main(synth_args(tmp_path / "x", classes=99)) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_sample_count(self, tmp_path):
        assert main(synth_args(tmp_path / "x", per_class=0)) == 2

    @pytest.mark.parametrize("events", ["0", "-5"])
    def test_events_below_one_exit2(self, tmp_path, capsys, events):
        args = synth_args(tmp_path / "x")
        args[args.index("--events") + 1] = events
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "events_per_sample" in err
        assert not (tmp_path / "x").exists()

    def test_impossible_geometry_exit2(self, tmp_path, capsys):
        # four classes include the bar templates, which need 16x16 at the
        # default margin
        args = synth_args(tmp_path / "x", classes=4)
        args[args.index("--width") + 1] = "8"
        args[args.index("--height") + 1] = "8"
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "bar templates" in err
        assert not (tmp_path / "x").exists()


class TestVoxelize:
    def test_prints_bins_and_writes_tensor(self, workspace, tmp_path, capsys):
        src = first_event_file(workspace)
        out = tmp_path / "vox.npy"
        rc = main(["voxelize", str(src), "--time-steps", "4",
                   "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        # signal events plus background noise, so read the count back
        assert f"stream: {load_events(src).n} events" in text
        assert "bin 0:" in text and "bin 3:" in text
        tensor = np.load(out)
        assert tensor.shape == (4, 2, 16, 16)
        assert tensor.dtype == np.uint8

    def test_out_without_suffix_written_as_named(self, workspace, tmp_path, capsys):
        src, out = first_event_file(workspace), tmp_path / "vox"
        assert main(["voxelize", str(src), "--time-steps", "3", "--out", str(out)]) == 0
        assert f"uint8 tensor to {out}\n" in capsys.readouterr().out
        assert [p.name for p in tmp_path.iterdir()] == ["vox"]
        np.testing.assert_array_equal(np.load(out), voxelize(load_events(src), 3))

    def test_missing_input(self, tmp_path, capsys):
        assert main(["voxelize", str(tmp_path / "nope.evt")]) == 4
        assert "nope.evt" in capsys.readouterr().err

    def test_bins_beyond_int64_exit2(self, tmp_path):
        # a valid EVT1 file whose last offset times T=6 leaves int64
        save_events(EventStream(x=[0, 0], y=[0, 0], t=[0, 2 ** 62], p=[1, 1], width=2,
                                height=2, t_start=0, t_end=2 ** 62 + 1), tmp_path / "f.evt")
        proc = run_cli("voxelize", str(tmp_path / "f.evt"), "--time-steps", "6")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
        assert "exceeds int64" in proc.stderr

    @pytest.mark.parametrize("steps", ["0", "-3"])
    def test_time_steps_below_one_exit2(self, workspace, tmp_path, steps, capsys):
        out = tmp_path / "vox.npy"
        rc = main(["voxelize", str(first_event_file(workspace)),
                   "--time-steps", steps, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--time-steps" in err
        assert not out.exists()


class TestAugmentCommand:
    def test_hflip_pipeline(self, workspace, tmp_path):
        src = first_event_file(workspace)
        dst = tmp_path / "flipped.evt"
        rc = main(["augment", str(src), str(dst),
                   "--pipeline", "hflip", "--prob", "1.0", "--seed", "3"])
        assert rc == 0
        before, after = load_events(src), load_events(dst)
        np.testing.assert_array_equal(after.x, before.width - 1 - before.x)
        np.testing.assert_array_equal(after.y, before.y)
        np.testing.assert_array_equal(after.t, before.t)
        np.testing.assert_array_equal(after.p, before.p)

    def test_unknown_transform(self, workspace, tmp_path, capsys):
        rc = main(["augment", str(first_event_file(workspace)),
                   str(tmp_path / "o.evt"), "--pipeline", "cutmix"])
        assert rc == 2
        assert "cutmix" in capsys.readouterr().err

    def test_negative_sample_index_exit2(self, workspace, tmp_path, capsys):
        dst = tmp_path / "o.evt"
        rc = main(["augment", str(first_event_file(workspace)), str(dst),
                   "--pipeline", "crop", "--sample-index", "-1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--sample-index" in err
        assert not dst.exists()

    def test_pipeline_or_config_required(self, workspace, tmp_path):
        rc = main(["augment", str(first_event_file(workspace)),
                   str(tmp_path / "o.evt")])
        assert rc == 2

    def test_missing_input(self, tmp_path):
        rc = main(["augment", str(tmp_path / "nope.evt"),
                   str(tmp_path / "o.evt"), "--pipeline", "hflip"])
        assert rc == 4


class TestTrain:
    def test_artifacts(self, workspace, trained):
        report = json.loads((trained / "train_report.json").read_text())
        assert 0.0 <= report["best_val_acc"] <= 1.0
        assert report["val_fold"] == 0
        assert report["train_size"] == 4 and report["val_size"] == 2
        assert (trained / "model.evck").exists()
        lines = (trained / "metrics.ndjson").read_text().splitlines()
        assert len(lines) == report["epochs_run"]
        ledger = json.loads((trained / "train.runledger.json").read_text())
        assert ledger["command"] == "train"
        assert ledger["elapsed_seconds"] >= 0

    def test_ledger_records_cores_and_blas_threads(self, trained):
        ledger = json.loads((trained / "train.runledger.json").read_text())
        assert ledger["nproc"] >= 1
        # one entry per OpenBLAS mapped into the process; none under another BLAS
        threads = ledger["openblas_threads"]
        assert isinstance(threads, list)
        assert all(isinstance(n, int) and n >= 1 for n in threads)

    def test_ledger_of_a_split_run_records_the_callers_threads(self, workspace, conv_trained,
                                                                 tmp_path, monkeypatch):
        # every batch splits; the helper's fork drops the caller to one
        # thread, and the ledger still reads the counts from before it
        monkeypatch.setattr(network, "_SPLIT_MIN", 1)
        counts = [[3, 2]]
        monkeypatch.setattr(_blas, "threads", lambda: list(counts[-1]))
        monkeypatch.setattr(_blas, "set_threads", lambda c: counts.append(list(c)))
        exp = json.loads(conv_trained[0].read_text())
        path = workspace / "split_exp.json"
        path.write_text(json.dumps({**exp, "out_dir": str(tmp_path / "run")}))
        assert main(["train", "--config", str(path)]) == 0
        assert counts == [[3, 2], [1, 1]] and _helper._current.process.is_alive()
        ledger = json.loads((tmp_path / "run" / "train.runledger.json").read_text())
        assert ledger["openblas_threads"] == [3, 2]

    def test_ledger_records_page_faults_and_peak_rss(self, trained):
        ledger = json.loads((trained / "train.runledger.json").read_text())
        assert isinstance(ledger["minor_page_faults"], int)
        assert ledger["minor_page_faults"] >= 0
        assert ledger["peak_rss_mb"] > 0

    def test_rerun_byte_identical_except_ledger(self, workspace, trained):
        stable = ["model.evck", "train_report.json", "metrics.ndjson"]
        before = {n: (trained / n).read_bytes() for n in stable}
        assert main(["train", "--config", str(workspace / "exp.json")]) == 0
        for name in stable:
            assert (trained / name).read_bytes() == before[name], name

    def test_seed_override_prints_provenance(self, workspace, tmp_path, capsys):
        rc = main(["train", "--config", str(workspace / "exp.json"),
                   "--seed", "5", "--out", str(tmp_path / "o")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "provenance: seed = 5" in out
        assert "provenance: out_dir" in out

    def test_config_flag_required(self, capsys):
        assert main(["train"]) == 2
        assert "--config is required" in capsys.readouterr().err

    def test_missing_dataset_exit4(self, tmp_path, capsys):
        exp = {"dataset": "missing/manifest.json",
               "network": config_to_json(passthrough_net())}
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(exp))
        assert main(["train", "--config", str(path)]) == 4
        assert "missing/manifest.json" in capsys.readouterr().err

    def test_unknown_config_key_exit2(self, tmp_path, capsys):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"dataset": "x", "network": {}, "gpu": 1}))
        assert main(["train", "--config", str(path)]) == 2
        assert "unknown keys" in capsys.readouterr().err

    def test_geometry_mismatch_exit2(self, workspace, tmp_path, capsys):
        exp = {"dataset": str(workspace / "ds" / "manifest.json"),
               "network": config_to_json(passthrough_net(side=8)),
               "out_dir": str(tmp_path / "o")}
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(exp))
        assert main(["train", "--config", str(path)]) == 2
        assert "geometry" in capsys.readouterr().err

    def test_class_mismatch_exit2(self, tmp_path, capsys):
        assert main(synth_args(tmp_path / "ds3", classes=3, per_class=1)) == 0
        exp = {"dataset": str(tmp_path / "ds3" / "manifest.json"),
               "network": config_to_json(passthrough_net(classes=2)),
               "folds": {"k": 2}, "out_dir": str(tmp_path / "o")}
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(exp))
        assert main(["train", "--config", str(path)]) == 2
        assert "3 classes" in capsys.readouterr().err

    def test_unbuildable_dense_twin_exit2_writes_nothing(self, workspace, tmp_path, capsys):
        # with no encoder, folding time into channels doubles the feature size
        assert run_changed(workspace, tmp_path, {"model_kind": "dense"}) == 2
        assert_one_error(capsys, "accumulator dim 512 != encoder feature size 1024")
        assert not (tmp_path / "o").exists()

    def test_divergence_exit3(self, workspace, tmp_path, capsys):
        exp = json.loads((workspace / "exp.json").read_text())
        exp["train"]["lr"] = 1e999  # parses as inf
        exp["dataset"] = str(workspace / "ds" / "manifest.json")
        exp["out_dir"] = str(tmp_path / "o")
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(exp).replace("Infinity", "1e999"))
        with np.errstate(invalid="ignore"):
            assert main(["train", "--config", str(path)]) == 3
        assert "diverged" in capsys.readouterr().err


class TestMistypedExperimentValues:
    """A scalar of the wrong JSON type is a schema error (exit 2), caught
    before it reaches the code that would choke on it."""

    @pytest.mark.parametrize("change", [
        {"dataset": 5}, {"out_dir": 5}, {"seed": 1.5}, {"seed": True},
        {"model_kind": 1}, {"folds": {"k": "10"}}, {"folds": {"seed": "x"}},
        {"sweep": {"prob": "x"}}, {"sweep": {"prob": True}},
        {"train": {"lr": "0.1"}}, {"train": {"early_stop_acc": "1"}},
        {"train": {"epochs": 2.0}}, {"energy": {"charging": 0}},
    ], ids=repr)
    def test_exit2(self, workspace, tmp_path, capsys, change):
        exp = json.loads((workspace / "exp.json").read_text())
        exp.update(dataset=str(workspace / "ds" / "manifest.json"),
                   out_dir=str(tmp_path / "o"))
        exp.update(change)
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(exp))
        assert main(["train", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error:") and "must be a JSON" in err


class TestOutOfRangeExperimentValues:
    """A negative seed, or more folds than the dataset has samples, is a
    schema error (exit 2) on every command that reads them, not a traceback
    from the seeding or fold code."""

    @pytest.mark.parametrize("command, change, message", [
        ("train", {"seed": -1}, "seed must be >= 0, got -1"),
        ("train", {"folds": {"k": 3, "seed": -1}}, "folds.seed must be >= 0, got -1"),
        ("train", {"folds": {"k": 100}}, "folds.k=100 needs at least 100 samples"),
        ("eval", {"folds": {"k": 100}}, "folds.k=100 needs at least 100 samples"),
        ("sweep", {"folds": {"k": 7}}, "the dataset has 6"),
        ("energy", {"folds": {"k": 100}}, "folds.k=100 needs at least 100 samples"),
    ], ids=repr)
    def test_exit2(self, workspace, tmp_path, capsys, command, change, message):
        exp = json.loads((workspace / "exp.json").read_text())
        exp.update(dataset=str(workspace / "ds" / "manifest.json"),
                   out_dir=str(tmp_path / "o"))
        exp.update(change)
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(exp))
        assert main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error:") and message in err and err.count("\n") == 1

    def test_seed_flag_below_zero(self, workspace, capsys):
        assert main(["train", "--config", str(workspace / "exp.json"), "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err == "error: seed must be >= 0, got -1\n"


class TestEval:
    def test_reproduces_best_val_acc(self, workspace, trained):
        assert main(["eval", "--config", str(workspace / "exp.json")]) == 0
        train_report = json.loads((trained / "train_report.json").read_text())
        eval_report = json.loads((trained / "eval_report.json").read_text())
        assert eval_report["accuracy"] == train_report["best_val_acc"]
        assert eval_report["best_epoch"] == train_report["best_epoch"]
        assert eval_report["shuffled_bins"] is False

    def test_shuffled_bins_noop_for_bin_sum_model(self, workspace, trained):
        # the passthrough model sums over time, so shuffling bins cannot
        # move its accuracy; the flag still has to land in the report
        assert main(["eval", "--config", str(workspace / "exp.json")]) == 0
        plain = json.loads((trained / "eval_report.json").read_text())
        assert main(["eval", "--config", str(workspace / "exp.json"),
                     "--shuffled-bins"]) == 0
        shuffled = json.loads((trained / "eval_report.json").read_text())
        assert shuffled["shuffled_bins"] is True
        assert shuffled["accuracy"] == plain["accuracy"]

    def test_shuffled_bins_use_run_cv_fold_zero_permutation(self, tmp_path):
        # a model that reads bin order, trained so that run_cv's fold-0
        # permutation and a permutation drawn from (seed, 0, 2) directly
        # score differently
        assert main(["synth", "--classes", "4", "--samples-per-class", "12",
                     "--width", "32", "--height", "32", "--events", "1500",
                     "--out", str(tmp_path / "ds"), "--seed", "3"]) == 0
        exp = {"dataset": "ds/manifest.json",
               "network": {"preset": "sew_tiny", "classes": 4, "height": 32, "width": 32,
                           "theta": 0.5},
               "train": {"epochs": 8, "batch_size": 8, "lr": 0.002, "early_stop_acc": None},
               "folds": {"k": 4, "seed": 0}, "seed": 5, "out_dir": str(tmp_path / "run")}
        (tmp_path / "exp.json").write_text(json.dumps(exp))
        assert main(["train", "--config", str(tmp_path / "exp.json")]) == 0
        assert main(["eval", "--config", str(tmp_path / "exp.json"), "--shuffled-bins"]) == 0
        got = json.loads((tmp_path / "run" / "eval_report.json").read_text())["accuracy"]

        streams, labels = bench.load_dataset(load_manifest(tmp_path / "ds" / "manifest.json"))
        val = list(bench.kfold_split(len(streams), 4, 0).folds[0])
        tensors = voxelize_set([streams[i] for i in val], 6)
        params, _ = load_checkpoint(tmp_path / "run" / "model.evck")
        config = sew_tiny(4, 32, 32, theta=0.5)
        scores = [accuracy(config, params, bench.shuffle_bins(tensors, seed), labels[val])
                  for seed in ([bench.derive_seed(5, 0, 2)], [5, 0, 2])]
        assert scores[0] != scores[1]
        assert got == scores[0]

    def test_missing_checkpoint_exit4(self, workspace, tmp_path):
        rc = main(["eval", "--config", str(workspace / "exp.json"),
                   "--checkpoint", str(tmp_path / "nope.evck")])
        assert rc == 4


@pytest.fixture(scope="module")
def swept(workspace):
    """One tiny full sweep: 32 combinations x 2 folds x 1 epoch."""
    exp = {"dataset": "ds/manifest.json",
           "network": config_to_json(passthrough_net()),
           "train": {"epochs": 1, "batch_size": 8, "lr": 0.3},
           "folds": {"k": 2, "seed": 0},
           "seed": 4,
           "out_dir": str(workspace / "sweep_run")}
    path = workspace / "sweep_exp.json"
    path.write_text(json.dumps(exp))
    assert main(["sweep", "--config", str(path)]) == 0
    return path, workspace / "sweep_run"


class TestSweepCommand:
    def test_outputs(self, swept, capsys):
        _, out_dir = swept
        doc = json.loads((out_dir / "sweep.json").read_text())
        assert len(doc["records"]) == 64
        assert doc["eda_names"] == ["crop", "hflip", "noise", "polflip",
                                    "reverse"]
        text = (out_dir / "sweep.txt").read_text()
        assert "<- best" in text and "(none)" in text
        assert (out_dir / "sweep.runledger.json").exists()


class TestRegressCommand:
    def test_from_scores_reproducible(self, swept, tmp_path, capsys):
        _, out_dir = swept
        scores = str(out_dir / "sweep.json")
        for sub in ("r1", "r2"):
            rc = main(["regress", "--scores", scores,
                       "--out", str(tmp_path / sub)])
            assert rc == 0
        assert (tmp_path / "r1" / "regress_spiking.json").read_bytes() == \
            (tmp_path / "r2" / "regress_spiking.json").read_bytes()
        out = capsys.readouterr().out
        assert "[spiking]" in out and "intercept" in out

    def test_default_outdir_from_config(self, swept):
        path, out_dir = swept
        assert main(["regress", "--config", str(path)]) == 0
        doc = json.loads((out_dir / "regress_spiking.json").read_text())
        assert doc["n"] == 64
        assert [t["name"] for t in doc["terms"]][:2] == ["intercept", "crop"]

    def test_bad_scores_exit2(self, tmp_path, capsys):
        bad = tmp_path / "sweep.json"
        bad.write_text(json.dumps({"bogus": 1}))
        assert main(["regress", "--scores", str(bad)]) == 2


@pytest.fixture(scope="module")
def conv_trained(workspace):
    """The energy path needs an encoder so the dense reference exists."""
    net = NetworkConfig(time_steps=2, height=16, width=16,
                        layers=(Conv2d(2, 4, k=3, stride=2, padding=1), IF(),
                                GlobalPool(), Accumulator(4), Classifier(2)))
    exp = {"dataset": "ds/manifest.json",
           "network": config_to_json(net),
           "train": {"epochs": 1, "batch_size": 8, "lr": 0.1},
           "folds": {"k": 3, "seed": 0},
           "seed": 6,
           "out_dir": str(workspace / "conv_run")}
    path = workspace / "conv_exp.json"
    path.write_text(json.dumps(exp))
    assert main(["train", "--config", str(path)]) == 0
    return path, workspace / "conv_run"


class TestEnergyCommand:
    def test_outputs_and_constants(self, conv_trained, capsys):
        path, out_dir = conv_trained
        rc = main(["energy", "--config", str(path), "--samples", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        for line in ("E_MULT = 3.7 pJ", "E_ADD  = 0.9 pJ",
                     "E_MAC  = 4.6 pJ", "E_AC   = 0.9 pJ"):
            assert line in out
        doc = json.loads((out_dir / "energy.json").read_text())
        assert doc["constants_pj"]["e_mac"] == 4.6
        assert doc["samples"] == 2
        assert (out_dir / "energy.txt").exists()

    @pytest.mark.parametrize("seed", range(6))
    def test_conv_fed_conv_charged_dense_passes(self, workspace, tmp_path, capsys, seed):
        # 04.conv reads 03.conv's real-valued output, whose sum can be
        # negative: it is charged T dense passes at E_MAC, whatever the sum
        net = NetworkConfig(time_steps=2, height=16, width=16, layers=(
            Conv2d(2, 8), AvgPool(2), IF(), Conv2d(8, 8, k=3, stride=2, padding=1, bias=False),
            Conv2d(8, 12, k=1, padding=0), IF(), SEW(12, k=1, bias=False), GlobalPool(), IF(),
            Accumulator(12), Classifier(2)))
        exp = {"dataset": "ds/manifest.json", "network": config_to_json(net),
               "train": {"epochs": 0, "batch_size": 8}, "folds": {"k": 3, "seed": 0},
               "seed": seed, "out_dir": str(tmp_path / "run")}
        path = workspace / f"mixed_exp_{seed}.json"
        path.write_text(json.dumps(exp))
        assert main(["train", "--config", str(path)]) == 0
        assert main(["energy", "--config", str(path)]) == 0
        doc = json.loads((tmp_path / "run" / "energy.json").read_text())
        row = next(r for r in doc["snn_layers"] if r["name"] == "04.conv")
        assert row["rs"] is None and row["charged"] == "2 dense passes at E_MAC"
        assert row["energy_pj"] == 2 * row["flops_ann"] * 4.6
        assert all(r["rs"] is not None for r in doc["snn_layers"]
                   if r["name"] not in ("04.conv", "10.cls"))

    def test_passthrough_has_no_dense_twin(self, workspace, trained, capsys):
        # time folding would change the encoder-less feature size, so the
        # dense reference is rejected rather than silently mis-sized
        rc = main(["energy", "--config", str(workspace / "exp.json")])
        assert rc == 2
        assert "encoder feature size" in capsys.readouterr().err

    def test_missing_checkpoint_exit4(self, conv_trained, tmp_path):
        path, _ = conv_trained
        rc = main(["energy", "--config", str(path),
                   "--checkpoint", str(tmp_path / "nope.evck")])
        assert rc == 4


def run_cli(*args):
    """The CLI in a fresh interpreter, so an escaping exception shows up as a
    traceback on stderr rather than as a raised exception."""
    src = Path(evsnn.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "evsnn.cli", *args],
                          capture_output=True, text=True, env=env)


class TestCountFlagsBelowOne:
    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_energy_samples_exit2(self, conv_trained, samples):
        path, _ = conv_trained
        proc = run_cli("energy", "--config", str(path), "--samples", samples)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error:") and "--samples" in proc.stderr

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    @pytest.mark.parametrize("command", ["sweep", "train"])
    def test_jobs_exit2(self, workspace, command, jobs):
        proc = run_cli(command, "--config", str(workspace / "exp.json"), "--jobs", jobs)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        if command == "train":  # only sweep takes --jobs; argparse refuses it here
            assert "unrecognized arguments: --jobs" in proc.stderr
        else:
            assert proc.stderr.startswith("error:") and "--jobs" in proc.stderr


# the shared flags each command takes: only those it reads
SHARED_FLAGS = {"synth": {"--seed", "--out"}, "voxelize": {"--out"},
                "augment": {"--seed", "--config"},
                "train": {"--seed", "--out", "--config"},
                "eval": {"--seed", "--out", "--config"},
                "sweep": {"--seed", "--jobs", "--out", "--config"},
                "regress": {"--out", "--config"}, "energy": {"--out", "--config"}}


def readme_commands():
    """Every ``evsnn ...`` line of the README's sh blocks, as argv."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return [shlex.split(line, comments=True)[1:]
            for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
            for line in block.splitlines() if line.startswith("evsnn ")]


class TestFlags:
    def test_shared_flags_per_command(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        got = {name: {flag for action in p._actions for flag in action.option_strings}
               & {"--seed", "--jobs", "--out", "--config"}
               for name, p in sub.choices.items()}
        assert got == SHARED_FLAGS

    @pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
    def test_readme_command_parses(self, argv):
        args = build_parser().parse_args(argv)
        assert args.command == argv[0]

    def test_readme_has_commands(self):
        assert {argv[0] for argv in readme_commands()} == set(SHARED_FLAGS)

    @pytest.mark.parametrize("case", [
        "synth_config", "voxelize_seed", "train_jobs", "energy_seed",
        "regress_scores_config", "augment_config_pipeline", "augment_config_prob"])
    def test_unread_or_overridden_flag_exit2(self, workspace, tmp_path, capsys, case):
        evt, exp = str(first_event_file(workspace)), str(workspace / "exp.json")
        out = str(tmp_path / "out")
        argv = {
            "synth_config": synth_args(out) + ["--config", "/nonexistent.json"],
            "voxelize_seed": ["voxelize", evt, "--seed", "-1"],
            "train_jobs": ["train", "--config", exp, "--out", out, "--jobs", "2"],
            "energy_seed": ["energy", "--config", exp, "--out", out, "--seed", "1"],
            "regress_scores_config": ["regress", "--scores", str(workspace / "sweep.json"),
                                      "--config", exp, "--out", out],
            "augment_config_pipeline": ["augment", evt, out, "--config", exp,
                                        "--pipeline", "hflip"],
            "augment_config_prob": ["augment", evt, out, "--config", exp, "--prob", "0.3"],
        }[case]
        try:
            code = main(argv)  # a refusal the command makes itself
        except SystemExit as exc:  # argparse's
            code = exc.code
        assert code == 2
        assert capsys.readouterr().out == ""
        assert list(tmp_path.iterdir()) == []


class TestDivergenceReport:
    """A finite but huge step or threshold diverges with one error line, not
    numpy overflow warnings first."""

    @pytest.mark.parametrize("huge", ["lr", "theta"])
    def test_one_line_exit3(self, workspace, tmp_path, huge):
        exp = json.loads((workspace / "exp.json").read_text())
        exp.update(dataset=str(workspace / "ds" / "manifest.json"), out_dir=str(tmp_path / "o"))
        if huge == "lr":
            exp["train"]["lr"] = 1e308
        else:
            exp["network"] = config_to_json(layered_net())
            exp["network"]["layers"][1]["theta"] = 1e308
        (tmp_path / "exp.json").write_text(json.dumps(exp))
        proc = run_cli("train", "--config", str(tmp_path / "exp.json"))
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: training diverged")
        assert proc.stderr.count("\n") == 1, proc.stderr


def assert_one_error(capsys, message):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error:") and err.count("\n") == 1
    assert message in err, err


def run_changed(workspace, tmp_path, change):
    """Train on the workspace experiment with some keys replaced."""
    exp = json.loads((workspace / "exp.json").read_text())
    exp.update(dataset=str(workspace / "ds" / "manifest.json"),
               out_dir=str(tmp_path / "o"))
    exp.update(change)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(exp))
    return main(["train", "--config", str(path)])


def layered_net():
    """Every layer kind with an integer field: conv, if, avg_pool, sew,
    global_pool, if, accumulator, classifier (layers 0-7)."""
    return NetworkConfig(time_steps=2, height=16, width=16, layers=(
        Conv2d(2, 4, k=3, stride=1, padding=1), IF(), AvgPool(2), SEW(4),
        GlobalPool(), IF(), Accumulator(4), Classifier(2)))


def layer(i, **change):
    return lambda net: net["layers"][i].update(change)


class TestMistypedNetworkAndAugment:
    """Every object inside "network" and "augment" is read against the
    signature it feeds, so a mistyped or unknown value exits 2 before any
    compute."""

    @pytest.mark.parametrize("change, message", [
        (layer(0, c_in="2"), "layer 0 (Conv2d): c_in must be a JSON integer, got '2'"),
        (layer(0, k=3.0), "layer 0 (Conv2d): k must be a JSON integer, got 3.0"),
        (layer(0, bias=1), "layer 0 (Conv2d): bias must be a JSON boolean, got 1"),
        (layer(1, theta="1"), "layer 1 (IF): theta must be a JSON number, got '1'"),
        (layer(3, g=None), "layer 3 (SEW): g must be a JSON string, got None"),
        (layer(0, kind=["conv"]), "layer 0: kind must be a JSON string"),
        (lambda net: net["layers"][0].pop("kind"), "layer 0: missing required keys ['kind']"),
        (lambda net: net.update(layers="abc"),
         "network config: layers must be a JSON array, got 'abc'"),
        (lambda net: net.update(time_steps="2"),
         "network config: time_steps must be a JSON integer, got '2'"),
        (lambda net: net.pop("height"), "network config: missing required keys ['height']"),
    ], ids=["c_in", "k", "bias", "theta", "g", "kind", "no_kind", "layers", "time_steps",
            "height"])
    def test_network_grammar_exit2(self, workspace, tmp_path, capsys, change, message):
        net = config_to_json(layered_net())
        change(net)
        assert run_changed(workspace, tmp_path, {"network": net}) == 2
        assert_one_error(capsys, message)

    @pytest.mark.parametrize("network, message", [
        ({"preset": "sew_tiny", "classes": "2"},
         "network preset sew_tiny: classes must be a JSON integer, got '2'"),
        ({"preset": "sew_tiny", "classes": 2, "theta": True},
         "network preset sew_tiny: theta must be a JSON number, got True"),
        ({"preset": "sew18"}, "network preset sew18: missing required keys ['classes']"),
        ({"preset": ["sew_tiny"], "classes": 2}, "network: preset must be a JSON string"),
    ], ids=["classes", "theta", "no_classes", "list_preset"])
    def test_preset_exit2(self, workspace, tmp_path, capsys, network, message):
        assert run_changed(workspace, tmp_path, {"network": network}) == 2
        assert_one_error(capsys, message)

    @pytest.mark.parametrize("augment, message", [
        ({"transforms": [{"prob": 0.5}]}, "transforms[0]: missing required keys ['kind']"),
        ({"transforms": [{"kind": "crop", "scale": 0.5}]},
         "transform crop: unknown keys ['scale']"),
        ({"transforms": [{"kind": "crop", "scale_min": "0.5"}]},
         "transform crop: scale_min must be a JSON number, got '0.5'"),
        ({"transforms": [{"kind": "hflip", "ratio": 0.1}]},
         "transform hflip: unknown keys ['ratio']"),
        ({"transforms": [{"kind": "noise", "rng": 1}]}, "transform noise: unknown keys ['rng']"),
        ({"transforms": [{"kind": "hflip", "prob": "0.5"}]},
         "transforms[0]: prob must be a JSON number, got '0.5'"),
        ({"transforms": [{"kind": ["hflip"]}]}, "transforms[0]: kind must be a JSON string"),
        ({"transforms": "crop"}, "spec: transforms must be a JSON array, got 'crop'"),
        ({"seed": True, "transforms": []}, "spec: seed must be a JSON integer, got True"),
    ], ids=["no_kind", "unknown_param", "mistyped_param", "param_of_hflip", "rng",
            "prob", "list_kind", "transforms", "seed"])
    def test_augment_exit2(self, workspace, tmp_path, capsys, augment, message):
        assert run_changed(workspace, tmp_path, {"augment": augment}) == 2
        assert_one_error(capsys, "augment: " + message)


class TestLayerRanges:
    """A layer field below its least value is a ConfigError when the stack is
    built, not a ZeroDivisionError, a broadcast error in the first forward
    pass, or a network that runs."""

    @pytest.mark.parametrize("index, field, value, message", [
        (0, "stride", 0, "layer 0 (Conv2d): stride must be >= 1, got 0"),
        (0, "padding", -1, "layer 0 (Conv2d): padding must be >= 0, got -1"),
        (0, "k", 0, "layer 0 (Conv2d): k must be >= 1, got 0"),
        (0, "c_out", 0, "layer 0 (Conv2d): c_out must be >= 1, got 0"),
        (0, "c_in", 0, "layer 0 (Conv2d): c_in must be >= 1, got 0"),
        (2, "window", 0, "layer 2 (AvgPool): window must be >= 1, got 0"),
        (3, "k", -1, "layer 3 (SEW): k must be >= 1, got -1"),
        (3, "channels", 0, "layer 3 (SEW): channels must be >= 1, got 0"),
        (6, "dim", 0, "layer 6 (Accumulator): dim must be >= 1, got 0"),
        (7, "classes", 0, "layer 7 (Classifier): classes must be >= 1, got 0"),
    ], ids=lambda v: str(v))
    def test_exit2(self, workspace, tmp_path, capsys, index, field, value, message):
        net = config_to_json(layered_net())
        net["layers"][index][field] = value
        assert run_changed(workspace, tmp_path, {"network": net}) == 2
        assert_one_error(capsys, message)

    def test_least_values_build(self):
        NetworkConfig(time_steps=1, height=3, width=3, layers=(
            Conv2d(2, 1, k=1, stride=1, padding=0), IF(), AvgPool(1), SEW(1, k=1),
            GlobalPool(), Accumulator(1), Classifier(1)))


def layered_json(sew_g="add", **change):
    """``layered_net`` as JSON, its SEW join ``sew_g`` and ``change`` on top."""
    net = {**config_to_json(layered_net()), **change}
    net["layers"][3]["g"] = sew_g
    return net


class TestChoices:
    """A value outside its Literal's choices exits 2 when the experiment is
    read, naming the key and its choices, before anything is written."""

    @pytest.mark.parametrize("change, message", [
        ({"model_kind": "sparse"}, "experiment.model_kind must be spiking or dense, got 'sparse'"),
        ({"energy": {"charging": "both"}}, "energy.charging must be input or output, got 'both'"),
        ({"network": layered_json(reset="hard")},
         "network config: reset must be subtract or zero, got 'hard'"),
        ({"network": layered_json(input_timing="later")},
         "network config: input_timing must be same_step or delayed, got 'later'"),
        ({"network": layered_json(sew_g="or")},
         "layer 3 (SEW): g must be add, and or iand, got 'or'"),
    ], ids=["model_kind", "charging", "reset", "input_timing", "g"])
    def test_exit2(self, workspace, tmp_path, capsys, change, message):
        assert run_changed(workspace, tmp_path, change) == 2
        assert_one_error(capsys, "error: " + message)
        assert not (tmp_path / "o").exists()

    def test_members_train(self, workspace, tmp_path):
        net = layered_json(sew_g="iand", reset="zero", input_timing="delayed")
        assert run_changed(workspace, tmp_path, {"network": net}) == 0


class TestManifestFaults:
    """A manifest that breaks its schema, or misstates its files, exits 2."""

    def write_manifest(self, workspace, tmp_path, change):
        doc = json.loads((workspace / "ds" / "manifest.json").read_text())
        for sample in doc["samples"]:
            sample["file"] = str(workspace / "ds" / sample["file"])
        change(doc)
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("change, message", [
        (lambda doc: doc["samples"][0].update(label=5), "label 5 of "),
        (lambda doc: doc["samples"][0].update(label="0"),
         "sample 0: label must be a JSON integer, got '0'"),
        (lambda doc: doc["samples"][1].update(width=32), "samples differ in geometry"),
        (lambda doc: doc["samples"][2].pop("duration"),
         "sample 2: missing required keys ['duration']"),
        (lambda doc: doc["samples"][0].update(size=1), "sample 0: unknown keys ['size']"),
        (lambda doc: doc.update(samples=[]), "manifest.json: no samples"),
        (lambda doc: doc.pop("classes"), "missing required keys ['classes']"),
        (lambda doc: doc.update(version=2), "unsupported manifest version 2"),
        (lambda doc: doc.update(samples={}), "samples must be a JSON array"),
    ], ids=["label_range", "label_type", "geometry", "no_duration", "unknown", "empty",
            "no_classes", "version", "samples_object"])
    def test_exit2(self, workspace, tmp_path, capsys, change, message):
        path = self.write_manifest(workspace, tmp_path, change)
        assert run_changed(workspace, tmp_path, {"dataset": str(path)}) == 2
        assert_one_error(capsys, message)

    def test_not_an_object_exit2(self, workspace, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_text("[]")
        assert run_changed(workspace, tmp_path, {"dataset": str(path)}) == 2
        assert_one_error(capsys, "manifest.json must be a JSON object")

    def test_misstated_file_geometry_exit2(self, workspace, tmp_path, capsys):
        # the files hold 16x16 streams; manifest and network both say 32x32
        def change(doc):
            for sample in doc["samples"]:
                sample.update(width=32, height=32)
        path = self.write_manifest(workspace, tmp_path, change)
        network = config_to_json(passthrough_net(side=32))
        assert run_changed(workspace, tmp_path, {"dataset": str(path),
                                                 "network": network}) == 2
        assert_one_error(capsys, "holds a 16x16 stream, its manifest entry says 32x32")


class TestCheckpointMismatch:
    """eval and energy hold the checkpoint against the network they run."""

    def test_eval_other_network(self, workspace, conv_trained, capsys):
        _, conv_run = conv_trained
        rc = main(["eval", "--config", str(workspace / "exp.json"),
                   "--checkpoint", str(conv_run / "model.evck")])
        assert rc == 2
        assert_one_error(capsys, "model.evck does not fit the spiking network: tensor "
                                 "00.acc.weight is absent there, (512, 512) in the network")

    def test_eval_dense_against_spiking_checkpoint(self, conv_trained, tmp_path, capsys):
        path, conv_run = conv_trained
        exp = json.loads(path.read_text())
        exp.update(dataset=str(path.parent / exp["dataset"]), model_kind="dense")
        changed = tmp_path / "exp.json"
        changed.write_text(json.dumps(exp))
        rc = main(["eval", "--config", str(changed)])
        assert rc == 2
        assert_one_error(capsys, "does not fit the dense network: tensor 00.conv.weight "
                                 "is (4, 2, 3, 3) there, (4, 4, 3, 3) in the network")

    def test_energy_other_network(self, conv_trained, trained, capsys):
        path, _ = conv_trained
        rc = main(["energy", "--config", str(path),
                   "--checkpoint", str(trained / "model.evck")])
        assert rc == 2
        assert_one_error(capsys, "tensor 00.acc.weight is (512, 512) there, "
                                 "absent in the network")


class TestCheckpointFaults:
    """A checkpoint that does not decode exits 4, one that decodes to tensors
    of another dtype exits 2, each with one error line."""

    def run_eval(self, workspace, path):
        return main(["eval", "--config", str(workspace / "exp.json"),
                     "--checkpoint", str(path)])

    def test_metadata_not_an_object_exit4(self, workspace, trained, tmp_path, capsys):
        params, _ = load_checkpoint(trained / "model.evck")
        save_checkpoint(tmp_path / "m.evck", params, [1])
        assert self.run_eval(workspace, tmp_path / "m.evck") == 4
        assert_one_error(capsys, "bad metadata block: list, not a JSON object")

    def test_tensor_name_not_utf8_exit4(self, workspace, trained, tmp_path, capsys):
        blob = bytearray((trained / "model.evck").read_bytes())
        (meta_len,) = np.frombuffer(blob, "<u4", 1, 10)
        blob[10 + 4 + int(meta_len) + 2] = 0xFF  # first byte of the first tensor name
        (tmp_path / "m.evck").write_bytes(bytes(blob))
        assert self.run_eval(workspace, tmp_path / "m.evck") == 4
        assert_one_error(capsys, "tensor name at offset")

    @pytest.mark.parametrize("dtype", ["int32", "bool", "complex64", "float64"])
    def test_other_dtype_exit2(self, workspace, trained, tmp_path, capsys, dtype):
        params, meta = load_checkpoint(trained / "model.evck")
        save_checkpoint(tmp_path / "m.evck", {k: v.astype(dtype) for k, v in params.items()},
                        meta)
        assert self.run_eval(workspace, tmp_path / "m.evck") == 2
        assert_one_error(capsys, "m.evck does not fit the spiking network: tensor "
                                 f"00.acc.weight is {dtype} there, float32 in the network")


class TestMistypedSweepRecords:
    @pytest.mark.parametrize("change, message", [
        (lambda r: r.pop("model_kind"), "sweep record 0: missing required keys ['model_kind']"),
        (lambda r: r.update(accuracy="0.5"),
         "sweep record 0: accuracy must be a JSON number, got '0.5'"),
    ], ids=["no_kind", "accuracy"])
    def test_exit2(self, swept, tmp_path, capsys, change, message):
        _, out_dir = swept
        doc = json.loads((out_dir / "sweep.json").read_text())
        change(doc["records"][0])
        scores = tmp_path / "sweep.json"
        scores.write_text(json.dumps(doc))
        assert main(["regress", "--scores", str(scores)]) == 2
        assert_one_error(capsys, message)


def nan_theta_net():
    net = config_to_json(layered_net())
    net["layers"][1]["theta"] = float("nan")  # json.dumps writes NaN
    return net


class TestValueRules:
    """NaN and Infinity, a transform parameter out of range, and a negative
    seed on any command exit 2 with one error line."""

    @pytest.mark.parametrize("change, message", [
        ({"network": nan_theta_net()}, "NaN is not a JSON number"),
        ({"train": {"epochs": 3, "lr": float("inf")}}, "Infinity is not a JSON number"),
        ({"train": {"epochs": 3, "early_stop_acc": float("nan")}}, "NaN is not a JSON number"),
        ({"augment": {"transforms": [{"kind": "noise", "ratio": -1}]}},
         "augment: transform noise: noise ratio must lie in [0, 1], got -1"),
        ({"augment": {"transforms": [{"kind": "crop", "scale_min": 2.0}]}},
         "augment: transform crop: bad crop scale range [2.0, 1.0]"),
        ({"augment": {"transforms": [{"kind": "crop", "scale_min": 0.9, "scale_max": 0.5}]}},
         "augment: transform crop: bad crop scale range [0.9, 0.5]"),
        ({"augment": {"transforms": [{"kind": "eventdrop", "ratio_lo": 1.5,
                                      "global_ratio_max": 2.0}]}},
         "augment: transform eventdrop: ratio_lo must be <= 1, got 1.5"),
        ({"augment": {"transforms": [{"kind": "eventdrop", "ratio_lo": 0.5}]}},
         "augment: transform eventdrop: ratio_lo 0.5 exceeds a strategy's max ratio"),
    ], ids=["theta_nan", "lr_inf", "early_stop_nan", "noise_ratio", "crop_scale",
            "crop_order", "eventdrop_range", "eventdrop_order"])
    def test_train_exit2(self, workspace, tmp_path, capsys, change, message):
        assert run_changed(workspace, tmp_path, change) == 2
        assert_one_error(capsys, message)

    def test_nan_accuracy_in_scores_exit2(self, swept, tmp_path, capsys):
        _, out_dir = swept
        doc = json.loads((out_dir / "sweep.json").read_text())
        doc["records"][0]["accuracy"] = float("nan")
        scores = tmp_path / "sweep.json"
        scores.write_text(json.dumps(doc))
        assert main(["regress", "--scores", str(scores)]) == 2
        assert_one_error(capsys, f"{scores}: scores: invalid JSON: NaN is not a JSON number")

    def test_nan_in_checkpoint_metadata_exit4(self, workspace, trained, tmp_path, capsys):
        params, _ = load_checkpoint(trained / "model.evck")
        save_checkpoint(tmp_path / "m.evck", params, {"best_epoch": float("nan")})
        assert main(["eval", "--config", str(workspace / "exp.json"),
                     "--checkpoint", str(tmp_path / "m.evck")]) == 4
        assert_one_error(capsys, "bad metadata block: ")

    def test_synth_negative_seed_exit2(self, tmp_path, capsys):
        assert main(synth_args(tmp_path / "x", seed=-1)) == 2
        assert_one_error(capsys, "error: seed must be >= 0, got -1")
        assert not (tmp_path / "x").exists()

    def test_augment_negative_seed_exit2(self, workspace, tmp_path, capsys):
        assert main(["augment", str(first_event_file(workspace)), str(tmp_path / "o.evt"),
                     "--pipeline", "crop", "--seed", "-1"]) == 2
        assert_one_error(capsys, "error: seed must be >= 0, got -1")

    def test_augment_section_negative_seed_exit2(self, workspace, tmp_path, capsys):
        exp = json.loads((workspace / "exp.json").read_text())
        exp.update(dataset=str(workspace / "ds" / "manifest.json"),
                   augment={"seed": -1, "transforms": [{"kind": "hflip"}]})
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(exp))
        assert main(["augment", str(first_event_file(workspace)), str(tmp_path / "o.evt"),
                     "--config", str(path)]) == 2
        assert_one_error(capsys, "augment: spec.seed must be >= 0, got -1")


def flag_argv(command, workspace, tmp_path):
    """A valid command line for each command that takes a bounded flag."""
    evt, exp = str(first_event_file(workspace)), str(workspace / "exp.json")
    return {"synth": synth_args(tmp_path / "out"), "voxelize": ["voxelize", evt],
            "augment": ["augment", evt, str(tmp_path / "out"), "--pipeline", "crop"],
            "sweep": ["sweep", "--config", exp, "--out", str(tmp_path / "out")],
            "energy": ["energy", "--config", exp, "--out", str(tmp_path / "out")]}[command]


class TestFlagRanges:
    """Each flag range is a Bound of cli._flags: a value outside it exits 2 with
    one ``error: --<flag> must be ...`` line, before the command writes anything."""

    @pytest.mark.parametrize("command, flag, value, message", [
        ("synth", "--classes", "0", "--classes must be >= 1, got 0"),
        ("synth", "--classes", "5", "--classes must be <= 4, got 5"),
        ("synth", "--samples-per-class", "0", "--samples-per-class must be >= 1, got 0"),
        ("voxelize", "--time-steps", "0", "--time-steps must be >= 1, got 0"),
        ("voxelize", "--time-steps", "65536", "--time-steps must be <= 65535, got 65536"),
        ("augment", "--sample-index", "-1", "--sample-index must be >= 0, got -1"),
        ("sweep", "--jobs", "0", "--jobs must be >= 1, got 0"),
        ("energy", "--samples", "0", "--samples must be >= 1, got 0"),
    ])
    def test_out_of_range_exit2(self, workspace, tmp_path, capsys, command, flag, value,
                                message):
        assert main(flag_argv(command, workspace, tmp_path) + [flag, value]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_bounded_keys_are_option_dests(self):
        # bounded skips a key args lacks, so a misspelt keyword would drop its rule
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        dests = {action.dest for p in sub.choices.values() for action in p._actions
                 if action.option_strings}
        rules = _schema(_flags)[3]
        assert set(rules) == set(inspect.signature(_flags).parameters)
        assert set(rules) <= dests


class TestSweepFileFaults:
    """A sweep file whose records miss a (mask, fold) cell, hold a model kind
    outside the choices or read masks in another bit order exits 2 and writes
    no regression."""

    @pytest.mark.parametrize("change, message", [
        (lambda doc: doc["eda_names"].reverse(),
         "eda_names must be ['crop', 'hflip', 'noise', 'polflip', 'reverse'], "
         "got ['reverse', 'polflip', 'noise', 'hflip', 'crop']"),
        (lambda doc: doc.update(eda_names=["crop", "hflip"]),
         "eda_names must be ['crop', 'hflip', 'noise', 'polflip', 'reverse'], "
         "got ['crop', 'hflip']"),
        (lambda doc: [r.update(mask=0) for r in doc["records"]],
         "spiking: no record for mask 1, fold 0"),
        (lambda doc: doc["records"][0].update(fold=2), "spiking: no record for mask 0, fold 0"),
        (lambda doc: [r.update(model_kind="bogus/x") for r in doc["records"]],
         "sweep record 0: model_kind must be spiking or dense, got 'bogus/x'"),
    ], ids=["reversed_names", "two_names", "one_mask", "fold_k", "bogus_kind"])
    def test_exit2(self, swept, tmp_path, capsys, change, message):
        _, out_dir = swept
        doc = json.loads((out_dir / "sweep.json").read_text())
        change(doc)
        scores = tmp_path / "sweep.json"
        scores.write_text(json.dumps(doc))
        assert main(["regress", "--scores", str(scores), "--out", str(tmp_path / "r")]) == 2
        assert_one_error(capsys, message)
        assert not (tmp_path / "r").exists()


class TestCheckpointNameOrder:
    @pytest.mark.parametrize("names", [(b"w", b"w"), (b"w", b"b")],
                             ids=["repeated", "descending"])
    def test_exit4(self, workspace, tmp_path, capsys, names):
        raw = struct.pack("<4sHII", b"EVCK", 1, len(names), 2) + b"{}"
        for name in names:  # a one-element float32 tensor each
            raw += struct.pack("<H", 1) + name + b"\x03<f4" + struct.pack("<BI", 1, 1) + bytes(4)
        (tmp_path / "m.evck").write_bytes(raw)
        assert main(["eval", "--config", str(workspace / "exp.json"),
                     "--checkpoint", str(tmp_path / "m.evck")]) == 4
        assert_one_error(capsys, f"tensor {names[1].decode()} follows tensor w: names must ascend")


class TestJsonArtifacts:
    def test_each_is_its_dumps_text(self, workspace, trained, swept, conv_trained):
        sweep_path, sweep_dir = swept
        conv_path, conv_dir = conv_trained
        assert main(["eval", "--config", str(workspace / "exp.json")]) == 0
        assert main(["regress", "--config", str(sweep_path)]) == 0
        assert main(["energy", "--config", str(conv_path), "--samples", "2"]) == 0
        artifacts = [trained / "train_report.json", trained / "eval_report.json",
                     trained / "train.runledger.json", conv_dir / "energy.json",
                     sweep_dir / "sweep.json", sweep_dir / "sweep.runledger.json",
                     sweep_dir / "regress_spiking.json", workspace / "ds" / "manifest.json"]
        for path in artifacts:
            text = path.read_text()
            assert dumps(json.loads(text)) == text, path.name
