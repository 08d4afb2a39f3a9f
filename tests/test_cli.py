"""End-to-end command-line flows on a tiny synthetic dataset."""

import json
import shutil
import subprocess

import numpy as np
import pytest

from evsnn.cli import main
from evsnn.evio import load_events, load_manifest
from evsnn.nn import (
    IF,
    Accumulator,
    Classifier,
    Conv2d,
    GlobalPool,
    NetworkConfig,
)
from evsnn.nn.network import config_to_json


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

    def test_missing_input(self, tmp_path, capsys):
        assert main(["voxelize", str(tmp_path / "nope.evt")]) == 4
        assert "nope.evt" in capsys.readouterr().err


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
