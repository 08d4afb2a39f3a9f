"""Experiment file schema, overrides, and hashing."""

import json

import pytest

from evsnn.experiment import (
    Experiment,
    SchemaError,
    experiment_from_json,
    load_experiment,
    network_from_json,
)
from evsnn.nn import Accumulator, Classifier, NetworkConfig
from evsnn.nn.network import config_to_json


def base_obj(**extra):
    net = NetworkConfig(time_steps=2, height=8, width=8,
                        layers=(Accumulator(128), Classifier(2)))
    obj = {"dataset": "ds/manifest.json", "network": config_to_json(net)}
    obj.update(extra)
    return obj


class TestSchema:
    def test_minimal_defaults(self):
        exp = experiment_from_json(base_obj())
        assert exp.model_kind == "spiking"
        assert exp.folds_k == 10 and exp.folds_seed == 0
        assert exp.out_dir == "runs/out"
        assert exp.augment is None
        assert exp.sweep_prob == 0.5
        assert exp.energy_charging == "input"
        assert exp.train.epochs == 50

    def test_missing_required(self):
        with pytest.raises(SchemaError, match="dataset"):
            experiment_from_json({"network": base_obj()["network"]})
        with pytest.raises(SchemaError, match="network"):
            experiment_from_json({"dataset": "x"})

    def test_unknown_top_key(self):
        with pytest.raises(SchemaError, match="unknown keys.*gpu"):
            experiment_from_json(base_obj(gpu=True))

    def test_unknown_train_key(self):
        # the run seed is derived, never set in the train section
        with pytest.raises(SchemaError, match="train.*seed"):
            experiment_from_json(base_obj(train={"epochs": 1, "seed": 3}))

    def test_bad_enums(self):
        with pytest.raises(SchemaError, match="model_kind"):
            experiment_from_json(base_obj(model_kind="analog"))
        with pytest.raises(SchemaError, match="validation"):
            experiment_from_json(base_obj(validation="bootstrap"))
        with pytest.raises(SchemaError, match="charging"):
            experiment_from_json(base_obj(energy={"charging": "both"}))

    def test_bad_folds_and_prob(self):
        with pytest.raises(SchemaError, match="folds.k"):
            experiment_from_json(base_obj(folds={"k": 1}))
        with pytest.raises(SchemaError, match="sweep.prob"):
            experiment_from_json(base_obj(sweep={"prob": 1.5}))

    def test_augment_section(self):
        obj = base_obj(augment={"seed": 3, "transforms":
                                [{"kind": "hflip", "prob": 0.5}]})
        exp = experiment_from_json(obj)
        assert exp.augment.seed == 3
        assert exp.augment.transforms[0].kind == "hflip"

    def test_bad_augment_kind(self):
        obj = base_obj(augment={"seed": 0, "transforms":
                                [{"kind": "cutmix", "prob": 0.5}]})
        with pytest.raises(SchemaError, match="augment"):
            experiment_from_json(obj)

    def test_round_trip(self):
        obj = base_obj(model_kind="dense", folds={"k": 4, "seed": 7}, seed=9,
                       train={"epochs": 3, "lr": 0.2},
                       augment={"seed": 1, "transforms":
                                [{"kind": "polflip", "prob": 1.0}]})
        exp = experiment_from_json(obj)
        again = experiment_from_json(exp.to_json_dict())
        assert again == exp
        assert again.config_hash() == exp.config_hash()

    def test_hash_sensitive_to_content(self):
        a = experiment_from_json(base_obj(seed=0))
        b = experiment_from_json(base_obj(seed=1))
        assert a.config_hash() != b.config_hash()

    def test_hash_of_fixed_experiment(self):
        # the sha256 of the compact sorted-key JSON, as run ledgers record it
        obj = base_obj(model_kind="dense", folds={"k": 4, "seed": 7}, seed=9,
                       train={"epochs": 3, "lr": 0.2},
                       augment={"seed": 1, "transforms":
                                [{"kind": "polflip", "prob": 1.0}]})
        assert experiment_from_json(obj).config_hash() == \
            "6bf8d328f6da65dd8590d77d28f16277089c1766e600044be55f600f6b4403aa"


class TestNetworkSection:
    def test_preset_dispatch(self):
        config = network_from_json({"preset": "sew_tiny", "classes": 3})
        assert config.classifier.classes == 3

    def test_unknown_preset(self):
        with pytest.raises(SchemaError, match="sew18.*sew_tiny"):
            network_from_json({"preset": "resnet50"})

    def test_bad_preset_arg(self):
        with pytest.raises(SchemaError, match="preset sew_tiny"):
            network_from_json({"preset": "sew_tiny", "depth": 9})

    def test_non_object(self):
        with pytest.raises(SchemaError, match="object"):
            network_from_json("sew_tiny")


class TestLoadExperiment:
    def write(self, tmp_path, obj):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(obj))
        return path

    def test_override_with_provenance(self, tmp_path):
        path = self.write(tmp_path, base_obj(seed=0, out_dir="runs/a"))
        exp, lines = load_experiment(path, {"seed": 5, "out_dir": None})
        assert exp.seed == 5
        assert exp.out_dir == "runs/a"
        assert len(lines) == 1
        assert "seed = 5" in lines[0] and "file had 0" in lines[0]

    def test_no_op_override_is_silent(self, tmp_path):
        path = self.write(tmp_path, base_obj(seed=5))
        exp, lines = load_experiment(path, {"seed": 5})
        assert lines == []

    def test_dataset_resolved_relative_to_file(self, tmp_path):
        sub = tmp_path / "configs"
        sub.mkdir()
        path = sub / "exp.json"
        path.write_text(json.dumps(base_obj()))
        exp, _ = load_experiment(path)
        assert exp.dataset == str(sub / "ds/manifest.json")

    def test_absolute_dataset_untouched(self, tmp_path):
        path = self.write(tmp_path, base_obj(dataset="/data/manifest.json"))
        exp, _ = load_experiment(path)
        assert exp.dataset == "/data/manifest.json"

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text("{nope")
        with pytest.raises(SchemaError, match="invalid JSON"):
            load_experiment(path)


class TestExperimentDataclass:
    def test_direct_validation(self):
        net = NetworkConfig(time_steps=2, height=8, width=8,
                            layers=(Accumulator(128), Classifier(2)))
        with pytest.raises(SchemaError, match="folds.k"):
            Experiment(dataset="x", network=net, folds_k=0)
