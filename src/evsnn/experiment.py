"""One JSON experiment file drives every pipeline command.

Schema (unknown keys are rejected at every level, and every scalar outside
"network" and "augment" must have its JSON type: integers for the epoch,
batch, fold and seed counts, numbers for lr, momentum, early_stop_acc (or
null) and sweep.prob, strings for the rest; a bool is no number):

    {
      "dataset": "path/to/manifest.json",
      "model_kind": "spiking" | "dense",
      "network": {"preset": "sew_tiny", "classes": 4, ...}
                 | full layer grammar (see nn.network.config_from_json),
      "train": {"epochs", "batch_size", "lr", "momentum", "early_stop_acc"},
      "augment": null | {"seed", "transforms": [{"kind", "prob", ...params}]},
      "folds": {"k", "seed"},
      "seed": 0,
      "out_dir": "runs/exp",
      "sweep": {"prob": 0.5},
      "energy": {"charging": "input" | "output"}
    }

Flags may override ``seed`` and ``out_dir``; every override is reported as a
provenance line so runs remain auditable. The parallelism degree is a flag
only, never part of the experiment.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path

from .augment import AugmentSpec
from .nn.network import NetworkConfig, config_from_json, config_to_json, sew18, sew_tiny
from .nn.train import TrainSettings


class SchemaError(ValueError):
    """Experiment file violates the schema."""


_PRESETS = {"sew_tiny": sew_tiny, "sew18": sew18}


def _check_keys(obj: dict, allowed: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where} must be a JSON object")
    unknown = set(obj) - allowed
    if unknown:
        raise SchemaError(f"{where}: unknown keys {sorted(unknown)}")


def network_from_json(obj: dict) -> NetworkConfig:
    if not isinstance(obj, dict):
        raise SchemaError("network section must be a JSON object")
    if "preset" in obj:
        obj = dict(obj)
        name = obj.pop("preset")
        builder = _PRESETS.get(name)
        if builder is None:
            raise SchemaError(f"unknown network preset {name!r}; "
                              f"known: {sorted(_PRESETS)}")
        try:
            return builder(**obj)
        except TypeError as exc:
            raise SchemaError(f"preset {name}: {exc}") from exc
    return config_from_json(obj)


@dataclass(frozen=True)
class Experiment:
    dataset: str
    network: NetworkConfig
    train: TrainSettings = TrainSettings()
    model_kind: str = "spiking"
    augment: AugmentSpec | None = None
    folds_k: int = 10
    folds_seed: int = 0
    seed: int = 0
    out_dir: str = "runs/out"
    sweep_prob: float = 0.5
    energy_charging: str = "input"

    def __post_init__(self):
        if self.model_kind not in ("spiking", "dense"):
            raise SchemaError(f"model_kind must be spiking or dense, "
                              f"got {self.model_kind!r}")
        if self.energy_charging not in ("input", "output"):
            raise SchemaError(f"energy charging must be input or output, "
                              f"got {self.energy_charging!r}")
        if self.folds_k < 2:
            raise SchemaError(f"folds.k must be >= 2, got {self.folds_k}")
        for key, seed in (("seed", self.seed), ("folds.seed", self.folds_seed)):
            if seed < 0:
                raise SchemaError(f"{key} must be >= 0, got {seed}")
        if not 0.0 <= self.sweep_prob <= 1.0:
            raise SchemaError(f"sweep.prob must lie in [0, 1], got {self.sweep_prob}")

    def to_json_dict(self) -> dict:
        out = {"dataset": self.dataset, "model_kind": self.model_kind,
               "network": config_to_json(self.network),
               "train": {"epochs": self.train.epochs,
                         "batch_size": self.train.batch_size,
                         "lr": self.train.lr, "momentum": self.train.momentum,
                         "early_stop_acc": self.train.early_stop_acc},
               "augment": None if self.augment is None
               else json.loads(self.augment.to_json()),
               "folds": {"k": self.folds_k, "seed": self.folds_seed},
               "seed": self.seed, "out_dir": self.out_dir,
               "sweep": {"prob": self.sweep_prob},
               "energy": {"charging": self.energy_charging}}
        return out

    def canonical_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True,
                          separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


_TOP_KEYS = {"dataset", "model_kind", "network", "train", "augment", "folds",
             "seed", "out_dir", "sweep", "energy"}
# the JSON type of every scalar outside "network" and "augment"
_JSON_TYPES = {"string": str, "integer": int, "number": (int, float),
               "number or null": (int, float, type(None))}
_TRAIN_TYPES = {"epochs": "integer", "batch_size": "integer", "lr": "number",
                "momentum": "number", "early_stop_acc": "number or null"}


def _typed(obj: dict, key: str, default, json_type: str, where: str = ""):
    """obj[key] (the default when absent), checked to be of a JSON type; a
    bool is no number."""
    value = obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[json_type]):
        raise SchemaError(f"{where}{key} must be a JSON {json_type}, got {value!r}")
    return value


def experiment_from_json(obj: dict) -> Experiment:
    _check_keys(obj, _TOP_KEYS, "experiment")
    for key in ("dataset", "network"):
        if key not in obj:
            raise SchemaError(f"experiment: missing required key {key!r}")
    network = network_from_json(obj["network"])

    train_obj = obj.get("train", {})
    _check_keys(train_obj, set(_TRAIN_TYPES), "train")
    for key in train_obj:
        _typed(train_obj, key, None, _TRAIN_TYPES[key], "train.")
    try:
        settings = TrainSettings(**train_obj)
    except ValueError as exc:
        raise SchemaError(f"train: {exc}") from exc

    aug_obj = obj.get("augment")
    if aug_obj is None:
        augment = None
    else:
        try:
            augment = AugmentSpec.from_json(json.dumps(aug_obj))
        except ValueError as exc:
            raise SchemaError(f"augment: {exc}") from exc

    folds_obj = obj.get("folds", {})
    _check_keys(folds_obj, {"k", "seed"}, "folds")
    sweep_obj = obj.get("sweep", {})
    _check_keys(sweep_obj, {"prob"}, "sweep")
    energy_obj = obj.get("energy", {})
    _check_keys(energy_obj, {"charging"}, "energy")

    return Experiment(
        dataset=_typed(obj, "dataset", None, "string"), network=network, train=settings,
        model_kind=_typed(obj, "model_kind", "spiking", "string"), augment=augment,
        folds_k=_typed(folds_obj, "k", 10, "integer", "folds."),
        folds_seed=_typed(folds_obj, "seed", 0, "integer", "folds."),
        seed=_typed(obj, "seed", 0, "integer"),
        out_dir=_typed(obj, "out_dir", "runs/out", "string"),
        sweep_prob=_typed(sweep_obj, "prob", 0.5, "number", "sweep."),
        energy_charging=_typed(energy_obj, "charging", "input", "string", "energy."))


def load_experiment(path: str | Path,
                    overrides: dict | None = None) -> tuple[Experiment, list[str]]:
    """Parse an experiment file; apply flag overrides with provenance lines."""
    path = Path(path)
    try:
        obj = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON: {exc}") from exc
    exp = experiment_from_json(obj)
    provenance: list[str] = []
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        old = getattr(exp, key)
        if old != value:
            exp = replace(exp, **{key: value})
            provenance.append(f"provenance: {key} = {value!r} "
                              f"(flag override; file had {old!r})")
    # dataset paths are resolved relative to the experiment file
    if not Path(exp.dataset).is_absolute():
        exp = replace(exp, dataset=str((path.parent / exp.dataset)))
    return exp, provenance
