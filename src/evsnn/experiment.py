"""One JSON experiment file drives every pipeline command.

Schema (decoded by ``_schema.loads``, so NaN and Infinity are refused; every
object is read against the signature of what it feeds by ``_schema.checked``,
so each key must be a parameter there and each value of its annotation's JSON
type and ``Bound``):

    {
      "dataset": "path/to/manifest.json",
      "model_kind": "spiking" | "dense",
      "network": {"preset": "sew_tiny", "classes": 4, ...}  (the preset's arguments)
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
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Annotated

from ._schema import Bound, SchemaError, bounded, canonical, checked, loads
from .augment import AugmentSpec
from .energy import Charging
from .nn.network import ModelKind, NetworkConfig, config_from_json, config_to_json, sew18, sew_tiny
from .nn.train import TrainSettings


_PRESETS = {"sew_tiny": sew_tiny, "sew18": sew18}


# schemas of the objects no definition describes; optional keys default as in Experiment
def _experiment(dataset: str, network: dict, model_kind: ModelKind = ..., train: dict = ...,
                augment: dict | None = ..., folds: dict = ...,
                seed: Annotated[int, Bound(0)] = ..., out_dir: str = ...,
                sweep: dict = ..., energy: dict = ...): ...
def _network(preset: str = ..., **grammar): ...
def _folds(k: Annotated[int, Bound(2)] = ..., seed: Annotated[int, Bound(0)] = ...): ...
def _sweep(prob: Annotated[float, Bound(0, 1)] = ...): ...
def _energy(charging: Charging = ...): ...


def network_from_json(obj: dict) -> NetworkConfig:
    if "preset" not in checked(_network, obj, "network"):
        return config_from_json(obj)
    args = dict(obj)
    name = args.pop("preset")
    builder = _PRESETS.get(name)
    if builder is None:
        raise SchemaError(f"unknown network preset {name!r}; known: {sorted(_PRESETS)}")
    return builder(**checked(builder, args, f"network preset {name}"))


@dataclass(frozen=True)
class Experiment:
    dataset: str
    network: NetworkConfig
    train: TrainSettings = TrainSettings()
    model_kind: ModelKind = "spiking"
    augment: AugmentSpec | None = None
    folds_k: int = 10
    folds_seed: int = 0
    seed: int = 0
    out_dir: str = "runs/out"
    sweep_prob: float = 0.5
    energy_charging: Charging = "input"

    def __post_init__(self):
        bounded(_experiment, {"seed": self.seed, "model_kind": self.model_kind}, "")
        bounded(_energy, {"charging": self.energy_charging}, "energy")
        bounded(_folds, {"k": self.folds_k, "seed": self.folds_seed}, "folds")
        bounded(_sweep, {"prob": self.sweep_prob}, "sweep")

    def to_json_dict(self) -> dict:
        return {"dataset": self.dataset, "model_kind": self.model_kind,
                "network": config_to_json(self.network),
                "train": {key: value for key, value in asdict(self.train).items()
                          if key != "seed"},
                "augment": None if self.augment is None else self.augment.to_dict(),
                "folds": {"k": self.folds_k, "seed": self.folds_seed},
                "seed": self.seed, "out_dir": self.out_dir,
                "sweep": {"prob": self.sweep_prob},
                "energy": {"charging": self.energy_charging}}

    def config_hash(self) -> str:
        return hashlib.sha256(canonical(self.to_json_dict()).encode()).hexdigest()


def experiment_from_json(obj: dict) -> Experiment:
    checked(_experiment, obj, "experiment")
    network = network_from_json(obj["network"])
    train = checked(TrainSettings, obj.get("train", {}), "train", exclude=("seed",))
    try:
        augment = None if obj.get("augment") is None else AugmentSpec.from_dict(obj["augment"])
    except ValueError as exc:
        raise SchemaError(f"augment: {exc}") from exc
    fields = {key: obj[key] for key in ("model_kind", "seed", "out_dir") if key in obj}
    for section, schema in (("folds", _folds), ("sweep", _sweep), ("energy", _energy)):
        for key, value in checked(schema, obj.get(section, {}), section).items():
            fields[f"{section}_{key}"] = value
    return Experiment(dataset=obj["dataset"], network=network, train=TrainSettings(**train),
                      augment=augment, **fields)


def load_experiment(path: str | Path,
                    overrides: dict | None = None) -> tuple[Experiment, list[str]]:
    """Parse an experiment file; apply flag overrides with provenance lines."""
    path = Path(path)
    exp = experiment_from_json(loads(path.read_bytes(), str(path)))
    provenance: list[str] = []
    for key, value in (overrides or {}).items():
        old = getattr(exp, key)
        if value is not None and old != value:
            exp = replace(exp, **{key: value})
            provenance.append(f"provenance: {key} = {value!r} "
                              f"(flag override; file had {old!r})")
    # dataset paths are resolved relative to the experiment file
    if not Path(exp.dataset).is_absolute():
        exp = replace(exp, dataset=str((path.parent / exp.dataset)))
    return exp, provenance
