"""Cross-validated benchmark harness and the augmentation sweep.

Protocol notes, fixed here:
  - folds come from a seeded shuffle followed by contiguous slicing; the
    first (n mod k) folds take the extra sample;
  - the held-out fold doubles as the validation set for best-epoch selection
    (optimistic; reports carry the flag). A nested mode that reserves a
    separate validation fold is available;
  - every seed a cell needs is derived from (sweep seed, combination mask,
    fold) with SeedSequence, so results do not depend on execution order and
    sweep cells can run in parallel workers;
  - the 32 common-augmentation combinations are enumerated by bitmask with
    bit 0 = crop, 1 = hflip, 2 = noise, 3 = polflip, 4 = reverse;
  - ties for the best combination break toward fewer augmentations, then
    lower mask.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Annotated, Literal

import numpy as np

from . import _blas
from ._schema import Bound, bounded, checked, dumps
from .augment import COMMON_EDAS, AugmentSpec, TransformSpec
from .events import EventStream, voxelize_set
from .evio import DatasetManifest
from .nn.network import ModelKind, NetworkConfig, config_to_json, init_params
from .nn.train import TrainingDiverged, TrainSettings, accuracy, train


class BenchError(RuntimeError):
    """A fold failed; message carries the cell diagnostics."""


def derive_seed(*parts: int) -> int:
    """Stable child seed from integer coordinates."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def load_dataset(manifest: DatasetManifest) -> tuple[list[EventStream], np.ndarray]:
    streams = [manifest.load(i) for i in range(len(manifest.entries))]
    labels = np.asarray([entry.label for entry in manifest.entries], dtype=np.int64)
    return streams, labels


# ---------------------------------------------------------------------------
# folds

@dataclass(frozen=True)
class FoldPlan:
    k: int
    seed: int
    folds: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        flat = sorted(i for fold in self.folds for i in fold)
        if flat != list(range(len(flat))):
            raise ValueError("folds must partition range(n)")
        sizes = {len(fold) for fold in self.folds}
        if len(sizes) > 2 or (len(sizes) == 2 and max(sizes) - min(sizes) != 1):
            raise ValueError("fold sizes must differ by at most 1")

    def train_indices(self, *held: int) -> tuple[int, ...]:
        """Every sample outside the held folds."""
        return tuple(i for j, f in enumerate(self.folds) if j not in held for i in f)


def kfold_split(n_samples: int, k: Annotated[int, Bound(1)], seed: int) -> FoldPlan:
    bounded(kfold_split, {"k": k}, "", ValueError)
    if n_samples < k:
        raise ValueError(f"need at least k={k} samples, got {n_samples}")
    perm = np.random.default_rng(np.random.SeedSequence([seed])).permutation(n_samples)
    base, extra = divmod(n_samples, k)
    folds, pos = [], 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        folds.append(tuple(int(j) for j in perm[pos:pos + size]))
        pos += size
    return FoldPlan(k=k, seed=seed, folds=tuple(folds))


# ---------------------------------------------------------------------------
# single-fold work unit (shared by run_cv, the sweep queue and the CLI)

_DATA: tuple[list[EventStream], np.ndarray] | None = None


def _init_worker(streams: list[EventStream], labels: np.ndarray) -> None:
    """Pool initializer: hand the worker the dataset and hold each loaded
    OpenBLAS at one thread, so parallel workers do not compete for the cores."""
    global _DATA
    _DATA = (streams, labels)
    _blas.set_threads([1] * len(_blas.threads()))


@dataclass(frozen=True)
class FoldTask:
    """Everything one (combination, fold) cell needs besides the dataset."""

    config: NetworkConfig
    settings: TrainSettings
    augment: AugmentSpec | None
    kind: str
    param_seed: int
    train_seed: int
    fold: int
    train_idx: tuple[int, ...]
    val_idx: tuple[int, ...]                  # the reported fold
    # best-epoch selection fold (nested validation); None selects on val_idx
    select_idx: tuple[int, ...] | None = None
    shuffled_eval_seed: int | None = None
    mask: int | None = None


def fold_task(plan: FoldPlan, fold: int, seed: int, select: int | None = None,
              **fields) -> FoldTask:
    """The cell that reports ``fold`` of ``plan``, selects its best epoch on
    fold ``select`` (None: on ``fold``) and trains on the other folds, its
    parameter and training seeds derived from (seed, fold)."""
    held = (fold,) if select is None else (fold, select)
    train_idx = plan.train_indices(*held)
    if not train_idx:
        raise ValueError(f"k={plan.k} leaves nothing to train on outside held folds {held}")
    return FoldTask(fold=fold, train_idx=train_idx, val_idx=plan.folds[fold],
                    select_idx=None if select is None else plan.folds[select],
                    param_seed=derive_seed(seed, fold, 0),
                    train_seed=derive_seed(seed, fold, 1), **fields)


def shuffle_bins(tensors: np.ndarray, seed: list[int]) -> np.ndarray:
    """Each sample's time bins in an order drawn from ``seed``."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return np.stack([s[rng.permutation(len(s))] for s in tensors])


def train_fold(task: FoldTask, streams: list[EventStream], labels: np.ndarray,
               log_file=None):
    """Train one cell from fresh parameters, choosing the best epoch on its
    selection fold (the reported fold unless nested). Returns the training
    result and the reported fold's tensors and labels."""
    config = task.config

    def held_out(idx):
        return voxelize_set([streams[i] for i in idx], config.time_steps), labels[list(idx)]
    val_tensors, val_labels = held_out(task.val_idx)
    sel_tensors, sel_labels = (held_out(task.select_idx) if task.select_idx is not None
                               else (val_tensors, val_labels))
    params = init_params(config, task.param_seed, kind=task.kind)
    result = train(config, params, [streams[i] for i in task.train_idx],
                   labels[list(task.train_idx)], sel_tensors, sel_labels,
                   replace(task.settings, seed=task.train_seed),
                   augment=task.augment, kind=task.kind, log_file=log_file)
    return result, val_tensors, val_labels


def _run_fold(task: FoldTask, data: tuple | None = None) -> dict:
    """One cell's record, on ``data`` or, in a pool worker, the worker's dataset."""
    config = task.config
    try:
        result, val_tensors, val_labels = train_fold(task, *(data or _DATA))
    except TrainingDiverged as exc:
        raise BenchError(
            f"fold {task.fold}"
            + (f" (combination mask {task.mask})" if task.mask is not None else "")
            + f" failed: {exc}") from exc
    # a zero-epoch run reports the initial parameters; a nested run scores
    # the selected parameters on the untouched fold
    if result.best_epoch < 0 or task.select_idx is not None:
        acc = accuracy(config, result.params, val_tensors, val_labels, task.kind)
    else:
        acc = result.best_val_acc
    out = {"fold": task.fold, "accuracy": float(acc),
           "best_epoch": result.best_epoch, "epochs_run": len(result.history),
           "train_size": len(task.train_idx), "val_size": len(task.val_idx)}
    if task.mask is not None:
        out["mask"] = task.mask
    if task.shuffled_eval_seed is not None:
        shuffled = shuffle_bins(val_tensors, [task.shuffled_eval_seed])
        out["shuffled_accuracy"] = accuracy(config, result.params, shuffled,
                                            val_labels, task.kind)
    return out


def _execute(tasks: list[FoldTask], streams, labels, jobs: int) -> list[dict]:
    if jobs <= 1 or len(tasks) <= 1:
        return [_run_fold(t, (streams, labels)) for t in tasks]
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks)),
                             initializer=_init_worker, initargs=(streams, labels)) as pool:
        return list(pool.map(_run_fold, tasks))


# ---------------------------------------------------------------------------
# cross-validation

@dataclass
class FoldReport:
    k: int
    model_kind: str
    validation: str            # "heldout" (optimistic) or "nested"
    fold_acc: list[float]
    mean_acc: float
    per_fold: list[dict]
    echo: dict = field(default_factory=dict)
    shuffled_fold_acc: list[float] | None = None
    shuffled_mean_acc: float | None = None

    def __post_init__(self):
        if abs(self.mean_acc - float(np.mean(self.fold_acc))) > 1e-12:
            raise ValueError("stored mean does not match fold accuracies")
        if not all(0.0 <= a <= 1.0 for a in self.fold_acc):
            raise ValueError("accuracies must lie in [0, 1]")

    def to_json_dict(self) -> dict:
        out = {"version": 1, "k": self.k, "model_kind": self.model_kind,
               "validation": self.validation,
               "validation_note": "best epoch selected on the reported fold "
                                  "(optimistic)" if self.validation == "heldout"
                                  else "separate validation fold",
               "fold_accuracies": self.fold_acc, "mean_accuracy": self.mean_acc,
               "folds": self.per_fold, "config": self.echo}
        if self.shuffled_fold_acc is not None:
            out["shuffled_bins_fold_accuracies"] = self.shuffled_fold_acc
            out["shuffled_bins_mean_accuracy"] = self.shuffled_mean_acc
        return out

    def to_json(self) -> str:
        return dumps(self.to_json_dict())


def run_cv(streams: list[EventStream], labels: np.ndarray, config: NetworkConfig,
           settings: TrainSettings, *, augment: AugmentSpec | None = None,
           kind: ModelKind = "spiking", k: int = 10, split_seed: int = 0,
           base_seed: int = 0, validation: Literal["heldout", "nested"] = "heldout",
           eval_shuffled_bins: bool = False, jobs: int = 1,
           echo: dict | None = None) -> FoldReport:
    """Train on k-1 folds, score the held-out fold at its best epoch.

    Training data is augmented per epoch; the evaluation fold never is.
    """
    bounded(run_cv, {"kind": kind, "validation": validation}, "", ValueError)
    plan = kfold_split(len(streams), k, split_seed)
    # nested: train on k-2 folds, select the best epoch on the next fold,
    # then report the untouched fold
    tasks = [fold_task(plan, fold, base_seed, (fold + 1) % k if validation == "nested" else None,
                       config=config, settings=settings, augment=augment, kind=kind,
                       shuffled_eval_seed=derive_seed(base_seed, fold, 2)
                       if eval_shuffled_bins else None)
             for fold in range(k)]
    results = _execute(tasks, streams, labels, jobs)
    fold_acc = [r["accuracy"] for r in results]
    report = FoldReport(
        k=k, model_kind=kind, validation=validation, fold_acc=fold_acc,
        mean_acc=float(np.mean(fold_acc)),
        per_fold=[{key: r[key] for key in
                   ("fold", "best_epoch", "epochs_run", "train_size", "val_size")}
                  for r in results],
        echo=echo if echo is not None else {"network": config_to_json(config)})
    if eval_shuffled_bins:
        report.shuffled_fold_acc = [r["shuffled_accuracy"] for r in results]
        report.shuffled_mean_acc = float(np.mean(report.shuffled_fold_acc))
    return report


# ---------------------------------------------------------------------------
# the 32-combination sweep

def spec_for_mask(mask: int, extra: tuple[str, ...] = (), seed: int = 0,
                  prob: float = 0.5) -> AugmentSpec | None:
    """Pipeline for one combination: active common transforms in canonical
    order, then any specific ones; None when nothing is active."""
    kinds = [name for j, name in enumerate(COMMON_EDAS) if mask >> j & 1]
    kinds += list(extra)
    if not kinds:
        return None
    return AugmentSpec(transforms=tuple(TransformSpec(kind=k, prob=prob)
                                        for k in kinds), seed=seed)


@dataclass
class SweepResult:
    k: int
    seed: int
    split_seed: int
    eda_names: tuple[str, ...]
    records: list[dict]        # mask, fold, accuracy, model_kind, best_epoch
    echo: dict = field(default_factory=dict)

    def __post_init__(self):
        cells = {(mask, fold) for mask in range(32) for fold in range(self.k)}
        for kind in sorted({r["model_kind"] for r in self.records}):
            got = [(r["mask"], r["fold"]) for r in self.records if r["model_kind"] == kind]
            if len(got) != len(cells):
                raise ValueError(f"{kind}: expected {len(cells)} records, got {len(got)}")
            if set(got) != cells:  # so some cell is missing, held twice or outside 32 x k
                mask, fold = min(cells - set(got))
                raise ValueError(f"{kind}: no record for mask {mask}, fold {fold}; each of "
                                 f"the 32 x k={self.k} cells needs exactly one")
        self.records.sort(key=lambda r: (r["model_kind"], r["mask"], r["fold"]))

    def kinds(self) -> list[str]:
        return sorted({r["model_kind"] for r in self.records})

    def mean_by_mask(self, kind: str) -> dict[int, float]:
        acc: dict[int, list[float]] = {}
        for r in self.records:
            if r["model_kind"] == kind:
                acc.setdefault(r["mask"], []).append(r["accuracy"])
        return {m: float(np.mean(v)) for m, v in acc.items()}

    def best_mask(self, kind: str) -> int:
        means = self.mean_by_mask(kind)
        return min(means, key=lambda m: (-means[m], bin(m).count("1"), m))

    def arrays(self, kind: str) -> tuple[np.ndarray, np.ndarray]:
        rows = [r for r in self.records if r["model_kind"] == kind]
        return (np.array([r["mask"] for r in rows]),
                np.array([r["accuracy"] for r in rows]))

    def to_json_dict(self) -> dict:
        return {"version": 1, "k": self.k, "seed": self.seed,
                "split_seed": self.split_seed, "eda_names": list(self.eda_names),
                "records": self.records, "config": self.echo}

    def to_json(self) -> str:
        return dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, obj: dict) -> "SweepResult":
        checked(_sweep_file, obj, "sweep result")
        if tuple(obj["eda_names"]) != COMMON_EDAS:  # the bit order every mask is read in
            raise ValueError(f"sweep result: eda_names must be {list(COMMON_EDAS)}, "
                             f"got {obj['eda_names']}")
        for i, record in enumerate(obj["records"]):
            checked(_sweep_record, record, f"sweep record {i}")
        return cls(k=obj["k"], seed=obj["seed"], split_seed=obj["split_seed"],
                   eda_names=tuple(obj["eda_names"]), records=list(obj["records"]),
                   echo=obj.get("config", {}))


def _sweep_file(k: int, seed: int, split_seed: int, eda_names: list, records: list,
                version: int = ..., config: dict = ...): ...
def _sweep_record(mask: Annotated[int, Bound(0, 2 ** len(COMMON_EDAS) - 1)], fold: int,
                  accuracy: Annotated[float, Bound(0, 1)], best_epoch: int,
                  model_kind: ModelKind): ...


def format_sweep_text(result: SweepResult) -> str:
    lines = [f"sweep: k={result.k}, {len(result.records)} records, "
             f"bit order {', '.join(result.eda_names)}"]
    for kind in result.kinds():
        means = result.mean_by_mask(kind)
        best = result.best_mask(kind)
        lines.append(f"[{kind}]")
        lines.append(f"{'mask':>5s} {'combination':<40s} {'mean acc':>9s}")
        for mask in sorted(means):
            combo = [n for j, n in enumerate(result.eda_names) if mask >> j & 1]
            name = "+".join(combo) if combo else "(none)"
            star = " <- best" if mask == best else ""
            lines.append(f"{mask:>5d} {name:<40s} {means[mask]:>9.4f}{star}")
    return "\n".join(lines) + "\n"


def sweep_common_eda(streams: list[EventStream], labels: np.ndarray,
                     config: NetworkConfig, settings: TrainSettings, *,
                     kind: str = "spiking", k: int = 10, split_seed: int = 0,
                     sweep_seed: int = 0, prob: float = 0.5, jobs: int = 1,
                     echo: dict | None = None) -> SweepResult:
    """All 2^5 common-augmentation subsets x k folds; 32k score records."""
    plan = kfold_split(len(streams), k, split_seed)
    tasks = []
    for mask in range(32):
        cell_seed = derive_seed(sweep_seed, mask)
        augment = spec_for_mask(mask, seed=cell_seed, prob=prob)
        tasks += [fold_task(plan, fold, cell_seed, config=config, settings=settings,
                            augment=augment, kind=kind, mask=mask) for fold in range(k)]
    results = _execute(tasks, streams, labels, jobs)
    records = [{"mask": r["mask"], "fold": r["fold"], "accuracy": r["accuracy"],
                "best_epoch": r["best_epoch"], "model_kind": kind}
               for r in results]
    return SweepResult(k=k, seed=sweep_seed, split_seed=split_seed,
                       eda_names=COMMON_EDAS, records=records,
                       echo=echo if echo is not None
                       else {"network": config_to_json(config)})


def run_specific_eda(streams: list[EventStream], labels: np.ndarray,
                     config: NetworkConfig, settings: TrainSettings, sweep: SweepResult,
                     which: Literal["none", "eventdrop", "eventdrop+mirror"] = "none", *,
                     kind: str = "spiking", jobs: int = 1) -> FoldReport:
    """Re-run CV on the sweep's best combination with ``which``'s augmentations appended."""
    bounded(run_specific_eda, {"which": which}, "", ValueError)
    extras = () if which == "none" else tuple(which.split("+"))
    mask = sweep.best_mask(kind)
    cell_seed = derive_seed(sweep.seed, mask)
    augment = spec_for_mask(mask, extra=extras, seed=cell_seed)
    pipeline = [n for j, n in enumerate(sweep.eda_names) if mask >> j & 1] + list(extras)
    report = run_cv(streams, labels, config, settings, augment=augment,
                    kind=kind, k=sweep.k, split_seed=sweep.split_seed,
                    base_seed=cell_seed, jobs=jobs,
                    echo={"best_mask": mask, "pipeline": pipeline,
                          "which": which, "network": config_to_json(config)})
    return report
