"""Cross-entropy, SGD with momentum, cosine schedule, and the epoch loop.

Training consumes event streams, not tensors: every epoch re-augments each
training sample with an epoch-derived seed and voxelizes the result, so the
model sees fresh perturbations while the whole run stays replayable from one
integer seed. Validation tensors are voxelized once and cached.

A training batch's gradient follows ``nn.network``'s split rule: below its
floor, the whole batch's; else the gradient of its first half plus that of
the rest, each taken by ``forward`` and ``backward`` on its half with the
loss summed over the half and divided by B, added in that order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Annotated

import numpy as np

from .._schema import Bound, bounded, canonical
from ..augment import AugmentSpec, apply_pipeline
from ..events import EventStream, voxelize_set
from .network import NetworkConfig, _forward_mode, _halves, backward, forward


class TrainingDiverged(RuntimeError):
    """Loss or parameters went non-finite during optimization."""


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean stable log-sum-exp cross-entropy. logits (B, C), labels (B,)."""
    logits = np.atleast_2d(logits)
    labels = np.atleast_1d(labels)
    z = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    return float((lse - z[np.arange(len(labels)), labels]).mean())


def cosine_lr(epoch: int, total_epochs: Annotated[int, Bound(1)], lr_max: float) -> float:
    bounded(cosine_lr, {"total_epochs": total_epochs}, "", ValueError)
    lr = 0.5 * lr_max * (1.0 + np.cos(np.pi * epoch / total_epochs))
    return float(max(lr, 0.0))


def sgd_step(params: dict, grads: dict, lr: float, momentum: float = 0.9,
             velocity: dict | None = None) -> dict:
    """One in-place SGD update; returns the velocity dict to carry forward.

    Raises TrainingDiverged if any parameter leaves the finite range, which
    keeps the NaN-propagation failure mode loud instead of silent.
    """
    if velocity is None:
        velocity = {name: np.zeros_like(v) for name, v in params.items()}
    for name in params:
        v = velocity[name]
        v *= momentum
        v += grads[name]
        params[name] -= lr * v
        if not np.isfinite(params[name]).all():
            raise TrainingDiverged(f"non-finite parameter {name} after update")
    return velocity


@dataclass(frozen=True)
class TrainSettings:
    epochs: Annotated[int, Bound(0)] = 50
    batch_size: Annotated[int, Bound(1)] = 16
    lr: Annotated[float, Bound(0)] = 0.01
    momentum: Annotated[float, Bound(0)] = 0.9
    seed: Annotated[int, Bound(0)] = 0
    # stop once validation accuracy reaches this value (None = never)
    early_stop_acc: Annotated[float | None, Bound(0, 1)] = 1.0

    def __post_init__(self):
        bounded(TrainSettings, vars(self), "train")


@dataclass
class TrainResult:
    params: dict                    # best-epoch snapshot
    best_epoch: int                 # -1 when no epoch ran
    best_val_acc: float
    history: list[dict] = field(default_factory=list)


def _epoch_rngs(seed: int, epoch: int) -> tuple[np.random.Generator, int]:
    """Shuffle generator and augmentation master seed for one epoch, both
    derived from the run seed so epochs differ but replay exactly."""
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([seed, epoch, 0]))
    aug_seed = int(np.random.SeedSequence([seed, epoch, 1]).generate_state(1)[0])
    return shuffle_rng, aug_seed


def predict(config: NetworkConfig, params: dict, tensors: np.ndarray,
            kind: str = "spiking") -> np.ndarray:
    """Argmax class per sample; tensors (N, T, 2, H, W), run in chunks of 64."""
    mode = _forward_mode(kind)
    out = []
    for i in range(0, len(tensors), 64):
        logits, _ = forward(config, params, tensors[i:i + 64], mode=mode, record=False)
        out.append(np.argmax(logits, axis=1))
    return np.concatenate(out) if out else np.zeros(0, dtype=np.int64)


def accuracy(config: NetworkConfig, params: dict, tensors: np.ndarray,
             labels: np.ndarray, kind: str = "spiking") -> float:
    labels = _labelled(tensors, labels)
    return float((predict(config, params, tensors, kind) == labels).mean())


def _labelled(tensors: np.ndarray, labels) -> np.ndarray:
    """labels as an array of one label per sample; ValueError where the
    counts differ or there is no sample."""
    labels = np.asarray(labels)
    if labels.shape != (len(tensors),) or not len(tensors):
        raise ValueError(f"need one label per sample and at least one sample, "
                         f"got {len(tensors)} samples and labels of shape {labels.shape}")
    return labels


def _grads(config: NetworkConfig, params: dict, x: np.ndarray, labels: np.ndarray,
           mode: str, denominator: int) -> tuple[np.ndarray, dict]:
    """Forward and BPTT on one half of a batch: its logits and the gradients
    of its loss summed and divided by ``denominator``. The half's trace dies
    on return, so the next forward never runs beside it."""
    logits, trace = forward(config, params, x, mode=mode)
    return logits, backward(config, params, trace, labels, denominator)


def _grads_half(arrays: dict, config: NetworkConfig, mode: str,
                denominator: int) -> tuple[np.ndarray, dict]:
    """``_grads`` as ``_halves`` runs it on each half of a batch: the
    parameters, the half's input ``"x"`` and its ``"labels"`` in one dict."""
    x, labels = arrays.pop("x"), arrays.pop("labels")
    return _grads(config, arrays, x, labels, mode, denominator)


def _batch_grads(config: NetworkConfig, params: dict, batch: np.ndarray,
                 labels: np.ndarray, mode: str) -> tuple[np.ndarray, dict]:
    """The batch's logits and gradient, as the module docstring defines it."""
    b = len(batch)
    halves = _halves(_grads_half, params, {"x": batch, "labels": labels}, config, mode, b)
    if halves is None:
        return _grads(config, params, batch, labels, mode, b)
    (logits, grads), (second_logits, second) = halves
    for name, g in grads.items():
        g += second[name]
    return np.concatenate([logits, second_logits]), grads


def _train_step(config: NetworkConfig, params: dict, batch: np.ndarray,
                labels: np.ndarray, mode: str, lr: float, momentum: float,
                velocity: dict | None) -> tuple[np.ndarray, dict]:
    """The batch's gradient and one SGD update; returns the logits and the
    velocity. The gradients die on return, so the next step's forward never
    runs beside them."""
    logits, grads = _batch_grads(config, params, batch, labels, mode)
    return logits, sgd_step(params, grads, lr, momentum, velocity)


@np.errstate(over="ignore", invalid="ignore")  # divergence is TrainingDiverged, not warnings
def train(config: NetworkConfig, params: dict, train_streams: list[EventStream],
          train_labels: np.ndarray, val_tensors: np.ndarray,
          val_labels: np.ndarray, settings: TrainSettings,
          augment: AugmentSpec | None = None, kind: str = "spiking",
          log_file=None) -> TrainResult:
    """Epoch loop with per-epoch re-augmentation and best-epoch selection.

    val_tensors are pre-voxelized (the validation set is never augmented).
    Returns the parameter snapshot of the epoch with the highest validation
    accuracy (earliest epoch wins ties, so reruns are reproducible).
    """
    mode = _forward_mode(kind)
    _labelled(val_tensors, val_labels)
    train_labels = np.asarray(train_labels)
    n = len(train_streams)
    velocity = None
    best = TrainResult(params={k: v.copy() for k, v in params.items()},
                       best_epoch=-1, best_val_acc=-1.0)

    for epoch in range(settings.epochs):
        lr = cosine_lr(epoch, settings.epochs, settings.lr)
        shuffle_rng, aug_seed = _epoch_rngs(settings.seed, epoch)
        order = shuffle_rng.permutation(n)
        epoch_spec = augment.with_seed(aug_seed) if augment is not None else None

        loss_sum = 0.0
        hit_sum = 0
        for start in range(0, n, settings.batch_size):
            idx = order[start:start + settings.batch_size]
            streams = [train_streams[i] if epoch_spec is None
                       else apply_pipeline(train_streams[i], epoch_spec, sample_index=int(i))
                       for i in idx]
            batch = voxelize_set(streams, config.time_steps)
            labels = train_labels[idx]
            logits, velocity = _train_step(config, params, batch, labels, mode, lr,
                                           settings.momentum, velocity)
            loss_sum += cross_entropy(logits, labels) * len(idx)
            hit_sum += int((np.argmax(logits, axis=1) == labels).sum())

        train_loss = loss_sum / n
        if not np.isfinite(train_loss):
            raise TrainingDiverged(f"non-finite loss at epoch {epoch}")
        val_acc = accuracy(config, params, val_tensors, val_labels, kind)
        row = {"epoch": epoch, "lr": lr, "loss": train_loss,
               "train_acc": hit_sum / n, "val_acc": val_acc}
        best.history.append(row)
        if log_file is not None:
            log_file.write(canonical(row) + "\n")
        if val_acc > best.best_val_acc:
            best.best_val_acc = val_acc
            best.best_epoch = epoch
            best.params = {k: v.copy() for k, v in params.items()}
        if settings.early_stop_acc is not None \
                and val_acc >= settings.early_stop_acc:
            break
    return best
