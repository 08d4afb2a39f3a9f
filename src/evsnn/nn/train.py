"""Cross-entropy, SGD with momentum, cosine schedule, and the epoch loop.

Training consumes event streams, not tensors: every epoch re-augments each
training sample with an epoch-derived seed and voxelizes the result, so the
model sees fresh perturbations while the whole run stays replayable from one
integer seed. Validation tensors are voxelized once and cached.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ..augment import AugmentSpec, apply_pipeline
from ..events import EventStream, voxelize
from .network import NetworkConfig, backward, forward


class TrainingDiverged(RuntimeError):
    """Loss or parameters went non-finite during optimization."""


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean stable log-sum-exp cross-entropy. logits (B, C), labels (B,)."""
    logits = np.atleast_2d(logits)
    labels = np.atleast_1d(labels)
    z = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    return float((lse - z[np.arange(len(labels)), labels]).mean())


def cosine_lr(epoch: int, total_epochs: int, lr_max: float) -> float:
    if total_epochs < 1:
        raise ValueError(f"total_epochs must be >= 1, got {total_epochs}")
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
    epochs: int = 50
    batch_size: int = 16
    lr: float = 0.01
    momentum: float = 0.9
    seed: int = 0
    # stop once validation accuracy reaches this value (None = never)
    early_stop_acc: float | None = 1.0

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("epochs must be >= 0 and batch_size >= 1")


@dataclass
class TrainResult:
    params: dict                    # best-epoch snapshot
    best_epoch: int                 # -1 when no epoch ran
    best_val_acc: float
    history: list[dict] = field(default_factory=list)


def voxelize_set(streams: list[EventStream], time_steps: int) -> np.ndarray:
    """(N, T, 2, H, W) uint8 stack; streams must share geometry."""
    return np.stack([voxelize(s, time_steps) for s in streams])


def _epoch_rngs(seed: int, epoch: int) -> tuple[np.random.Generator, int]:
    """Shuffle generator and augmentation master seed for one epoch, both
    derived from the run seed so epochs differ but replay exactly."""
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([seed, epoch, 0]))
    aug_seed = int(np.random.SeedSequence([seed, epoch, 1]).generate_state(1)[0])
    return shuffle_rng, aug_seed


def predict(config: NetworkConfig, params: dict, tensors: np.ndarray,
            kind: str = "spiking", batch_size: int = 64) -> np.ndarray:
    """Argmax class per sample; tensors (N, T, 2, H, W)."""
    mode = "dense" if kind == "dense" else "spike"
    out = []
    for i in range(0, len(tensors), batch_size):
        logits, _ = forward(config, params, tensors[i:i + batch_size], mode=mode,
                            record=False)
        out.append(np.argmax(logits, axis=1))
    return np.concatenate(out) if out else np.zeros(0, dtype=np.int64)


def accuracy(config: NetworkConfig, params: dict, tensors: np.ndarray,
             labels: np.ndarray, kind: str = "spiking",
             batch_size: int = 64) -> float:
    pred = predict(config, params, tensors, kind, batch_size)
    return float((pred == np.asarray(labels)).mean())


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
    train_labels = np.asarray(train_labels)
    n = len(train_streams)
    t_steps = config.time_steps
    velocity = None
    best = TrainResult(params={k: v.copy() for k, v in params.items()},
                       best_epoch=-1, best_val_acc=-1.0)

    mode = "dense" if kind == "dense" else "spike"

    for epoch in range(settings.epochs):
        lr = cosine_lr(epoch, settings.epochs, settings.lr)
        shuffle_rng, aug_seed = _epoch_rngs(settings.seed, epoch)
        order = shuffle_rng.permutation(n)
        epoch_spec = augment.with_seed(aug_seed) if augment is not None else None

        loss_sum = 0.0
        hit_sum = 0
        for start in range(0, n, settings.batch_size):
            idx = order[start:start + settings.batch_size]
            batch = np.empty((len(idx), t_steps, config.in_channels,
                              config.height, config.width), dtype=np.uint8)
            for j, i in enumerate(idx):
                stream = train_streams[i]
                if epoch_spec is not None:
                    stream = apply_pipeline(stream, epoch_spec, sample_index=int(i))
                batch[j] = voxelize(stream, t_steps)
            labels = train_labels[idx]
            logits, trace = forward(config, params, batch, mode=mode)
            loss_sum += cross_entropy(logits, labels) * len(idx)
            hit_sum += int((np.argmax(logits, axis=1) == labels).sum())
            grads = backward(config, params, trace, labels)
            velocity = sgd_step(params, grads, lr, settings.momentum, velocity)

        train_loss = loss_sum / n
        if not np.isfinite(train_loss):
            raise TrainingDiverged(f"non-finite loss at epoch {epoch}")
        val_acc = accuracy(config, params, val_tensors, val_labels, kind)
        row = {"epoch": epoch, "lr": lr, "loss": train_loss,
               "train_acc": hit_sum / n, "val_acc": val_acc}
        best.history.append(row)
        if log_file is not None:
            log_file.write(json.dumps(row, sort_keys=True) + "\n")
        if val_acc > best.best_val_acc:
            best.best_val_acc = val_acc
            best.best_epoch = epoch
            best.params = {k: v.copy() for k, v in params.items()}
        if settings.early_stop_acc is not None \
                and val_acc >= settings.early_stop_acc:
            break
    return best
