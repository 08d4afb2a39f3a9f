"""Command-line entry point for the whole pipeline.

Subcommands: synth, voxelize, augment, train, eval, sweep, regress, energy.
One experiment JSON file carries the configuration; --seed/--out flags
override file values and print a provenance line when they do.

Exit codes: 0 success, 2 schema/usage violation, 3 training divergence,
4 I/O failure. Every command is deterministic given its inputs and seeds;
the only artifact allowed to differ between reruns is the run-ledger sidecar
(*.runledger.json), which records wall-clock timings.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import bench, energy, regress, synth
from .augment import AugmentSpec, TransformSpec, apply_pipeline
from .evio import EventFileError, load_events, load_manifest, save_events
from .events import InvalidStreamError, devoxelize_counts, voxelize
from .experiment import Experiment, SchemaError, load_experiment
from .nn.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .nn.network import ConfigError, forward, init_params
from .nn.train import TrainingDiverged, accuracy, train, voxelize_set


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _write_json(path: Path, obj: dict) -> None:
    _write_text(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _run_ledger(path: Path, exp: Experiment, command: str, seeds: dict,
                elapsed: float) -> None:
    """Timing sidecar; excluded from the byte-determinism contract."""
    _write_json(path, {"command": command, "config_hash": exp.config_hash(),
                       "seeds": seeds, "elapsed_seconds": elapsed})


def _load_experiment_for(args) -> tuple[Experiment, dict]:
    if args.config is None:
        raise SchemaError("--config is required for this command")
    overrides = {"seed": args.seed, "out_dir": args.out}
    exp, provenance = load_experiment(args.config, overrides)
    for line in provenance:
        print(line)
    return exp, overrides


def _dataset_for(exp: Experiment):
    manifest = load_manifest(exp.dataset)
    streams, labels = bench.load_dataset(manifest)
    config = exp.network
    if (manifest.entries[0].width, manifest.entries[0].height) != \
            (config.width, config.height):
        raise SchemaError(
            f"dataset geometry {manifest.entries[0].width}x"
            f"{manifest.entries[0].height} does not match network "
            f"{config.width}x{config.height}")
    classes = config.classifier.classes
    if manifest.num_classes > classes:
        raise SchemaError(f"dataset has {manifest.num_classes} classes but the "
                          f"classifier only has {classes}")
    return manifest, streams, labels


def _train_fold_split(exp: Experiment, n: int):
    """The single-run train/eval protocol: fold 0 of the CV plan is held out."""
    plan = bench.kfold_split(n, exp.folds_k, exp.folds_seed)
    return plan.train_indices(0), plan.folds[0]


# ---------------------------------------------------------------------------
# subcommands

def cmd_synth(args) -> int:
    if args.classes < 1 or args.classes > len(synth.DEFAULT_TEMPLATES):
        raise SchemaError(f"--classes must lie in [1, {len(synth.DEFAULT_TEMPLATES)}], "
                          f"got {args.classes}")
    if args.samples_per_class < 1:
        raise SchemaError("--samples-per-class must be >= 1")
    try:
        params = synth.SynthParams(
            width=args.width, height=args.height, duration=args.duration,
            events_per_sample=args.events,
            templates=synth.DEFAULT_TEMPLATES[:args.classes])
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    out = Path(args.out if args.out is not None else "dataset")
    manifest = synth.write_dataset(out, params, args.samples_per_class,
                                   args.seed if args.seed is not None else 0)
    print(f"wrote {len(manifest.entries)} samples "
          f"({args.classes} classes x {args.samples_per_class}) to {out}")
    print(f"manifest: {out / 'manifest.json'}")
    return 0


def cmd_voxelize(args) -> int:
    stream = load_events(args.input)
    tensor = voxelize(stream, args.time_steps)
    counts = devoxelize_counts(stream, args.time_steps)
    if args.out is not None:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        np.save(out, tensor)
        print(f"wrote {tensor.shape} uint8 tensor to {out}")
    print(f"stream: {stream.n} events, {stream.width}x{stream.height}, "
          f"duration {stream.duration} us")
    for b in range(args.time_steps):
        on = int(tensor[b, 0].sum())
        off = int(tensor[b, 1].sum())
        print(f"bin {b}: {counts[b]} events, {on} + cells, {off} - cells")
    return 0


def cmd_augment(args) -> int:
    stream = load_events(args.input)
    if args.config is not None:
        exp, _ = load_experiment(args.config, {"seed": args.seed})
        spec = exp.augment
        if spec is None:
            raise SchemaError("experiment file has no augment section")
        if args.seed is not None:
            spec = spec.with_seed(args.seed)
    else:
        if not args.pipeline:
            raise SchemaError("either --config or --pipeline is required")
        kinds = [k.strip() for k in args.pipeline.split(",") if k.strip()]
        try:
            spec = AugmentSpec(
                transforms=tuple(TransformSpec(kind=k, prob=args.prob)
                                 for k in kinds),
                seed=args.seed if args.seed is not None else 0)
        except ValueError as exc:
            raise SchemaError(str(exc)) from exc
    result = apply_pipeline(stream, spec, sample_index=args.sample_index)
    save_events(result, args.output)
    print(f"applied {[t.kind for t in spec.transforms]} "
          f"(seed {spec.seed}, sample index {args.sample_index})")
    print(f"{stream.n} -> {result.n} events; wrote {args.output}")
    return 0


def cmd_train(args) -> int:
    start = time.monotonic()
    exp, _ = _load_experiment_for(args)
    manifest, streams, labels = _dataset_for(exp)
    config = exp.network
    train_idx, val_idx = _train_fold_split(exp, len(streams))
    val_tensors = voxelize_set([streams[i] for i in val_idx], config.time_steps)
    val_labels = labels[list(val_idx)]
    param_seed = bench.derive_seed(exp.seed, 0, 0)
    train_seed = bench.derive_seed(exp.seed, 0, 1)
    params = init_params(config, param_seed, kind=exp.model_kind)
    out_dir = Path(exp.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "metrics.ndjson", "w") as log:
        result = train(config, params, [streams[i] for i in train_idx],
                       labels[list(train_idx)], val_tensors, val_labels,
                       replace(exp.train, seed=train_seed),
                       augment=exp.augment, kind=exp.model_kind, log_file=log)
    meta = {"experiment": exp.to_json_dict(), "model_kind": exp.model_kind,
            "best_epoch": result.best_epoch,
            "best_val_acc": result.best_val_acc,
            "param_seed": param_seed, "train_seed": train_seed}
    save_checkpoint(out_dir / "model.evck", result.params, meta)
    _write_json(out_dir / "train_report.json", {
        "version": 1, "best_epoch": result.best_epoch,
        "best_val_acc": result.best_val_acc,
        "epochs_run": len(result.history),
        "val_fold": 0, "val_size": len(val_idx), "train_size": len(train_idx),
        "experiment": exp.to_json_dict()})
    _run_ledger(out_dir / "train.runledger.json", exp, "train",
                {"param_seed": param_seed, "train_seed": train_seed},
                time.monotonic() - start)
    print(f"best epoch {result.best_epoch}: val acc {result.best_val_acc:.4f} "
          f"({len(result.history)} epochs run)")
    print(f"checkpoint: {out_dir / 'model.evck'}")
    return 0


def cmd_eval(args) -> int:
    exp, _ = _load_experiment_for(args)
    manifest, streams, labels = _dataset_for(exp)
    config = exp.network
    ckpt = Path(args.checkpoint) if args.checkpoint is not None \
        else Path(exp.out_dir) / "model.evck"
    params, meta = load_checkpoint(ckpt)
    _, val_idx = _train_fold_split(exp, len(streams))
    tensors = voxelize_set([streams[i] for i in val_idx], config.time_steps)
    val_labels = labels[list(val_idx)]
    if args.shuffled_bins:
        rng = np.random.default_rng(np.random.SeedSequence([exp.seed, 0, 2]))
        tensors = np.stack([s[rng.permutation(config.time_steps)]
                            for s in tensors])
    acc = accuracy(config, params, tensors, val_labels, exp.model_kind)
    out_dir = Path(exp.out_dir)
    _write_json(out_dir / "eval_report.json", {
        "version": 1, "accuracy": acc, "val_fold": 0, "val_size": len(val_idx),
        "shuffled_bins": bool(args.shuffled_bins),
        "checkpoint": ckpt.name, "best_epoch": meta.get("best_epoch"),
        "experiment": exp.to_json_dict()})
    print(f"top-1 accuracy on held-out fold: {acc:.4f}"
          + (" (time-shuffled bins)" if args.shuffled_bins else ""))
    return 0


def cmd_sweep(args) -> int:
    start = time.monotonic()
    exp, _ = _load_experiment_for(args)
    manifest, streams, labels = _dataset_for(exp)
    jobs = args.jobs if args.jobs is not None else 1
    result = bench.sweep_common_eda(
        streams, labels, exp.network, exp.train, kind=exp.model_kind,
        k=exp.folds_k, split_seed=exp.folds_seed, sweep_seed=exp.seed,
        prob=exp.sweep_prob, jobs=jobs,
        echo={"experiment": exp.to_json_dict()})
    out_dir = Path(exp.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_text(out_dir / "sweep.json", result.to_json())
    _write_text(out_dir / "sweep.txt", bench.format_sweep_text(result))
    _run_ledger(out_dir / "sweep.runledger.json", exp, "sweep",
                {"sweep_seed": exp.seed, "split_seed": exp.folds_seed},
                time.monotonic() - start)
    print(bench.format_sweep_text(result), end="")
    print(f"wrote {out_dir / 'sweep.json'}")
    return 0


def cmd_regress(args) -> int:
    if args.scores is not None:
        scores_path = Path(args.scores)
        out_dir = scores_path.parent if args.out is None else Path(args.out)
    else:
        exp, _ = _load_experiment_for(args)
        out_dir = Path(exp.out_dir)
        scores_path = out_dir / "sweep.json"
    obj = json.loads(scores_path.read_text())
    try:
        result = bench.SweepResult.from_json_dict(obj)
    except (KeyError, ValueError) as exc:
        raise SchemaError(f"{scores_path}: {exc}") from exc
    for kind in result.kinds():
        masks, acc = result.arrays(kind)
        report = regress.eda_regression(masks, acc, result.eda_names)
        _write_text(out_dir / f"regress_{kind}.json", report.to_json())
        _write_text(out_dir / f"regress_{kind}.txt", regress.format_text(report))
        print(f"[{kind}]")
        print(regress.format_text(report), end="")
    return 0


def cmd_energy(args) -> int:
    exp, _ = _load_experiment_for(args)
    manifest, streams, labels = _dataset_for(exp)
    config = exp.network
    ckpt = Path(args.checkpoint) if args.checkpoint is not None \
        else Path(exp.out_dir) / "model.evck"
    params, _ = load_checkpoint(ckpt)
    _, val_idx = _train_fold_split(exp, len(streams))
    if args.samples is not None:
        val_idx = val_idx[:args.samples]
    tensors = voxelize_set([streams[i] for i in val_idx], config.time_steps)
    traces = []
    for i in range(0, len(tensors), 16):
        _, trace = forward(config, params, tensors[i:i + 16], record=False)
        traces.append(trace)
    report = energy.estimate_from_traces(config, traces,
                                         charging=exp.energy_charging)
    out_dir = Path(exp.out_dir)
    _write_text(out_dir / "energy.json", report.to_json())
    _write_text(out_dir / "energy.txt", energy.format_text(report))
    print(energy.format_text(report), end="")
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evsnn",
        description="Event-stream classification with spiking networks: "
                    "synthesis, augmentation, training, sweeps, energy.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="override the experiment seed")
    common.add_argument("--jobs", type=int, default=None,
                        help="parallel worker processes (default 1)")
    common.add_argument("--out", type=str, default=None,
                        help="override the output directory")
    common.add_argument("--config", type=str, default=None,
                        help="experiment JSON file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[common],
                       help="generate the synthetic motion-template dataset")
    p.add_argument("--classes", type=int, default=4,
                   help="number of classes (motion templates)")
    p.add_argument("--samples-per-class", type=int, default=100)
    p.add_argument("--width", type=int, default=64)
    p.add_argument("--height", type=int, default=64)
    p.add_argument("--duration", type=int, default=600_000,
                   help="stream duration in microseconds")
    p.add_argument("--events", type=int, default=3000,
                   help="signal events per sample")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("voxelize", parents=[common],
                       help="voxelize one event file into binary frames")
    p.add_argument("input", help=".evt event file")
    p.add_argument("--time-steps", type=int, default=6)
    p.set_defaults(func=cmd_voxelize)

    p = sub.add_parser("augment", parents=[common],
                       help="apply an augmentation pipeline to one event file")
    p.add_argument("input", help="source .evt file")
    p.add_argument("output", help="destination .evt file")
    p.add_argument("--pipeline", type=str, default=None,
                   help="comma-separated transform kinds (alternative to --config)")
    p.add_argument("--prob", type=float, default=1.0,
                   help="per-stage fire probability for --pipeline")
    p.add_argument("--sample-index", type=int, default=0,
                   help="sample index feeding the per-sample random split")
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("train", parents=[common],
                       help="train one model; fold 0 of the CV plan is held out")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[common],
                       help="evaluate a checkpoint on the held-out fold")
    p.add_argument("--checkpoint", type=str, default=None,
                   help="checkpoint path (default <out_dir>/model.evck)")
    p.add_argument("--shuffled-bins", action="store_true",
                   help="shuffle the time bins of evaluation tensors")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", parents=[common],
                       help="run all 32 common-augmentation combinations x k folds")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("regress", parents=[common],
                       help="OLS of sweep accuracies on augmentation dummies")
    p.add_argument("--scores", type=str, default=None,
                   help="sweep.json produced by the sweep command")
    p.set_defaults(func=cmd_regress)

    p = sub.add_parser("energy", parents=[common],
                       help="estimate inference energy from held-out traces")
    p.add_argument("--checkpoint", type=str, default=None)
    p.add_argument("--samples", type=int, default=None,
                   help="cap the number of held-out samples averaged")
    p.set_defaults(func=cmd_energy)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, ConfigError, InvalidStreamError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TrainingDiverged, bench.BenchError) as exc:
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return 3
    except (OSError, EventFileError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
