"""Command-line entry point for the whole pipeline.

Subcommands: synth, voxelize, augment, train, eval, sweep, regress, energy.
One experiment JSON file (--config) carries the configuration; --seed/--out
override file values and print a provenance line when they do. Each command
takes only the shared flags (--seed, --jobs, --out, --config) it reads, and a
flag that another one would override is refused beside it. ``main`` checks the
Bounds of ``_flags`` first, with ``bounded(..., "--")`` naming a key as its flag.
train, eval and energy run the CV plan's fold-0 cell, the cell bench.run_cv runs for fold 0.

Exit codes: 0 success, 2 schema/usage violation, 3 training divergence,
4 I/O failure. Every command is deterministic given its inputs and seeds;
the only artifact allowed to differ between reruns is the run-ledger sidecar
(*.runledger.json), which records wall-clock timings.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import time
from pathlib import Path
from typing import Annotated

import numpy as np

from . import _helper, bench, energy, regress, synth
from ._schema import Bound, SchemaError, bounded, dumps, loads
from .augment import AugmentSpec, TransformSpec, apply_pipeline
from .evio import EventFileError, load_events, load_manifest, save_events
from .events import InvalidStreamError, devoxelize_counts, voxelize, voxelize_set
from .experiment import Experiment, load_experiment
from .nn.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .nn.network import forward, param_shapes
from .nn.train import TrainingDiverged, accuracy


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _write_json(path: Path, obj: dict) -> None:
    _write_text(path, dumps(obj))


def _run_ledger(path: Path, exp: Experiment, command: str, seeds: dict,
                elapsed: float) -> None:
    """Timing sidecar; excluded from the byte-determinism contract. It also
    records the core count and the thread count of each loaded OpenBLAS,
    the two settings a wall time depends on, and the minor page faults and
    the largest resident memory of this process, its finished workers and
    its live helper process (``evsnn._helper``), which runs half of every
    split step. The thread counts are this process's own, not the one
    thread it runs at while a helper lives."""
    threads = _helper.threads()
    usage = [resource.getrusage(who) for who in (resource.RUSAGE_SELF,
                                                 resource.RUSAGE_CHILDREN)]
    helper = _helper.usage()
    if helper is not None:  # alive, so not yet counted among the finished children
        usage.append(helper)
    # ru_maxrss is KiB on Linux, bytes on macOS
    rss_unit = 1 << 20 if sys.platform == "darwin" else 1 << 10
    _write_json(path, {"command": command, "config_hash": exp.config_hash(),
                       "seeds": seeds, "elapsed_seconds": elapsed,
                       "nproc": os.cpu_count(), "openblas_threads": threads,
                       "minor_page_faults": sum(u.ru_minflt for u in usage),
                       "peak_rss_mb": max(u.ru_maxrss for u in usage) / rss_unit})


def _load_experiment_for(args) -> Experiment:
    if args.config is None:
        raise SchemaError("--config is required for this command")
    exp, provenance = load_experiment(args.config, {"seed": getattr(args, "seed", None),
                                                     "out_dir": args.out})
    for line in provenance:
        print(line)
    return exp


def _dataset_for(exp: Experiment):
    manifest = load_manifest(exp.dataset)
    streams, labels = bench.load_dataset(manifest)
    entry, config = manifest.entries[0], exp.network
    if (entry.width, entry.height) != (config.width, config.height):
        raise SchemaError(f"dataset geometry {entry.width}x{entry.height} does not match "
                          f"network {config.width}x{config.height}")
    classes = config.classifier.classes
    if manifest.num_classes > classes:
        raise SchemaError(f"dataset has {manifest.num_classes} classes but the "
                          f"classifier only has {classes}")
    if len(streams) < exp.folds_k:
        raise SchemaError(f"folds.k={exp.folds_k} needs at least {exp.folds_k} "
                          f"samples, the dataset has {len(streams)}")
    param_shapes(config, exp.model_kind)  # refuses a dense twin that cannot be built
    return streams, labels


def _checkpoint_for(args, exp: Experiment, kind: str):
    """The checkpoint's (path, params, metadata), checked against the network:
    tensor names, shapes and dtype (every run draws and writes float32)."""
    path = Path(args.checkpoint or Path(exp.out_dir) / "model.evck")
    params, meta = load_checkpoint(path)
    want = param_shapes(exp.network, kind)
    for name in sorted(want.keys() | params.keys()):
        got, need = params[name].shape if name in params else "absent", want.get(name, "absent")
        if got == need:
            got, need = params[name].dtype.name, "float32"
        if got != need:
            raise SchemaError(f"{path} does not fit the {kind} network: tensor {name} "
                              f"is {got} there, {need} in the network")
    return path, params, meta


def _fold_zero(exp: Experiment, shuffled: bool = False):
    """The dataset and the cell of the single-run train/eval protocol, which
    holds out fold 0 of the CV plan."""
    streams, labels = _dataset_for(exp)
    plan = bench.kfold_split(len(streams), exp.folds_k, exp.folds_seed)
    return streams, labels, bench.fold_task(
        plan, 0, exp.seed, shuffled=shuffled, config=exp.network, settings=exp.train,
        augment=exp.augment, kind=exp.model_kind)


# ---------------------------------------------------------------------------
# subcommands

def cmd_synth(args) -> int:
    params = synth.SynthParams(
        width=args.width, height=args.height, duration=args.duration,
        events_per_sample=args.events, templates=synth.DEFAULT_TEMPLATES[:args.classes])
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
        with open(out, "wb") as f:  # np.save would append .npy to a path without it
            np.save(f, tensor)
        print(f"wrote {tensor.shape} uint8 tensor to {out}")
    print(f"stream: {stream.n} events, {stream.width}x{stream.height}, "
          f"duration {stream.duration} us")
    for b in range(args.time_steps):
        on = int(tensor[b, 0].sum())
        off = int(tensor[b, 1].sum())
        print(f"bin {b}: {counts[b]} events, {on} + cells, {off} - cells")
    return 0


def cmd_augment(args) -> int:
    if args.config is not None and args.prob is not None:
        raise SchemaError("--prob sets --pipeline's stages; --config's augment section "
                          "sets its own")
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
        prob = args.prob if args.prob is not None else 1.0
        spec = AugmentSpec(transforms=tuple(TransformSpec(kind=k, prob=prob) for k in kinds),
                           seed=args.seed if args.seed is not None else 0)
    result = apply_pipeline(stream, spec, sample_index=args.sample_index)
    save_events(result, args.output)
    print(f"applied {[t.kind for t in spec.transforms]} "
          f"(seed {spec.seed}, sample index {args.sample_index})")
    print(f"{stream.n} -> {result.n} events; wrote {args.output}")
    return 0


def cmd_train(args) -> int:
    start = time.monotonic()
    exp = _load_experiment_for(args)
    streams, labels, task = _fold_zero(exp)
    out_dir = Path(exp.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "metrics.ndjson", "w") as log:
        result, _, _ = bench.train_fold(task, streams, labels, log_file=log)
    seeds = {"param_seed": task.param_seed, "train_seed": task.train_seed}
    best = {"best_epoch": result.best_epoch, "best_val_acc": result.best_val_acc,
            "experiment": exp.to_json_dict()}
    save_checkpoint(out_dir / "model.evck", result.params,
                    {"model_kind": exp.model_kind, **best, **seeds})
    _write_json(out_dir / "train_report.json", {
        "version": 1, "epochs_run": len(result.history), "val_fold": 0,
        "val_size": len(task.val_idx), "train_size": len(task.train_idx), **best})
    _run_ledger(out_dir / "train.runledger.json", exp, "train", seeds,
                time.monotonic() - start)
    print(f"best epoch {result.best_epoch}: val acc {result.best_val_acc:.4f} "
          f"({len(result.history)} epochs run)")
    print(f"checkpoint: {out_dir / 'model.evck'}")
    return 0


def cmd_eval(args) -> int:
    exp = _load_experiment_for(args)
    streams, labels, task = _fold_zero(exp, args.shuffled_bins)
    config, val_idx = exp.network, task.val_idx
    ckpt, params, meta = _checkpoint_for(args, exp, exp.model_kind)
    tensors = voxelize_set([streams[i] for i in val_idx], config.time_steps)
    val_labels = labels[list(val_idx)]
    if args.shuffled_bins:
        tensors = bench.shuffle_bins(tensors, [task.shuffled_eval_seed])
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
    exp = _load_experiment_for(args)
    streams, labels = _dataset_for(exp)
    result = bench.sweep_common_eda(
        streams, labels, exp.network, exp.train, kind=exp.model_kind,
        k=exp.folds_k, split_seed=exp.folds_seed, sweep_seed=exp.seed,
        prob=exp.sweep_prob, jobs=args.jobs,
        echo={"experiment": exp.to_json_dict()})
    out_dir = Path(exp.out_dir)
    _write_json(out_dir / "sweep.json", result.to_json_dict())
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
        exp = _load_experiment_for(args)
        out_dir = Path(exp.out_dir)
        scores_path = out_dir / "sweep.json"
    try:
        result = bench.SweepResult.from_json_dict(loads(scores_path.read_bytes(), "scores"))
    except ValueError as exc:
        raise SchemaError(f"{scores_path}: {exc}") from exc
    for kind in result.kinds():
        masks, acc = result.arrays(kind)
        report = regress.eda_regression(masks, acc, result.eda_names)
        _write_json(out_dir / f"regress_{kind}.json", report.to_json_dict())
        _write_text(out_dir / f"regress_{kind}.txt", regress.format_text(report))
        print(f"[{kind}]")
        print(regress.format_text(report), end="")
    return 0


def cmd_energy(args) -> int:
    exp = _load_experiment_for(args)
    streams, _, task = _fold_zero(exp)
    config, val_idx = exp.network, task.val_idx[:args.samples]
    _, params, _ = _checkpoint_for(args, exp, "spiking")
    tensors = voxelize_set([streams[i] for i in val_idx], config.time_steps)
    traces = []
    for i in range(0, len(tensors), 16):
        _, trace = forward(config, params, tensors[i:i + 16], record=False)
        traces.append(trace)
    report = energy.estimate_from_traces(config, traces,
                                         charging=exp.energy_charging)
    out_dir = Path(exp.out_dir)
    _write_json(out_dir / "energy.json", report.to_json_dict())
    _write_text(out_dir / "energy.txt", energy.format_text(report))
    print(energy.format_text(report), end="")
    return 0


# ---------------------------------------------------------------------------
# parser

def _flags(classes: Annotated[int, Bound(1, len(synth.DEFAULT_TEMPLATES))],
           samples_per_class: Annotated[int, Bound(1)], jobs: Annotated[int, Bound(1)],
           samples: Annotated[int | None, Bound(1)], time_steps: Annotated[int, Bound(1, 0xFFFF)],
           sample_index: Annotated[int, Bound(0)]): ...

# flags several commands take, each written once; a command adds the ones it reads
_SHARED = {"--seed": dict(type=int, help="override the experiment seed"),
           "--jobs": dict(type=int, default=1, help="parallel worker processes (default 1)"),
           "--out": dict(help="override the output directory"),
           "--config": dict(help="experiment JSON file")}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evsnn",
        description="Event-stream classification with spiking networks: "
                    "synthesis, augmentation, training, sweeps, energy.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, *shared):
        """The subcommand ``name`` running ``func``, with the named shared flags."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        for flag in shared:
            p.add_argument(flag, **_SHARED[flag])
        return p

    p = command("synth", cmd_synth, "generate the synthetic motion-template dataset",
                "--seed", "--out")
    p.add_argument("--classes", type=int, default=4,
                   help="number of classes (motion templates)")
    p.add_argument("--samples-per-class", type=int, default=100)
    p.add_argument("--width", type=int, default=64)
    p.add_argument("--height", type=int, default=64)
    p.add_argument("--duration", type=int, default=600_000,
                   help="stream duration in microseconds")
    p.add_argument("--events", type=int, default=3000,
                   help="signal events per sample")

    p = command("voxelize", cmd_voxelize, "voxelize one event file into binary frames", "--out")
    p.add_argument("input", help=".evt event file")
    p.add_argument("--time-steps", type=int, default=6)

    p = command("augment", cmd_augment, "apply an augmentation pipeline to one event file",
                "--seed")
    p.add_argument("input", help="source .evt file")
    p.add_argument("output", help="destination .evt file")
    source = p.add_mutually_exclusive_group()  # --config holds the whole pipeline
    source.add_argument("--config", **_SHARED["--config"])
    source.add_argument("--pipeline", type=str, default=None,
                        help="comma-separated transform kinds (alternative to --config)")
    p.add_argument("--prob", type=float, default=None,
                   help="per-stage fire probability for --pipeline (default 1.0)")
    p.add_argument("--sample-index", type=int, default=0,
                   help="sample index feeding the per-sample random split")

    command("train", cmd_train, "train one model; fold 0 of the CV plan is held out",
            "--seed", "--out", "--config")

    p = command("eval", cmd_eval, "evaluate a checkpoint on the held-out fold",
                "--seed", "--out", "--config")
    p.add_argument("--checkpoint", type=str, default=None,
                   help="checkpoint path (default <out_dir>/model.evck)")
    p.add_argument("--shuffled-bins", action="store_true",
                   help="shuffle the time bins of evaluation tensors")

    command("sweep", cmd_sweep, "run all 32 common-augmentation combinations x k folds",
            "--seed", "--jobs", "--out", "--config")

    p = command("regress", cmd_regress, "OLS of sweep accuracies on augmentation dummies",
                "--out")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--config", **_SHARED["--config"])
    source.add_argument("--scores", type=str, default=None,
                        help="sweep.json produced by the sweep command")

    p = command("energy", cmd_energy, "estimate inference energy from held-out traces",
                "--out", "--config")
    p.add_argument("--checkpoint", type=str, default=None)
    p.add_argument("--samples", type=int, default=None,
                   help="cap the number of held-out samples averaged")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        bounded(_flags, vars(args), "--")
        return args.func(args)
    except (SchemaError, InvalidStreamError) as exc:
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
