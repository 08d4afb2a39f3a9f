"""evsnn benchmark: one workload, end-to-end metrics or a traced per-layer run.

    python3 benchmarks/run.py --workload train --seed 1 --seconds 30 --trace 0

Run from a checkout: the program is imported from ``src/`` next to this
directory, never from an installed copy. ``--trace 0`` times the workload
with nothing wrapped and reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced units and reports the per-layer metrics,
including the tracing overhead between the two. Human-readable lines come
first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Times are
reference-host times (see ``HostProbe``). The environment, every check and
the raw per-unit timings go to ``.bench_out/``; a traced run writes its
spans there too.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from typing import NamedTuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7
BATCH = 16
# nn.layers functions whose time is reported together as nn.layers.other.ms
OTHER_FUNCS = ("global_pool_forward", "global_pool_backward", "linear_forward",
               "linear_backward")
LAYER_FUNCS = ("im2col", "col2im", "conv2d_forward", "conv2d_backward",
               "avg_pool_forward", "avg_pool_backward") + OTHER_FUNCS


def import_program() -> None:
    """Import evsnn from this checkout's src/ or raise ImportError."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import evsnn
    where = Path(evsnn.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"evsnn resolved to {where}, not under {src}")


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class HostProbe:
    """Seconds a fixed single-threaded numpy kernel takes right now.

    The machines this runs on are shared: their effective speed drifts by up
    to a quarter over tens of seconds, for the program and for this kernel
    alike. Each timed interval is divided by the mean of the probes taken
    just before and just after it and multiplied by REFERENCE_S, a fixed
    probe time (near its median on the 2-vCPU Xeon host the benchmark was
    built on), so reported times are seconds at that host speed. Raw wall
    times are kept in the result file.
    """

    REFERENCE_S = 0.0016

    def __init__(self):
        self._data = np.random.default_rng(12345).random(200_000)
        self._buf = np.empty_like(self._data)
        self.last = self.measure()

    def measure(self) -> float:
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            self._buf[:] = self._data
            self._buf.sort()
            best = min(best, time.perf_counter() - t0)
        return best

    def scale(self) -> float:
        """Reference-host factor for the interval since the previous call."""
        before, self.last = self.last, self.measure()
        return self.REFERENCE_S / (0.5 * (before + self.last))


class Unit(NamedTuple):
    traced: bool
    wall_s: float          # raw wall time
    cpu_s: float           # this process, user + system
    children_cpu_s: float  # reaped child processes, user + system
    failed: bool
    scale: float           # reference-host factor from HostProbe

    @property
    def ref_s(self) -> float:
        return self.wall_s * self.scale


class Ledger:
    """Attempted and failed operations: timed units and correctness checks."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []
        self.checks: list[dict] = []

    def add_checks(self, checks) -> None:
        for c in checks:
            self.attempted += 1
            self.checks.append({"name": c.name, "ok": c.ok, "detail": c.detail})
            if not c.ok:
                self.failed.append(f"check {c.name}: {c.detail}")

    def unit(self, exc: BaseException | None) -> None:
        self.attempted += 1
        if exc is not None:
            self.failed.append("".join(traceback.format_exception_only(type(exc), exc)).strip())


def measure(wl, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    import checks
    import tracer

    ledger = Ledger()
    if wl.model_checks:
        ledger.add_checks(checks.model_checks(seed))
    rec = tracer.Recorder() if trace else None
    probe = HostProbe()

    setups = []             # (raw s, reference-host factor)
    for r in range(SETUP_REPEATS):
        with rec.installed(f"setup.{r}") if rec else nullcontext():
            t0 = time.perf_counter()
            st = wl.setup(seed, workdir)
            wall = time.perf_counter() - t0
        setups.append((wall, probe.scale()))
    if rec:
        rec.weight_names = st.weights

    def attempt(index: int, traced: bool) -> Unit:
        out, exc = None, None
        with rec.installed(f"unit.{index}") if traced else nullcontext():
            c0 = os.times()
            t0 = time.perf_counter()
            try:
                out = wl.unit(st, index)
            except Exception as e:  # a failed operation is counted, not fatal
                exc = e
            wall = time.perf_counter() - t0
            c1 = os.times()
        unit = Unit(traced, wall, c1.user + c1.system - c0.user - c0.system,
                    c1.children_user + c1.children_system
                    - c0.children_user - c0.children_system, exc is not None,
                    probe.scale())
        ledger.unit(exc)
        if exc is None:
            ledger.add_checks(wl.check(st, index, out))
            probe.last = probe.measure()   # bracket the next unit, not the checks
        return unit

    for i in range(wl.warmup_units):       # lets caches fill and lazy set-up finish
        attempt(i, False)

    units: list[Unit] = []
    min_units = max(wl.min_units, 2 if trace else 1)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(units) < min_units:
        units.append(attempt(wl.warmup_units + len(units), trace and len(units) % 2 == 1))

    with rec.installed("finish") if rec else nullcontext():
        finish_checks, finish_counts = wl.finish(st)
    finish_scale = probe.scale()
    ledger.add_checks(finish_checks)

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if wl.name == "sweep":
        peak_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {"ledger": ledger, "units": units, "setups": setups, "rec": rec,
            "warmup": wl.warmup_units, "finish_scale": finish_scale,
            "unit_samples": st.unit_samples, "cells": getattr(st, "cells", 0),
            "finish_counts": finish_counts,
            "peak_rss_mb": peak_kb / 1024.0, "seconds": time.perf_counter() - start}


def end_to_end(run: dict, raw: bool = False) -> dict:
    """The end-to-end metrics in reference-host time, or in raw wall time."""
    samples = run["unit_samples"]
    times = [u.wall_s if raw else u.ref_s for u in run["units"] if not u.traced]
    batch_ms = [1000.0 * t * BATCH / samples for t in times]
    return {
        "samples_per_s": (statistics.median(samples / t for t in times), "1/s"),
        "batch_ms_p50": (statistics.median(batch_ms), "ms"),
        "batch_ms_p90": (percentile(batch_ms, 90), "ms"),
        "setup_s": (statistics.median(w if raw else w * f for w, f in run["setups"]), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }


def per_layer(run: dict, workload: str) -> dict:
    """Per-layer metrics from the traced units, per 16-sample batch, in
    reference-host milliseconds; counts are exact."""
    from evsnn.augment import COMMON_EDAS, SPECIFIC_EDAS
    from evsnn.nn.network import sew_tiny, synaptic_layers

    tensors = [lay.name for lay in synaptic_layers(sew_tiny(4)) if lay.op == "conv"]
    kinds = COMMON_EDAS + SPECIFIC_EDAS
    rec = run["rec"]
    samples = run["unit_samples"]
    units = run["units"]
    traced = [u for u in units if u.traced]
    untraced = [u for u in units if not u.traced]
    batches = len(traced) * samples / BATCH
    scale = {f"unit.{i}": u.scale for i, u in enumerate(units, start=run["warmup"])}
    scale.update({f"setup.{i}": f for i, (_, f) in enumerate(run["setups"])})
    tot = rec.totals("unit", scale)
    c = rec.count_totals("unit", scale)
    setup = rec.totals("setup", scale)

    def ms(name):
        return tot[name][0] / batches if name in tot else 0.0

    def self_ms(name):
        return tot[name][1] / batches if name in tot else 0.0

    def count(key):
        return c.get(key, 0.0) / batches

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "nn.layers.im2col.ms": (ms("nn.layers.im2col"), "ms/batch"),
        "nn.layers.im2col.fwd_ms": (count("nn.layers.im2col.fwd_ms"), "ms/batch"),
        "nn.layers.im2col.bwd_ms": (count("nn.layers.im2col.bwd_ms"), "ms/batch"),
        "nn.layers.col2im.ms": (ms("nn.layers.col2im"), "ms/batch"),
        "nn.layers.conv2d_forward.self_ms": (self_ms("nn.layers.conv2d_forward"), "ms/batch"),
        "nn.layers.conv2d_backward.self_ms": (self_ms("nn.layers.conv2d_backward"), "ms/batch"),
    }
    for t in tensors:
        m[f"nn.layers.{t}.fwd_ms"] = (count(f"nn.layers.{t}.fwd_ms"), "ms/batch")
        m[f"nn.layers.{t}.bwd_ms"] = (count(f"nn.layers.{t}.bwd_ms"), "ms/batch")
    other = sum(ms(f"nn.layers.{f}") for f in OTHER_FUNCS)
    m.update({
        "nn.layers.avg_pool_forward.ms": (ms("nn.layers.avg_pool_forward"), "ms/batch"),
        "nn.layers.avg_pool_backward.ms": (ms("nn.layers.avg_pool_backward"), "ms/batch"),
        "nn.layers.other.ms": (other, "ms/batch"),
        "nn.network.forward.self_ms": (self_ms("nn.network.forward"), "ms/batch"),
        "nn.network.backward.self_ms": (self_ms("nn.network.backward"), "ms/batch"),
        "nn.train.sgd_step.ms": (ms("nn.train.sgd_step"), "ms/batch"),
        "nn.train.accuracy.ms": (ms("nn.train.accuracy"), "ms/batch"),
        "nn.train.train.self_ms": (self_ms("nn.train.train"), "ms/batch"),
        "events.voxelize.ms": (ms("events.voxelize"), "ms/batch"),
        "augment.apply_pipeline.ms": (ms("augment.apply_pipeline"), "ms/batch"),
    })
    for k in kinds:
        m[f"augment.{k}.ms"] = (ms(f"augment.{k}"), "ms/batch")
    finish = rec.totals("finish", {"finish": run["finish_scale"]}).get(
        "energy.estimate_from_traces")
    m.update({
        "evio.load_events.ms": (ms("evio.load_events"), "ms/batch"),
        "energy.estimate_from_traces.ms": (finish[0] / finish[2] if finish else 0.0, "ms/call"),
        "synth.generate_dataset.ms":
            (setup.get("synth.generate_dataset", [0.0])[0] / SETUP_REPEATS, "ms/setup"),
        "evio.save_events.ms": (setup.get("evio.save_events", [0.0])[0] / SETUP_REPEATS,
                                "ms/setup"),
    })
    for f in LAYER_FUNCS:
        name = f"nn.layers.{f}"
        m[f"{name}.calls"] = (tot[name][2] / batches if name in tot else 0.0, "count/batch")
    fired = sum(tot[f"augment.{k}"][2] for k in kinds if f"augment.{k}" in tot)
    m.update({
        "nn.layers.conv2d.macs": (count("nn.layers.conv2d.macs"), "count/batch"),
        "nn.layers.im2col.bytes": (count("nn.layers.im2col.bytes"), "bytes/batch"),
        "nn.layers.col2im.bytes": (count("nn.layers.col2im.bytes"), "bytes/batch"),
        "events.voxelize.events": (count("events.voxelize.events"), "count/batch"),
        "evio.load_events.bytes": (count("evio.load_events.bytes"), "bytes/batch"),
        "augment.fired_ratio": (ratio(fired, c.get("augment.stages_attempted", 0)), "ratio"),
        "augment.events_out_ratio": (ratio(c.get("augment.events_out", 0),
                                           c.get("augment.events_in", 0)), "ratio"),
        "energy.synop_ratio": (run["finish_counts"].get("energy.synop_ratio", 0.0), "ratio"),
        "trace.overhead_ratio": (statistics.median(u.ref_s for u in traced)
                                 / statistics.median(u.ref_s for u in untraced), "ratio"),
    })
    if workload == "sweep":
        sweeps = len(traced)
        cpu = sum(u.cpu_s + u.children_cpu_s for u in traced)
        m.update({
            "bench.worker_cpu_s": (sum(u.children_cpu_s for u in traced) / sweeps, "s/sweep"),
            "bench.cpu_per_wall": (cpu / sum(u.wall_s for u in traced), "ratio"),
            "regress.eda_regression.ms": (tot["regress.eda_regression"][0] / sweeps
                                          if "regress.eda_regression" in tot else 0.0,
                                          "ms/sweep"),
            "bench.cells": (float(run["cells"]), "count/sweep"),
            "bench.cells_failed": (float(sum(u.failed for u in units)), "count"),
        })
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_program()
    except ImportError as exc:
        print(f"benchmark: cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    import envinfo
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"known: {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]

    env = envinfo.environment()
    print("environment: " + json.dumps(env, sort_keys=True), flush=True)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=out_dir))
    try:
        run = measure(wl, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ledger = run["ledger"]
    metrics = per_layer(run, wl.name) if args.trace else end_to_end(run)
    raw = {} if args.trace else end_to_end(run, raw=True)
    units = run["units"]
    print(f"workload {wl.name}: seed {args.seed}, {len(units)} timed units of "
          f"{run['unit_samples']} samples in {run['seconds']:.1f} s"
          + (f" ({sum(u.traced for u in units)} traced)" if args.trace else "")
          + f", {SETUP_REPEATS} set-ups")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36s} {value:>14.6g} {unit}")
    for name, (value, unit) in raw.items():
        print(f"  {'raw wall-clock ' + name:<36s} {value:>14.6g} {unit}")
    print(f"  {'error_rate':<36s} {len(ledger.failed)}/{ledger.attempted} = "
          f"{len(ledger.failed) / ledger.attempted:.6g}")
    for line in ledger.failed:
        print(f"  FAILED {line}")

    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "raw_wall_clock_metrics": {k: {"value": v, "unit": u}
                                         for k, (v, u) in raw.items()},
              "attempted": ledger.attempted, "failed": ledger.failed,
              "checks": ledger.checks,
              "setups": [{"wall_s": w, "scale": f} for w, f in run["setups"]],
              "units": [u._asdict() for u in units]}
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if run["rec"] is not None:
        run["rec"].write(out_dir / f"{stem}.spans.jsonl")

    print(json.dumps({"correct": not ledger.failed, "attempted": ledger.attempted,
                      "failed": len(ledger.failed),
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
