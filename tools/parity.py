"""Library parity: one fixed case list run in this tree and in another,
compared artifact by artifact.

    python tools/parity.py OTHER_TREE [--threads 1 2]

OTHER_TREE is a checkout of this repository (a parent commit, or a copy of
this one); only its ``src`` is read. Each tree runs the case list in a
subprocess of its own, this script with that tree's ``src`` first on the
import path, once per OpenBLAS thread count. The artifacts, each a sha256:

- ``forward``: logits, features and counters of ``forward`` with ``record``
  True and False, and the gradients of ``backward`` on the recorded trace;
  ``held``, every entry of the recorded trace's ``caches`` and ``columns``,
  each array with its dtype, shape, strides and bytes, so a cached map held
  in another dtype or memory order differs even where ``backward`` reads the
  same values from it;
- ``step``: logits and gradients of a training step (``nn.train``'s split
  rule, so a 16-sample 64x64 batch runs as two halves);
- ``train``: the history and the best parameters of a 2-epoch ``train()``
  with augmentation;

for ``sew_tiny`` (64x64, T=6) with each SEW join g add, and, iand, with the
zero reset and with delayed input timing, for a mixed conv/pool/SEW config
with a stride-1 first conv (16x16, T=2), and for a stack with an IF right
after an IF and a conv after that (16x16, T=4) under each reset and input
timing, in spike, relaxed and dense mode, at B = 16 (uint8 over
batch-innermost memory, as ``voxelize_set`` builds it), 5 (C-contiguous
uint8) and 3 (C-contiguous float32); ``train`` runs the spiking kind. A
small ``sew18`` (64x64, T=2), whose chained SEW ``add`` joins reach 0 to 3,
runs ``forward`` and ``step`` in the three modes at B = 16 (a split step)
and 3.

The event half adds these, each a digest of a stream, a tensor or a fault
as (error type, message, byte offset):

- ``events/save`` and ``events/load``: the bytes ``save_events`` writes and
  what ``load_events`` makes of them, for synthetic streams (64x64 at the
  default rate, 128x128 at about 50k events) and for faulty files: a short
  header, a bad magic, truncated records, trailing bytes, a header count
  off by one each way, each rule of ``validate`` broken, and two at once;
- ``events/transform``: each transform, each ``eventdrop`` strategy on its
  own and ``eventdrop`` itself, with the next draw of its generator, and
  ``events/pipeline``, the seven-stage pipeline at p = 0.5 and 1.0, on
  streams of 0, 1 and 50k events, 127 and 128 wide, with heavy timestamp
  ties or spread timestamps;
- ``events/voxelize``: ``voxelize`` of those streams and ``voxelize_set``
  of one and of three streams of one geometry over different intervals,
  at T = 1, 3, 6 and 7.

The grammar half builds ``GRAMMAR_STACKS`` seeded random layer stacks,
valid and malformed (a wrong channel count or accumulator dim, an even SEW
kernel, a pool that does not tile, a map that collapses, a layer after a
GlobalPool, a head layer in the encoder, a missing head, a kind the grammar
lacks, a field out of its range), a few hundred of them accepted.
``grammar/<first>`` digests ``GRAMMAR_CHUNK`` stacks in turn, each as its
``ConfigError`` message or as its ``encoder_shapes`` and, per model kind,
its ``synaptic_layers`` and ``param_shapes`` or the twin's error.

The CLI half runs one flow of ``evsnn`` commands in a directory of its
own, on a 16x16 synthetic set: synth; voxelize; augment by ``--pipeline``
and by ``--config``; train, eval and eval ``--shuffled-bins`` for a spiking
and a dense ``sew_tiny``; energy under input and output charging; sweep
``--jobs 2``; regress. ``cli/<n>-<command>/`` artifacts are each command's
exit status and stdout and every file it wrote or rewrote, bar the
``*.runledger.json`` timing sidecars.

Output: one ``equal``/``differs`` line per artifact and thread count, then
one sha256 over this tree's artifacts. The exit status is 1 where any
artifact differs or is missing on one side, else 0. Outputs that depend on
BLAS cannot be golden across machines, hence a second tree on the same one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
# sew_tiny's keyword arguments per case
SEW_TINY = {"sew_add": {"g": "add"}, "sew_and": {"g": "and"}, "sew_iand": {"g": "iand"},
            "sew_zero": {"reset": "zero"}, "sew_delayed": {"input_timing": "delayed"}}
# an IF right after an IF, per reset and input timing
IF_IF = {f"if_if_{reset}_{timing}": {"reset": reset, "input_timing": timing}
         for reset in ("subtract", "zero") for timing in ("same_step", "delayed")}
NETS = (*SEW_TINY, "mixed", *IF_IF)
MODES = ("spike", "relaxed", "dense")
BATCHES = (16, 5, 3)
SEW18_BATCHES = (16, 3)
# the event half: streams of these sizes and widths, their timestamps drawn
# from a 40-tick span (heavy ties) or from the whole interval
EVENT_COUNTS = (0, 1, 50_000)
EVENT_WIDTHS = (127, 128)
TIE_SPANS = {"ties": 40, "spread": None}
TIME_BINS = (1, 3, 6, 7)
EVENT_SEEDS = range(12)  # seeds 0-11 reach each eventdrop strategy, identity at 11
# the grammar half: random stacks, digested in chunks of GRAMMAR_CHUNK
GRAMMAR_STACKS = 4000
GRAMMAR_CHUNK = 100


def _digest(*parts) -> str:
    """sha256 over arrays (dtype, shape and bytes) and JSON-able values."""
    import numpy as np
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype.str}{part.shape}".encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


def _held(trace) -> str:
    """sha256 over what a recorded trace holds: every entry of its caches,
    then its columns, an array with its strides too."""
    import numpy as np
    parts = []
    for a in [a for step in trace.caches for entry in step for a in entry] + (trace.columns or []):
        parts += [a.strides, a] if isinstance(a, np.ndarray) else [a]
    return _digest(*parts)


def _config(net: str, classes: int):
    from evsnn.nn.network import (IF, SEW, Accumulator, AvgPool, Classifier, Conv2d,
                                  GlobalPool, NetworkConfig, sew18, sew_tiny)
    if net == "sew18":
        return sew18(classes, height=64, width=64, time_steps=2, theta=0.5)
    if net == "mixed":
        return NetworkConfig(
            time_steps=2, height=16, width=16,
            layers=(Conv2d(2, 8), AvgPool(2), IF(),
                    Conv2d(8, 8, k=3, stride=2, padding=1, bias=False),
                    Conv2d(8, 12, k=1, padding=0), IF(),
                    SEW(12, k=1, bias=False),
                    GlobalPool(), IF(),
                    Accumulator(12), Classifier(classes)))
    if net in IF_IF:
        return NetworkConfig(
            time_steps=4, height=16, width=16, **IF_IF[net],
            layers=(Conv2d(2, 8, k=3, stride=2, padding=1), IF(0.5), IF(0.25),
                    Conv2d(8, 8), IF(0.5), AvgPool(2), GlobalPool(), IF(0.25),
                    Accumulator(8), Classifier(classes)))
    return sew_tiny(classes, theta=0.5, **SEW_TINY[net])


def _inputs(config, rng, batches):
    """(B, input, labels) per batch size: uint8 over batch-innermost memory,
    C-contiguous uint8 at B = 5 and C-contiguous float32 at B = 3."""
    import numpy as np
    shape = (config.time_steps, config.in_channels, config.height, config.width)
    out = []
    for b in batches:
        frames = (rng.random(shape + (b,)) < 0.1).astype(np.uint8).transpose(4, 0, 1, 2, 3)
        if b == 5:
            frames = np.ascontiguousarray(frames)
        elif b == 3:
            frames = np.ascontiguousarray(frames, dtype=np.float32)
        out.append((b, frames, rng.integers(0, config.classifier.classes, b)))
    return out


def _forward_cases(net: str, batches=BATCHES) -> dict[str, str]:
    import numpy as np
    from evsnn.nn.network import backward, forward, init_params
    from evsnn.nn.train import _batch_grads
    config = _config(net, 4)
    out = {}
    for mode in MODES:
        params = init_params(config, 7, kind="dense" if mode == "dense" else "spiking")
        for b, x, labels in _inputs(config, np.random.default_rng(11), batches):
            tag = f"{net}/{mode}/B{b}"
            for record in (True, False):
                logits, trace = forward(config, params, x, mode=mode, record=record)
                rec = f"{tag}/forward/record={record}"
                out[f"{rec}/logits"] = _digest(logits)
                out[f"{rec}/features"] = _digest(trace.features, trace.accumulated)
                out[f"{rec}/counters"] = _digest(trace.spike_counts, trace.site_sizes,
                                                 trace.synaptic_inputs)
                if record:
                    out[f"{rec}/held"] = _held(trace)
                    grads = backward(config, params, trace, labels)
                    out[f"{rec}/gradients"] = _digest(*(grads[k] for k in sorted(grads)))
            logits, grads = _batch_grads(config, params, x, labels, mode)
            out[f"{tag}/step/logits"] = _digest(logits)
            out[f"{tag}/step/gradients"] = _digest(*(grads[k] for k in sorted(grads)))
    return out


def _train_case(net: str) -> dict[str, str]:
    import numpy as np
    from evsnn.augment import AugmentSpec, TransformSpec
    from evsnn.events import voxelize_set
    from evsnn.nn.network import init_params
    from evsnn.nn.train import TrainSettings, train
    from evsnn.synth import SynthParams, generate_dataset
    side = 64 if net in SEW_TINY else 16
    synth = SynthParams(width=side, height=side, events_per_sample=800)
    streams = generate_dataset(synth, 6, seed=5)
    labels = np.array([s.label for s in streams])
    config = _config(net, synth.num_classes)
    val = voxelize_set(streams[::6], config.time_steps)
    spec = AugmentSpec(tuple(TransformSpec(kind) for kind in ("crop", "hflip", "noise")))
    result = train(config, init_params(config, 3), streams, labels, val, labels[::6],
                   TrainSettings(epochs=2, batch_size=16, lr=0.002, seed=9,
                                 early_stop_acc=None), augment=spec)
    return {f"{net}/train": _digest(result.history, result.best_epoch,
                                    *(result.params[k] for k in sorted(result.params)))}


def _stream_digest(stream) -> str:
    return _digest(stream.x, stream.y, stream.t, stream.p,
                   [stream.width, stream.height, stream.t_start, stream.t_end, stream.label])


def _outcome(fn, *args) -> str:
    """``fn(*args)`` digested: a stream, an array, a JSON-able value or,
    where it raises, the fault as (error type, message, byte offset)."""
    from evsnn.events import EventStream
    try:
        got = fn(*args)
    except Exception as exc:  # every fault is an artifact too
        return _digest([type(exc).__name__, str(exc), getattr(exc, "offset", None)])
    return _stream_digest(got) if isinstance(got, EventStream) else _digest(got)


def _event_streams() -> dict:
    """Streams of every size, width and tie pattern, each over an interval
    of its own; labelled, so files carry the label too."""
    import numpy as np
    from evsnn.events import EventStream
    rng = np.random.default_rng(17)
    out = {}
    for n in EVENT_COUNTS:
        for width in EVENT_WIDTHS:
            for ties, span in TIE_SPANS.items():
                t_start, duration = int(rng.integers(0, 10**6)), int(rng.integers(10**3, 10**6))
                span = span or duration
                first = int(rng.integers(0, duration - span + 1))
                t = np.sort(rng.integers(first, first + span, n)) + t_start
                out[f"n{n}/w{width}/{ties}"] = EventStream(
                    x=rng.integers(0, width, n), y=rng.integers(0, 96, n), t=t,
                    p=rng.integers(0, 2, n) * 2 - 1, width=width, height=96,
                    t_start=t_start, t_end=t_start + duration, label=n % 3)
    return out


def _faulty_files(raw: bytes) -> dict[str, bytes]:
    """A saved stream's file broken each way a load can fail; the stream
    holds at least three events."""
    import numpy as np
    from evsnn.evio import HEADER_SIZE, RECORD_DTYPE, RECORD_SIZE

    def edited(header=None, **records):
        buf = bytearray(raw)
        for offset, value in (header or {}).items():
            buf[offset:offset + len(value)] = value
        recs = np.frombuffer(buf, RECORD_DTYPE, offset=HEADER_SIZE)
        for name, (index, value) in records.items():
            recs[name][index] = value
        return bytes(buf)

    recs = np.frombuffer(raw, RECORD_DTYPE, offset=HEADER_SIZE)
    width, height = (int.from_bytes(raw[i:i + 2], "little") for i in (4, 6))
    t_start, t_end = (int.from_bytes(raw[i:i + 8], "little") for i in (8, 16))
    n, mid = len(recs), len(recs) // 2

    def u64(value):
        return value.to_bytes(8, "little")

    # header offsets: width 4, height 6, t_start 8, t_end 16, event count 28
    return {
        "empty": b"", "short_header": raw[:HEADER_SIZE - 1], "bad_magic": b"EVT2" + raw[4:],
        "truncated": raw[:-5], "truncated_record": raw[:HEADER_SIZE + 2 * RECORD_SIZE + 3],
        "trailing": raw + bytes(7), "count_above": edited({28: u64(n + 1)}),
        "count_below": edited({28: u64(n - 1)}), "count_zero": edited({28: u64(0)}),
        "geometry_width": edited({4: bytes(2)}), "geometry_height": edited({6: bytes(2)}),
        "interval": edited({16: u64(t_start)}),
        "x_bounds": edited(x=(mid, width)), "y_bounds": edited(y=(n - 1, height)),
        "t_before": edited({8: u64(int(recs["t"][0]) + 1)}), "t_after": edited(t=(n - 1, t_end)),
        "polarity_zero": edited(p=(mid, 0)), "polarity_two": edited(p=(0, 2)),
        "unsorted": edited(t=(mid, t_start)),
        "x_and_geometry": edited({4: bytes(2)}, x=(0, width + 5)),
        "polarity_and_x": edited(p=(1, 0), x=(n - 1, 0xFFFF)),
    }


def _event_cases(tmp: Path) -> dict[str, str]:
    import numpy as np
    from evsnn import augment, events, evio
    from evsnn.augment import COMMON_EDAS, SPECIFIC_EDAS, AugmentSpec, TransformSpec
    from evsnn.synth import SynthParams, generate_dataset
    out, streams = {}, _event_streams()
    dense = SynthParams(width=128, height=128, events_per_sample=50_000)
    saved = {"synth64": generate_dataset(SynthParams(), 1, seed=4)[0],
             "synth128": generate_dataset(dense, 1, seed=4)[1],
             "n1": streams["n1/w127/ties"]}
    for name, stream in saved.items():
        path = tmp / f"{name}.evt"
        evio.save_events(stream, path)
        raw = path.read_bytes()
        out[f"events/save/{name}"] = hashlib.sha256(raw).hexdigest()
        out[f"events/load/{name}"] = _outcome(evio.load_events, path)
        if stream.n < 3:
            continue
        for fault, data in _faulty_files(raw).items():
            path = tmp / f"{name}.{fault}.evt"
            path.write_bytes(data)
            out[f"events/load/{name}/{fault}"] = _outcome(evio.load_events, path)

    def drawn(fn):  # a transform's result and the next draw of its generator
        def run(stream, seed):
            rng = np.random.default_rng(seed)
            return [_stream_digest(fn(stream, rng)), rng.random()]
        return run

    transforms = {kind: drawn(fn) for kind, fn in augment.TRANSFORMS.items()}
    transforms.update({
        "crop_small": drawn(lambda s, r: augment.crop(s, r, 0.05, 0.3)),
        "noise_full": drawn(lambda s, r: augment.noise_ba(s, r, 1.0)),
        "drop_by_time": drawn(lambda s, r: augment.drop_by_time(s, r, 0.3)),
        "drop_by_area": drawn(lambda s, r: augment.drop_by_area(s, r, 0.3)),
        "drop_random": drawn(lambda s, r: augment.drop_random(s, r, 0.3))})
    kinds = COMMON_EDAS + SPECIFIC_EDAS
    for name, stream in streams.items():
        for kind, run in transforms.items():
            for seed in EVENT_SEEDS:
                out[f"events/transform/{name}/{kind}/{seed}"] = _outcome(run, stream, seed)
        for prob in (0.5, 1.0):
            spec = AugmentSpec(tuple(TransformSpec(kind, prob) for kind in kinds), seed=5)
            for index in range(4):
                got = augment.apply_pipeline(stream, spec, index)
                tag = f"{name}/p{prob}/{index}"
                out[f"events/pipeline/{tag}"] = _stream_digest(got)
                out[f"events/voxelize/pipeline/{tag}"] = _outcome(events.voxelize, got, 6)
        for bins in TIME_BINS:
            out[f"events/voxelize/{name}/T{bins}"] = _outcome(events.voxelize, stream, bins)
    for width in EVENT_WIDTHS:
        group = [streams[f"n{n}/w{width}/{ties}"]
                 for n, ties in ((50_000, "ties"), (1, "spread"), (50_000, "spread"))]
        for bins in TIME_BINS:
            for size in (1, 3):
                out[f"events/voxelize_set/w{width}/N{size}/T{bins}"] = _outcome(
                    events.voxelize_set, group[:size], bins)
    mixed = [streams["n1/w127/ties"], streams["n1/w128/ties"]]
    out["events/voxelize_set/mixed_geometry"] = _outcome(events.voxelize_set, mixed, 3)
    out["events/voxelize_set/T0"] = _outcome(events.voxelize_set, mixed[:1], 0)
    return out


@dataclass(frozen=True)
class MaxPool:
    """A layer kind the grammar lacks."""

    window: int = 2


def _random_stack(rng) -> dict:
    """``NetworkConfig`` fields of a random stack of up to seven encoder
    layers and a head. Each layer is mostly fitted to the map the layers
    before it make, so that many stacks are accepted; the rest break one
    rule or more. The draws depend on ``rng`` alone, never on the tree."""
    from evsnn.nn.network import IF, SEW, Accumulator, AvgPool, Classifier, Conv2d, GlobalPool

    def draw(*options):
        return options[int(rng.integers(len(options)))]

    def size(n, k, stride, padding):
        return None if n is None else (n + 2 * padding - k) // stride + 1

    c, h, w = int(rng.integers(1, 4)), int(rng.integers(1, 13)), int(rng.integers(1, 13))
    fields = {"time_steps": int(rng.integers(1, 4)), "height": h, "width": w,
              "in_channels": c}
    layers = []
    for _ in range(int(rng.integers(0, 8))):
        kind = (draw("conv", "conv", "conv", "if", "if", "if", "sew", "sew", "pool", "pool",
                     "global") if rng.random() < 0.95 else draw("head", "other"))
        if kind == "conv":
            k, stride, padding = draw(1, 3, 3, 4), draw(1, 1, 2, 3), draw(0, 1, 1, 2)
            c_in = c if rng.random() < 0.9 else c + 1
            layers.append(Conv2d(c_in, draw(1, 2, 3, 4), k, stride, padding, draw(True, False)))
            c, h, w = layers[-1].c_out, size(h, k, stride, padding), size(w, k, stride, padding)
        elif kind == "if":
            layers.append(IF(draw(1.0, 0.5, 0.25) if rng.random() < 0.97 else 0.0))
        elif kind == "sew":
            channels = c if rng.random() < 0.9 else c + 1
            layers.append(SEW(channels, draw(1, 3, 3, 2), draw("add", "and", "iand")))
        elif kind == "pool":
            fits = [n for n in (1, 2, 3, 4) if h and w and h % n == 0 and w % n == 0]
            window = draw(*fits) if fits and rng.random() < 0.85 else draw(2, 3, 4)
            layers.append(AvgPool(window))
            h, w = (None, None) if h is None else (h // window, w // window)
        elif kind == "global":
            layers.append(GlobalPool())
            h = w = None
        elif kind == "head":
            layers.append(draw(Accumulator(c), Classifier(3)))
        else:
            layers.append(MaxPool())
    if rng.random() < 0.6:
        layers += [GlobalPool(), IF()]
        h = w = None
    features = c if h is None else c * h * w if h > 0 and w > 0 else 1
    dim = features if rng.random() < 0.85 else features + 1
    layers += ([Accumulator(dim), Classifier(3)] if rng.random() < 0.95
               else draw([Classifier(3), Accumulator(dim)], [Accumulator(dim)]))
    return {**fields, "layers": tuple(layers)}


def _grammar_cases() -> dict[str, str]:
    import numpy as np
    from evsnn.nn.network import ConfigError, NetworkConfig, param_shapes, synaptic_layers
    rng, out, results = np.random.default_rng(23), {}, []
    for n in range(GRAMMAR_STACKS):
        try:
            config = NetworkConfig(**_random_stack(rng))
        except ConfigError as exc:
            results.append(str(exc))
        else:
            result = [config.encoder_shapes()]
            for kind in ("spiking", "dense"):
                try:
                    result += [[asdict(lay) for lay in synaptic_layers(config, kind)],
                               list(param_shapes(config, kind).items())]
                except ConfigError as exc:  # a twin that does not compose
                    result.append(str(exc))
            results.append(result)
        if len(results) == GRAMMAR_CHUNK:
            out[f"grammar/{n + 1 - GRAMMAR_CHUNK:04d}"] = _digest(results)
            results = []
    return out


def _cli_cases(tmp: Path) -> dict[str, str]:
    """The CLI flow, run in ``tmp`` with relative paths, so that what each
    command prints and writes names no directory of its own."""
    import contextlib
    import io
    from evsnn.cli import main
    train = {"epochs": 2, "batch_size": 8, "lr": 0.002}
    net = {"preset": "sew_tiny", "classes": 2, "height": 16, "width": 16,
           "time_steps": 3, "theta": 0.5}
    augment = {"transforms": [{"kind": kind, "prob": 0.5}
                              for kind in ("crop", "hflip", "noise", "reverse")], "seed": 4}
    base = {"dataset": "ds/manifest.json", "network": net, "train": train,
            "augment": augment, "folds": {"k": 3, "seed": 0}, "seed": 2}
    experiments = {
        "spiking": {**base, "out_dir": "run_spiking"},
        "dense": {**base, "model_kind": "dense", "out_dir": "run_dense"},
        "output": {**base, "out_dir": "run_output", "energy": {"charging": "output"}},
        "sweep": {**base, "train": {**train, "epochs": 1}, "folds": {"k": 2, "seed": 0},
                  "out_dir": "run_sweep"}}
    for name, exp in experiments.items():
        (tmp / f"{name}.json").write_text(json.dumps(exp))
    commands = [
        ["synth", "--classes", "2", "--samples-per-class", "6", "--width", "16",
         "--height", "16", "--duration", "50000", "--events", "400", "--out", "ds",
         "--seed", "1"],
        ["voxelize", "ds/{first}", "--time-steps", "6", "--out", "vox.npy"],
        ["augment", "ds/{first}", "aug_pipeline.evt", "--pipeline",
         "crop,hflip,noise,polflip,reverse,eventdrop,mirror", "--prob", "0.5", "--seed", "3",
         "--sample-index", "1"],
        ["augment", "ds/{first}", "aug_config.evt", "--config", "spiking.json"],
        *([command, "--config", f"{kind}.json", *flags]
          for kind in ("spiking", "dense")
          for command, *flags in (["train"], ["eval"], ["eval", "--shuffled-bins"])),
        ["energy", "--config", "spiking.json"],
        ["energy", "--config", "output.json", "--checkpoint", "run_spiking/model.evck"],
        ["sweep", "--config", "sweep.json", "--jobs", "2"],
        ["regress", "--config", "sweep.json"]]
    out, seen, here = {}, {}, os.getcwd()
    os.chdir(tmp)
    try:
        for n, argv in enumerate(commands):
            first = min(p.name for p in Path("ds").glob("*.evt")) if n else ""
            argv = [arg.format(first=first) for arg in argv]
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                status = main(argv)
            tag = f"cli/{n:02d}-{argv[0]}"
            out[f"{tag}/stdout"] = _digest(status, printed.getvalue().replace(str(tmp), "<tmp>"))
            for path in sorted(Path(".").rglob("*")):
                if path.is_file() and not path.name.endswith(".runledger.json"):
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()
                    if seen.get(path) != digest:
                        seen[path] = out[f"{tag}/{path.as_posix()}"] = digest
    finally:
        os.chdir(here)
    return out


def emit(tree: Path) -> dict[str, str]:
    """Every artifact of the case list, run on ``tree``'s library."""
    sys.path.insert(0, str(tree / "src"))
    import evsnn
    if Path(evsnn.__file__).resolve().parents[1] != (tree / "src").resolve():
        raise SystemExit(f"evsnn imported from {evsnn.__file__}, not from {tree}")
    out = {}
    for net in NETS:
        out.update(_forward_cases(net))
        out.update(_train_case(net))
    out.update(_forward_cases("sew18", SEW18_BATCHES))
    out.update(_grammar_cases())
    with tempfile.TemporaryDirectory() as tmp:
        out.update(_event_cases(Path(tmp)))
    with tempfile.TemporaryDirectory() as tmp:
        out.update(_cli_cases(Path(tmp).resolve()))
    return out


def run_tree(tree: Path, threads: int) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["OPENBLAS_NUM_THREADS"] = str(threads)
    done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--emit", str(tree)],
                          env=env, capture_output=True, text=True, cwd=tree)
    if done.returncode:
        raise SystemExit(f"{tree} at {threads} thread(s) failed:\n{done.stderr}")
    return json.loads(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", type=Path, nargs="?", help="the tree to compare with")
    parser.add_argument("--threads", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--emit", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit is not None:
        print(json.dumps(emit(args.emit.resolve())))
        return 0
    if args.other is None:
        parser.error("the other tree is required")
    differs, total = 0, hashlib.sha256()
    for threads in args.threads:
        here, there = run_tree(HERE, threads), run_tree(args.other.resolve(), threads)
        for name in sorted(here.keys() | there.keys()):
            same = name in here and here.get(name) == there.get(name)
            differs += not same
            print(f"{'equal  ' if same else 'differs'} threads={threads} {name}")
            total.update(f"{threads} {name} {here.get(name)}\n".encode())
    print(f"{'all equal' if not differs else f'{differs} differ'}; "
          f"sha256 {total.hexdigest()}")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
