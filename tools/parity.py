"""Library parity: one fixed case list run in this tree and in another,
compared artifact by artifact.

    python tools/parity.py OTHER_TREE [--threads 1 2]

OTHER_TREE is a checkout of this repository (a parent commit, or a copy of
this one); only its ``src`` is read. Each tree runs the case list in a
subprocess of its own, this script with that tree's ``src`` first on the
import path, once per OpenBLAS thread count. The artifacts, each a sha256:

- ``forward``: logits, features and counters of ``forward`` with ``record``
  True and False, and the gradients of ``backward`` on the recorded trace;
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
uint8) and 3 (C-contiguous float32); ``train`` runs the spiking kind.

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


def _config(net: str, classes: int):
    from evsnn.nn.network import (IF, SEW, Accumulator, AvgPool, Classifier, Conv2d,
                                  GlobalPool, NetworkConfig, sew_tiny)
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


def _inputs(config, rng):
    """(B, input, labels) per batch size: uint8 over batch-innermost memory,
    C-contiguous uint8 and C-contiguous float32."""
    import numpy as np
    shape = (config.time_steps, config.in_channels, config.height, config.width)
    out = []
    for b in BATCHES:
        frames = (rng.random(shape + (b,)) < 0.1).astype(np.uint8).transpose(4, 0, 1, 2, 3)
        if b == 5:
            frames = np.ascontiguousarray(frames)
        elif b == 3:
            frames = np.ascontiguousarray(frames, dtype=np.float32)
        out.append((b, frames, rng.integers(0, config.classifier.classes, b)))
    return out


def _forward_cases(net: str) -> dict[str, str]:
    import numpy as np
    from evsnn.nn.network import backward, forward, init_params
    from evsnn.nn.train import _batch_grads
    config = _config(net, 4)
    out = {}
    for mode in MODES:
        params = init_params(config, 7, kind="dense" if mode == "dense" else "spiking")
        for b, x, labels in _inputs(config, np.random.default_rng(11)):
            tag = f"{net}/{mode}/B{b}"
            for record in (True, False):
                logits, trace = forward(config, params, x, mode=mode, record=record)
                rec = f"{tag}/forward/record={record}"
                out[f"{rec}/logits"] = _digest(logits)
                out[f"{rec}/features"] = _digest(trace.features, trace.accumulated)
                out[f"{rec}/counters"] = _digest(trace.spike_counts, trace.site_sizes,
                                                 trace.synaptic_inputs)
                if record:
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
