"""Outside-in span tracing of the evsnn layers.

``Recorder.installed()`` wraps every public function of the layer modules
and rebinds each module attribute of the package that refers to one, so
calls made through names a module imported (``from .layers import
conv2d_forward``) are traced as well; nothing under ``src/`` changes. The
augmentation table ``augment.TRANSFORMS`` is wrapped entry by entry, so each
transform kind gets its own span. Leaving the context restores every name.

A span records its name, the request (setup round or timed unit) it belongs
to, start, end, its parent span and its self time: its duration minus the
time its child spans cover. Children of one span run one after another in
this single-threaded program, so that cover is the sum of their durations.
Spans stay in memory until the run writes them out. Worker processes forked
by ``bench`` inherit the wrappers but record nothing, so sweep accounting is
parent-side only.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYER_MODULES = ("synth", "evio", "events", "augment", "nn.layers", "nn.network",
                 "nn.train", "energy", "bench", "regress")
# a shape formula called by every conv; a span around it would only move
# time out of conv2d_forward's self time
UNTRACED = frozenset({"nn.layers.conv_out_size"})


class Recorder:
    """Spans and exact counts of one benchmark process."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans: list[tuple] = []   # (id, parent, name, request, start, end, self)
        # request -> count name -> value; names ending in "_ms" are times
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        # id(weight array) -> checkpoint tensor name, e.g. "03.sew.conv1"
        self.weight_names: dict[int, str] = {}
        self.request = "setup"
        self._stack: list[list] = []   # [span id, name, child ns]
        self._next = 0
        self._wrappers: list[tuple[object, str, object]] | None = None

    # -- recording -------------------------------------------------------
    def call(self, name, fn, hook, args, kwargs):
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        frame = [sid, name, 0]
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            dur = end - start
            if parent is not None:
                parent[2] += dur
            self.spans.append((sid, parent[0] if parent else -1, name, self.request,
                               start, end, dur - frame[2]))
        if hook is not None:
            hook(self, self.counts[self.request], parent[1] if parent else None,
                 args, kwargs, result, dur)
        return result

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != self.pid:
                return fn(*args, **kwargs)
            return self.call(name, fn, hook, args, kwargs)
        return traced

    # -- installation ----------------------------------------------------
    def _build(self) -> list[tuple[object, str, object]]:
        """(namespace, key, wrapper) for every rebinding, built once."""
        wrapped: dict[int, tuple[object, object]] = {}
        for short in LAYER_MODULES:
            mod = sys.modules[f"evsnn.{short}"]
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in UNTRACED):
                    wrapped[id(obj)] = (obj, self._wrap(name, obj))
        out = []
        for modname, mod in list(sys.modules.items()):
            if modname != "evsnn" and not modname.startswith("evsnn."):
                continue
            for attr, obj in vars(mod).items():
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    out.append((mod, attr, hit[1]))
        table = sys.modules["evsnn.augment"].TRANSFORMS
        for kind, fn in table.items():
            out.append((table, kind, self._wrap(f"augment.{kind}", fn)))
        return out

    @contextmanager
    def installed(self, request: str):
        """Trace every layer call made inside the block under ``request``."""
        if self._wrappers is None:
            self._wrappers = self._build()
        saved = []
        for space, key, wrapper in self._wrappers:
            if isinstance(space, dict):
                saved.append((space, key, space[key]))
                space[key] = wrapper
            else:
                saved.append((space, key, getattr(space, key)))
                setattr(space, key, wrapper)
        self.request = request
        try:
            yield self
        finally:
            for space, key, old in reversed(saved):
                if isinstance(space, dict):
                    space[key] = old
                else:
                    setattr(space, key, old)

    # -- aggregation -----------------------------------------------------
    def totals(self, phase: str, scale: dict[str, float]) -> dict[str, list[float]]:
        """name -> [total ms, self ms, calls] over the spans of one phase
        ("setup", "unit" or "finish"); times are multiplied by the scale of
        their request (1 where none is given)."""
        out: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0, 0])
        for _, _, name, request, start, end, self_ns in self.spans:
            if request.split(".")[0] == phase:
                f = scale.get(request, 1.0)
                row = out[name]
                row[0] += f * (end - start) / 1e6
                row[1] += f * self_ns / 1e6
                row[2] += 1
        return out

    def count_totals(self, phase: str, scale: dict[str, float]) -> dict[str, float]:
        """Counts summed over the requests of one phase; times scaled as in
        ``totals``."""
        out: dict[str, float] = defaultdict(float)
        for request, counts in self.counts.items():
            if request.split(".")[0] == phase:
                f = scale.get(request, 1.0)
                for key, value in counts.items():
                    out[key] += f * value if key.endswith("_ms") else value
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, request, start, end, self_ns in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "request": request, "start_ns": start,
                                     "end_ns": end, "self_ns": self_ns}) + "\n")


# ---------------------------------------------------------------------------
# counts taken where the work happens; byte and MAC counts are computed from
# array shapes, not measured

def _conv_macs(x, weight, out_hw) -> int:
    c_out, c_in, k, _ = weight.shape
    return x.shape[0] * c_out * out_hw * c_in * k * k


def _conv_forward(rec, c, parent, args, kwargs, result, dur):
    x, weight = args[0], args[1]
    c["nn.layers.conv2d.macs"] += _conv_macs(x, weight, result.shape[2] * result.shape[3])
    tensor = rec.weight_names.get(id(weight))
    if tensor is not None:
        c[f"nn.layers.{tensor}.fwd_ms"] += dur / 1e6


def _conv_backward(rec, c, parent, args, kwargs, result, dur):
    x, weight, dy = args[0], args[1], args[2]
    # weight gradient and input gradient: two GEMMs of the forward size
    c["nn.layers.conv2d.macs"] += 2 * _conv_macs(x, weight, dy.shape[2] * dy.shape[3])
    tensor = rec.weight_names.get(id(weight))
    if tensor is not None:
        c[f"nn.layers.{tensor}.bwd_ms"] += dur / 1e6


def _im2col(rec, c, parent, args, kwargs, result, dur):
    c["nn.layers.im2col.bytes"] += result.size * result.itemsize
    side = "bwd" if parent == "nn.layers.conv2d_backward" else "fwd"
    c[f"nn.layers.im2col.{side}_ms"] += dur / 1e6


def _col2im(rec, c, parent, args, kwargs, result, dur):
    cols = args[0]
    c["nn.layers.col2im.bytes"] += cols.size * cols.itemsize


def _voxelize(rec, c, parent, args, kwargs, result, dur):
    c["events.voxelize.events"] += args[0].n


def _load_events(rec, c, parent, args, kwargs, result, dur):
    evio = sys.modules["evsnn.evio"]
    c["evio.load_events.bytes"] += evio.HEADER_SIZE + result.n * evio.RECORD_SIZE


def _apply_pipeline(rec, c, parent, args, kwargs, result, dur):
    spec = args[1] if len(args) > 1 else kwargs["spec"]
    c["augment.stages_attempted"] += len(spec.transforms)
    c["augment.events_in"] += args[0].n
    c["augment.events_out"] += result.n


HOOKS = {
    "nn.layers.conv2d_forward": _conv_forward,
    "nn.layers.conv2d_backward": _conv_backward,
    "nn.layers.im2col": _im2col,
    "nn.layers.col2im": _col2im,
    "events.voxelize": _voxelize,
    "evio.load_events": _load_events,
    "augment.apply_pipeline": _apply_pipeline,
}
