"""Synthetic labeled event datasets built from moving-edge templates.

Each class is a spatio-temporal motion pattern rendered as edge events:
positive polarity where the bright region arrives, negative where it
leaves. The default four classes are

    0 ring_expand    annulus growing outward
    1 ring_contract  annulus shrinking inward (class 0 played backwards)
    2 bar_sweep_h    vertical bar translating horizontally (random direction)
    3 bar_sweep_v    horizontal bar translating vertically (random direction)

Classes 0 and 1 share spatial statistics and differ only in temporal
order, so any model that collapses time cannot tell them apart. All
classes draw the same event-count distribution, so counts alone carry no
label information. A "static" template (flickering disk, no motion) is
available for tests.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Annotated

import numpy as np

from ._schema import Bound, SchemaError, bounded
from .events import _INT64_MAX, EventStream
from .evio import DatasetManifest, ManifestEntry, save_events

DEFAULT_TEMPLATES = ("ring_expand", "ring_contract", "bar_sweep_h", "bar_sweep_v")
KNOWN_TEMPLATES = DEFAULT_TEMPLATES + ("static",)
_Finite = Annotated[float, Bound(0, sys.float_info.max)]  # >= 0, and inf is refused
_MAX_EVENTS = 2**32 - 1  # events in one sample, signal plus noise


@dataclass(frozen=True)
class SynthParams:
    width: Annotated[int, Bound(1, 0xFFFF)] = 64  # an event file stores u16 sizes
    height: Annotated[int, Bound(1, 0xFFFF)] = 64
    duration: Annotated[int, Bound(1, 2**63 - 1)] = 600_000  # microseconds, int64
    events_per_sample: Annotated[int, Bound(1, _MAX_EVENTS)] = 3000  # more would not fit in memory
    count_jitter: Annotated[float, Bound(0, 1)] = 0.1  # relative +- spread of the event count
    noise_ratio: _Finite = 0.05  # uniform background events / signal events
    edge_sigma: _Finite = 0.7  # px jitter on edge positions
    ring_r_lo: _Finite = 6.0
    ring_r_hi: _Finite = 24.0
    ring_half_thickness: _Finite = 2.5
    bar_margin: _Finite = 8.0
    bar_half_thickness: _Finite = 2.5
    center_jitter: _Finite = 3.0
    static_radius: _Finite = 12.0
    templates: tuple[str, ...] = DEFAULT_TEMPLATES

    def __post_init__(self):
        for name in self.templates:
            if name not in KNOWN_TEMPLATES:
                raise SchemaError(f"unknown template {name!r}; known: {KNOWN_TEMPLATES}")
        bounded(SynthParams, vars(self), "")
        if self.ring_r_lo > self.ring_r_hi:
            raise SchemaError(f"ring_r_lo {self.ring_r_lo:g} must be <= ring_r_hi "
                              f"{self.ring_r_hi:g}")
        # synth_generate draws at most `most` signal events, then
        # round(noise_ratio * signal) noise events
        most = max(1, round(self.events_per_sample * (1.0 + self.count_jitter)))
        room, noise = max(_MAX_EVENTS - most, 0), self.noise_ratio * most
        if noise > room + 1 or round(noise) > room:
            raise SchemaError(
                f"noise_ratio {self.noise_ratio:g} draws up to {noise:.0f} noise events "
                f"beside {most} signal events; a sample holds at most {_MAX_EVENTS}")
        bars = {"bar_sweep_h", "bar_sweep_v"} & set(self.templates)
        if bars and min(self.width, self.height) < 2 * self.bar_margin:
            raise SchemaError(
                f"{self.width}x{self.height} cannot hold the bar templates: both "
                f"sides must be >= 2 * bar_margin = {2 * self.bar_margin:g}")

    @property
    def num_classes(self) -> int:
        return len(self.templates)


def _sample_seed(master_seed: int, index: int) -> int:
    return int(np.random.SeedSequence([master_seed, index]).generate_state(1, np.uint64)[0])


def synth_generate(class_id: int, params: SynthParams, seed: int) -> EventStream:
    """Deterministic labeled stream for one class; same inputs, same bytes."""
    if not 0 <= class_id < params.num_classes:
        raise ValueError(f"class_id {class_id} outside [0, {params.num_classes})")
    rng = np.random.default_rng(np.random.SeedSequence([seed, class_id]))
    w, h, dur = params.width, params.height, params.duration

    lo = 1.0 - params.count_jitter
    hi = 1.0 + params.count_jitter
    n_sig = max(1, round(params.events_per_sample * rng.uniform(lo, hi)))
    t = rng.integers(0, dur, size=n_sig, dtype=np.int64)
    s = t.astype(np.float64) / dur
    p = rng.integers(0, 2, size=n_sig, dtype=np.int8) * 2 - 1

    name = params.templates[class_id]
    half = params.ring_half_thickness
    if name in ("ring_expand", "ring_contract"):
        cx = w / 2 + rng.uniform(-params.center_jitter, params.center_jitter)
        cy = h / 2 + rng.uniform(-params.center_jitter, params.center_jitter)
        if name == "ring_expand":
            r_mid = params.ring_r_lo + (params.ring_r_hi - params.ring_r_lo) * s
            lead_sign = 1.0
        else:
            r_mid = params.ring_r_hi - (params.ring_r_hi - params.ring_r_lo) * s
            lead_sign = -1.0
        # arriving edge gets the positive events, departing edge the negative
        radius = r_mid + lead_sign * np.where(p > 0, half, -half)
        radius = radius + rng.normal(0.0, params.edge_sigma, size=n_sig)
        phi = rng.uniform(0.0, 2.0 * math.pi, size=n_sig)
        fx = cx + radius * np.cos(phi)
        fy = cy + radius * np.sin(phi)
    elif name in ("bar_sweep_h", "bar_sweep_v"):
        m = params.bar_margin
        bh = params.bar_half_thickness
        direction = 1.0 if rng.integers(0, 2) == 0 else -1.0
        span_axis = w if name == "bar_sweep_h" else h
        a, b = m, span_axis - m
        pos = a + (b - a) * s if direction > 0 else b - (b - a) * s
        along = rng.uniform(m, (h if name == "bar_sweep_h" else w) - m, size=n_sig)
        edge = pos + direction * np.where(p > 0, bh, -bh)
        edge = edge + rng.normal(0.0, params.edge_sigma, size=n_sig)
        if name == "bar_sweep_h":
            fx, fy = edge, along
        else:
            fx, fy = along, edge
    elif name == "static":
        # flickering disk: both polarities uniform over a fixed disk support
        r = params.static_radius * np.sqrt(rng.uniform(0.0, 1.0, size=n_sig))
        phi = rng.uniform(0.0, 2.0 * math.pi, size=n_sig)
        fx = w / 2 + r * np.cos(phi)
        fy = h / 2 + r * np.sin(phi)
    else:  # pragma: no cover - guarded by SynthParams
        raise AssertionError(name)

    x = np.clip(np.rint(fx), 0, w - 1).astype(np.int64)
    y = np.clip(np.rint(fy), 0, h - 1).astype(np.int64)

    n_noise = round(params.noise_ratio * n_sig)
    if n_noise:
        x = np.concatenate([x, rng.integers(0, w, size=n_noise, dtype=np.int64)])
        y = np.concatenate([y, rng.integers(0, h, size=n_noise, dtype=np.int64)])
        t = np.concatenate([t, rng.integers(0, dur, size=n_noise, dtype=np.int64)])
        p = np.concatenate([p, (rng.integers(0, 2, size=n_noise, dtype=np.int8) * 2 - 1)])

    order = _time_order(t, dur)
    return EventStream(x=x[order], y=y[order], t=t[order], p=p[order],
                       width=w, height=h, t_start=0, t_end=dur, label=class_id)


def _time_order(t: np.ndarray, duration: int) -> np.ndarray:
    """``np.argsort(t, kind="stable")`` for timestamps in [0, duration): one
    unstable sort of the unique keys t * n + i, unless they overflow int64."""
    n = len(t)
    if duration > _INT64_MAX // max(n, 1):
        return np.argsort(t, kind="stable")
    return np.sort(t * n + np.arange(n)) % n


def generate_dataset(params: SynthParams, samples_per_class: Annotated[int, Bound(1)],
                     seed: Annotated[int, Bound(0)]) -> list[EventStream]:
    """All samples, class-major order; sample i of class c uses a seed derived
    from (seed, c * samples_per_class + i)."""
    bounded(generate_dataset, {"samples_per_class": samples_per_class, "seed": seed}, "")
    streams = []
    for c in range(params.num_classes):
        for j in range(samples_per_class):
            idx = c * samples_per_class + j
            streams.append(synth_generate(c, params, _sample_seed(seed, idx)))
    return streams


def write_dataset(out_dir: str | Path, params: SynthParams, samples_per_class: int,
                  seed: int) -> DatasetManifest:
    """Write event files plus manifest.json; idempotent for fixed arguments."""
    streams = generate_dataset(params, samples_per_class, seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for idx, stream in enumerate(streams):
        c = stream.label
        j = idx % samples_per_class
        name = f"class{c}_{j:04d}.evt"
        save_events(stream, out / name)
        entries.append(ManifestEntry(file=name, label=c, width=params.width,
                                     height=params.height, duration=params.duration))
    manifest = DatasetManifest(root=out, entries=tuple(entries),
                               class_names=params.templates[:params.num_classes])
    manifest.save(out / "manifest.json")
    return manifest
