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
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .events import EventStream
from .evio import DatasetManifest, ManifestEntry, save_events

DEFAULT_TEMPLATES = ("ring_expand", "ring_contract", "bar_sweep_h", "bar_sweep_v")
KNOWN_TEMPLATES = DEFAULT_TEMPLATES + ("static",)


@dataclass(frozen=True)
class SynthParams:
    width: int = 64
    height: int = 64
    duration: int = 600_000  # microseconds
    events_per_sample: int = 3000
    count_jitter: float = 0.1       # relative +- spread of the event count
    noise_ratio: float = 0.05       # uniform background events / signal events
    edge_sigma: float = 0.7         # px jitter on edge positions
    ring_r_lo: float = 6.0
    ring_r_hi: float = 24.0
    ring_half_thickness: float = 2.5
    bar_margin: float = 8.0
    bar_half_thickness: float = 2.5
    center_jitter: float = 3.0
    static_radius: float = 12.0
    templates: tuple[str, ...] = DEFAULT_TEMPLATES

    def __post_init__(self):
        for name in self.templates:
            if name not in KNOWN_TEMPLATES:
                raise ValueError(f"unknown template {name!r}; known: {KNOWN_TEMPLATES}")
        if min(self.width, self.height, self.duration) < 1:
            raise ValueError(f"width, height and duration must be >= 1, got "
                             f"{self.width}x{self.height}, {self.duration} us")
        bars = {"bar_sweep_h", "bar_sweep_v"} & set(self.templates)
        if bars and min(self.width, self.height) < 2 * self.bar_margin:
            raise ValueError(
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

    order = np.argsort(t, kind="stable")
    return EventStream(x=x[order], y=y[order], t=t[order], p=p[order],
                       width=w, height=h, t_start=0, t_end=dur, label=class_id)


def generate_dataset(params: SynthParams, samples_per_class: int, seed: int,
                     ) -> list[EventStream]:
    """All samples, class-major order; sample i of class c uses a seed derived
    from (seed, c * samples_per_class + i)."""
    streams = []
    for c in range(params.num_classes):
        for j in range(samples_per_class):
            idx = c * samples_per_class + j
            streams.append(synth_generate(c, params, _sample_seed(seed, idx)))
    return streams


def write_dataset(out_dir: str | Path, params: SynthParams, samples_per_class: int,
                  seed: int) -> DatasetManifest:
    """Write event files plus manifest.json; idempotent for fixed arguments."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    streams = generate_dataset(params, samples_per_class, seed)
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
