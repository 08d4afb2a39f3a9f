"""Event data augmentations: pure, seeded transforms over event streams.

Five common transforms (crop, hflip, noise, polflip, reverse), two
specific ones (eventdrop, mirror), and a composable pipeline. Every
transform returns a fresh, valid stream; randomness comes only from the
generator handed in, so results are reproducible and parallel-safe.

Each field is read once per selection or reorder: a transform that keeps a
subset or resorts turns it into one index and gathers the fields with
``take``, and ``reverse`` copies the fields through reversed views and
gathers only the events of its timestamp ties. The result adopts the arrays
the transform built and shares the fields it left unchanged (see
``events.EventStream``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import Annotated, Callable

import numpy as np

from ._heap import keep_heap
from ._schema import Bound, SchemaError, bounded, checked
from .events import EventStream

RATIO = Annotated[float, Bound(0, 1)]


def _resorted(stream: EventStream, x, y, t, p) -> EventStream:
    order = np.argsort(t, kind="stable")
    return stream._adopt(x=x.take(order), y=y.take(order), t=t.take(order),
                         p=p.take(order))


def _taken(stream: EventStream, idx: np.ndarray) -> EventStream:
    """The events at the given indices, in index order."""
    return stream._adopt(x=stream.x.take(idx), y=stream.y.take(idx),
                         t=stream.t.take(idx), p=stream.p.take(idx))


def hflip(stream: EventStream) -> EventStream:
    """Reflect every event about the vertical axis: x -> W-1-x."""
    return stream._adopt(x=stream.width - 1 - stream.x)


def polflip(stream: EventStream) -> EventStream:
    """Negate every polarity."""
    return stream._adopt(p=-stream.p)


def reverse(stream: EventStream) -> EventStream:
    """Mirror time inside [t_start, t_end): t -> t_start + (t_end-1 - t).

    The result is the stable sort of the mirrored stream. For a time-sorted
    input that is the stream read backwards, except that each run of equal
    timestamps keeps its index order. So x, y and p are copied through
    reversed views and only the events inside runs are gathered again, in
    O(N) instead of a sort; t is mirrored from its reversed view as it is,
    since a run's timestamps are equal.
    """
    t, n = stream.t, stream.n
    x, y, p = stream.x[::-1].copy(), stream.y[::-1].copy(), stream.p[::-1].copy()
    tie = np.flatnonzero(t[1:] == t[:-1])  # event i shares its timestamp with i + 1
    if tie.size:
        first = np.flatnonzero(np.diff(tie, prepend=-2) != 1)
        start = tie[first]  # each run holds events [start, end)
        end = tie[np.append(first[1:], tie.size) - 1] + 2
        size = end - start
        # the run's positions [n - end, n - start) get events start .. end - 1
        pos = np.arange(size.sum()) + np.repeat(n - end - (np.cumsum(size) - size), size)
        src = pos + np.repeat(start + end - n, size)
        x[pos], y[pos], p[pos] = stream.x.take(src), stream.y.take(src), stream.p.take(src)
    return stream._adopt(x=x, y=y, t=stream.t_start + (stream.t_end - 1) - t[::-1], p=p)


def crop(stream: EventStream, rng: np.random.Generator,
         scale_min: float = 0.6, scale_max: float = 1.0) -> EventStream:
    """Random-resized crop: keep one window for the whole sequence and remap
    kept coordinates back to full resolution.

    Draw order: area scale, then corner x0, then y0.
    """
    if not 0.0 < scale_min <= scale_max <= 1.0:
        raise ValueError(f"bad crop scale range [{scale_min}, {scale_max}]")
    s = rng.uniform(scale_min, scale_max)
    w = min(stream.width, max(1, round(stream.width * np.sqrt(s))))
    h = min(stream.height, max(1, round(stream.height * np.sqrt(s))))
    x0 = int(rng.integers(0, stream.width - w + 1))
    y0 = int(rng.integers(0, stream.height - h + 1))
    # offsets from the window's corner; a negative one reads as a huge unsigned
    # value, so one unsigned test per axis keeps [x0, x0 + w) and [y0, y0 + h)
    dx, dy = stream.x - x0, stream.y - y0
    idx = np.flatnonzero((dx.view(np.uint64) < w) & (dy.view(np.uint64) < h))
    x, y = dx.take(idx), dy.take(idx)
    x *= stream.width
    x //= w
    y *= stream.height
    y //= h
    return stream._adopt(x=x, y=y, t=stream.t.take(idx), p=stream.p.take(idx))


def noise_ba(stream: EventStream, rng: np.random.Generator,
             ratio: float = 0.1) -> EventStream:
    """Inject floor(ratio * N) background-activity events, uniform in x, y, t
    and polarity; all original events are retained."""
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"noise ratio must lie in [0, 1], got {ratio}")
    n_add = int(ratio * stream.n)
    if n_add == 0:
        return stream
    x = np.concatenate([stream.x, rng.integers(0, stream.width, n_add, dtype=np.int64)])
    y = np.concatenate([stream.y, rng.integers(0, stream.height, n_add, dtype=np.int64)])
    t = np.concatenate([stream.t, rng.integers(stream.t_start, stream.t_end,
                                               n_add, dtype=np.int64)])
    p = np.concatenate([stream.p, (rng.integers(0, 2, n_add, dtype=np.int8) * 2 - 1)])
    return _resorted(stream, x, y, t, p)


def drop_by_time(stream: EventStream, rng: np.random.Generator,
                 ratio: float) -> EventStream:
    """Delete all events inside one random interval of the given duration ratio."""
    dur = round(ratio * stream.duration)
    t0 = int(rng.integers(stream.t_start, stream.t_end - dur + 1))
    return _taken(stream, np.flatnonzero((stream.t < t0) | (stream.t >= t0 + dur)))


def drop_by_area(stream: EventStream, rng: np.random.Generator,
                 ratio: float) -> EventStream:
    """Delete all events inside one random rectangle of the given area ratio."""
    w = min(stream.width, max(1, round(stream.width * np.sqrt(ratio))))
    h = min(stream.height, max(1, round(stream.height * np.sqrt(ratio))))
    x0 = int(rng.integers(0, stream.width - w + 1))
    y0 = int(rng.integers(0, stream.height - h + 1))
    inside = ((stream.x >= x0) & (stream.x < x0 + w)
              & (stream.y >= y0) & (stream.y < y0 + h))
    return _taken(stream, np.flatnonzero(~inside))


def drop_random(stream: EventStream, rng: np.random.Generator,
                ratio: float) -> EventStream:
    """Delete each event independently with probability ``ratio``."""
    return _taken(stream, np.flatnonzero(rng.random(stream.n) >= ratio))


def eventdrop(stream: EventStream, rng: np.random.Generator,
              ratio_lo: RATIO = 0.05, time_ratio_max: RATIO = 0.3,
              area_ratio_max: RATIO = 0.3, global_ratio_max: RATIO = 0.5,
              ) -> EventStream:
    """One of four strategies, chosen uniformly: identity, drop-by-time,
    drop-by-area, or independent random drop. Ratios are uniform draws from
    [ratio_lo, the strategy's max]."""
    if ratio_lo > min(time_ratio_max, area_ratio_max, global_ratio_max):
        raise ValueError(f"ratio_lo {ratio_lo} exceeds a strategy's max ratio")
    strategy = int(rng.integers(0, 4))
    if strategy == 0:
        return stream
    if strategy == 1:
        return drop_by_time(stream, rng, rng.uniform(ratio_lo, time_ratio_max))
    if strategy == 2:
        return drop_by_area(stream, rng, rng.uniform(ratio_lo, area_ratio_max))
    return drop_random(stream, rng, rng.uniform(ratio_lo, global_ratio_max))


def mirror(stream: EventStream, rng: np.random.Generator) -> EventStream:
    """Mirror one half of the frame onto the other.

    Picks a source side uniformly, discards events on the other side, and
    emits a reflected copy (x -> W-1-x) of every kept event. For odd widths
    the center column belongs to the source side and is not duplicated.
    """
    w = stream.width
    left = int(rng.integers(0, 2)) == 0
    center = (w - 1) // 2
    if w % 2 == 0:
        keep = stream.x < w // 2 if left else stream.x >= w // 2
    else:
        keep = stream.x <= center if left else stream.x >= center
    idx = np.flatnonzero(keep)
    kx = stream.x.take(idx)
    # reflect all but self-reflections (odd-W center column)
    refl = np.flatnonzero(kx != (w - 1 - kx))
    # events to emit: the kept ones, then the reflected copies, in time order
    x = np.concatenate([kx, w - 1 - kx.take(refl)])
    src = np.concatenate([idx, idx.take(refl)])
    order = np.argsort(stream.t.take(src), kind="stable")
    src = src.take(order)
    return stream._adopt(x=x.take(order), y=stream.y.take(src), t=stream.t.take(src),
                         p=stream.p.take(src))


@dataclass(frozen=True)
class TransformSpec:
    """One pipeline stage: transform kind, its application probability, and
    parameters. Parameter defaults and checks are the transform function's own:
    it runs once on a one-event probe stream, and checks before it draws."""

    kind: str
    prob: Annotated[float, Bound(0, 1)] = 0.5
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in TRANSFORMS:
            raise SchemaError(f"unknown transform {self.kind!r}; known: {sorted(TRANSFORMS)}")
        where, fn = f"transform {self.kind}", TRANSFORMS[self.kind]
        bounded(TransformSpec, vars(self), where)
        checked(fn, self.params, where, ("stream", "rng"))
        try:
            fn(_PROBE, np.random.default_rng(0), **self.params)
        except ValueError as exc:
            raise SchemaError(f"{where}: {exc}") from exc


def _stage(kind: str, prob: float = 0.5, **params) -> TransformSpec:
    """A pipeline stage from its JSON object, as AugmentSpec.to_dict writes it."""
    return TransformSpec(kind, prob, params)


def _apply_deterministic(fn: Callable[[EventStream], EventStream]):
    @functools.wraps(fn)
    def apply(stream, rng, **params):
        return fn(stream, **params)
    return apply


TRANSFORMS: dict[str, Callable] = {
    "crop": crop,
    "hflip": _apply_deterministic(hflip),
    "noise": noise_ba,
    "polflip": _apply_deterministic(polflip),
    "reverse": _apply_deterministic(reverse),
    "eventdrop": eventdrop,
    "mirror": mirror,
}

# fixed application order of the five common transforms
COMMON_EDAS = ("crop", "hflip", "noise", "polflip", "reverse")
SPECIFIC_EDAS = ("eventdrop", "mirror")
# the stream on which TransformSpec runs its transform once
_PROBE = EventStream(x=[0], y=[0], t=[0], p=[1], width=1, height=1, t_start=0, t_end=1)


@dataclass(frozen=True)
class AugmentSpec:
    """An ordered transform pipeline plus the master seed that drives it."""

    transforms: tuple[TransformSpec, ...] = ()
    seed: Annotated[int, Bound(0)] = 0

    def __post_init__(self):
        bounded(AugmentSpec, vars(self), "")

    def with_seed(self, seed: int) -> "AugmentSpec":
        return replace(self, seed=seed)

    def to_dict(self) -> dict:
        return {"seed": self.seed,
                "transforms": [{"kind": tr.kind, "prob": tr.prob, **tr.params}
                               for tr in self.transforms]}

    @classmethod
    def from_dict(cls, doc: dict) -> "AugmentSpec":
        checked(cls, doc, "spec")
        stages = (_stage(**checked(_stage, entry, f"transforms[{i}]"))
                  for i, entry in enumerate(doc.get("transforms", ())))
        return cls(transforms=tuple(stages), seed=doc.get("seed", 0))


class RngStream:
    """Deterministic per-sample randomness, split per transform.

    The generator for (master seed, sample index, transform index) is a pure
    function of those three values, so pipelines applied to different samples
    in parallel draw identical numbers regardless of execution order.
    """

    def __init__(self, master_seed: int, sample_index: int):
        self.master_seed = master_seed
        self.sample_index = sample_index

    def split(self, transform_index: int) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.master_seed,
                                    spawn_key=(self.sample_index, transform_index))
        return np.random.default_rng(ss)


def apply_pipeline(stream: EventStream, spec: AugmentSpec, sample_index: int,
                   ) -> EventStream:
    """Apply the spec's transforms in order; each stage fires with its own
    probability using its own random split."""
    keep_heap()
    rngs = RngStream(spec.seed, sample_index)
    for i, tr in enumerate(spec.transforms):
        rng = rngs.split(i)
        # the fire coin always burns one draw, so a stage's own draws do not
        # depend on its probability setting
        if rng.random() < tr.prob or tr.prob >= 1.0:
            stream = TRANSFORMS[tr.kind](stream, rng, **tr.params)
    return stream
