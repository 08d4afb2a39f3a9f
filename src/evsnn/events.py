"""Event streams and their discretization into binary spike tensors.

An event is a tuple (x, y, t, p): pixel coordinates, a microsecond
timestamp and a polarity in {-1, +1}. A stream is a time-sorted batch of
events recorded over [t_start, t_end) on a W x H sensor. Streams are
immutable values; every operation returns fresh data.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, NamedTuple, Sequence

import numpy as np

POS_CHANNEL = 0  # polarity +1
NEG_CHANNEL = 1  # polarity -1


class Event(NamedTuple):
    x: int
    y: int
    t: int
    p: int


@dataclass(frozen=True)
class Violation:
    """One broken stream invariant, located by event index (None = stream-level)."""

    rule: str
    index: int | None
    detail: str

    def __str__(self) -> str:
        where = "stream" if self.index is None else f"event {self.index}"
        return f"{self.rule} @ {where}: {self.detail}"


class InvalidStreamError(ValueError):
    def __init__(self, violations: Sequence[Violation]):
        self.violations = list(violations)
        lines = "; ".join(str(v) for v in self.violations[:5])
        extra = "" if len(self.violations) <= 5 else f" (+{len(self.violations) - 5} more)"
        super().__init__(f"invalid event stream: {lines}{extra}")


def _own(arr, dtype) -> np.ndarray:
    out = np.array(arr, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class EventStream:
    """Time-sorted events plus sensor geometry and recording interval.

    Arrays are copied in and frozen, so streams can be shared freely.
    ``label`` is an optional class index; None means unlabeled.
    """

    x: np.ndarray
    y: np.ndarray
    t: np.ndarray
    p: np.ndarray
    width: int
    height: int
    t_start: int
    t_end: int
    label: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "x", _own(self.x, np.int64))
        object.__setattr__(self, "y", _own(self.y, np.int64))
        object.__setattr__(self, "t", _own(self.t, np.int64))
        object.__setattr__(self, "p", _own(self.p, np.int8))
        ns = {self.x.size, self.y.size, self.t.size, self.p.size}
        if len(ns) != 1:
            raise ValueError(f"event field arrays disagree in length: {sorted(ns)}")

    @property
    def n(self) -> int:
        return self.t.size

    @property
    def duration(self) -> int:
        return self.t_end - self.t_start

    def events(self) -> list[Event]:
        return [Event(int(a), int(b), int(c), int(d))
                for a, b, c, d in zip(self.x, self.y, self.t, self.p)]

    @classmethod
    def from_events(cls, events: Iterable[Event], width: int, height: int,
                    t_start: int, t_end: int, label: int | None = None) -> "EventStream":
        ev = list(events)
        return cls(
            x=[e.x for e in ev], y=[e.y for e in ev],
            t=[e.t for e in ev], p=[e.p for e in ev],
            width=width, height=height, t_start=t_start, t_end=t_end, label=label,
        )

    def with_fields(self, **kw) -> "EventStream":
        return replace(self, **kw)


def validate(stream: EventStream) -> list[Violation]:
    """Diagnose every broken invariant; empty list means the stream is valid."""
    out: list[Violation] = []
    if stream.width <= 0 or stream.height <= 0:
        out.append(Violation("geometry", None,
                             f"non-positive sensor size {stream.width}x{stream.height}"))
    if stream.duration <= 0:
        out.append(Violation("interval", None,
                             f"t_end ({stream.t_end}) must exceed t_start ({stream.t_start})"))
    x, y, t, p = stream.x, stream.y, stream.t, stream.p
    for idx in np.flatnonzero((x < 0) | (x >= stream.width)):
        out.append(Violation("x_bounds", int(idx), f"x={x[idx]} outside [0, {stream.width})"))
    for idx in np.flatnonzero((y < 0) | (y >= stream.height)):
        out.append(Violation("y_bounds", int(idx), f"y={y[idx]} outside [0, {stream.height})"))
    for idx in np.flatnonzero((t < stream.t_start) | (t >= stream.t_end)):
        out.append(Violation("t_range", int(idx),
                             f"t={t[idx]} outside [{stream.t_start}, {stream.t_end})"))
    for idx in np.flatnonzero(np.abs(p) != 1):
        out.append(Violation("polarity", int(idx), f"p={p[idx]} not in {{-1, +1}}"))
    if t.size > 1:
        for idx in np.flatnonzero(np.diff(t) < 0):
            out.append(Violation("unsorted", int(idx) + 1,
                                 f"t={t[idx + 1]} after t={t[idx]}: timestamps regress"))
    return out


def require_valid(stream: EventStream) -> None:
    violations = validate(stream)
    if violations:
        raise InvalidStreamError(violations)


# A spike tensor is a plain uint8 ndarray of shape (T, 2, H, W) with values
# in {0, 1}; channel 0 holds positive events, channel 1 negative ones.
SpikeTensor = np.ndarray


def check_spike_tensor(arr: np.ndarray) -> None:
    if arr.ndim != 4 or arr.shape[1] != 2:
        raise ValueError(f"spike tensor must be (T, 2, H, W), got {arr.shape}")
    bad = (arr != 0) & (arr != 1)
    if bad.any():
        raise ValueError("spike tensor holds values outside {0, 1}")


def event_bins(stream: EventStream, time_bins: int) -> np.ndarray:
    """Bin index per event: floor((t - t_start) * T / duration), clamped to T-1.

    Integer multiply-before-divide, so no float drift for any microsecond scale.
    """
    rel = stream.t.astype(np.int64) - stream.t_start
    b = (rel * time_bins) // stream.duration
    return np.minimum(b, time_bins - 1)


def voxelize(stream: EventStream, time_bins: int) -> SpikeTensor:
    """Discretize a valid stream into T binary per-polarity frames.

    Cell [b, ch, y, x] is 1 iff at least one event with that polarity falls in
    spatial cell (x, y) during time bin b; repeats saturate at 1.
    """
    if time_bins < 1:
        raise ValueError(f"time_bins must be >= 1, got {time_bins}")
    require_valid(stream)
    out = np.zeros((time_bins, 2, stream.height, stream.width), dtype=np.uint8)
    if stream.n:
        b = event_bins(stream, time_bins)
        ch = np.where(stream.p > 0, POS_CHANNEL, NEG_CHANNEL)
        out[b, ch, stream.y, stream.x] = 1
    return out


def devoxelize_counts(stream: EventStream, time_bins: int) -> np.ndarray:
    """Per-bin event counts; sums to N. Companion oracle for ``voxelize``."""
    if time_bins < 1:
        raise ValueError(f"time_bins must be >= 1, got {time_bins}")
    require_valid(stream)
    if stream.n == 0:
        return np.zeros(time_bins, dtype=np.int64)
    return np.bincount(event_bins(stream, time_bins), minlength=time_bins).astype(np.int64)
