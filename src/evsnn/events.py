"""Event streams and their discretization into binary spike tensors.

An event is a tuple (x, y, t, p): pixel coordinates, a microsecond
timestamp and a polarity in {-1, +1}. A stream is a time-sorted batch of
events recorded over [t_start, t_end) on a W x H sensor. Streams are
immutable values: their field arrays are read-only. Arrays a caller hands to
``EventStream`` are copied in; a transform that builds fresh field arrays
hands them over without a copy, and the fields it leaves unchanged are
shared with its input stream.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from typing import Annotated, Iterator, Sequence

import numpy as np

from ._heap import keep_heap
from ._schema import Bound, bounded

POS_CHANNEL = 0  # polarity +1
NEG_CHANNEL = 1  # polarity -1


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


_DTYPES = {"x": np.int64, "y": np.int64, "t": np.int64, "p": np.int8}
_INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class EventStream:
    """Time-sorted events plus sensor geometry and recording interval.

    Arrays handed to the constructor or to ``with_fields`` are copied in and
    frozen, so later writes to the caller's arrays never reach the stream and
    streams can be shared freely. Transforms build their results through
    ``_adopt``, which freezes the fresh arrays they made instead of copying
    them and shares the fields they left unchanged.
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
        self._hold({name: np.array(getattr(self, name), dtype=dtype)
                    for name, dtype in _DTYPES.items()})

    def _hold(self, fields: dict[str, np.ndarray]) -> None:
        for name, arr in fields.items():
            arr = np.asarray(arr, dtype=_DTYPES[name])
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        ns = {self.x.size, self.y.size, self.t.size, self.p.size}
        if len(ns) != 1:
            raise ValueError(f"event field arrays disagree in length: {sorted(ns)}")

    def _adopt(self, **fields: np.ndarray) -> "EventStream":
        """This stream with the named event fields replaced by arrays the
        caller has just built and keeps no other reference to. They are
        frozen in place, not copied; the other fields are shared."""
        out = copy.copy(self)
        out._hold(fields)
        return out

    @property
    def n(self) -> int:
        return self.t.size

    @property
    def duration(self) -> int:
        return self.t_end - self.t_start

    def with_fields(self, **kw) -> "EventStream":
        return replace(self, **kw)


def _violations(stream: EventStream) -> Iterator[Violation]:
    """Every broken invariant, lazily, in rule order: geometry, interval,
    x, y, t range, polarity, unsorted; per-event rules by event index."""
    if stream.width <= 0 or stream.height <= 0:
        yield Violation("geometry", None,
                        f"non-positive sensor size {stream.width}x{stream.height}")
    if stream.duration <= 0:
        yield Violation("interval", None,
                        f"t_end ({stream.t_end}) must exceed t_start ({stream.t_start})")
    if _events_valid(stream):
        return
    x, y, t, p = stream.x, stream.y, stream.t, stream.p
    for idx in np.flatnonzero((x < 0) | (x >= stream.width)):
        yield Violation("x_bounds", int(idx), f"x={x[idx]} outside [0, {stream.width})")
    for idx in np.flatnonzero((y < 0) | (y >= stream.height)):
        yield Violation("y_bounds", int(idx), f"y={y[idx]} outside [0, {stream.height})")
    for idx in np.flatnonzero((t < stream.t_start) | (t >= stream.t_end)):
        yield Violation("t_range", int(idx),
                        f"t={t[idx]} outside [{stream.t_start}, {stream.t_end})")
    for idx in np.flatnonzero(np.abs(p) != 1):
        yield Violation("polarity", int(idx), f"p={p[idx]} not in {{-1, +1}}")
    if t.size > 1:
        for idx in np.flatnonzero(np.diff(t) < 0):
            yield Violation("unsorted", int(idx) + 1,
                            f"t={t[idx + 1]} after t={t[idx]}: timestamps regress")


def _events_valid(stream: EventStream) -> bool:
    """Whether no event breaks a per-event rule, from extremes alone: sorted
    timestamps put the smallest first and the largest last."""
    x, y, t, p = stream.x, stream.y, stream.t, stream.p
    if not t.size:
        return True
    return bool(0 <= x.min() and x.max() < stream.width
                and 0 <= y.min() and y.max() < stream.height
                and (t[1:] >= t[:-1]).all()
                and stream.t_start <= t[0] and t[-1] < stream.t_end
                and -1 <= p.min() and p.max() <= 1 and np.count_nonzero(p) == p.size)


def validate(stream: EventStream) -> list[Violation]:
    """Diagnose every broken invariant; empty list means the stream is valid."""
    return list(_violations(stream))


def require_valid(stream: EventStream) -> None:
    violations = validate(stream)
    if violations:
        raise InvalidStreamError(violations)


def event_bins(stream: EventStream, time_bins: int) -> np.ndarray:
    """Bin index per event: floor((t - t_start) * T / duration), at most T-1
    because a valid stream (``require_valid``, which callers run first) has
    every t < t_end.

    Integer multiply-before-divide, so no float drift for any microsecond
    scale; a stream whose duration times T leaves int64 is refused.
    """
    if stream.duration * time_bins > _INT64_MAX:
        raise InvalidStreamError([Violation("interval", None, f"duration {stream.duration} "
                                            f"x {time_bins} time bins exceeds int64")])
    b = stream.t - stream.t_start
    b *= time_bins
    b //= stream.duration
    return b


def voxelize(stream: EventStream, time_bins: int) -> np.ndarray:
    """Discretize a valid stream into T binary per-polarity frames, a
    C-contiguous uint8 (T, 2, H, W) array: ``voxelize_set``'s one-stream case."""
    return voxelize_set([stream], time_bins)[0]


def voxelize_set(streams: Sequence[EventStream],
                 time_bins: Annotated[int, Bound(1)]) -> np.ndarray:
    """The network batch of a non-empty list of valid streams that share the
    first one's geometry: (N, T, 2, H, W) uint8 over (T, 2, H, W, N) memory,
    the batch-innermost order in which ``forward``'s first conv reads each
    step's frame as it is.

    Cell [n, b, ch, y, x] is 1 iff at least one event of stream n with that
    polarity falls in spatial cell (x, y) during time bin b; repeats saturate
    at 1. Each event is set through one flat index into the buffer.
    """
    keep_heap()
    bounded(voxelize_set, {"time_bins": time_bins}, "", ValueError)
    if not streams:
        raise ValueError("voxelize_set needs at least one stream")
    height, width = streams[0].height, streams[0].width
    out = np.zeros((time_bins, 2, height, width, len(streams)), dtype=np.uint8)
    s_t, s_c, s_y, s_x, _ = out.strides  # bytes, which are elements of uint8
    cells = out.reshape(-1)
    for n, stream in enumerate(streams):
        require_valid(stream)
        if (stream.height, stream.width) != (height, width):
            raise ValueError(f"a {stream.width}x{stream.height} stream does not voxelize "
                             f"into uint8 frames of shape {out.shape[:4]}")
        flat = event_bins(stream, time_bins)
        flat *= s_t
        flat += (stream.p < 0) * s_c  # channel NEG_CHANNEL = 1, POS_CHANNEL = 0
        flat += stream.y * s_y
        flat += stream.x * s_x
        flat += n
        cells[flat] = 1
    return out.transpose(4, 0, 1, 2, 3)


def devoxelize_counts(stream: EventStream, time_bins: Annotated[int, Bound(1)]) -> np.ndarray:
    """Per-bin event counts; sums to N. Companion oracle for ``voxelize``."""
    bounded(devoxelize_counts, {"time_bins": time_bins}, "", ValueError)
    require_valid(stream)
    return np.bincount(event_bins(stream, time_bins), minlength=time_bins).astype(np.int64)
