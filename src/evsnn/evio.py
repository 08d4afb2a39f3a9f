"""Binary event files and dataset manifests.

Wire format (little-endian):
    magic "EVT1"  4 bytes
    width         u16
    height        u16
    t_start       u64
    t_end         u64
    label         i32   (-1 = unlabeled)
    n_events      u64
    records       n_events x {x: u16, y: u16, t: u64, p: i8}   (13 bytes each)

save followed by load is a bit-exact round trip for any valid stream.

``load_events`` itself checks only what a file alone can get wrong: a short
header, a bad magic, truncated records and trailing bytes. Every other rule
is ``events.validate``'s, run on the stream the records make. A file that
breaks several rules is reported at the first fault in validate's order
(geometry, interval, x, y, t, polarity, unsorted), with the byte offset of
the header or record field that holds it.

``load_manifest`` reads a manifest against ``_manifest`` and ``ManifestEntry``
(see ``_schema``); every fault of a manifest is a ``SchemaError``.
"""

from __future__ import annotations

import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ._heap import keep_heap
from ._schema import SchemaError, checked, dumps, loads
from .events import EventStream, _violations, require_valid

MAGIC = b"EVT1"
_HEADER = struct.Struct("<4sHHQQiQ")
HEADER_SIZE = _HEADER.size  # 36
RECORD_DTYPE = np.dtype([("x", "<u2"), ("y", "<u2"), ("t", "<u8"), ("p", "i1")])
RECORD_SIZE = RECORD_DTYPE.itemsize  # 13
# where each rule of events.validate lives in a file: a header offset for the
# stream-level rules, a record field for the per-event ones
_HEADER_OFFSET = {"geometry": 4, "interval": 16}
_RECORD_FIELD = {"x_bounds": "x", "y_bounds": "y", "t_range": "t", "unsorted": "t",
                 "polarity": "p"}


class EventFileError(ValueError):
    """Malformed event file; ``offset`` points at the offending byte."""

    def __init__(self, message: str, offset: int):
        self.offset = offset
        super().__init__(f"{message} (byte offset {offset})")


def save_events(stream: EventStream, path: str | Path) -> None:
    require_valid(stream)
    if stream.width > 0xFFFF or stream.height > 0xFFFF:
        raise ValueError("sensor geometry exceeds u16 range")
    label = -1 if stream.label is None else int(stream.label)
    recs = np.empty(stream.n, dtype=RECORD_DTYPE)
    recs["x"] = stream.x
    recs["y"] = stream.y
    recs["t"] = stream.t
    recs["p"] = stream.p
    header = _HEADER.pack(MAGIC, stream.width, stream.height,
                          stream.t_start, stream.t_end, label, stream.n)
    Path(path).write_bytes(header + recs.tobytes())


def load_events(path: str | Path) -> EventStream:
    keep_heap()
    raw = Path(path).read_bytes()
    if len(raw) < HEADER_SIZE:
        raise EventFileError(f"truncated header: {len(raw)} of {HEADER_SIZE} bytes", len(raw))
    magic, width, height, t_start, t_end, label, n = _HEADER.unpack_from(raw, 0)
    if magic != MAGIC:
        raise EventFileError(f"bad magic {magic!r}, expected {MAGIC!r}", 0)
    body = raw[HEADER_SIZE:]
    want = n * RECORD_SIZE
    if len(body) < want:
        raise EventFileError(
            f"truncated records: header promises {n}, payload holds {len(body) // RECORD_SIZE}",
            HEADER_SIZE + len(body))
    if len(body) > want:
        raise EventFileError(f"{len(body) - want} trailing bytes after {n} records",
                             HEADER_SIZE + want)
    recs = np.frombuffer(body, dtype=RECORD_DTYPE, count=n)
    stream = EventStream(
        x=recs["x"], y=recs["y"], t=recs["t"], p=recs["p"],
        width=width, height=height, t_start=t_start, t_end=t_end,
        label=None if label < 0 else label,
    )
    v = next(_violations(stream), None)
    if v is None:
        return stream
    if v.index is None:
        raise EventFileError(f"{v.rule}: {v.detail}", _HEADER_OFFSET[v.rule])
    field_offset = RECORD_DTYPE.fields[_RECORD_FIELD[v.rule]][1]
    raise EventFileError(f"{v.rule}: {v.detail} at record {v.index}",
                         HEADER_SIZE + v.index * RECORD_SIZE + field_offset)


@dataclass(frozen=True)
class ManifestEntry:
    file: str
    label: int
    width: int
    height: int
    duration: int


@dataclass(frozen=True)
class DatasetManifest:
    """Index of a dataset directory: event files, labels, class names."""

    root: Path
    entries: tuple[ManifestEntry, ...]
    class_names: tuple[str, ...]

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    def __post_init__(self):
        geoms = {(e.width, e.height, e.duration) for e in self.entries}
        if len(geoms) > 1:
            raise SchemaError(f"samples differ in geometry: {sorted(geoms)}")
        for e in self.entries:
            if not 0 <= e.label < self.num_classes:
                raise SchemaError(f"label {e.label} of {e.file} outside [0, {self.num_classes})")

    def path(self, entry: ManifestEntry) -> Path:
        return Path(self.root) / entry.file

    def load(self, index: int) -> EventStream:
        entry = self.entries[index]
        stream = load_events(self.path(entry))
        if (stream.width, stream.height) != (entry.width, entry.height):
            raise SchemaError(f"{self.path(entry)} holds a {stream.width}x{stream.height} "
                              f"stream, its manifest entry says {entry.width}x{entry.height}")
        return stream

    def to_json(self) -> str:
        doc = {"version": 1, "classes": list(self.class_names),
               "samples": [asdict(e) for e in self.entries]}
        return dumps(doc)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json())


def _manifest(version: int, classes: list, samples: list): ...  # a manifest's top level


def load_manifest(path: str | Path) -> DatasetManifest:
    path = Path(path)
    doc = checked(_manifest, loads(path.read_bytes(), str(path)), str(path))
    if doc["version"] != 1:
        raise SchemaError(f"unsupported manifest version {doc['version']!r} in {path}")
    if not doc["samples"]:
        raise SchemaError(f"{path}: no samples")
    entries = tuple(ManifestEntry(**checked(ManifestEntry, s, f"{path}: sample {i}"))
                    for i, s in enumerate(doc["samples"]))
    return DatasetManifest(root=path.parent, entries=entries, class_names=tuple(doc["classes"]))
