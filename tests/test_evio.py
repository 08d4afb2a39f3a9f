"""Binary event file round trips, corruption offsets, manifest schema."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evsnn.evio import (
    HEADER_SIZE,
    MAGIC,
    RECORD_DTYPE,
    RECORD_SIZE,
    DatasetManifest,
    EventFileError,
    ManifestEntry,
    load_events,
    load_manifest,
    save_events,
)

from evsnn import events
from evsnn.events import EventStream, validate

from conftest import make_stream, random_stream, stream_strategy

# packed record layout: x@0 y@2 t@4 p@12
OFF_X, OFF_Y, OFF_T, OFF_P = 0, 2, 4, 12


def roundtrip(stream, tmp_path):
    path = tmp_path / "s.evt"
    save_events(stream, path)
    return load_events(path), path


class TestRoundTrip:
    def test_sizes(self):
        assert HEADER_SIZE == 36
        assert RECORD_SIZE == 13

    def test_exact(self, tmp_path, rng):
        s = random_stream(rng, n=500, label=3)
        out, _ = roundtrip(s, tmp_path)
        np.testing.assert_array_equal(out.x, s.x)
        np.testing.assert_array_equal(out.y, s.y)
        np.testing.assert_array_equal(out.t, s.t)
        np.testing.assert_array_equal(out.p, s.p)
        assert (out.width, out.height) == (s.width, s.height)
        assert (out.t_start, out.t_end) == (s.t_start, s.t_end)
        assert out.label == 3

    def test_save_is_deterministic(self, tmp_path, rng):
        s = random_stream(rng, n=64)
        p1 = tmp_path / "a.evt"
        p2 = tmp_path / "b.evt"
        save_events(s, p1)
        save_events(s, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_load_save_load_bytes(self, tmp_path, rng):
        # second generation file is byte-identical to the first
        s = random_stream(rng, n=128, label=1)
        out, path = roundtrip(s, tmp_path)
        path2 = tmp_path / "again.evt"
        save_events(out, path2)
        assert path2.read_bytes() == path.read_bytes()

    def test_unlabeled(self, tmp_path):
        s = make_stream(x=[1], y=[1], t=[5], p=[1], label=None)
        out, path = roundtrip(s, tmp_path)
        assert out.label is None
        # on disk the sentinel is -1
        raw = path.read_bytes()
        (label,) = struct.unpack_from("<i", raw, 24)
        assert label == -1

    def test_empty_stream(self, tmp_path):
        s = make_stream(x=[], y=[], t=[], p=[])
        out, path = roundtrip(s, tmp_path)
        assert out.n == 0
        assert len(path.read_bytes()) == HEADER_SIZE

    def test_file_size(self, tmp_path, rng):
        s = random_stream(rng, n=77)
        _, path = roundtrip(s, tmp_path)
        assert len(path.read_bytes()) == HEADER_SIZE + 77 * RECORD_SIZE

    def test_invalid_stream_rejected_on_save(self, tmp_path):
        s = make_stream(x=[99], y=[0], t=[5], p=[1], width=12)
        with pytest.raises(Exception):
            save_events(s, tmp_path / "bad.evt")

    def test_oversized_geometry(self, tmp_path):
        s = make_stream(x=[0], y=[0], t=[5], p=[1], width=0x10000, height=8)
        with pytest.raises(ValueError, match="u16"):
            save_events(s, tmp_path / "big.evt")

    @settings(max_examples=40, deadline=None)
    @given(s=stream_strategy())
    def test_roundtrip_property(self, s, tmp_path_factory):
        path = tmp_path_factory.mktemp("rt") / "s.evt"
        save_events(s, path)
        out = load_events(path)
        np.testing.assert_array_equal(out.x, s.x)
        np.testing.assert_array_equal(out.y, s.y)
        np.testing.assert_array_equal(out.t, s.t)
        np.testing.assert_array_equal(out.p, s.p)
        assert out.label == s.label


class TestCorruption:
    """Each corruption is reported with the byte offset of the problem."""

    @pytest.fixture
    def good(self, tmp_path, rng):
        s = random_stream(rng, n=10, width=12, height=10, label=0)
        path = tmp_path / "good.evt"
        save_events(s, path)
        return path, bytearray(path.read_bytes())

    def _expect(self, tmp_path, raw, offset, match=None):
        path = tmp_path / "bad.evt"
        path.write_bytes(bytes(raw))
        with pytest.raises(EventFileError, match=match) as exc:
            load_events(path)
        assert exc.value.offset == offset

    def test_truncated_header(self, tmp_path, good):
        _, raw = good
        self._expect(tmp_path, raw[:20], 20, match="truncated header")

    def test_bad_magic(self, tmp_path, good):
        _, raw = good
        raw[:4] = b"EVT9"
        self._expect(tmp_path, raw, 0, match="magic")

    def test_zero_width(self, tmp_path, good):
        _, raw = good
        raw[4:6] = struct.pack("<H", 0)
        self._expect(tmp_path, raw, 4, match="sensor size")

    def test_empty_interval(self, tmp_path, good):
        _, raw = good
        # t_end := t_start
        raw[16:24] = raw[8:16]
        self._expect(tmp_path, raw, 16, match="interval")

    def test_truncated_records(self, tmp_path, good):
        _, raw = good
        cut = raw[: HEADER_SIZE + 3 * RECORD_SIZE + 5]
        self._expect(tmp_path, cut, len(cut), match="truncated records")

    def test_trailing_bytes(self, tmp_path, good):
        _, raw = good
        self._expect(tmp_path, raw + b"\x00\x00", len(raw), match="trailing")

    def test_bad_polarity(self, tmp_path, good):
        _, raw = good
        i = 4
        raw[HEADER_SIZE + i * RECORD_SIZE + OFF_P] = 7
        self._expect(tmp_path, raw, HEADER_SIZE + i * RECORD_SIZE + OFF_P,
                     match="polarity")

    def test_x_out_of_bounds(self, tmp_path, good):
        _, raw = good
        i = 2
        base = HEADER_SIZE + i * RECORD_SIZE
        raw[base + OFF_X:base + OFF_X + 2] = struct.pack("<H", 999)
        self._expect(tmp_path, raw, base + OFF_X, match="x=999")

    def test_y_out_of_bounds(self, tmp_path, good):
        _, raw = good
        i = 7
        base = HEADER_SIZE + i * RECORD_SIZE
        raw[base + OFF_Y:base + OFF_Y + 2] = struct.pack("<H", 999)
        self._expect(tmp_path, raw, base + OFF_Y, match="y=999")

    def test_t_out_of_range(self, tmp_path, good):
        path, raw = good
        s = load_events(path)
        i = 5
        base = HEADER_SIZE + i * RECORD_SIZE
        raw[base + OFF_T:base + OFF_T + 8] = struct.pack("<Q", s.t_end + 100)
        self._expect(tmp_path, raw, base + OFF_T, match="outside")

    def test_unsorted(self, tmp_path, good):
        path, raw = good
        s = load_events(path)
        # force a regression between records 3 and 4; record 4 is the offender
        b3 = HEADER_SIZE + 3 * RECORD_SIZE + OFF_T
        b4 = HEADER_SIZE + 4 * RECORD_SIZE + OFF_T
        raw[b3:b3 + 8] = struct.pack("<Q", s.t_end - 1)
        raw[b4:b4 + 8] = struct.pack("<Q", s.t_start)
        self._expect(tmp_path, raw, b4, match="regress at record 4")

    def test_unsorted_fixed_case(self, tmp_path):
        header = struct.pack("<4sHHQQiQ", MAGIC, 8, 8, 0, 100, -1, 3)
        recs = np.zeros(3, dtype=np.dtype([("x", "<u2"), ("y", "<u2"),
                                           ("t", "<u8"), ("p", "i1")]))
        recs["x"] = [0, 1, 2]
        recs["t"] = [10, 30, 20]
        recs["p"] = 1
        path = tmp_path / "u.evt"
        path.write_bytes(header + recs.tobytes())
        with pytest.raises(EventFileError, match="record 2") as exc:
            load_events(path)
        assert exc.value.offset == HEADER_SIZE + 2 * RECORD_SIZE + OFF_T


@st.composite
def raw_event_file(draw, max_events: int = 6):
    """Header fields and records drawn around their valid range: a header
    that may hold a zero side or an empty interval, and records whose x, y,
    t and p may fall just outside it or out of order."""
    width = draw(st.integers(0, 4))
    height = draw(st.integers(0, 4))
    t_start = draw(st.integers(0, 20))
    t_end = draw(st.integers(max(0, t_start - 2), t_start + 20))
    n = draw(st.integers(0, max_events))

    def column(elements):
        return draw(st.lists(elements, min_size=n, max_size=n))

    fields = {
        "x": column(st.integers(0, width + 1)),
        "y": column(st.integers(0, height + 1)),
        "t": column(st.integers(max(0, t_start - 2), t_end + 2)),
        "p": column(st.sampled_from([-1, 1, -1, 1, 0, 2, -128, 127])),
    }
    if draw(st.booleans()):
        fields["t"].sort()
    return (width, height, t_start, t_end), fields


class TestAgreesWithValidate:
    """load_events rejects a file exactly when events.validate finds a fault
    in the same fields, and points at the field of validate's first one."""

    HEADER_OFFSET = {"geometry": 4, "interval": 16}
    RECORD_FIELD = {"x_bounds": OFF_X, "y_bounds": OFF_Y, "t_range": OFF_T,
                    "unsorted": OFF_T, "polarity": OFF_P}

    @settings(max_examples=300, deadline=None)
    @given(drawn=raw_event_file())
    def test_same_verdict_and_offset(self, drawn, tmp_path_factory):
        (width, height, t_start, t_end), fields = drawn
        n = len(fields["x"])
        recs = np.zeros(n, dtype=RECORD_DTYPE)
        for name, values in fields.items():
            recs[name] = values
        path = tmp_path_factory.mktemp("agree") / "s.evt"
        path.write_bytes(struct.pack("<4sHHQQiQ", MAGIC, width, height, t_start,
                                     t_end, 2, n) + recs.tobytes())
        violations = validate(EventStream(width=width, height=height, t_start=t_start,
                                          t_end=t_end, label=2, **fields))
        if not violations:
            out = load_events(path)
            for name, values in fields.items():
                np.testing.assert_array_equal(getattr(out, name), values)
            assert out.label == 2
            return
        first = violations[0]
        if first.index is None:
            offset = self.HEADER_OFFSET[first.rule]
        else:
            offset = HEADER_SIZE + first.index * RECORD_SIZE + self.RECORD_FIELD[first.rule]
        with pytest.raises(EventFileError, match=first.rule) as exc:
            load_events(path)
        assert exc.value.offset == offset


class TestFirstViolationOnly:
    """load_events reports only the first fault, so it builds no Violation
    beyond it: a header of width 0 puts every record out of x bounds, yet
    the file costs one Violation."""

    def test_one_violation_built(self, tmp_path, rng, monkeypatch):
        path = tmp_path / "s.evt"
        save_events(random_stream(rng, n=50_000, width=12, height=10), path)
        raw = bytearray(path.read_bytes())
        raw[4:6] = struct.pack("<H", 0)
        path.write_bytes(bytes(raw))
        built = []

        class Counted(events.Violation):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(events, "Violation", Counted)
        with pytest.raises(EventFileError) as exc:
            load_events(path)
        assert len(built) == 1
        assert str(exc.value) == "geometry: non-positive sensor size 0x10 (byte offset 4)"
        assert exc.value.offset == 4
        # validate still lists every fault, the header's and each record's
        stream = EventStream(x=[0, 3], y=[0, 0], t=[0, 1], p=[1, 1], width=0, height=10,
                             t_start=0, t_end=2)
        assert [v.rule for v in validate(stream)] == ["geometry", "x_bounds", "x_bounds"]


class TestManifest:
    def build(self, tmp_path, n=4):
        entries = tuple(
            ManifestEntry(file=f"c{i % 2}_{i}.evt", label=i % 2, width=12,
                          height=10, duration=100)
            for i in range(n)
        )
        return DatasetManifest(root=tmp_path, entries=entries,
                               class_names=("a", "b"))

    def test_roundtrip(self, tmp_path):
        m = self.build(tmp_path)
        path = tmp_path / "manifest.json"
        m.save(path)
        out = load_manifest(path)
        assert out.entries == m.entries
        assert out.class_names == m.class_names
        assert out.root == tmp_path
        assert out.num_classes == 2

    def test_json_is_sorted_and_stable(self, tmp_path):
        m = self.build(tmp_path)
        assert m.to_json() == m.to_json()
        doc = json.loads(m.to_json())
        assert set(doc) == {"version", "classes", "samples"}
        assert doc["version"] == 1

    def test_inconsistent_geometry(self, tmp_path):
        entries = (
            ManifestEntry(file="a.evt", label=0, width=12, height=10, duration=100),
            ManifestEntry(file="b.evt", label=0, width=16, height=10, duration=100),
        )
        with pytest.raises(ValueError, match="geometry"):
            DatasetManifest(root=tmp_path, entries=entries, class_names=("a",))

    def test_label_out_of_range(self, tmp_path):
        entries = (
            ManifestEntry(file="a.evt", label=2, width=12, height=10, duration=100),
        )
        with pytest.raises(ValueError, match="label 2"):
            DatasetManifest(root=tmp_path, entries=entries, class_names=("a", "b"))

    def test_bad_version(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"version": 2, "classes": [], "samples": []}))
        with pytest.raises(ValueError, match="version"):
            load_manifest(path)

    def test_path_resolution(self, tmp_path):
        m = self.build(tmp_path)
        assert m.path(m.entries[0]) == tmp_path / "c0_0.evt"

    def test_load_entry(self, tmp_path, rng):
        s = random_stream(rng, n=20, width=12, height=10, label=0)
        save_events(s, tmp_path / "c0_0.evt")
        m = DatasetManifest(
            root=tmp_path,
            entries=(ManifestEntry(file="c0_0.evt", label=0, width=12, height=10,
                                   duration=int(s.t_end - s.t_start)),),
            class_names=("a",),
        )
        out = m.load(0)
        np.testing.assert_array_equal(out.t, s.t)
