"""The event path against references written the plain way, and who owns a
stream's arrays.

The references below select with boolean masks, reorder with a stable
argsort of the whole concatenation and scatter four index arrays at once.
Every transform, the pipeline, voxelize and validate must agree with them
bitwise: values, dtypes and the random draws consumed.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evsnn import _heap, augment, events, evio
from evsnn.augment import COMMON_EDAS, SPECIFIC_EDAS, AugmentSpec, RngStream, TransformSpec
from evsnn.events import EventStream, Violation, validate, voxelize

# ---------------------------------------------------------------------------
# references


def ref_resorted(stream, x, y, t, p):
    order = np.argsort(t, kind="stable")
    return stream.with_fields(x=x[order], y=y[order], t=t[order], p=p[order])


def ref_kept(stream, keep):
    return stream.with_fields(x=stream.x[keep], y=stream.y[keep],
                              t=stream.t[keep], p=stream.p[keep])


def ref_hflip(stream):
    return stream.with_fields(x=stream.width - 1 - stream.x)


def ref_polflip(stream):
    return stream.with_fields(p=-stream.p)


def ref_reverse(stream):
    t = stream.t_start + (stream.t_end - 1) - stream.t
    order = np.argsort(t, kind="stable")
    return stream.with_fields(x=stream.x[order], y=stream.y[order], t=t[order],
                              p=stream.p[order])


def ref_crop(stream, rng, scale_min=0.6, scale_max=1.0):
    s = rng.uniform(scale_min, scale_max)
    w = min(stream.width, max(1, round(stream.width * np.sqrt(s))))
    h = min(stream.height, max(1, round(stream.height * np.sqrt(s))))
    x0 = int(rng.integers(0, stream.width - w + 1))
    y0 = int(rng.integers(0, stream.height - h + 1))
    keep = ((stream.x >= x0) & (stream.x < x0 + w)
            & (stream.y >= y0) & (stream.y < y0 + h))
    return stream.with_fields(x=(stream.x[keep] - x0) * stream.width // w,
                              y=(stream.y[keep] - y0) * stream.height // h,
                              t=stream.t[keep], p=stream.p[keep])


def ref_noise(stream, rng, ratio=0.1):
    n_add = int(ratio * stream.n)
    if n_add == 0:
        return stream
    x = np.concatenate([stream.x, rng.integers(0, stream.width, n_add, dtype=np.int64)])
    y = np.concatenate([stream.y, rng.integers(0, stream.height, n_add, dtype=np.int64)])
    t = np.concatenate([stream.t, rng.integers(stream.t_start, stream.t_end, n_add,
                                               dtype=np.int64)])
    p = np.concatenate([stream.p, rng.integers(0, 2, n_add, dtype=np.int8) * 2 - 1])
    return ref_resorted(stream, x, y, t, p)


def ref_drop_by_time(stream, rng, ratio):
    dur = round(ratio * stream.duration)
    t0 = int(rng.integers(stream.t_start, stream.t_end - dur + 1))
    return ref_kept(stream, (stream.t < t0) | (stream.t >= t0 + dur))


def ref_drop_by_area(stream, rng, ratio):
    w = min(stream.width, max(1, round(stream.width * np.sqrt(ratio))))
    h = min(stream.height, max(1, round(stream.height * np.sqrt(ratio))))
    x0 = int(rng.integers(0, stream.width - w + 1))
    y0 = int(rng.integers(0, stream.height - h + 1))
    return ref_kept(stream, ~((stream.x >= x0) & (stream.x < x0 + w)
                              & (stream.y >= y0) & (stream.y < y0 + h)))


def ref_drop_random(stream, rng, ratio):
    return ref_kept(stream, rng.random(stream.n) >= ratio)


def ref_eventdrop(stream, rng):
    strategy = int(rng.integers(0, 4))
    if strategy == 0:
        return stream
    if strategy == 1:
        return ref_drop_by_time(stream, rng, rng.uniform(0.05, 0.3))
    if strategy == 2:
        return ref_drop_by_area(stream, rng, rng.uniform(0.05, 0.3))
    return ref_drop_random(stream, rng, rng.uniform(0.05, 0.5))


def ref_mirror(stream, rng):
    w = stream.width
    left = int(rng.integers(0, 2)) == 0
    center = (w - 1) // 2
    if w % 2 == 0:
        keep = stream.x < w // 2 if left else stream.x >= w // 2
    else:
        keep = stream.x <= center if left else stream.x >= center
    kx, ky, kt, kp = stream.x[keep], stream.y[keep], stream.t[keep], stream.p[keep]
    refl = kx != (w - 1 - kx)
    return ref_resorted(stream, np.concatenate([kx, w - 1 - kx[refl]]),
                        np.concatenate([ky, ky[refl]]), np.concatenate([kt, kt[refl]]),
                        np.concatenate([kp, kp[refl]]))


REF_TRANSFORMS = {
    "crop": ref_crop,
    "hflip": lambda stream, rng: ref_hflip(stream),
    "noise": ref_noise,
    "polflip": lambda stream, rng: ref_polflip(stream),
    "reverse": lambda stream, rng: ref_reverse(stream),
    "eventdrop": ref_eventdrop,
    "mirror": ref_mirror,
}


def ref_apply_pipeline(stream, spec, sample_index):
    rngs = RngStream(spec.seed, sample_index)
    for i, tr in enumerate(spec.transforms):
        rng = rngs.split(i)
        if rng.random() < tr.prob or tr.prob >= 1.0:
            stream = REF_TRANSFORMS[tr.kind](stream, rng, **tr.params)
    return stream


def ref_voxelize(stream, time_bins):
    out = np.zeros((time_bins, 2, stream.height, stream.width), dtype=np.uint8)
    if stream.n:
        rel = stream.t.astype(np.int64) - stream.t_start
        b = np.minimum((rel * time_bins) // stream.duration, time_bins - 1)
        ch = np.where(stream.p > 0, events.POS_CHANNEL, events.NEG_CHANNEL)
        out[b, ch, stream.y, stream.x] = 1
    return out


def ref_validate(stream):
    out = []
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


# ---------------------------------------------------------------------------
# inputs


@st.composite
def dense_streams(draw):
    """Valid streams of 0, 1 or many events on odd and even sides, with
    timestamps from a span as short as one tick, so ties are heavy."""
    width, height = draw(st.integers(1, 17)), draw(st.integers(1, 17))
    n = draw(st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 3000)))
    t_start = draw(st.integers(0, 10**6))
    duration = draw(st.integers(1, 5000))
    span = draw(st.sampled_from([1, 2, 7, duration]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    first = int(rng.integers(0, duration - min(span, duration) + 1))
    t = np.sort(rng.integers(first, first + min(span, duration), n)) + t_start
    return EventStream(x=rng.integers(0, width, n), y=rng.integers(0, height, n), t=t,
                       p=rng.integers(0, 2, n) * 2 - 1, width=width, height=height,
                       t_start=t_start, t_end=t_start + duration)


def assert_same(got, want):
    for name in ("x", "y", "t", "p"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    assert (got.width, got.height, got.t_start, got.t_end, got.label) == \
        (want.width, want.height, want.t_start, want.t_end, want.label)


TRANSFORM_CASES = {
    "crop": (augment.crop, ref_crop),
    "noise": (lambda s, r: augment.noise_ba(s, r, 0.3), lambda s, r: ref_noise(s, r, 0.3)),
    "reverse": (lambda s, r: augment.reverse(s), lambda s, r: ref_reverse(s)),
    "hflip": (lambda s, r: augment.hflip(s), lambda s, r: ref_hflip(s)),
    "polflip": (lambda s, r: augment.polflip(s), lambda s, r: ref_polflip(s)),
    "drop_by_time": (lambda s, r: augment.drop_by_time(s, r, 0.3),
                     lambda s, r: ref_drop_by_time(s, r, 0.3)),
    "drop_by_area": (lambda s, r: augment.drop_by_area(s, r, 0.3),
                     lambda s, r: ref_drop_by_area(s, r, 0.3)),
    "drop_random": (lambda s, r: augment.drop_random(s, r, 0.3),
                    lambda s, r: ref_drop_random(s, r, 0.3)),
    "eventdrop": (augment.eventdrop, ref_eventdrop),
    "mirror": (augment.mirror, ref_mirror),
}
ALL_KINDS = COMMON_EDAS + SPECIFIC_EDAS


# ---------------------------------------------------------------------------
# parity


class TestParity:
    @pytest.mark.parametrize("kind", sorted(TRANSFORM_CASES))
    @settings(max_examples=40, deadline=None)
    @given(stream=dense_streams(), seed=st.integers(0, 2**32 - 1))
    def test_transform(self, kind, stream, seed):
        fn, ref = TRANSFORM_CASES[kind]
        rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
        assert_same(fn(stream, rng_got), ref(stream, rng_want))
        assert rng_got.random() == rng_want.random()  # the same draws consumed

    @settings(max_examples=60, deadline=None)
    @given(stream=dense_streams(), seed=st.integers(0, 2**32 - 1),
           prob=st.sampled_from([0.5, 1.0]), time_bins=st.integers(1, 7))
    def test_pipeline_and_voxelize(self, stream, seed, prob, time_bins):
        spec = AugmentSpec(tuple(TransformSpec(kind, prob) for kind in ALL_KINDS), seed=seed)
        got = augment.apply_pipeline(stream, spec, sample_index=3)
        want = ref_apply_pipeline(stream, spec, sample_index=3)
        assert_same(got, want)
        vox = voxelize(got, time_bins)
        assert vox.dtype == np.uint8
        assert vox.tobytes() == ref_voxelize(want, time_bins).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(stream=dense_streams(), data=st.data())
    def test_validate(self, stream, data):
        fields = {name: getattr(stream, name).copy() for name in ("x", "y", "t", "p")}
        geometry = {"width": stream.width, "height": stream.height,
                    "t_start": stream.t_start, "t_end": stream.t_end}
        faults = data.draw(st.lists(st.sampled_from(
            ["x", "y", "t", "p", "regress", "geometry", "interval"]), min_size=1, max_size=4))
        for fault in faults:
            if fault == "geometry":
                geometry[data.draw(st.sampled_from(["width", "height"]))] = 0
            elif fault == "interval":
                geometry["t_end"] = geometry["t_start"] - data.draw(st.integers(0, 3))
            elif stream.n:
                i = data.draw(st.integers(0, stream.n - 1))
                if fault == "x":
                    fields["x"][i] = data.draw(st.sampled_from([-1, stream.width, 10**6]))
                elif fault == "y":
                    fields["y"][i] = data.draw(st.sampled_from([-1, stream.height]))
                elif fault == "t":
                    fields["t"][i] = data.draw(st.sampled_from(
                        [stream.t_start - 1, stream.t_end, stream.t_end + 100]))
                elif fault == "p":
                    fields["p"][i] = data.draw(st.sampled_from([0, 2, -2, 127, -128]))
                else:
                    fields["t"][i] -= data.draw(st.integers(1, 50))
        bad = EventStream(**fields, **geometry)
        assert validate(bad) == ref_validate(bad)

    def test_validate_valid_and_empty(self):
        stream = EventStream(x=[], y=[], t=[], p=[], width=3, height=3, t_start=0, t_end=1)
        assert validate(stream) == ref_validate(stream) == []
        empty_interval = stream.with_fields(t_end=0)
        assert validate(empty_interval) == ref_validate(empty_interval)


# ---------------------------------------------------------------------------
# ownership


class TestOwnership:
    def test_caller_arrays_copied(self):
        x = np.array([0, 1, 2])
        t = np.array([0, 5, 9])
        stream = EventStream(x=x, y=x, t=t, p=np.ones(3, dtype=np.int8), width=4,
                             height=4, t_start=0, t_end=10)
        x[:] = 3
        t[:] = 0
        assert stream.x.tolist() == [0, 1, 2] and stream.y.tolist() == [0, 1, 2]
        assert stream.t.tolist() == [0, 5, 9]
        other = stream.with_fields(x=x)
        x[:] = 1
        assert other.x.tolist() == [3, 3, 3]
        assert not other.x.flags.writeable

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @settings(max_examples=20, deadline=None)
    @given(stream=dense_streams(), seed=st.integers(0, 2**32 - 1))
    def test_results_read_only(self, kind, stream, seed):
        out = augment.TRANSFORMS[kind](stream, np.random.default_rng(seed))
        for name in ("x", "y", "t", "p"):
            arr = getattr(out, name)
            assert not arr.flags.writeable, name
            if arr.size:
                with pytest.raises(ValueError):
                    arr[0] = 0

    def test_unchanged_fields_shared(self):
        stream = EventStream(x=[0, 1], y=[1, 2], t=[3, 4], p=[1, -1], width=4, height=4,
                             t_start=0, t_end=10)
        flipped = augment.hflip(stream)
        assert all(a is b for a, b in zip((flipped.y, flipped.t, flipped.p),
                                          (stream.y, stream.t, stream.p)))
        assert augment.polflip(stream).x is stream.x
        assert flipped.x is not stream.x and flipped.x.tolist() == [3, 2]

    def test_adopt_checks_lengths(self):
        stream = EventStream(x=[0, 1], y=[1, 2], t=[3, 4], p=[1, -1], width=4, height=4,
                             t_start=0, t_end=10)
        with pytest.raises(ValueError, match="disagree"):
            stream._adopt(x=np.zeros(3, dtype=np.int64))


class TestKeepHeap:
    """Every entry point of the event path asks the C allocator, once per
    process, to keep freed memory: a data epoch allocates and frees arrays
    of the same sizes for every sample."""

    @pytest.fixture(autouse=True)
    def fresh_helper(self):
        _heap.keep_heap.cache_clear()
        yield
        _heap.keep_heap.cache_clear()  # the next caller sets the real one

    @pytest.mark.parametrize("entry", ["load_events", "apply_pipeline", "voxelize"])
    def test_set_on_entry(self, entry, tmp_path, monkeypatch):
        stream = EventStream(x=[0, 1], y=[1, 2], t=[3, 4], p=[1, -1], width=4, height=4,
                             t_start=0, t_end=10)
        evio.save_events(stream, tmp_path / "s.evt")
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(_heap.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
        run = {"load_events": lambda: evio.load_events(tmp_path / "s.evt"),
               "apply_pipeline": lambda: augment.apply_pipeline(stream, AugmentSpec(), 0),
               "voxelize": lambda: voxelize(stream, 2)}[entry]
        run()
        run()
        assert calls == [(_heap.M_TOP_PAD, 64 << 20), (_heap.M_MMAP_THRESHOLD, 32 << 20),
                         (_heap.M_ARENA_MAX, 1)]
