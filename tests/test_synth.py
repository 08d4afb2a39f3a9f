"""Synthetic dataset generator: determinism, validity, class design."""

import numpy as np
import pytest

from evsnn._schema import SchemaError
from evsnn.events import validate
from evsnn.evio import load_manifest
from evsnn import synth
from evsnn.synth import (
    DEFAULT_TEMPLATES,
    SynthParams,
    generate_dataset,
    synth_generate,
    write_dataset,
)

FAST = SynthParams(events_per_sample=1500, duration=100_000)


def radial(stream):
    cx, cy = stream.width / 2, stream.height / 2
    return np.hypot(stream.x - cx, stream.y - cy)


class TestGenerate:
    def test_deterministic(self):
        a = synth_generate(0, FAST, seed=7)
        b = synth_generate(0, FAST, seed=7)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.t, b.t)
        np.testing.assert_array_equal(a.p, b.p)

    def test_seed_matters(self):
        a = synth_generate(0, FAST, seed=7)
        b = synth_generate(0, FAST, seed=8)
        assert a.n != b.n or not np.array_equal(a.t, b.t)

    @pytest.mark.parametrize("c", range(4))
    def test_valid_and_labeled(self, c):
        s = synth_generate(c, FAST, seed=11)
        assert validate(s) == []
        assert s.label == c
        assert (s.width, s.height) == (FAST.width, FAST.height)
        assert (s.t_start, s.t_end) == (0, FAST.duration)

    @pytest.mark.parametrize("c", range(4))
    def test_count_envelope(self, c):
        # signal count within the jitter band, plus the proportional noise
        s = synth_generate(c, FAST, seed=3)
        n_sig_lo = round(FAST.events_per_sample * (1 - FAST.count_jitter))
        n_sig_hi = round(FAST.events_per_sample * (1 + FAST.count_jitter))
        lo = n_sig_lo + round(FAST.noise_ratio * n_sig_lo) - 1
        hi = n_sig_hi + round(FAST.noise_ratio * n_sig_hi) + 1
        assert lo <= s.n <= hi

    def test_bad_class(self):
        with pytest.raises(ValueError, match="class_id"):
            synth_generate(4, FAST, seed=0)
        with pytest.raises(ValueError, match="class_id"):
            synth_generate(-1, FAST, seed=0)

    def test_unknown_template(self):
        with pytest.raises(ValueError, match="unknown template"):
            SynthParams(templates=("ring_expand", "spiral"))

    def test_geometry_must_hold_bar_templates(self):
        # a bar sweeps between margins on both axes: 2 * bar_margin per side
        with pytest.raises(ValueError, match="bar templates"):
            SynthParams(width=8, height=8)
        with pytest.raises(ValueError, match="bar templates"):
            SynthParams(width=64, height=15)
        SynthParams(width=16, height=16)
        # without the bar templates the margin does not apply
        rings = SynthParams(width=8, height=8, templates=DEFAULT_TEMPLATES[:2],
                            events_per_sample=200, duration=10_000)
        assert validate(synth_generate(0, rings, seed=0)) == []

    def test_empty_extent_rejected(self):
        for bad in (dict(width=0), dict(height=-1), dict(duration=0)):
            with pytest.raises(ValueError, match=">= 1"):
                SynthParams(templates=("static",), **bad)

    @pytest.mark.parametrize("events", [0, -5])
    def test_event_count_below_one_rejected(self, events):
        with pytest.raises(ValueError, match="events_per_sample"):
            SynthParams(events_per_sample=events)

    def test_static_template(self):
        p = SynthParams(templates=("static",), events_per_sample=800,
                        duration=50_000)
        s = synth_generate(0, p, seed=5)
        assert validate(s) == []
        # no temporal drift: early and late radial means agree
        early = radial(s)[s.t < 0.2 * p.duration]
        late = radial(s)[s.t > 0.8 * p.duration]
        assert abs(early.mean() - late.mean()) < 1.5


class TestClassDesign:
    """Rings 0/1 differ only in time order; bars 2/3 differ in sweep axis."""

    def test_ring_expand_grows(self):
        s = synth_generate(0, FAST, seed=21)
        r = radial(s)
        early = r[s.t < 0.2 * FAST.duration].mean()
        late = r[s.t > 0.8 * FAST.duration].mean()
        assert early + 5.0 < late

    def test_ring_contract_shrinks(self):
        s = synth_generate(1, FAST, seed=21)
        r = radial(s)
        early = r[s.t < 0.2 * FAST.duration].mean()
        late = r[s.t > 0.8 * FAST.duration].mean()
        assert late + 5.0 < early

    def test_rings_share_spatial_stats(self):
        # pooled over all time the two ring classes look alike
        a = np.concatenate([radial(synth_generate(0, FAST, seed=s))
                            for s in range(6)])
        b = np.concatenate([radial(synth_generate(1, FAST, seed=s))
                            for s in range(6)])
        assert abs(a.mean() - b.mean()) < 1.0
        assert abs(a.std() - b.std()) < 1.0

    def test_bar_h_sweeps_in_x(self):
        s = synth_generate(2, FAST, seed=13)
        cx = abs(np.corrcoef(s.t, s.x)[0, 1])
        cy = abs(np.corrcoef(s.t, s.y)[0, 1])
        assert cx > 0.8
        assert cy < 0.3

    def test_bar_v_sweeps_in_y(self):
        s = synth_generate(3, FAST, seed=13)
        cx = abs(np.corrcoef(s.t, s.x)[0, 1])
        cy = abs(np.corrcoef(s.t, s.y)[0, 1])
        assert cy > 0.8
        assert cx < 0.3


class TestDataset:
    def test_class_major_order(self):
        p = SynthParams(events_per_sample=200, duration=10_000)
        streams = generate_dataset(p, samples_per_class=3, seed=0)
        assert [s.label for s in streams] == [0] * 3 + [1] * 3 + [2] * 3 + [3] * 3

    def test_samples_distinct(self):
        p = SynthParams(events_per_sample=200, duration=10_000)
        streams = generate_dataset(p, samples_per_class=2, seed=0)
        a, b = streams[0], streams[1]
        assert a.n != b.n or not np.array_equal(a.t, b.t)

    def test_write_idempotent(self, tmp_path):
        p = SynthParams(events_per_sample=200, duration=10_000)
        d1 = tmp_path / "one"
        d2 = tmp_path / "two"
        write_dataset(d1, p, samples_per_class=2, seed=9)
        write_dataset(d2, p, samples_per_class=2, seed=9)
        files = sorted(f.name for f in d1.iterdir())
        assert files == sorted(f.name for f in d2.iterdir())
        for name in files:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
        # rewriting in place leaves bytes unchanged
        before = {f.name: f.read_bytes() for f in d1.iterdir()}
        write_dataset(d1, p, samples_per_class=2, seed=9)
        after = {f.name: f.read_bytes() for f in d1.iterdir()}
        assert before == after

    def test_manifest_matches_files(self, tmp_path):
        p = SynthParams(events_per_sample=200, duration=10_000)
        m = write_dataset(tmp_path, p, samples_per_class=2, seed=9)
        assert m.class_names == DEFAULT_TEMPLATES
        assert len(m.entries) == 8
        loaded = load_manifest(tmp_path / "manifest.json")
        assert loaded.entries == m.entries
        for i, e in enumerate(loaded.entries):
            s = loaded.load(i)
            assert s.label == e.label
            assert validate(s) == []


class TestTimeOrder:
    """The event order is the stable argsort of the timestamps, from one
    unstable sort of the keys t * n + i where they fit int64."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("duration", [1, 2, 7, 100, 52_500, 600_000])
    def test_equals_stable_argsort(self, seed, duration):
        # at small durations nearly every timestamp is tied
        t = np.random.default_rng(seed).integers(0, duration, size=52_500, dtype=np.int64)
        want = np.argsort(t, kind="stable")
        assert np.array_equal(synth._time_order(t, duration), want)

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_short(self, n):
        t = np.zeros(n, dtype=np.int64)
        assert np.array_equal(synth._time_order(t, 10), np.arange(n))

    @pytest.mark.parametrize("duration", [(2**63 - 1) // 1000, (2**63 - 1) // 1000 + 1,
                                          2**63 - 1])
    def test_keys_at_and_beyond_int64(self, duration):
        # the largest duration whose keys fit, then the stable argsort past it
        t = np.random.default_rng(0).integers(duration - 50, duration, size=1000,
                                               dtype=np.int64)
        want = np.argsort(t, kind="stable")
        assert np.array_equal(synth._time_order(t, duration), want)

    def test_generate_at_the_largest_duration(self):
        stream = synth_generate(0, SynthParams(events_per_sample=300, duration=2**63 - 1),
                                seed=3)
        assert validate(stream) == []
        assert np.all(np.diff(stream.t) >= 0)


FLOAT_FIELDS = ("count_jitter", "noise_ratio", "edge_sigma", "ring_r_lo", "ring_r_hi",
                "ring_half_thickness", "bar_margin", "bar_half_thickness", "center_jitter",
                "static_radius")


class TestParamBounds:
    """Every float field is bounded, so a library caller gets a SchemaError naming
    the field instead of numpy's error from deep inside a draw."""

    @pytest.mark.parametrize("name", FLOAT_FIELDS)
    def test_negative_refused(self, name):
        with pytest.raises(SchemaError, match=f"^{name} must be >= 0, got -1$"):
            SynthParams(**{name: -1})

    @pytest.mark.parametrize("name", FLOAT_FIELDS)
    def test_nan_refused(self, name):
        with pytest.raises(SchemaError, match=f"^{name} must be .*, got nan$"):
            SynthParams(**{name: float("nan")})

    @pytest.mark.parametrize("name", FLOAT_FIELDS)
    def test_infinity_refused(self, name):
        with pytest.raises(SchemaError, match=f"^{name} must be <= .*, got inf$"):
            SynthParams(**{name: float("inf")})

    def test_count_jitter_at_most_one(self):
        SynthParams(count_jitter=1.0)
        with pytest.raises(SchemaError, match=r"^count_jitter must be <= 1, got 2\.0$"):
            SynthParams(count_jitter=2.0)

    def test_ring_radii_ordered(self):
        SynthParams(ring_r_lo=10.0, ring_r_hi=10.0)
        with pytest.raises(SchemaError, match="^ring_r_lo 24 must be <= ring_r_hi 6$"):
            SynthParams(ring_r_lo=24.0, ring_r_hi=6.0)

    def test_noise_count_past_a_sample_refused(self):
        with pytest.raises(SchemaError, match=r"^noise_ratio 1e\+20 draws up to \d+ noise "
                                              r"events beside 3300 signal events; a sample "
                                              r"holds at most 4294967295$"):
            SynthParams(noise_ratio=1e20)

    def test_largest_noise_ratio_that_fits(self):
        # 1000 signal events at most, so room for 2**32 - 1 - 1000 noise events
        SynthParams(events_per_sample=1000, count_jitter=0.0, noise_ratio=4294966.295)
        with pytest.raises(SchemaError, match="^noise_ratio 4.29497e[+]06 draws up to "
                                              "4294966296 noise events"):
            SynthParams(events_per_sample=1000, count_jitter=0.0, noise_ratio=4294966.296)

    def test_zero_samples_per_class_refused(self, tmp_path):
        with pytest.raises(SchemaError, match="^samples_per_class must be >= 1, got 0$"):
            generate_dataset(FAST, 0, seed=0)
        with pytest.raises(SchemaError, match="^samples_per_class must be >= 1, got 0$"):
            write_dataset(tmp_path / "ds", FAST, 0, seed=0)
        assert not (tmp_path / "ds").exists()
