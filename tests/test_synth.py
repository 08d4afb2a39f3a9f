"""Synthetic dataset generator: determinism, validity, class design."""

import numpy as np
import pytest

from evsnn.events import validate
from evsnn.evio import load_manifest
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
