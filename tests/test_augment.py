"""Augmentation laws: involutions, frame-space oracles, postconditions."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings

from evsnn.augment import (
    COMMON_EDAS,
    SPECIFIC_EDAS,
    TRANSFORMS,
    AugmentSpec,
    TransformSpec,
    apply_pipeline,
    crop,
    drop_by_area,
    drop_by_time,
    drop_random,
    eventdrop,
    hflip,
    mirror,
    noise_ba,
    polflip,
    reverse,
)
from evsnn.events import validate, voxelize

from conftest import binsafe_stream, make_stream, random_stream, stream_strategy


def tuples(stream):
    return list(zip(stream.x.tolist(), stream.y.tolist(),
                    stream.t.tolist(), stream.p.tolist()))


def assert_streams_equal(a, b):
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.y, b.y)
    np.testing.assert_array_equal(a.t, b.t)
    np.testing.assert_array_equal(a.p, b.p)


class TestInvolutions:
    @settings(max_examples=60, deadline=None)
    @given(s=stream_strategy())
    def test_hflip(self, s):
        assert_streams_equal(hflip(hflip(s)), s)
        assert validate(hflip(s)) == []

    @settings(max_examples=60, deadline=None)
    @given(s=stream_strategy())
    def test_polflip(self, s):
        assert_streams_equal(polflip(polflip(s)), s)
        assert validate(polflip(s)) == []

    @settings(max_examples=60, deadline=None)
    @given(s=stream_strategy())
    def test_reverse(self, s):
        assert_streams_equal(reverse(reverse(s)), s)
        assert validate(reverse(s)) == []

    def test_reverse_hand_case(self):
        s = make_stream(x=[1, 2, 3], y=[0, 0, 0], t=[0, 10, 99], p=[1, -1, 1],
                        t_end=100)
        r = reverse(s)
        # t -> 99 - t, then resorted
        np.testing.assert_array_equal(r.t, [0, 89, 99])
        np.testing.assert_array_equal(r.x, [3, 2, 1])
        np.testing.assert_array_equal(r.p, [1, -1, 1])


class TestFrameOracles:
    """Voxel-grid images of the deterministic transforms."""

    def test_hflip_is_width_flip(self, rng):
        for _ in range(10):
            s = random_stream(rng, n=150)
            v = voxelize(s, 5)
            np.testing.assert_array_equal(voxelize(hflip(s), 5), v[..., ::-1])

    def test_polflip_is_channel_swap(self, rng):
        for _ in range(10):
            s = random_stream(rng, n=150)
            v = voxelize(s, 5)
            np.testing.assert_array_equal(voxelize(polflip(s), 5), v[:, ::-1])

    def test_reverse_is_bin_flip(self, rng):
        # timestamps strictly inside bins map bin b to bin T-1-b exactly
        for _ in range(10):
            s = binsafe_stream(rng, time_bins=6, n=150)
            v = voxelize(s, 6)
            np.testing.assert_array_equal(voxelize(reverse(s), 6), v[::-1])


class TestCrop:
    def test_identity_at_full_scale(self, rng):
        s = random_stream(rng, n=100)
        out = crop(s, np.random.default_rng(0), scale_min=1.0, scale_max=1.0)
        assert_streams_equal(out, s)

    def test_postconditions(self, rng):
        s = random_stream(rng, n=400)
        for k in range(50):
            out = crop(s, np.random.default_rng(k))
            assert validate(out) == []
            assert out.n <= s.n
            assert (out.width, out.height) == (s.width, s.height)
            # kept timestamps form a sub-multiset of the originals
            assert not Counter(out.t.tolist()) - Counter(s.t.tolist())

    def test_remap_hand_case(self):
        # scale 0.25 on a 12x8 sensor: window 6x4 at (2, 2);
        # x=2 -> (2-2)*12//6 = 0, x=7 -> (7-2)*12//6 = 10
        s = make_stream(x=[2, 7], y=[2, 3], t=[1, 2], p=[1, 1], width=12)

        class Fixed:
            def uniform(self, lo, hi):
                return 0.25

            def integers(self, lo, hi):
                return 2

        out = crop(s, Fixed(), scale_min=0.25, scale_max=1.0)
        np.testing.assert_array_equal(out.x, [0, 10])
        np.testing.assert_array_equal(out.y, [0, 2])

    def test_bad_scale_range(self, rng):
        s = random_stream(rng, n=10)
        with pytest.raises(ValueError, match="scale"):
            crop(s, np.random.default_rng(0), scale_min=0.0)
        with pytest.raises(ValueError, match="scale"):
            crop(s, np.random.default_rng(0), scale_min=0.8, scale_max=0.5)


class TestNoise:
    def test_count_and_retention(self, rng):
        s = random_stream(rng, n=200)
        out = noise_ba(s, np.random.default_rng(3), ratio=0.25)
        assert out.n == 250
        assert validate(out) == []
        # originals survive as a sub-multiset
        assert not Counter(tuples(s)) - Counter(tuples(out))

    def test_zero_ratio_identity(self, rng):
        s = random_stream(rng, n=50)
        assert_streams_equal(noise_ba(s, np.random.default_rng(0), ratio=0.0), s)

    def test_floor_count(self, rng):
        s = random_stream(rng, n=7)
        out = noise_ba(s, np.random.default_rng(0), ratio=0.1)  # floor(0.7) = 0
        assert out.n == 7

    def test_negative_ratio(self, rng):
        s = random_stream(rng, n=5)
        with pytest.raises(ValueError, match="ratio"):
            noise_ba(s, np.random.default_rng(0), ratio=-0.1)


class TestDrops:
    def test_drop_by_time_exact(self):
        # one event per microsecond: a 30 us window removes exactly 30 events
        n = 100
        s = make_stream(x=[0] * n, y=[0] * n, t=list(range(n)), p=[1] * n)
        out = drop_by_time(s, np.random.default_rng(5), ratio=0.3)
        assert out.n == 70
        assert validate(out) == []
        gaps = np.flatnonzero(np.diff(out.t) > 1)
        assert gaps.size <= 1  # removed events form one contiguous window

    def test_drop_by_area_exact(self):
        # one event per pixel: a quarter-area rectangle removes w*h events
        W = H = 10
        xs, ys = np.meshgrid(np.arange(W), np.arange(H))
        n = W * H
        s = make_stream(x=xs.ravel(), y=ys.ravel(), t=sorted(range(n)),
                        p=[1] * n, width=W, height=H, t_end=n)
        out = drop_by_area(s, np.random.default_rng(5), ratio=0.25)
        assert out.n == n - 25
        assert validate(out) == []

    def test_drop_random_rate(self):
        n = 10_000
        s = make_stream(x=[0] * n, y=[0] * n, t=sorted(range(n)), p=[1] * n,
                        t_end=n)
        out = drop_random(s, np.random.default_rng(7), ratio=0.3)
        assert abs(1 - out.n / n - 0.3) < 0.02

    def test_eventdrop_postconditions(self, rng):
        s = random_stream(rng, n=300)
        identical = 0
        for k in range(200):
            out = eventdrop(s, np.random.default_rng(k))
            assert validate(out) == []
            assert out.n <= s.n
            assert not Counter(tuples(out)) - Counter(tuples(s))
            identical += out.n == s.n
        # the identity strategy is drawn about a quarter of the time
        assert 20 <= identical <= 90

    @pytest.mark.parametrize("wide", ["time_ratio_max", "area_ratio_max"])
    def test_eventdrop_draws_each_ratio_up_to_its_own_max(self, wide):
        # one event per pixel and microsecond; with every other max at
        # ratio_lo, only the strategy whose max is wide drops more than a
        # few percent, and it drops up to that max
        W = H = 20
        xs, ys = np.meshgrid(np.arange(W), np.arange(H))
        n = W * H
        s = make_stream(x=xs.ravel(), y=ys.ravel(), t=range(n), p=[1] * n,
                        width=W, height=H, t_end=n)
        maxima = {"time_ratio_max": 0.05, "area_ratio_max": 0.05,
                  "global_ratio_max": 0.05, wide: 0.9}
        dropped = [1 - eventdrop(s, np.random.default_rng(k), 0.05, **maxima).n / n
                   for k in range(200)]
        assert 0.5 < max(dropped) <= 19 * 19 / n  # 0.9 of the time, or a 19x19 rectangle


class TestMirror:
    @pytest.mark.parametrize("width", [8, 9])
    def test_output_symmetric(self, width, rng):
        s = random_stream(rng, n=200, width=width)
        for k in range(20):
            out = mirror(s, np.random.default_rng(k))
            assert validate(out) == []
            flipped = sorted(zip((width - 1 - out.x).tolist(), out.y.tolist(),
                                 out.t.tolist(), out.p.tolist()))
            assert flipped == sorted(tuples(out))

    def test_even_width_doubles(self):
        # every kept event has a distinct reflection when W is even
        s = make_stream(x=[0, 1, 6], y=[0, 1, 2], t=[1, 2, 3], p=[1, -1, 1],
                        width=8)
        for k in range(10):
            out = mirror(s, np.random.default_rng(k))
            assert out.n % 2 == 0

    def test_odd_width_center_kept_once(self):
        # all events on the center column: kept but never duplicated
        s = make_stream(x=[4, 4, 4], y=[0, 1, 2], t=[1, 2, 3], p=[1, 1, 1],
                        width=9)
        out = mirror(s, np.random.default_rng(0))
        assert out.n == 3
        assert set(out.x.tolist()) == {4}


class TestPipeline:
    def spec(self, seed=0):
        return AugmentSpec(transforms=(
            TransformSpec("crop", prob=1.0),
            TransformSpec("noise", prob=1.0, params={"ratio": 0.2}),
            TransformSpec("hflip", prob=0.5),
        ), seed=seed)

    def test_deterministic(self, rng):
        s = random_stream(rng, n=200)
        a = apply_pipeline(s, self.spec(), sample_index=3)
        b = apply_pipeline(s, self.spec(), sample_index=3)
        assert_streams_equal(a, b)

    def test_sample_index_splits(self, rng):
        s = random_stream(rng, n=200)
        a = apply_pipeline(s, self.spec(), sample_index=0)
        b = apply_pipeline(s, self.spec(), sample_index=1)
        assert a.n != b.n or not np.array_equal(a.t, b.t)

    def test_seed_splits(self, rng):
        s = random_stream(rng, n=200)
        a = apply_pipeline(s, self.spec(seed=0), sample_index=0)
        b = apply_pipeline(s, self.spec(seed=1), sample_index=0)
        assert a.n != b.n or not np.array_equal(a.t, b.t)

    def test_prob_zero_never_fires(self, rng):
        s = random_stream(rng, n=100)
        spec = AugmentSpec(transforms=(TransformSpec("noise", prob=0.0,
                                                     params={"ratio": 0.5}),))
        assert_streams_equal(apply_pipeline(s, spec, sample_index=0), s)

    def test_prob_one_always_fires(self, rng):
        s = random_stream(rng, n=100)
        spec = AugmentSpec(transforms=(TransformSpec("noise", prob=1.0,
                                                     params={"ratio": 0.5}),))
        for i in range(20):
            assert apply_pipeline(s, spec, sample_index=i).n == 150

    def test_stage_draws_independent_of_prob(self, rng):
        # when a stage fires, its transform sees the same randomness whether
        # prob was 1.0 or something smaller (the fire coin burns one draw)
        s = random_stream(rng, n=200)
        full = AugmentSpec(transforms=(TransformSpec("crop", prob=1.0),), seed=4)
        half = AugmentSpec(transforms=(TransformSpec("crop", prob=0.5),), seed=4)
        fired = 0
        for i in range(40):
            a = apply_pipeline(s, full, sample_index=i)
            b = apply_pipeline(s, half, sample_index=i)
            if b.n != s.n or not np.array_equal(b.x, s.x):
                fired += 1
                assert_streams_equal(a, b)
        assert fired > 5

    def test_trailing_stage_does_not_disturb_prefix(self, rng):
        s = random_stream(rng, n=200)
        one = AugmentSpec(transforms=(TransformSpec("crop", prob=1.0),), seed=2)
        two = AugmentSpec(transforms=(TransformSpec("crop", prob=1.0),
                                      TransformSpec("noise", prob=0.0)), seed=2)
        assert_streams_equal(apply_pipeline(s, one, 7), apply_pipeline(s, two, 7))

    def test_all_transforms_valid_through_pipeline(self, rng):
        s = random_stream(rng, n=300)
        spec = AugmentSpec(transforms=tuple(
            TransformSpec(kind, prob=1.0) for kind in COMMON_EDAS + SPECIFIC_EDAS),
            seed=11)
        for i in range(10):
            assert validate(apply_pipeline(s, spec, sample_index=i)) == []


class TestSpecs:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown transform"):
            TransformSpec("rotate")

    def test_bad_prob(self):
        with pytest.raises(ValueError, match="prob must be"):
            TransformSpec("hflip", prob=1.5)
        with pytest.raises(ValueError, match="prob must be"):
            TransformSpec("hflip", prob=-0.1)

    def test_registry_covers_eda_names(self):
        assert set(COMMON_EDAS + SPECIFIC_EDAS) <= set(TRANSFORMS)
        assert COMMON_EDAS == ("crop", "hflip", "noise", "polflip", "reverse")

    def test_json_roundtrip(self):
        spec = AugmentSpec(transforms=(
            TransformSpec("crop", prob=0.7, params={"scale_min": 0.5}),
            TransformSpec("reverse", prob=1.0),
        ), seed=42)
        again = AugmentSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_json_unknown_key(self):
        with pytest.raises(ValueError, match=r"spec: unknown keys \['extra'\]"):
            AugmentSpec.from_dict({"seed": 0, "transforms": [], "extra": 1})
