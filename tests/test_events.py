import numpy as np
import pytest
from hypothesis import given, settings

from evsnn.events import (NEG_CHANNEL, POS_CHANNEL, InvalidStreamError,
                          devoxelize_counts, event_bins, require_valid, validate,
                          voxelize, voxelize_set)

from conftest import make_stream, random_stream, stream_strategy


def voxelize_oracle(stream, time_bins):
    """Naive per-event loop; the implementation must match it exactly."""
    out = np.zeros((time_bins, 2, stream.height, stream.width), dtype=np.uint8)
    for x, y, t, p in zip(stream.x, stream.y, stream.t, stream.p):
        b = (int(t) - stream.t_start) * time_bins // (stream.t_end - stream.t_start)
        b = min(b, time_bins - 1)
        ch = POS_CHANNEL if p > 0 else NEG_CHANNEL
        out[b, ch, y, x] = 1
    return out


class TestValidation:
    def test_valid_stream_has_no_violations(self, rng):
        assert validate(random_stream(rng)) == []

    def test_geometry_violation(self):
        s = make_stream([], [], [], [], width=0)
        assert any(v.rule == "geometry" for v in validate(s))

    def test_interval_violation(self):
        s = make_stream([], [], [], [], t_start=100, t_end=100)
        assert any(v.rule == "interval" for v in validate(s))

    def test_out_of_bounds_events_located_by_index(self):
        s = make_stream([0, 9, 0], [0, 0, 12], [1, 2, 3], [1, 1, -1],
                        width=8, height=8)
        rules = {(v.rule, v.index) for v in validate(s)}
        assert ("x_bounds", 1) in rules
        assert ("y_bounds", 2) in rules

    def test_t_range_and_polarity(self):
        s = make_stream([0, 0], [0, 0], [5, 200], [0, 1], t_end=100)
        rules = {(v.rule, v.index) for v in validate(s)}
        assert ("t_range", 1) in rules
        assert ("polarity", 0) in rules

    def test_unsorted_flagged_at_offender(self):
        s = make_stream([0, 0, 0], [0, 0, 0], [5, 3, 4], [1, 1, 1])
        rules = [(v.rule, v.index) for v in validate(s)]
        assert ("unsorted", 1) in rules

    def test_require_valid_raises_with_details(self):
        s = make_stream([99], [0], [5], [1], width=8)
        with pytest.raises(InvalidStreamError, match="x_bounds"):
            require_valid(s)

    def test_arrays_are_frozen(self, rng):
        s = random_stream(rng)
        with pytest.raises(ValueError):
            s.x[0] = 3

    def test_mismatched_field_lengths_rejected(self):
        with pytest.raises(ValueError, match="disagree"):
            make_stream([1, 2], [0], [1, 2], [1, 1])

    @given(stream_strategy())
    @settings(max_examples=60, deadline=None)
    def test_generated_streams_are_valid(self, s):
        assert validate(s) == []


class TestRoundTrip:
    def test_with_fields_copies(self, rng):
        s = random_stream(rng)
        s2 = s.with_fields(label=3)
        assert s2.label == 3 and s.label is None
        np.testing.assert_array_equal(s.x, s2.x)


class TestBinning:
    def test_bins_by_integer_arithmetic(self):
        # duration 100, T=4: bin edges at 25, 50, 75
        s = make_stream([0] * 5, [0] * 5, [0, 24, 25, 99, 99], [1] * 5, t_end=100)
        np.testing.assert_array_equal(event_bins(s, 4), [0, 0, 1, 3, 3])

    def test_last_instant_clamps_into_final_bin(self):
        # 7 bins over 100 us: t=99 -> floor(99*7/100)=6 == T-1 already;
        # t_end-1 always lands in bin T-1 even when T divides duration
        s = make_stream([0], [0], [99], [1], t_end=100)
        assert event_bins(s, 10)[0] == 9

    def test_nonzero_t_start(self):
        s = make_stream([0, 0], [0, 0], [1000, 1499], [1, 1],
                        t_start=1000, t_end=1500)
        np.testing.assert_array_equal(event_bins(s, 5), [0, 4])

    def test_no_float_drift_on_large_timestamps(self):
        # 2**52 + k regime where float64 spacing exceeds 1 us
        base = 2 ** 52
        s = make_stream([0, 0], [0, 0], [base + 1, base + 2], [1, 1],
                        t_start=base, t_end=base + 4)
        np.testing.assert_array_equal(event_bins(s, 4), [1, 2])

    @pytest.mark.parametrize("fn", [voxelize, devoxelize_counts])
    def test_offset_times_bins_beyond_int64_refused(self, fn):
        # (2**62) * 6 wraps in int64: the event would land in frame 4, not 5
        s = make_stream([0, 0], [0, 0], [0, 2 ** 62], [1, 1], t_end=2 ** 62 + 1)
        with pytest.raises(InvalidStreamError, match="exceeds int64"):
            fn(s, 6)

    def test_largest_duration_still_bins(self):
        duration = (2 ** 63 - 1) // 6
        s = make_stream([0, 0], [0, 0], [0, duration - 1], [1, 1], t_end=duration)
        np.testing.assert_array_equal(event_bins(s, 6), [0, 5])
        assert voxelize(s, 6)[5, POS_CHANNEL, 0, 0] == 1


class TestVoxelize:
    def test_matches_naive_oracle(self, rng):
        for trial in range(20):
            s = random_stream(rng, n=int(rng.integers(0, 300)))
            for t_bins in (1, 3, 6):
                np.testing.assert_array_equal(voxelize(s, t_bins),
                                              voxelize_oracle(s, t_bins))

    def test_polarity_channels(self):
        s = make_stream([1, 2], [3, 4], [10, 20], [1, -1], t_end=100)
        v = voxelize(s, 1)
        assert v[0, POS_CHANNEL, 3, 1] == 1
        assert v[0, NEG_CHANNEL, 4, 2] == 1
        assert v.sum() == 2

    def test_repeats_saturate(self):
        s = make_stream([5, 5, 5], [5, 5, 5], [10, 11, 12], [1, 1, 1], t_end=100)
        v = voxelize(s, 1)
        assert v[0, POS_CHANNEL, 5, 5] == 1
        assert v.sum() == 1

    def test_empty_stream(self):
        v = voxelize(make_stream([], [], [], []), 4)
        assert v.shape == (4, 2, 8, 8) and v.sum() == 0

    def test_invalid_stream_rejected(self):
        s = make_stream([99], [0], [5], [1], width=8)
        with pytest.raises(InvalidStreamError):
            voxelize(s, 4)

    def test_bad_bin_count_rejected(self, rng):
        with pytest.raises(ValueError, match="time_bins"):
            voxelize(random_stream(rng), 0)

    def test_deterministic_bytes(self, rng):
        s = random_stream(rng)
        assert voxelize(s, 6).tobytes() == voxelize(s, 6).tobytes()

    @given(stream_strategy())
    @settings(max_examples=40, deadline=None)
    def test_tensor_is_binary_and_bounded(self, s):
        v = voxelize(s, 5)
        assert v.shape == (5, 2, s.height, s.width) and v.dtype == np.uint8
        assert set(np.unique(v)) <= {0, 1}
        assert v.sum() <= s.n


class TestVoxelizeSet:
    @pytest.mark.parametrize("time_bins", [0, -1])
    def test_bin_count_below_one_refused(self, rng, time_bins):
        with pytest.raises(ValueError, match=f"^time_bins must be >= 1, got {time_bins}$"):
            voxelize_set([random_stream(rng)], time_bins)

    def test_one_stream_is_c_contiguous_frames(self, rng):
        s = random_stream(rng, n=200)
        v = voxelize(s, 3)
        assert v.shape == (3, 2, s.height, s.width) and v.dtype == np.uint8
        assert v.flags.c_contiguous


class TestDevoxelize:
    def test_counts_sum_to_n(self, rng):
        s = random_stream(rng, n=123)
        c = devoxelize_counts(s, 7)
        assert c.sum() == 123 and c.shape == (7,)

    def test_counts_match_bincount_oracle(self, rng):
        s = random_stream(rng, n=77)
        b = event_bins(s, 5)
        want = np.array([(b == i).sum() for i in range(5)])
        np.testing.assert_array_equal(devoxelize_counts(s, 5), want)

    def test_empty(self):
        np.testing.assert_array_equal(
            devoxelize_counts(make_stream([], [], [], []), 3), [0, 0, 0])
