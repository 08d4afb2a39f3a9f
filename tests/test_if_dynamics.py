"""Integrate-and-fire update rule: hand traces and charge conservation."""

import numpy as np
import pytest

from evsnn.nn import if_step


def run_trace(inputs, theta=1.0, reset="subtract", u0=0.0):
    u = np.asarray(u0, dtype=np.float64)
    spikes = []
    for i in inputs:
        s, u = if_step(u, i, theta=theta, reset=reset)
        spikes.append(float(s))
    return spikes, float(u)


class TestHandTraces:
    def test_single_step_spike(self):
        s, u = if_step(0.0, 1.5, theta=1.0)
        assert s == 1.0
        assert u == 0.5

    def test_three_step_subthreshold_charge(self):
        spikes, u = run_trace([0.4, 0.4, 0.4])
        assert spikes == [0.0, 0.0, 1.0]
        np.testing.assert_allclose(u, 0.2)

    def test_silence(self):
        spikes, u = run_trace([0.0] * 50)
        assert spikes == [0.0] * 50
        assert u == 0.0

    def test_threshold_is_inclusive(self):
        s, u = if_step(0.0, 1.0, theta=1.0)
        assert s == 1.0
        assert u == 0.0

    def test_hard_reset(self):
        s, u = if_step(0.0, 2.5, theta=1.0, reset="zero")
        assert s == 1.0
        assert u == 0.0
        s, u = if_step(0.0, 2.5, theta=1.0, reset="subtract")
        assert s == 1.0
        assert u == 1.5

    def test_negative_drive(self):
        spikes, u = run_trace([-0.5, -0.5, 2.5])
        assert spikes == [0.0, 0.0, 1.0]
        np.testing.assert_allclose(u, 0.5)  # -1 + 2.5 - 1

    def test_nonunit_threshold(self):
        spikes, u = run_trace([1.0, 1.0], theta=2.0)
        assert spikes == [0.0, 1.0]
        assert u == 0.0

    def test_unknown_reset(self):
        with pytest.raises(ValueError, match="reset"):
            if_step(0.0, 1.0, reset="decay")


class TestVectorized:
    def test_elementwise(self, rng):
        u0 = rng.normal(size=(4, 3, 5, 5))
        drive = rng.normal(size=(4, 3, 5, 5))
        s, u = if_step(u0, drive, theta=1.0)
        assert s.shape == u.shape == u0.shape
        for idx in np.ndindex(4, 3, 5, 5):
            se, ue = if_step(float(u0[idx]), float(drive[idx]), theta=1.0)
            assert s[idx] == se
            assert u[idx] == ue

    def test_binary_spikes(self, rng):
        s, _ = if_step(rng.normal(size=1000), rng.normal(size=1000))
        assert set(np.unique(s)) <= {0.0, 1.0}

    @pytest.mark.parametrize("reset", ["subtract", "zero"])
    def test_spikes_are_floats(self, rng, reset):
        # a recorded trace keeps the network's spikes as bool; if_step
        # returns them in the membrane's dtype
        s, u = if_step(rng.normal(size=100), rng.normal(size=100), reset=reset)
        assert s.dtype == u.dtype == np.float64
        s, u = if_step(0.0, 1.5)
        assert s.dtype == u.dtype == np.float64


class TestChargeConservation:
    """With subtractive reset, theta * (total spikes) + U_final = U_0 + total
    input, exactly; inputs on a 1/8 grid keep all arithmetic representable."""

    def test_random_traces(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 40))
            inputs = rng.integers(-8, 24, size=n) / 8.0
            u0 = float(rng.integers(0, 8)) / 8.0
            spikes, u = run_trace(inputs, u0=u0)
            assert 1.0 * sum(spikes) + u == u0 + inputs.sum()

    def test_random_traces_vectorized(self, rng):
        # 10_000 independent neurons at once, 25 steps
        drive = rng.integers(-8, 24, size=(25, 10_000)) / 8.0
        u = np.zeros(10_000)
        total = np.zeros(10_000)
        for t in range(25):
            s, u = if_step(u, drive[t])
            total += s
        np.testing.assert_array_equal(total + u, drive.sum(axis=0))

    def test_spike_count_bounded_by_charge(self, rng):
        # spikes cannot exceed floor(U_0 + total positive input) at theta=1
        for _ in range(100):
            inputs = rng.integers(0, 16, size=20) / 8.0
            spikes, _ = run_trace(inputs)
            assert sum(spikes) <= np.floor(inputs.sum())

    def test_constant_drive_rate(self):
        # constant subthreshold drive c: floor(c*T) spikes after T steps
        for c in (0.125, 0.25, 0.375, 0.5, 0.75):
            spikes, _ = run_trace([c] * 40)
            assert sum(spikes) == np.floor(c * 40)

    def test_suprathreshold_fires_every_step(self):
        spikes, u = run_trace([1.25] * 10)
        assert spikes == [1.0] * 10
        np.testing.assert_allclose(u, 2.5)  # residue 0.25 per step


class TestZeroReset:
    def test_membrane_cleared_on_spike(self, rng):
        u = np.zeros(500)
        for _ in range(20):
            s, u = if_step(u, rng.normal(size=500), reset="zero")
            assert np.all(u[s == 1.0] == 0.0)

    def test_subthreshold_unchanged_by_mode(self, rng):
        # below threshold the two reset modes agree
        drive = rng.uniform(-0.4, 0.4, size=200)
        sa, ua = if_step(np.zeros(200), drive, reset="subtract")
        sz, uz = if_step(np.zeros(200), drive, reset="zero")
        assert not sa.any() and not sz.any()
        np.testing.assert_array_equal(ua, uz)
