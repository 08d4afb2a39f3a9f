"""Arctan surrogate: exact anchors, symmetry, derivative correctness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evsnn.nn.surrogate import arctan_surrogate, arctan_surrogate_grad

FINITE = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)


class TestSurrogate:
    def test_anchors(self):
        # exact by construction: arctan(0) = 0
        assert arctan_surrogate(0.0) == 0.5
        assert arctan_surrogate_grad(0.0) == 1.0

    def test_limits(self):
        np.testing.assert_allclose(arctan_surrogate(1e12), 1.0, atol=1e-10)
        np.testing.assert_allclose(arctan_surrogate(-1e12), 0.0, atol=1e-10)

    @settings(max_examples=100, deadline=None)
    @given(x=FINITE)
    def test_point_symmetry(self, x):
        np.testing.assert_allclose(arctan_surrogate(x) + arctan_surrogate(-x),
                                   1.0, rtol=0, atol=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(x=FINITE)
    def test_grad_even(self, x):
        assert arctan_surrogate_grad(x) == arctan_surrogate_grad(-x)

    def test_monotone(self, rng):
        x = np.sort(rng.uniform(-20, 20, 500))
        assert np.all(np.diff(arctan_surrogate(x)) > 0)

    def test_grad_positive_peaked_at_zero(self, rng):
        x = rng.uniform(-20, 20, 500)
        g = arctan_surrogate_grad(x)
        assert np.all(g > 0)
        assert np.all(g <= 1.0)

    def test_grad_matches_complex_step(self, rng):
        # complex-step derivative is exact to machine precision for the
        # analytic arctan, with no cancellation error
        x = rng.uniform(-3, 3, 100)
        h = 1e-20
        cs = np.imag(arctan_surrogate(x + 1j * h)) / h
        np.testing.assert_allclose(arctan_surrogate_grad(x), cs, rtol=1e-12)

    def test_grad_matches_central_difference(self, rng):
        x = rng.uniform(-2, 2, 100)
        h = 1e-6
        fd = (arctan_surrogate(x + h) - arctan_surrogate(x - h)) / (2 * h)
        np.testing.assert_allclose(arctan_surrogate_grad(x), fd, rtol=1e-8)

    @pytest.mark.parametrize("x", [
        0.37, -1.25, np.float64(2.5), np.array(0.8), np.array(-0.3, dtype=np.float32),
        np.linspace(-3, 3, 101, dtype=np.float32), np.linspace(-40, 40, 257)])
    def test_grad_bitwise_equals_formula(self, x):
        before = np.array(x, copy=True)
        got = arctan_surrogate_grad(x)
        want = 1.0 / (1.0 + (np.pi * x) ** 2)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).dtype == np.asarray(want).dtype
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert np.array_equal(x, before)  # the input is not overwritten

    def test_frozen_values(self):
        # mpmath at 50 digits: atan(pi)/pi + 1/2 and 1/(1 + pi^2)
        np.testing.assert_allclose(arctan_surrogate(1.0),
                                   0.9019067380477063, rtol=1e-15)
        np.testing.assert_allclose(arctan_surrogate_grad(1.0),
                                   0.09199966835037523, rtol=1e-15)
