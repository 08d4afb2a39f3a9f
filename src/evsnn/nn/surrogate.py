"""Arctan surrogate used in place of the Heaviside step during backprop."""

from __future__ import annotations

import numpy as np


def arctan_surrogate(x):
    """Smooth stand-in for the step: (1/pi) * arctan(pi * x) + 1/2."""
    return np.arctan(np.pi * x) / np.pi + 0.5


def arctan_surrogate_grad(x):
    """d/dx of the surrogate: 1 / (1 + (pi * x)^2); an array result is one
    buffer, computed in place."""
    g = np.multiply(np.pi, x)
    g *= g
    g += 1.0
    if isinstance(g, np.ndarray):
        return np.divide(1.0, g, out=g)
    return 1.0 / g  # scalar input
