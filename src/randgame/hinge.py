"""Closed-form expectation of the rectified Gaussian margin and its derivatives.

For S ~ Normal(mu, sigma^2), z = mu / sigma, phi = exp(-z^2 / 2) / sqrt(2 pi)
and p = Pr[S > 0] = erfc(-z / sqrt(2)) / 2,

    E[max(0, S)] = sigma * phi + mu * p

with dE/dmu = p and dE/d(sigma^2) = phi / (2 sigma). erfc keeps p exact in
the lower tail, where 1 - erf cancels to nothing.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erfc

_SQRT2 = np.sqrt(2.0)
_SQRT2PI = np.sqrt(2.0 * np.pi)


def hinge_expect(mu, sigma):
    """(E[max(0, S)], its derivative in mu, its derivative in sigma^2) for
    S ~ Normal(mu, sigma^2). Vectorized; scalar inputs give three floats."""
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if np.any(sigma <= 0):
        raise ValueError("sigma must be strictly positive")
    z = mu / sigma
    phi = np.exp(-0.5 * z * z) / _SQRT2PI
    p = 0.5 * erfc(-z / _SQRT2)
    value, dvar = sigma * phi + mu * p, phi / (2.0 * sigma)
    if value.ndim:
        return value, p, dvar
    return float(value), float(p), float(dvar)
