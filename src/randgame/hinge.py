"""Closed-form expectation of the rectified Gaussian margin and its derivatives.

For S ~ Normal(mu, sigma^2), z = mu / sigma, phi = exp(-z^2 / 2) / sqrt(2 pi)
and p = Pr[S > 0] = Phi(z), the standard normal CDF,

    E[max(0, S)] = sigma * phi + mu * p

with dE/dmu = p and dE/d(sigma^2) = phi / (2 sigma), and second derivatives

    d2E/dmu2 = phi / sigma,  d2E/dmu d(sigma^2) = -mu phi / (2 sigma^3),
    d2E/d(sigma^2)^2 = phi (z^2 - 1) / (4 sigma^3).

ndtr computes Phi by erfc in the lower tail, so p stays exact where 1 - erf
cancels to nothing.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

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
    p = ndtr(z)
    value, dvar = sigma * phi + mu * p, phi / (2.0 * sigma)
    if value.ndim:
        return value, p, dvar
    return float(value), float(p), float(dvar)


def hinge_hessian(mu, sigma):
    """(d2E/dmu2, d2E/dmu d(sigma^2), d2E/d(sigma^2)^2) of E[max(0, S)] for
    S ~ Normal(mu, sigma^2), as arrays of the broadcast shape."""
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if np.any(sigma <= 0):
        raise ValueError("sigma must be strictly positive")
    z = mu / sigma
    phi_s = np.exp(-0.5 * z * z) / (_SQRT2PI * sigma)  # phi / sigma
    return phi_s, -0.5 * z * phi_s / sigma, 0.25 * (z * z - 1.0) * phi_s / (sigma * sigma)
