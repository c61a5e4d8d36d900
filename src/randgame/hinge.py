"""Closed-form expectation of the rectified Gaussian margin and its derivatives.

For S ~ Normal(mu, sigma^2), z = mu / sigma, phi = exp(-z^2 / 2) / sqrt(2 pi)
and p = Pr[S > 0] = erfc(-z / sqrt(2)) / 2,

    E[max(0, S)] = sigma * phi + mu * p

with dE/dmu = p and dE/d(sigma^2) = phi / (2 sigma). erfc keeps p exact in
the lower tail, where 1 - erf cancels to nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .model import LearnerParams, ShapeError

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


@dataclass(frozen=True)
class MarginMoments:
    """Mean and variance of the (approximately Gaussian) margin variable."""

    mu: float
    var: float

    def __post_init__(self):
        if self.var < 0:
            raise ValueError("margin variance must be non-negative")

    @property
    def sigma(self) -> float:
        return float(np.sqrt(self.var))


def margin_moments(side, y, theta_l: LearnerParams, mu_x, sigma_x) -> MarginMoments:
    """Moments of the learner margin s = 1 - y(w~.x + b) or the attacker
    margin t = 1 + y(w~.x + b) under independent axis-aligned Gaussians.

    The variance is identical on both sides:
    sigma_w~^2 . (sigma_x^2 + mu_x^2) + mu_w~^2 . sigma_x^2 + sigma_b^2
    """
    if side not in ("learner", "attacker"):
        raise ValueError(f"unknown side {side!r}")
    mu_x = np.asarray(mu_x, dtype=float)
    sigma_x = np.asarray(sigma_x, dtype=float)
    if mu_x.shape != sigma_x.shape or mu_x.shape[-1] != theta_l.k:
        raise ShapeError("attack-point vectors inconsistent with learner dims")
    if np.any(sigma_x < 0):
        raise ValueError("sigma_x components must be non-negative")
    score = float(theta_l.mu_tilde @ mu_x + theta_l.mu_b)
    sign = -1.0 if side == "learner" else 1.0
    mu = 1.0 + sign * y * score
    var = float(
        theta_l.sigma_tilde**2 @ (sigma_x**2 + mu_x**2)
        + theta_l.mu_tilde**2 @ sigma_x**2
        + theta_l.sigma_b**2
    )
    return MarginMoments(mu, var)
