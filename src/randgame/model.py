"""Core data model: datasets, the feasible box and games.

Both players' Gaussian strategies are one flat joint profile,

    [mu_w (k+1) ; sigma_w (k+1) ; mu_x_1 (k) ; sigma_x_1 (k) ; ... ; sigma_x_n (k)]

with the last coordinate of each learner block belonging to the bias. The
feasible set, the product of the players' strategy sets, is one axis-aligned
box (lower, upper) over that profile; it bounds the profile coordinate by
coordinate, and the costs read the profile as it is. This module alone
decides the box's layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Default feasible intervals for the deviation coordinates (learner / attacker).
LEARNER_DEV_BOUNDS = (1e-6, 1e-3)
ATTACKER_DEV_BOUNDS = (1e-3, 0.5)


class ShapeError(ValueError):
    """Dimension mismatch between arrays and the game they belong to."""


def _as_float_array(x, ndim):
    a = np.asarray(x, dtype=float)
    if a.ndim != ndim:
        raise ShapeError(f"expected {ndim}-d array, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class Dataset:
    """Training/test set: features finite and in [0, 1], labels -1 or +1. Only
    the binary_flip attack needs binary features, and it checks them itself."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        X = _as_float_array(self.features, 2)
        y = _as_float_array(self.labels, 1)
        if X.shape[0] < 1 or X.shape[1] < 1:
            raise ShapeError("dataset needs n >= 1 samples and k >= 1 features")
        if y.shape[0] != X.shape[0]:
            raise ShapeError("labels length does not match feature rows")
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        if not (X.min() >= 0.0 and X.max() <= 1.0):  # NaN fails both comparisons
            raise ValueError("continuous features must be finite and lie in [0, 1]")
        X.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "labels", y)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def k(self) -> int:
        return self.features.shape[1]


def default_boxes(
    n: int, k: int, W: float, mean_bounds=(0.0, 1.0)
) -> tuple[np.ndarray, np.ndarray]:
    """Default feasible box (lower, upper) of the flat joint profile: learner
    means (k + 1) in [-W, W], each attacker row's k means in mean_bounds,
    [0, 1] by default, deviation coordinates in the standard intervals above."""
    if not 0 < W < np.inf:
        raise ValueError("W must be finite and positive")
    if n < 1 or k < 1:
        raise ShapeError("need n >= 1 and k >= 1")
    learner = [np.repeat([mean, dev], k + 1) for mean, dev in zip((-W, W), LEARNER_DEV_BOUNDS)]
    attacker = [
        np.tile(np.repeat([mean, dev], k), n)
        for mean, dev in zip(mean_bounds, ATTACKER_DEV_BOUNDS)
    ]
    return tuple(map(np.concatenate, zip(learner, attacker)))


def _check_weights(rho_l: float, rho_d: float, bias_reg: float) -> None:
    """The trade-off weights of a game: rho_l, rho_d finite and positive,
    bias_reg finite and non-negative (NaN fails every comparison)."""
    if not (0 < rho_l < np.inf and 0 < rho_d < np.inf):
        raise ValueError("rho_l and rho_d must be finite and positive")
    if not 0 <= bias_reg < np.inf:
        raise ValueError("bias_reg must be finite and non-negative")


@dataclass(frozen=True)
class GameSpec:
    """A full game instance: dataset, trade-off weights and the feasible box
    [lower, upper] of the flat joint profile.

    bias_reg adds (bias_reg/2) * b^2 to the learner's objective; the default 0
    keeps the plain unregularized-bias C-SVM learner.
    """

    dataset: Dataset
    rho_l: float
    rho_d: float
    lower: np.ndarray
    upper: np.ndarray
    bias_reg: float = 0.0

    def __post_init__(self):
        _check_weights(self.rho_l, self.rho_d, self.bias_reg)
        lo = _as_float_array(self.lower, 1)
        up = _as_float_array(self.upper, 1)
        dim = self.dim_l + self.dim_d
        if lo.shape != (dim,) or up.shape != (dim,):
            raise ShapeError(f"box bounds must have length dim_l + dim_d = {dim}")
        if not np.all(lo <= up):  # NaN fails the comparison too
            raise ValueError("box lower bound exceeds upper bound or is NaN")
        # Deviation coordinates must be bounded away from zero (compact strategy
        # sets with sigma > 0). Learner deviations are the second half of its
        # block, attacker deviations the trailing k of each per-sample block.
        n, k, m = self.n, self.k, self.k + 1
        if np.any(lo[m : 2 * m] <= 0):
            raise ValueError("learner deviation lower bounds must be positive")
        if np.any(lo[2 * m :].reshape(n, 2 * k)[:, k:] <= 0):
            raise ValueError("attacker deviation lower bounds must be positive")
        lo.setflags(write=False)
        up.setflags(write=False)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)

    @property
    def n(self) -> int:
        return self.dataset.n

    @property
    def k(self) -> int:
        return self.dataset.k

    @property
    def dim_l(self) -> int:
        return 2 * (self.k + 1)

    @property
    def dim_d(self) -> int:
        return 2 * self.n * self.k
