"""Core data model: datasets, Gaussian strategy parameters, feasible boxes.

All types are immutable after construction; the free functions are pure.
The flattened joint parameter layout is fixed as

    [mu_w (k+1) ; sigma_w (k+1) ; mu_x_1 (k) ; sigma_x_1 (k) ; ... ; sigma_x_n (k)]

with the last coordinate of each learner block belonging to the bias.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass

import numpy as np

FEATURE_KINDS = ("continuous_unit_interval", "binary")

# Default feasible intervals for the deviation coordinates (learner / attacker).
LEARNER_DEV_BOUNDS = (1e-6, 1e-3)
ATTACKER_DEV_BOUNDS = (1e-3, 0.5)


class ShapeError(ValueError):
    """Dimension mismatch between parameter objects."""


def _as_float_array(x, ndim):
    a = np.asarray(x, dtype=float)
    if a.ndim != ndim:
        raise ShapeError(f"expected {ndim}-d array, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class Dataset:
    """Training/test set with labels in {-1,+1}."""

    features: np.ndarray
    labels: np.ndarray
    feature_kind: str = "continuous_unit_interval"

    def __post_init__(self):
        X = _as_float_array(self.features, 2)
        y = _as_float_array(self.labels, 1)
        if X.shape[0] < 1 or X.shape[1] < 1:
            raise ShapeError("dataset needs n >= 1 samples and k >= 1 features")
        if y.shape[0] != X.shape[0]:
            raise ShapeError("labels length does not match feature rows")
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        if self.feature_kind not in FEATURE_KINDS:
            raise ValueError(f"unknown feature_kind {self.feature_kind!r}")
        if self.feature_kind == "binary" and not np.all(np.isin(X, (0.0, 1.0))):
            raise ValueError("binary dataset contains non-binary values")
        if self.feature_kind == "continuous_unit_interval" and (
            X.min() < 0.0 or X.max() > 1.0
        ):
            raise ValueError("continuous features must lie in [0, 1]")
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


@dataclass(frozen=True)
class LearnerParams:
    """Gaussian strategy of the learner: mean/deviation of w = [w_tilde; b]."""

    mu_w: np.ndarray
    sigma_w: np.ndarray

    def __post_init__(self):
        mu = _as_float_array(self.mu_w, 1)
        sig = _as_float_array(self.sigma_w, 1)
        if mu.shape != sig.shape:
            raise ShapeError("mu_w and sigma_w must have equal length")
        if mu.shape[0] < 2:
            raise ShapeError("learner needs at least one feature plus bias")
        if not np.all(sig > 0):
            raise ValueError("sigma_w must be strictly positive")
        mu.setflags(write=False)
        sig.setflags(write=False)
        object.__setattr__(self, "mu_w", mu)
        object.__setattr__(self, "sigma_w", sig)

    @property
    def k(self) -> int:
        return self.mu_w.shape[0] - 1

    @property
    def mu_tilde(self) -> np.ndarray:
        return self.mu_w[:-1]

    @property
    def mu_b(self) -> float:
        return float(self.mu_w[-1])

    @property
    def sigma_tilde(self) -> np.ndarray:
        return self.sigma_w[:-1]

    @property
    def sigma_b(self) -> float:
        return float(self.sigma_w[-1])


@dataclass(frozen=True)
class AttackerParams:
    """Per-sample Gaussian strategies of the data generator, stored row-wise."""

    mu_x: np.ndarray
    sigma_x: np.ndarray

    def __post_init__(self):
        mu = _as_float_array(self.mu_x, 2)
        sig = _as_float_array(self.sigma_x, 2)
        if mu.shape != sig.shape:
            raise ShapeError("mu_x and sigma_x must have equal shape")
        if mu.shape[0] < 1 or mu.shape[1] < 1:
            raise ShapeError("attacker needs n >= 1 samples and k >= 1 features")
        if not np.all(sig > 0):
            raise ValueError("sigma_x must be strictly positive")
        mu.setflags(write=False)
        sig.setflags(write=False)
        object.__setattr__(self, "mu_x", mu)
        object.__setattr__(self, "sigma_x", sig)

    @property
    def n(self) -> int:
        return self.mu_x.shape[0]

    @property
    def k(self) -> int:
        return self.mu_x.shape[1]


@dataclass(frozen=True)
class ParamBox:
    """Axis-aligned feasible box for a flattened parameter block."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = _as_float_array(self.lower, 1)
        up = _as_float_array(self.upper, 1)
        if lo.shape != up.shape:
            raise ShapeError("box bounds must have equal length")
        if np.any(lo > up):
            raise ValueError("box lower bound exceeds upper bound")
        lo.setflags(write=False)
        up.setflags(write=False)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]


def _box_pair(n: int, m: int, W: float, mean_bounds) -> tuple[ParamBox, ParamBox]:
    """Learner means (m + 1) in [-W, W], each attacker row's m means in
    mean_bounds, deviation coordinates in the standard intervals above."""
    if W <= 0:
        raise ValueError("W must be positive")
    if n < 1 or m < 1:
        raise ShapeError("need n >= 1 and k >= 1")
    learner = [np.repeat([mean, dev], m + 1) for mean, dev in zip((-W, W), LEARNER_DEV_BOUNDS)]
    attacker = [
        np.tile(np.repeat([mean, dev], m), n)
        for mean, dev in zip(mean_bounds, ATTACKER_DEV_BOUNDS)
    ]
    return ParamBox(*learner), ParamBox(*attacker)


def default_boxes(n: int, k: int, W: float) -> tuple[ParamBox, ParamBox]:
    """Default feasible boxes: learner means in [-W, W], attacker means in [0, 1],
    deviation coordinates in the standard intervals above."""
    return _box_pair(n, k, W, (0.0, 1.0))


@dataclass(frozen=True)
class GameSpec:
    """A full game instance: dataset, trade-off weights and feasible boxes.

    bias_reg adds (bias_reg/2) * b^2 to the learner's objective; the default 0
    keeps the plain unregularized-bias C-SVM learner.
    """

    dataset: Dataset
    rho_l: float
    rho_d: float
    learner_box: ParamBox
    attacker_box: ParamBox
    bias_reg: float = 0.0

    def __post_init__(self):
        if self.rho_l <= 0 or self.rho_d <= 0:
            raise ValueError("rho_l and rho_d must be positive")
        if self.bias_reg < 0:
            raise ValueError("bias_reg must be non-negative")
        n, k = self.dataset.n, self.dataset.k
        if self.learner_box.dim != 2 * (k + 1):
            raise ShapeError("learner box dim must be 2*(k+1)")
        if self.attacker_box.dim != 2 * n * k:
            raise ShapeError("attacker box dim must be 2*n*k")
        # Deviation coordinates must be bounded away from zero (compact strategy
        # sets with sigma > 0). Learner deviations are the trailing k+1 coords,
        # attacker deviations the trailing k of each per-sample block.
        m = k + 1
        if np.any(self.learner_box.lower[m:] <= 0):
            raise ValueError("learner deviation lower bounds must be positive")
        a_lo = self.attacker_box.lower.reshape(n, 2 * k)
        if np.any(a_lo[:, k:] <= 0):
            raise ValueError("attacker deviation lower bounds must be positive")

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


def flatten(theta_l: LearnerParams, theta_d: AttackerParams) -> np.ndarray:
    """Concatenate both players' parameters in the fixed joint layout."""
    if theta_l.k != theta_d.k:
        raise ShapeError("learner and attacker feature dims differ")
    attacker_blocks = np.hstack([theta_d.mu_x, theta_d.sigma_x]).ravel()
    return np.concatenate([theta_l.mu_w, theta_l.sigma_w, attacker_blocks])


def unflatten(v, n: int, k: int) -> tuple[LearnerParams, AttackerParams]:
    """Inverse of :func:`flatten` for known dataset dimensions."""
    v = _as_float_array(v, 1)
    m = k + 1
    if v.shape[0] != 2 * m + 2 * n * k:
        raise ShapeError(
            f"vector length {v.shape[0]} inconsistent with n={n}, k={k}"
        )
    theta_l = LearnerParams(v[:m].copy(), v[m : 2 * m].copy())
    blocks = v[2 * m :].reshape(n, 2 * k)
    theta_d = AttackerParams(blocks[:, :k].copy(), blocks[:, k:].copy())
    return theta_l, theta_d


# --- serialization ----------------------------------------------------------

def atomic_write(path, text: str) -> None:
    """Write text to path through a temporary file in the same directory, so
    readers see either the old file or the complete new one."""
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        umask = os.umask(0)  # mkstemp creates 0600 whatever the umask
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_flat_csv(path, v) -> None:
    """Write a parameter vector as one CSV line in the flattening order."""
    v = _as_float_array(v, 1)
    atomic_write(path, ",".join(f"{x:.17g}" for x in v) + "\n")


def load_flat_csv(path) -> np.ndarray:
    with open(path) as fh:
        line = fh.readline().strip()
    if not line:
        raise ValueError(f"{path}: empty parameter file")
    return np.array([float(tok) for tok in line.split(",")], dtype=float)


def load_config(path) -> dict:
    """Read a plain key=value config file; values parsed as floats when possible."""
    cfg: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            try:
                cfg[key] = float(val)
            except ValueError:
                cfg[key] = val
    return cfg
