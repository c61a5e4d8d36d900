"""Kernelized randomized prediction game over dual expansion coefficients.

The learner randomizes the expansion weights alpha of w = sum_j alpha_j phi(x_j)
and the attacker randomizes, per sample i, the coefficients xi_i of
x_i = sum_j xi_ij phi(x_j). The margin becomes alpha . K xi_i and, for
independent axis-aligned Gaussians alpha and xi,

    Var(alpha . K xi) = sum_j s2a_j (K mu_xi)_j^2
                      + sum_k s2x_k (K mu_alpha)_k^2
                      + s2a . (K*K) s2x

This is the game of costs._evaluation with M = K and the unit vectors e_i as the
attacker's anchors (the unmoved point phi(x_i) has coefficients e_i); the
primal game is the case M = I with the training points as anchors. Costs and
gradients here are that one evaluation, on a K that check_psd has found
symmetric and PSD, as _evaluation multiplies by K from one side only.

The strategies are the primal game's flat joint profile with k = n:
[mu_alpha (n); mu_b; sigma_alpha (n); sigma_b; mu_xi_1 (n); sigma_xi_1 (n); ...].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import _vi_game
from .model import Dataset, _check_weights, default_boxes
from .ops import VIGame

PSD_TOL = 1e-10

# Default feasible interval for the attacker's expansion coefficients: wide
# enough to reach any convex combination of training points plus overshoot.
XI_MEAN_BOUNDS = (-1.0, 2.0)
DUAL_W = 1.0  # bound on the learner's coefficient and bias means


@dataclass(frozen=True)
class Kernel:
    kind: str = "linear"
    gamma: float = 1.0

    def __post_init__(self):
        if self.kind not in ("linear", "rbf"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "rbf" and not 0 < self.gamma < np.inf:  # NaN fails too
            raise ValueError("rbf gamma must be positive and finite")


def gram(data: Dataset, kernel: Kernel) -> np.ndarray:
    """Dense Gram matrix K_jk = k(x_j, x_k)."""
    X = data.features
    if kernel.kind == "linear":
        K = X @ X.T
    else:
        sq = (X**2).sum(axis=1)
        d2 = sq[:, None] + sq[None, :] - 2.0 * X @ X.T
        K = np.exp(-kernel.gamma * np.maximum(d2, 0.0))
    if not np.all(np.isfinite(K)):
        raise FloatingPointError("non-finite Gram matrix entries")
    return 0.5 * (K + K.T)


def check_psd(K: np.ndarray) -> None:
    """Raise ValueError unless K is finite, symmetric to within
    PSD_TOL * max(1, max|K|) and its smallest eigenvalue is at least -PSD_TOL."""
    if not np.isfinite(K).all():
        raise ValueError("Gram matrix has non-finite entries")
    asym = np.abs(K - K.T).max()
    if asym > PSD_TOL * max(1.0, np.abs(K).max()):
        raise ValueError(f"Gram matrix not symmetric (max |K - K^T| {asym:.3e})")
    w = np.linalg.eigvalsh(K)
    if w.min() < -PSD_TOL:
        raise ValueError(f"Gram matrix not PSD (min eigenvalue {w.min():.3e})")


def _dual_terms(K, y, rho_l, rho_d, bias_reg):
    """The fixed arguments of costs._evaluation for the dual game: M = K, anchors = I."""
    K2 = K * K
    return (lambda A: K @ A, lambda v: np.matvec(K, v), np.diag(K).copy(),
            lambda v: np.matvec(K2, v), np.eye(K.shape[0]), np.asarray(y, dtype=float), rho_l,
            rho_d, bias_reg)


def dual_game_operator(
    data: Dataset, kernel: Kernel, rho_l: float, rho_d: float, bias_reg: float = 0.0
) -> VIGame:
    """Flat-vector operator view of the dual game for the solver. Learner
    coefficients and bias mean lie in [-DUAL_W, DUAL_W], attacker coefficients
    in XI_MEAN_BOUNDS; deviations share the primal intervals. The weights are
    checked as GameSpec checks them."""
    _check_weights(rho_l, rho_d, bias_reg)
    K = gram(data, kernel)
    check_psd(K)
    box = default_boxes(data.n, data.n, DUAL_W, XI_MEAN_BOUNDS)
    return _vi_game(_dual_terms(K, data.labels, rho_l, rho_d, bias_reg), *box)
