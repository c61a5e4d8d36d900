"""Kernelized randomized prediction game over dual expansion coefficients.

The learner randomizes the expansion weights alpha of w = sum_j alpha_j phi(x_j)
and the attacker randomizes, per sample i, the coefficients xi_i of
x_i = sum_j xi_ij phi(x_j). The margin becomes alpha . K xi_i and, for
independent axis-aligned Gaussians alpha and xi,

    Var(alpha . K xi) = sum_j s2a_j (K mu_xi)_j^2
                      + sum_k s2x_k (K mu_alpha)_k^2
                      + s2a . (K*K) s2x

This is the game of costs.evaluate with M = K and the unit vectors e_i as the
attacker's anchors (the unmoved point phi(x_i) has coefficients e_i); the
primal game is the case M = I with the training points as anchors. Costs and
gradients here are that one evaluation, on a K that check_psd has found
symmetric and PSD, as evaluate multiplies by K from one side only.

The strategies are LearnerParams and AttackerParams with k = n, flattened by
model.flatten / model.unflatten(v, n, n) to the joint layout
[mu_alpha (n); mu_b; sigma_alpha (n); sigma_b; mu_xi_1 (n); sigma_xi_1 (n); ...].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import _vi_game, evaluate
from .model import AttackerParams, Dataset, LearnerParams, ParamBox, ShapeError, _box_pair, flatten
from .ops import VIGame

PSD_TOL = 1e-10

# Default feasible interval for the attacker's expansion coefficients: wide
# enough to reach any convex combination of training points plus overshoot.
XI_MEAN_BOUNDS = (-1.0, 2.0)


@dataclass(frozen=True)
class Kernel:
    kind: str = "linear"
    gamma: float = 1.0

    def __post_init__(self):
        if self.kind not in ("linear", "rbf"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "rbf" and self.gamma <= 0:
            raise ValueError("rbf gamma must be positive")


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


def check_psd(K: np.ndarray, tol: float = PSD_TOL) -> None:
    """Raise ValueError unless K is symmetric to within tol * max(1, max|K|)
    and its smallest eigenvalue is at least -tol."""
    asym = np.abs(K - K.T).max()
    if asym > tol * max(1.0, np.abs(K).max()):
        raise ValueError(f"Gram matrix not symmetric (max |K - K^T| {asym:.3e})")
    w = np.linalg.eigvalsh(K)
    if w.min() < -tol:
        raise ValueError(f"Gram matrix not PSD (min eigenvalue {w.min():.3e})")


def _dual_terms(K, y, rho_l, rho_d, bias_reg):
    """The fixed arguments of costs.evaluate for the dual game: M = K, anchors = I."""
    K2 = K * K
    return (lambda a: a @ K, np.diag(K).copy(), lambda v: v @ K2, np.eye(K.shape[0]),
            np.asarray(y, dtype=float), rho_l, rho_d, bias_reg)


def dual_costs_and_grads(
    theta_l: LearnerParams, theta_d: AttackerParams, K, rho_l, rho_d, y, bias_reg: float = 0.0
):
    """Closed-form dual costs and the gradient of each cost in its own block.

    Expected regularizers use E[a.Ka] = mu.K mu + diag(K).sigma^2 and, for the
    attacker, the same with the shift to the unit coefficient vector e_i.

    Returns (cost_l, cost_d, grad): grad is flat and unweighted, in the layout
    of model.flatten with the learner block (2n + 2 entries) first.
    """
    K = np.asarray(K, dtype=float)
    n = theta_l.k
    if K.shape != (n, n) or theta_d.n != n or theta_d.k != n:
        raise ShapeError("kernel size inconsistent with dual parameters")
    check_psd(K)
    return evaluate(flatten(theta_l, theta_d), *_dual_terms(K, y, rho_l, rho_d, bias_reg))


def default_dual_boxes(n: int, W: float = 1.0) -> tuple[ParamBox, ParamBox]:
    """Learner coefficients and bias mean in [-W, W]; attacker coefficients in
    the fixed expansion interval; deviations share the primal intervals."""
    return _box_pair(n, n, W, XI_MEAN_BOUNDS)


def dual_game_operator(
    data: Dataset,
    kernel: Kernel,
    rho_l: float,
    rho_d: float,
    learner_box: ParamBox | None = None,
    attacker_box: ParamBox | None = None,
    bias_reg: float = 0.0,
) -> VIGame:
    """Flat-vector operator view of the dual game for the solver."""
    n = data.n
    K = gram(data, kernel)
    check_psd(K)
    if learner_box is None or attacker_box is None:
        lb, ab = default_dual_boxes(n)
        learner_box = learner_box or lb
        attacker_box = attacker_box or ab
    if learner_box.dim != 2 * n + 2 or attacker_box.dim != 2 * n * n:
        raise ShapeError("dual box dimensions inconsistent with n")
    return _vi_game(_dual_terms(K, data.labels, rho_l, rho_d, bias_reg), learner_box, attacker_box)
