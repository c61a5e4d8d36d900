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

The joint flat layout of the dual game is
[mu_alpha (n); mu_b; sigma_alpha (n); sigma_b; mu_xi_1 (n); sigma_xi_1 (n); ...].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import _vi_game, evaluate
from .hinge import MarginMoments
from .model import Dataset, ParamBox, ShapeError, _box_pair
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


@dataclass(frozen=True)
class DualParams:
    """Dual strategies: learner (mu_alpha, sigma_alpha, bias) and the
    attacker's per-sample coefficient Gaussians (rows of mu_xi/sigma_xi)."""

    mu_alpha: np.ndarray
    sigma_alpha: np.ndarray
    mu_b: float
    sigma_b: float
    mu_xi: np.ndarray
    sigma_xi: np.ndarray

    def __post_init__(self):
        ma = np.asarray(self.mu_alpha, dtype=float)
        sa = np.asarray(self.sigma_alpha, dtype=float)
        mx = np.asarray(self.mu_xi, dtype=float)
        sx = np.asarray(self.sigma_xi, dtype=float)
        n = ma.shape[0]
        if sa.shape != (n,) or mx.shape != (n, n) or sx.shape != (n, n):
            raise ShapeError("dual parameter shapes inconsistent")
        if not (np.all(sa > 0) and np.all(sx > 0) and self.sigma_b > 0):
            raise ValueError("dual deviations must be strictly positive")
        for name, arr in (
            ("mu_alpha", ma),
            ("sigma_alpha", sa),
            ("mu_xi", mx),
            ("sigma_xi", sx),
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.mu_alpha.shape[0]


def flatten_dual(dual: DualParams) -> np.ndarray:
    return np.concatenate(
        [
            dual.mu_alpha,
            [dual.mu_b],
            dual.sigma_alpha,
            [dual.sigma_b],
            np.hstack([dual.mu_xi, dual.sigma_xi]).ravel(),
        ]
    )


def unflatten_dual(v, n: int) -> DualParams:
    v = np.asarray(v, dtype=float)
    if v.shape != (2 * n + 2 + 2 * n * n,):
        raise ShapeError("dual flat vector length inconsistent with n")
    mu_alpha = v[:n].copy()
    mu_b = float(v[n])
    sigma_alpha = v[n + 1 : 2 * n + 1].copy()
    sigma_b = float(v[2 * n + 1])
    blocks = v[2 * n + 2 :].reshape(n, 2 * n)
    return DualParams(
        mu_alpha, sigma_alpha, mu_b, sigma_b, blocks[:, :n].copy(), blocks[:, n:].copy()
    )


def dual_margin_moments(
    side, y, mu_alpha, sigma_alpha, mu_b, sigma_b, mu_xi, sigma_xi, K
) -> MarginMoments:
    """Moments of 1 -+ y(alpha . K xi + b) for one sample's xi Gaussian."""
    if side not in ("learner", "attacker"):
        raise ValueError(f"unknown side {side!r}")
    mu_alpha = np.asarray(mu_alpha, dtype=float)
    mu_xi = np.asarray(mu_xi, dtype=float)
    s2a = np.asarray(sigma_alpha, dtype=float) ** 2
    s2x = np.asarray(sigma_xi, dtype=float) ** 2
    n = mu_alpha.shape[0]
    K = np.asarray(K, dtype=float)
    if K.shape != (n, n) or mu_xi.shape != (n,) or s2a.shape != (n,) or s2x.shape != (n,):
        raise ShapeError("dual moment inputs inconsistent with kernel size")
    Kxi = K @ mu_xi
    Ka = K.T @ mu_alpha
    score = float(mu_alpha @ Kxi + mu_b)
    sign = -1.0 if side == "learner" else 1.0
    mu = 1.0 + sign * y * score
    var = float(s2a @ Kxi**2 + s2x @ Ka**2 + s2a @ (K * K) @ s2x + sigma_b**2)
    return MarginMoments(mu, var)


def _dual_terms(K, y, rho_l, rho_d, bias_reg):
    """The fixed arguments of costs.evaluate for the dual game: M = K, anchors = I."""
    K2 = K * K
    return (lambda a: a @ K, np.diag(K).copy(), lambda v: v @ K2, np.eye(K.shape[0]),
            np.asarray(y, dtype=float), rho_l, rho_d, bias_reg)


def dual_costs_and_grads(dual: DualParams, K, rho_l, rho_d, y, bias_reg: float = 0.0):
    """Closed-form dual costs and the gradient of each cost in its own block.

    Expected regularizers use E[a.Ka] = mu.K mu + diag(K).sigma^2 and, for the
    attacker, the same with the shift to the unit coefficient vector e_i.

    Returns (cost_l, cost_d, grad): grad is flat and unweighted, in the dual
    layout with the learner block (2n + 2 entries) first.
    """
    K = np.asarray(K, dtype=float)
    if K.shape != (dual.n, dual.n):
        raise ShapeError("kernel size inconsistent with dual parameters")
    check_psd(K)
    return evaluate(flatten_dual(dual), *_dual_terms(K, y, rho_l, rho_d, bias_reg))


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
