"""Kernelized randomized prediction game over dual expansion coefficients.

The learner randomizes the expansion weights alpha of w = sum_j alpha_j phi(x_j)
and the attacker randomizes, per sample i, the coefficients xi_i of
x_i = sum_j xi_ij phi(x_j). The margin becomes alpha . K xi_i and, for
independent axis-aligned Gaussians alpha and xi,

    Var(alpha . K xi) = sum_j s2a_j (K mu_xi)_j^2
                      + sum_k s2x_k (K mu_alpha)_k^2
                      + s2a . (K*K) s2x

which specializes to the primal variance formula at K = I.

The joint flat layout of the dual game is
[mu_alpha (n); mu_b; sigma_alpha (n); sigma_b; mu_xi_1 (n); sigma_xi_1 (n); ...].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hinge import MarginMoments, hinge_expect
from .model import (
    ATTACKER_DEV_BOUNDS,
    Dataset,
    LEARNER_DEV_BOUNDS,
    ParamBox,
    ShapeError,
)
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
        if np.any(sa <= 0) or np.any(sx <= 0) or self.sigma_b <= 0:
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


def dual_costs_and_grads(dual: DualParams, K, rho_l, rho_d, y, bias_reg: float = 0.0):
    """Closed-form dual costs and the gradient of each cost in its own block.

    Expected regularizers use E[a.Ka] = mu.K mu + diag(K).sigma^2 and, for the
    attacker, the same with the shift to the unit coefficient vector e_i.

    Returns (cost_l, cost_d, grad): grad is flat and unweighted, in the dual
    layout with the learner block (2n + 2 entries) first.
    """
    n = dual.n
    K = np.asarray(K, dtype=float)
    if K.shape != (n, n):
        raise ShapeError("kernel size inconsistent with dual parameters")
    check_psd(K)
    y = np.asarray(y, dtype=float)
    return _costs_and_grads(dual, K, np.diag(K).copy(), K * K, rho_l, rho_d, y, bias_reg)


def _costs_and_grads(dual: DualParams, K, dK, K2, rho_l, rho_d, y, bias_reg):
    """dual_costs_and_grads on a checked PSD K with dK = diag(K), K2 = K*K."""
    s2a = dual.sigma_alpha**2
    s2x = dual.sigma_xi**2
    KXi = dual.mu_xi @ K.T  # row i is K mu_xi_i
    Ka = K.T @ dual.mu_alpha
    score = KXi @ dual.mu_alpha + dual.mu_b
    sig = np.sqrt(KXi**2 @ s2a + s2x @ Ka**2 + s2x @ K2 @ s2a + dual.sigma_b**2)
    h_s, p_s, v_s = hinge_expect(1.0 - y * score, sig)
    h_t, p_t, v_t = hinge_expect(1.0 + y * score, sig)

    shifted = dual.mu_xi - np.eye(dual.n)
    K_shifted = shifted @ K.T  # row i is K (mu_xi_i - e_i)
    cost_l = (
        0.5 * rho_l * (dual.mu_alpha @ Ka + dK @ s2a)
        + 0.5 * bias_reg * (dual.mu_b**2 + dual.sigma_b**2)
        + h_s.sum()
    )
    cost_d = 0.5 * rho_d * ((shifted * K_shifted).sum() + (s2x * dK).sum()) + h_t.sum()

    py_s = p_s * y
    s2x_w = v_s @ s2x  # sum_i v_s_i * sigma_xi_i^2
    d_mu_xi = (
        rho_d * K_shifted
        + np.outer(p_t * y, Ka)
        + 2.0 * (v_t[:, None] * KXi) @ (s2a[:, None] * K)
    )
    d_sigma_xi = rho_d * (dual.sigma_xi * dK) + 2.0 * dual.sigma_xi * (
        v_t[:, None] * (Ka**2 + K2.T @ s2a)
    )
    grad = np.concatenate(
        [
            rho_l * (K @ dual.mu_alpha) - py_s @ KXi + 2.0 * K.T @ (s2x_w * Ka),
            [bias_reg * dual.mu_b - py_s.sum()],
            rho_l * (dK * dual.sigma_alpha)
            + 2.0 * dual.sigma_alpha * (v_s @ KXi**2 + K2 @ s2x_w),
            [bias_reg * dual.sigma_b + 2.0 * dual.sigma_b * v_s.sum()],
            np.hstack([d_mu_xi, d_sigma_xi]).ravel(),
        ]
    )
    return float(cost_l), float(cost_d), grad


def default_dual_boxes(n: int, W: float = 1.0) -> tuple[ParamBox, ParamBox]:
    """Learner coefficients and bias mean in [-W, W]; attacker coefficients in
    the fixed expansion interval; deviations share the primal intervals."""
    if W <= 0:
        raise ValueError("W must be positive")
    l_lo = np.concatenate([np.full(n + 1, -W), np.full(n + 1, LEARNER_DEV_BOUNDS[0])])
    l_up = np.concatenate([np.full(n + 1, W), np.full(n + 1, LEARNER_DEV_BOUNDS[1])])
    a_lo = np.tile(
        np.concatenate(
            [np.full(n, XI_MEAN_BOUNDS[0]), np.full(n, ATTACKER_DEV_BOUNDS[0])]
        ),
        n,
    )
    a_up = np.tile(
        np.concatenate(
            [np.full(n, XI_MEAN_BOUNDS[1]), np.full(n, ATTACKER_DEV_BOUNDS[1])]
        ),
        n,
    )
    return ParamBox(l_lo, l_up), ParamBox(a_lo, a_up)


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
    y = data.labels
    if learner_box is None or attacker_box is None:
        lb, ab = default_dual_boxes(n)
        learner_box = learner_box or lb
        attacker_box = attacker_box or ab
    dim_l = 2 * n + 2
    dim_d = 2 * n * n
    if learner_box.dim != dim_l or attacker_box.dim != dim_d:
        raise ShapeError("dual box dimensions inconsistent with n")

    dK, K2 = np.diag(K).copy(), K * K
    r_d = rho_l / rho_d

    def evaluate(theta):
        return _costs_and_grads(unflatten_dual(theta, n), K, dK, K2, rho_l, rho_d, y, bias_reg)

    def pgrad(theta):
        g = evaluate(theta)[2]
        g[dim_l:] *= r_d
        return g

    return VIGame(
        dim_l=dim_l,
        dim_d=dim_d,
        lower=np.concatenate([learner_box.lower, attacker_box.lower]),
        upper=np.concatenate([learner_box.upper, attacker_box.upper]),
        cost_l=lambda theta: evaluate(theta)[0],
        cost_d=lambda theta: evaluate(theta)[1],
        pseudo_grad=pgrad,
        r=(1.0, r_d),
        rho=(rho_l, rho_d),
    )
