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

from .hinge import MarginMoments, hinge_expect, hinge_expect_dmu, hinge_expect_dvar
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


def _dual_moment_arrays(dual: DualParams, y, K):
    """Vectorized per-sample moments; row i of KXi is K mu_xi_i."""
    s2a = dual.sigma_alpha**2
    s2x = dual.sigma_xi**2
    KXi = dual.mu_xi @ K.T
    Ka = K.T @ dual.mu_alpha
    score = KXi @ dual.mu_alpha + dual.mu_b
    mu_s = 1.0 - y * score
    mu_t = 1.0 + y * score
    var = KXi**2 @ s2a + s2x @ Ka**2 + s2x @ (K * K) @ s2a + dual.sigma_b**2
    return mu_s, mu_t, var, KXi, Ka, s2a, s2x


def dual_costs_and_grads(dual: DualParams, K, rho_l, rho_d, y, bias_reg: float = 0.0):
    """Closed-form dual costs and all gradient blocks.

    Expected regularizers use E[a.Ka] = mu.K mu + diag(K).sigma^2 and, for the
    attacker, the same with the shift to the unit coefficient vector e_i.

    Returns (cost_l, cost_d, grads) with grads a dict holding the learner
    blocks (d_mu_alpha, d_sigma_alpha, d_mu_b, d_sigma_b) and the attacker
    blocks (d_mu_xi, d_sigma_xi) as n x n arrays.
    """
    n = dual.n
    K = np.asarray(K, dtype=float)
    if K.shape != (n, n):
        raise ShapeError("kernel size inconsistent with dual parameters")
    check_psd(K)
    y = np.asarray(y, dtype=float)
    dK = np.diag(K).copy()
    K2 = K * K
    mu_s, mu_t, var, KXi, Ka, s2a, s2x = _dual_moment_arrays(dual, y, K)
    sig = np.sqrt(var)

    reg_l = float(dual.mu_alpha @ K @ dual.mu_alpha + dK @ s2a)
    shifted = dual.mu_xi - np.eye(n)
    reg_d_per = np.einsum("ij,jk,ik->i", shifted, K, shifted) + s2x @ dK
    cost_l = (
        0.5 * rho_l * reg_l
        + 0.5 * bias_reg * (dual.mu_b**2 + dual.sigma_b**2)
        + float(hinge_expect(mu_s, sig).sum())
    )
    cost_d = float(0.5 * rho_d * reg_d_per.sum() + hinge_expect(mu_t, sig).sum())

    h_mu_s = hinge_expect_dmu(mu_s, sig)
    h_var_s = hinge_expect_dvar(mu_s, sig)
    h_mu_t = hinge_expect_dmu(mu_t, sig)
    h_var_t = hinge_expect_dvar(mu_t, sig)

    s2x_w = h_var_s @ s2x  # sum_i h_var_s_i * sigma_xi_i^2
    d_mu_alpha = (
        rho_l * (K @ dual.mu_alpha)
        - (h_mu_s * y) @ KXi
        + 2.0 * K.T @ (s2x_w * Ka)
    )
    d_sigma_alpha = rho_l * (dK * dual.sigma_alpha) + 2.0 * dual.sigma_alpha * (
        h_var_s @ KXi**2 + K2 @ s2x_w
    )
    d_mu_b = bias_reg * dual.mu_b - float((h_mu_s * y).sum())
    d_sigma_b = bias_reg * dual.sigma_b + 2.0 * dual.sigma_b * float(h_var_s.sum())

    d_mu_xi = (
        rho_d * (shifted @ K.T)
        + np.outer(h_mu_t * y, Ka)
        + 2.0 * (h_var_t[:, None] * KXi) @ (s2a[:, None] * K)
    )
    d_sigma_xi = rho_d * (dual.sigma_xi * dK) + 2.0 * dual.sigma_xi * (
        h_var_t[:, None] * (Ka**2 + K2.T @ s2a)
    )

    grads = {
        "d_mu_alpha": d_mu_alpha,
        "d_sigma_alpha": d_sigma_alpha,
        "d_mu_b": d_mu_b,
        "d_sigma_b": d_sigma_b,
        "d_mu_xi": d_mu_xi,
        "d_sigma_xi": d_sigma_xi,
    }
    return cost_l, cost_d, grads


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

    def cost_l(theta):
        c, _, _ = dual_costs_and_grads(unflatten_dual(theta, n), K, rho_l, rho_d, y, bias_reg)
        return c

    def cost_d(theta):
        _, c, _ = dual_costs_and_grads(unflatten_dual(theta, n), K, rho_l, rho_d, y, bias_reg)
        return c

    r = (1.0, rho_l / rho_d)

    def pgrad(theta):
        _, _, g = dual_costs_and_grads(unflatten_dual(theta, n), K, rho_l, rho_d, y, bias_reg)
        g_l = np.concatenate(
            [g["d_mu_alpha"], [g["d_mu_b"]], g["d_sigma_alpha"], [g["d_sigma_b"]]]
        )
        g_d = np.hstack([g["d_mu_xi"], g["d_sigma_xi"]]).ravel()
        return np.concatenate([r[0] * g_l, r[1] * g_d])

    return VIGame(
        dim_l=dim_l,
        dim_d=dim_d,
        lower=np.concatenate([learner_box.lower, attacker_box.lower]),
        upper=np.concatenate([learner_box.upper, attacker_box.upper]),
        cost_l=cost_l,
        cost_d=cost_d,
        pseudo_grad=pgrad,
        r=r,
        rho=(rho_l, rho_d),
    )


def save_gram_csv(path, K) -> None:
    np.savetxt(path, K, delimiter=",", fmt="%.17g")
