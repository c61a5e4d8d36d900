"""Expected player costs for the randomized SVM game, their analytic
gradients, the joint pseudo-gradient, and a deterministic baseline SVM.

Learner cost:   rho_l/2 (||mu_w~||^2 + ||sigma_w~||^2) + sum_i h(mu_s_i, sigma_s_i)
Attacker cost:  sum_i rho_d/2 (||mu_x_i - xhat_i||^2 + ||sigma_x_i||^2)
                + h(mu_t_i, sigma_t_i)

rho_d multiplies the attacker's regularizer, and the gradient below is the
derivative of that cost as written. (The published gradient display instead
attaches rho_d to the loss terms, which is inconsistent with the cost it is
derived from; we keep cost/gradient consistency.)
"""

from __future__ import annotations

import numpy as np

from .hinge import hinge_expect, hinge_expect_dmu, hinge_expect_dvar
from .model import (
    AttackerParams,
    Dataset,
    GameSpec,
    LearnerParams,
    ShapeError,
    flatten,
    unflatten,
)
from .ops import VIGame


def _check_shapes(theta_l: LearnerParams, theta_d: AttackerParams, game: GameSpec):
    if theta_l.k != game.k or theta_d.k != game.k or theta_d.n != game.n:
        raise ShapeError("parameters inconsistent with the game's dataset")


def _moment_arrays(theta_l: LearnerParams, theta_d: AttackerParams, y):
    """Vectorized margin moments over all samples.

    Returns (mu_s, mu_t, var) where var is shared by both sides.
    """
    score = theta_d.mu_x @ theta_l.mu_tilde + theta_l.mu_b
    mu_s = 1.0 - y * score
    mu_t = 1.0 + y * score
    var = (
        (theta_d.sigma_x**2 + theta_d.mu_x**2) @ theta_l.sigma_tilde**2
        + theta_d.sigma_x**2 @ theta_l.mu_tilde**2
        + theta_l.sigma_b**2
    )
    return mu_s, mu_t, var


def learner_cost(theta_l: LearnerParams, theta_d: AttackerParams, game: GameSpec) -> float:
    _check_shapes(theta_l, theta_d, game)
    mu_s, _, var = _moment_arrays(theta_l, theta_d, game.dataset.labels)
    reg = 0.5 * game.rho_l * (
        theta_l.mu_tilde @ theta_l.mu_tilde + theta_l.sigma_tilde @ theta_l.sigma_tilde
    )
    reg += 0.5 * game.bias_reg * (theta_l.mu_b**2 + theta_l.sigma_b**2)
    return float(reg + hinge_expect(mu_s, np.sqrt(var)).sum())


def learner_grad(theta_l: LearnerParams, theta_d: AttackerParams, game: GameSpec):
    """Gradient of learner_cost in (mu_w, sigma_w), each of length k+1."""
    _check_shapes(theta_l, theta_d, game)
    y = game.dataset.labels
    mu_s, _, var = _moment_arrays(theta_l, theta_d, y)
    sig_s = np.sqrt(var)
    h_mu = hinge_expect_dmu(mu_s, sig_s)
    h_var = hinge_expect_dvar(mu_s, sig_s)

    d_mu_tilde = (
        game.rho_l * theta_l.mu_tilde
        - (h_mu * y) @ theta_d.mu_x
        + 2.0 * theta_l.mu_tilde * (h_var @ theta_d.sigma_x**2)
    )
    d_mu_b = game.bias_reg * theta_l.mu_b - float((h_mu * y).sum())
    d_sig_tilde = game.rho_l * theta_l.sigma_tilde + 2.0 * theta_l.sigma_tilde * (
        h_var @ (theta_d.sigma_x**2 + theta_d.mu_x**2)
    )
    d_sig_b = game.bias_reg * theta_l.sigma_b + 2.0 * theta_l.sigma_b * float(h_var.sum())

    d_mu_w = np.concatenate([d_mu_tilde, [d_mu_b]])
    d_sigma_w = np.concatenate([d_sig_tilde, [d_sig_b]])
    return d_mu_w, d_sigma_w


def attacker_cost(theta_l: LearnerParams, theta_d: AttackerParams, game: GameSpec) -> float:
    _check_shapes(theta_l, theta_d, game)
    _, mu_t, var = _moment_arrays(theta_l, theta_d, game.dataset.labels)
    diff = theta_d.mu_x - game.dataset.features
    reg = 0.5 * game.rho_d * float((diff**2).sum() + (theta_d.sigma_x**2).sum())
    return float(reg + hinge_expect(mu_t, np.sqrt(var)).sum())


def attacker_grad(theta_l: LearnerParams, theta_d: AttackerParams, game: GameSpec):
    """Per-sample gradient of attacker_cost: (d_mu_x, d_sigma_x), each n x k."""
    _check_shapes(theta_l, theta_d, game)
    y = game.dataset.labels
    _, mu_t, var = _moment_arrays(theta_l, theta_d, y)
    sig_t = np.sqrt(var)
    h_mu = hinge_expect_dmu(mu_t, sig_t)
    h_var = hinge_expect_dvar(mu_t, sig_t)

    d_mu_x = (
        game.rho_d * (theta_d.mu_x - game.dataset.features)
        + np.outer(h_mu * y, theta_l.mu_tilde)
        + 2.0 * h_var[:, None] * theta_d.mu_x * theta_l.sigma_tilde**2
    )
    d_sigma_x = game.rho_d * theta_d.sigma_x + 2.0 * h_var[:, None] * theta_d.sigma_x * (
        theta_l.sigma_tilde**2 + theta_l.mu_tilde**2
    )
    return d_mu_x, d_sigma_x


def pseudo_gradient(theta_l: LearnerParams, theta_d: AttackerParams, game: GameSpec) -> np.ndarray:
    """Joint flat pseudo-gradient with r = (1, rho_l/rho_d); the learner block
    is the first game.dim_l entries."""
    r_l, r_d = 1.0, game.rho_l / game.rho_d
    d_mu_w, d_sigma_w = learner_grad(theta_l, theta_d, game)
    d_mu_x, d_sigma_x = attacker_grad(theta_l, theta_d, game)
    g_l = r_l * np.concatenate([d_mu_w, d_sigma_w])
    g_d = r_d * np.hstack([d_mu_x, d_sigma_x]).ravel()
    return np.concatenate([g_l, g_d])


def game_operator(game: GameSpec) -> VIGame:
    """Flat-vector operator view of the SVM game, as consumed by the solver
    and the diagnostics."""
    n, k = game.n, game.k

    def _unflat(theta):
        return unflatten(theta, n, k)

    def cost_l(theta):
        return learner_cost(*_unflat(theta), game)

    def cost_d(theta):
        return attacker_cost(*_unflat(theta), game)

    def pgrad(theta):
        return pseudo_gradient(*_unflat(theta), game)

    # Expected-regularizer Hessians (diagonal, constant), without rho weights.
    # The optional bias term enters the learner's diagonal scaled by 1/rho_l so
    # that rho_l * reg_hess_l is the Hessian of the full regularization part.
    eps = game.bias_reg / game.rho_l
    reg_l = np.concatenate([np.ones(k), [eps], np.ones(k), [eps]])
    reg_d = np.ones(2 * n * k)

    return VIGame(
        dim_l=game.dim_l,
        dim_d=game.dim_d,
        lower=np.concatenate([game.learner_box.lower, game.attacker_box.lower]),
        upper=np.concatenate([game.learner_box.upper, game.attacker_box.upper]),
        cost_l=cost_l,
        cost_d=cost_d,
        pseudo_grad=pgrad,
        r=(1.0, game.rho_l / game.rho_d),
        rho=(game.rho_l, game.rho_d),
        reg_hess_l=reg_l,
        reg_hess_d=reg_d,
    )


def nominal_attacker(game: GameSpec, sigma: float | None = None) -> AttackerParams:
    """Attacker parked at the training points with deviations at the box floor."""
    n, k = game.n, game.k
    if sigma is None:
        sig_lo = game.attacker_box.lower.reshape(n, 2 * k)[:, k:]
    else:
        sig_lo = np.full((n, k), sigma)
    mu = np.clip(
        game.dataset.features,
        game.attacker_box.lower.reshape(n, 2 * k)[:, :k],
        game.attacker_box.upper.reshape(n, 2 * k)[:, :k],
    )
    return AttackerParams(mu, sig_lo)


def train_baseline_svm(
    data: Dataset,
    C: float,
    steps: int = 2000,
    step_size: float = 0.1,
    restarts: int = 5,
    seed: int = 0,
):
    """Deterministic C-SVM by subgradient descent on
    1/(2C) ||w~||^2 + sum_i [1 - y_i (w~.x_i + b)]_+,
    best iterate over several random restarts.

    Returns (w_tilde, b).
    """
    if C <= 0:
        raise ValueError("C must be positive")
    X, y = data.features, data.labels
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite feature values")
    n, k = X.shape

    def objective(w, b):
        margins = 1.0 - y * (X @ w + b)
        return 0.5 / C * w @ w + np.maximum(margins, 0.0).sum()

    rng = np.random.default_rng(seed)
    best_obj, best_w, best_b = np.inf, np.zeros(k), 0.0
    for _ in range(restarts):
        w = rng.normal(scale=0.1, size=k)
        b = float(rng.normal(scale=0.1))
        for t in range(steps):
            margins = 1.0 - y * (X @ w + b)
            # minimum-norm subgradient: the kink (margin exactly 0) contributes 0
            active = margins > 0.0
            g_w = w / C - (y[active] @ X[active]) if active.any() else w / C
            g_b = -float(y[active].sum())
            step = step_size / np.sqrt(1.0 + t)
            w = w - step * g_w
            b = b - step * g_b
            obj = objective(w, b)
            if obj < best_obj:
                best_obj, best_w, best_b = obj, w.copy(), b
    return best_w, best_b


__all__ = [
    "attacker_cost",
    "attacker_grad",
    "flatten",
    "game_operator",
    "learner_cost",
    "learner_grad",
    "nominal_attacker",
    "pseudo_gradient",
    "train_baseline_svm",
]
