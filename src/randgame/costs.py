"""Expected player costs for the randomized SVM game and their analytic
gradients from one evaluation of a joint profile, the game operator, and a
deterministic baseline SVM.

Learner cost:   rho_l/2 (||mu_w~||^2 + ||sigma_w~||^2) + sum_i h(mu_s_i, sigma_i)
Attacker cost:  sum_i rho_d/2 (||mu_x_i - xhat_i||^2 + ||sigma_x_i||^2)
                + h(mu_t_i, sigma_i)

Both costs depend on the profile only through the margin means
mu_s/t = 1 -+ y(mu_w~.mu_x + mu_b) and one shared variance sigma^2.

rho_d multiplies the attacker's regularizer, and the gradient below is the
derivative of that cost as written. (The published gradient display instead
attaches rho_d to the loss terms, which is inconsistent with the cost it is
derived from; we keep cost/gradient consistency.)
"""

from __future__ import annotations

import numpy as np

from .hinge import hinge_expect
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


def costs_and_grads(theta_l: LearnerParams, theta_d: AttackerParams, game: GameSpec):
    """Both players' costs and the gradient of each cost in its own block.

    Returns (cost_l, cost_d, grad): grad is flat and unweighted, in the joint
    layout with the learner block (game.dim_l entries) first.
    """
    if theta_l.k != game.k or theta_d.k != game.k or theta_d.n != game.n:
        raise ShapeError("parameters inconsistent with the game's dataset")
    y = game.dataset.labels
    mu_w, sig_w = theta_l.mu_tilde, theta_l.sigma_tilde
    mu_x, sig_x = theta_d.mu_x, theta_d.sigma_x
    s2x = sig_x**2
    m2x = s2x + mu_x**2
    score = mu_x @ mu_w + theta_l.mu_b
    sigma = np.sqrt(m2x @ sig_w**2 + s2x @ mu_w**2 + theta_l.sigma_b**2)
    h_s, p_s, v_s = hinge_expect(1.0 - y * score, sigma)
    h_t, p_t, v_t = hinge_expect(1.0 + y * score, sigma)

    diff = mu_x - game.dataset.features
    cost_l = (
        0.5 * game.rho_l * (mu_w @ mu_w + sig_w @ sig_w)
        + 0.5 * game.bias_reg * (theta_l.mu_b**2 + theta_l.sigma_b**2)
        + h_s.sum()
    )
    cost_d = 0.5 * game.rho_d * ((diff**2).sum() + s2x.sum()) + h_t.sum()

    py_s = p_s * y
    d_mu_x = (
        game.rho_d * diff
        + np.outer(p_t * y, mu_w)
        + 2.0 * v_t[:, None] * mu_x * sig_w**2
    )
    d_sigma_x = game.rho_d * sig_x + 2.0 * v_t[:, None] * sig_x * (sig_w**2 + mu_w**2)
    grad = np.concatenate(
        [
            game.rho_l * mu_w - py_s @ mu_x + 2.0 * mu_w * (v_s @ s2x),
            [game.bias_reg * theta_l.mu_b - py_s.sum()],
            game.rho_l * sig_w + 2.0 * sig_w * (v_s @ m2x),
            [game.bias_reg * theta_l.sigma_b + 2.0 * theta_l.sigma_b * v_s.sum()],
            np.hstack([d_mu_x, d_sigma_x]).ravel(),
        ]
    )
    return float(cost_l), float(cost_d), grad


def game_operator(game: GameSpec) -> VIGame:
    """Flat-vector operator view of the SVM game, as consumed by the solver
    and the diagnostics; its costs and pseudo-gradient (with
    r = (1, rho_l/rho_d)) all come from costs_and_grads."""
    n, k = game.n, game.k
    r_d = game.rho_l / game.rho_d

    def evaluate(theta):
        return costs_and_grads(*unflatten(theta, n, k), game)

    def pgrad(theta):
        g = evaluate(theta)[2]
        g[game.dim_l :] *= r_d
        return g

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
        cost_l=lambda theta: evaluate(theta)[0],
        cost_d=lambda theta: evaluate(theta)[1],
        pseudo_grad=pgrad,
        r=(1.0, r_d),
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
    "costs_and_grads",
    "flatten",
    "game_operator",
    "nominal_attacker",
    "train_baseline_svm",
]
