"""Expected player costs of the randomized prediction game and their analytic
gradients from one evaluation of a joint profile, the game operator, and a
deterministic baseline SVM.

One evaluation serves both games. The margins are 1 -+ y_i(a.M x_i + b) for a
symmetric PSD metric M, and the attacker's regularizer pulls each x_i towards
its anchor xhat_i in the same metric:

Learner cost:   rho_l/2 (mu_a.M mu_a + diag(M).sigma_a^2)
                + bias_reg/2 (mu_b^2 + sigma_b^2) + sum_i h(mu_s_i, sigma_i)
Attacker cost:  sum_i rho_d/2 ((mu_x_i - xhat_i).M(mu_x_i - xhat_i)
                + diag(M).sigma_x_i^2) + h(mu_t_i, sigma_i)

Both costs depend on the profile only through the margin means
mu_s/t = 1 -+ y(mu_a.M mu_x + mu_b) and one shared variance sigma^2. The
primal SVM game is M = I with the training points as anchors; the kernel game
(kernel.py) is M = K with the unit vectors as anchors.

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
    ParamBox,
    ShapeError,
    flatten,
)
from .ops import VIGame


def evaluate(theta, by_M, dM, by_M2, anchors, y, rho_l, rho_d, bias_reg):
    """Both players' costs and the gradient of each cost in its own block at
    the flat joint profile theta = [mu_a (m); mu_b; sigma_a (m); sigma_b; per
    row (mu_x_i (m), sigma_x_i (m))], for anchors of shape (n, m).

    M enters only as by_M(a) = a M (a vector, or each row of a matrix),
    by_M2(v) = v (M*M) and dM = diag(M); the primal game passes the identity
    for both maps, so M = I costs nothing. Returns (cost_l, cost_d, grad):
    grad is flat and unweighted in the layout of theta.
    """
    n, m = anchors.shape
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (2 * m + 2 + 2 * n * m,):
        raise ShapeError(f"vector shape {theta.shape} inconsistent with n={n}, m={m}")
    if not np.isfinite(theta).all():
        raise ValueError("parameters must be finite")
    rows = theta[2 * m + 2 :].reshape(n, 2 * m)
    mu_x, sig_x = rows[:, :m].copy(), rows[:, m:].copy()
    if not ((theta[m + 1 : 2 * m + 2] > 0).all() and (sig_x > 0).all()):
        raise ValueError("deviations must be strictly positive")
    mu_a, mu_b = theta[:m], theta[m]
    sig_a, sig_b = theta[m + 1 : 2 * m + 1], theta[2 * m + 1]

    s2a, s2x = sig_a**2, sig_x**2
    Mx = by_M(mu_x)  # row i is M mu_x_i
    Mx2 = Mx**2
    Ma = by_M(mu_a)
    w_x = Ma**2 + by_M2(s2a)  # the weight of sigma_x_i^2 in sigma_i^2
    score = Mx @ mu_a + mu_b
    sigma = np.sqrt(Mx2 @ s2a + s2x @ w_x + sig_b**2)
    h_s, p_s, v_s = hinge_expect(1.0 - y * score, sigma)
    h_t, p_t, v_t = hinge_expect(1.0 + y * score, sigma)

    shifted = mu_x - anchors
    M_shifted = by_M(shifted)  # row i is M (mu_x_i - xhat_i)
    cost_l = (
        0.5 * rho_l * (mu_a @ Ma + dM @ s2a)
        + 0.5 * bias_reg * (mu_b**2 + sig_b**2)
        + h_s.sum()
    )
    cost_d = 0.5 * rho_d * ((shifted * M_shifted).sum() + (s2x @ dM).sum()) + h_t.sum()

    py_s = p_s * y
    s2x_w = v_s @ s2x  # sum_i v_s_i * sigma_x_i^2
    grad = np.empty_like(theta)
    grad[:m] = rho_l * Ma - py_s @ Mx + 2.0 * by_M(s2x_w * Ma)
    grad[m] = bias_reg * mu_b - py_s.sum()
    grad[m + 1 : 2 * m + 1] = rho_l * (dM * sig_a) + 2.0 * sig_a * (v_s @ Mx2 + by_M2(s2x_w))
    grad[2 * m + 1] = bias_reg * sig_b + 2.0 * sig_b * v_s.sum()
    g_rows = grad[2 * m + 2 :].reshape(n, 2 * m)
    g_rows[:, :m] = (rho_d * M_shifted + np.outer(p_t * y, Ma)
                     + 2.0 * by_M(v_t[:, None] * Mx * s2a))
    g_rows[:, m:] = rho_d * (sig_x * dM) + 2.0 * sig_x * (v_t[:, None] * w_x)
    return float(cost_l), float(cost_d), grad


def _vi_game(terms, learner_box: ParamBox, attacker_box: ParamBox, **reg_hess) -> VIGame:
    """Operator whose costs and pseudo-gradient (with r = (1, rho_l/rho_d)) all
    come from one evaluate(theta, *terms) call."""
    _, _, _, _, _, rho_l, rho_d, _ = terms
    dim_l = learner_box.dim
    r_d = rho_l / rho_d

    def joint(theta):
        return evaluate(theta, *terms)

    def pgrad(theta):
        g = joint(theta)[2]
        g[dim_l:] *= r_d
        return g

    return VIGame(
        dim_l=dim_l,
        dim_d=attacker_box.dim,
        lower=np.concatenate([learner_box.lower, attacker_box.lower]),
        upper=np.concatenate([learner_box.upper, attacker_box.upper]),
        cost_l=lambda theta: joint(theta)[0],
        cost_d=lambda theta: joint(theta)[1],
        pseudo_grad=pgrad,
        r=(1.0, r_d),
        rho=(rho_l, rho_d),
        **reg_hess,
    )


def _identity(a):
    return a


def _primal_terms(game: GameSpec):
    """The fixed arguments of evaluate for the SVM game: M = I, anchors = X."""
    return (_identity, np.ones(game.k), _identity, game.dataset.features,
            game.dataset.labels, game.rho_l, game.rho_d, game.bias_reg)


def costs_and_grads(theta_l: LearnerParams, theta_d: AttackerParams, game: GameSpec):
    """Both players' costs and the gradient of each cost in its own block.

    Returns (cost_l, cost_d, grad): grad is flat and unweighted, in the joint
    layout with the learner block (game.dim_l entries) first.
    """
    if theta_l.k != game.k or theta_d.k != game.k or theta_d.n != game.n:
        raise ShapeError("parameters inconsistent with the game's dataset")
    return evaluate(flatten(theta_l, theta_d), *_primal_terms(game))


def game_operator(game: GameSpec) -> VIGame:
    """Flat-vector operator view of the SVM game, as consumed by the solver
    and the diagnostics; its costs and pseudo-gradient (with
    r = (1, rho_l/rho_d)) all come from one evaluation."""
    # Expected-regularizer Hessians (diagonal, constant), without rho weights.
    # The optional bias term enters the learner's diagonal scaled by 1/rho_l so
    # that rho_l * reg_hess_l is the Hessian of the full regularization part.
    k, eps = game.k, game.bias_reg / game.rho_l
    return _vi_game(
        _primal_terms(game),
        game.learner_box,
        game.attacker_box,
        reg_hess_l=np.concatenate([np.ones(k), [eps], np.ones(k), [eps]]),
        reg_hess_d=np.ones(game.dim_d),
    )


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
