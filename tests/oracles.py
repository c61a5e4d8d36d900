"""Helpers that only the tests need: a nominal attacker, per-sample margin
moments written out one sample at a time (independent of the vectorized
evaluation in randgame.costs), and an operator that counts its evaluations."""

import dataclasses

import numpy as np

from randgame.model import AttackerParams, GameSpec, LearnerParams


def nominal_attacker(game: GameSpec) -> AttackerParams:
    """Attacker parked at the training points with deviations at the box floor."""
    n, k = game.n, game.k
    lower = game.attacker_box.lower.reshape(n, 2 * k)
    upper = game.attacker_box.upper.reshape(n, 2 * k)
    return AttackerParams(np.clip(game.dataset.features, lower[:, :k], upper[:, :k]), lower[:, k:])


def margin_moments(side, y, theta_l: LearnerParams, mu_x, sigma_x, M=None):
    """(mean, variance) of the learner margin 1 - y(a.M x + b) or the attacker
    margin 1 + y(a.M x + b) for independent axis-aligned Gaussians a, b and x;
    M defaults to the identity (the primal game)."""
    if side not in ("learner", "attacker"):
        raise ValueError(f"unknown side {side!r}")
    M = np.eye(theta_l.k) if M is None else np.asarray(M, dtype=float)
    mu_a, s2a = theta_l.mu_tilde, theta_l.sigma_tilde**2
    mu_x, s2x = np.asarray(mu_x, dtype=float), np.asarray(sigma_x, dtype=float) ** 2
    Mx, Ma = M @ mu_x, M.T @ mu_a
    sign = -1.0 if side == "learner" else 1.0
    mu = 1.0 + sign * y * (mu_a @ Mx + theta_l.mu_b)
    var = s2a @ Mx**2 + s2x @ Ma**2 + s2a @ (M * M) @ s2x + theta_l.sigma_b**2
    return float(mu), float(var)


def counting_operator(ops):
    """A copy of the VIGame ops that appends (name, copy of theta) for each
    cost_l, cost_d and pseudo_grad call to the returned list."""
    calls = []

    def counted(name):
        fn = getattr(ops, name)

        def call(theta):
            calls.append((name, np.array(theta, dtype=float)))
            return fn(theta)

        return call

    names = ("cost_l", "cost_d", "pseudo_grad")
    return dataclasses.replace(ops, **{name: counted(name) for name in names}), calls
