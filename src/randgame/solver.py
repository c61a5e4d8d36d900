"""Adaptive-step extragradient method for the game's variational inequality.

Korpelevich's extragradient with a local-Lipschitz step (Khobotov 1987;
Marcotte 1991). One iteration from the feasible point theta, with g = F(theta)
the pseudo-gradient and P the clamp onto the box:

    r      = ||P(theta - g) - theta||, stop when r <= epsilon
    y      = P(theta - lam g), accepted when lam ||F(y) - g|| <= MU ||y - theta||,
             else lam <- 0.99 MU ||y - theta|| / ||F(y) - g|| and retry
    theta' = P(theta - lam F(y)), then lam <- GROWTH lam

The natural residual r is zero exactly at a solution; F(theta') both opens the
next iteration and measures its residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import costs as _costs
from .model import AttackerParams, GameSpec, LearnerParams, unflatten
from .ops import VIGame

TERM_TOLERANCE = "tolerance"
TERM_MAX_ITER = "max_iter"
# Never returned; kept because the benchmark's tracer (bench/tracing.py) reads it.
TERM_LINESEARCH = "linesearch_fail"

MU = 0.9  # largest accepted ratio of lam ||F(y) - g|| to ||y - theta||
GROWTH = 1.05  # step growth after each accepted iteration
BEST_RESPONSE_STEPS = 200  # descent steps per player in nash_verify


@dataclass(frozen=True)
class SolverConfig:
    epsilon: float = 1e-8  # tolerance on the natural residual norm
    max_iter: int = 5000
    seed: int = 0

    def __post_init__(self):
        if self.epsilon <= 0 or self.max_iter < 1:
            raise ValueError("bad solver configuration")


@dataclass(frozen=True)
class EquilibriumResult:
    theta: np.ndarray
    dim_l: int
    iterations: int
    residual_trace: np.ndarray  # natural residual at the start of each iteration
    residual: float  # natural residual at theta
    converged: bool
    termination: str

    @property
    def theta_l(self) -> np.ndarray:
        return self.theta[: self.dim_l]

    @property
    def theta_d(self) -> np.ndarray:
        return self.theta[self.dim_l :]


def _uniform_init(ops: VIGame, rng: np.random.Generator) -> np.ndarray:
    u = rng.uniform(size=ops.dim)
    return ops.lower + u * (ops.upper - ops.lower)


def _grad(ops: VIGame, theta: np.ndarray) -> np.ndarray:
    g = ops.pseudo_grad(theta)
    if not np.all(np.isfinite(g)):
        raise FloatingPointError("non-finite pseudo-gradient")
    return g


def _residual(ops: VIGame, theta: np.ndarray, g: np.ndarray) -> float:
    return float(np.linalg.norm(ops.project(theta - g) - theta))


def extragradient_solve(
    ops: VIGame, init: np.ndarray | None = None, cfg: SolverConfig = SolverConfig()
) -> EquilibriumResult:
    """Run the adaptive-step extragradient method on a game operator."""
    if init is None:
        init = _uniform_init(ops, np.random.default_rng(cfg.seed))
    theta = ops.project(np.asarray(init, dtype=float))
    g = _grad(ops, theta)
    residual = _residual(ops, theta, g)
    lam = 1.0
    trace: list[float] = []
    for _ in range(cfg.max_iter):
        trace.append(residual)
        if residual <= cfg.epsilon:
            break
        while True:
            y = ops.project(theta - lam * g)
            g_y = _grad(ops, y)
            dy = float(np.linalg.norm(y - theta))
            dg = float(np.linalg.norm(g_y - g))
            if lam * dg <= MU * dy:
                break
            lam = 0.99 * MU * dy / dg
        theta = ops.project(theta - lam * g_y)
        g = _grad(ops, theta)
        residual = _residual(ops, theta, g)
        lam *= GROWTH

    converged = residual <= cfg.epsilon
    return EquilibriumResult(
        theta=theta,
        dim_l=ops.dim_l,
        iterations=len(trace),
        residual_trace=np.asarray(trace),
        residual=residual,
        converged=converged,
        termination=TERM_TOLERANCE if converged else TERM_MAX_ITER,
    )


def vi_residual(theta: np.ndarray, ops: VIGame) -> float:
    """||P(theta - g(theta)) - theta||; zero exactly at VI solutions."""
    return _residual(ops, theta, ops.pseudo_grad(theta))


def _best_response_descent(ops, theta, block):
    """Projected descent on one player's own block, opponent fixed.

    Returns the best cost found. Step sizes adapt multiplicatively; the
    gradient is re-evaluated only after an accepted step moves the point.
    """
    cost_fn = ops.cost_l if block == "l" else ops.cost_d
    sl = slice(0, ops.dim_l) if block == "l" else slice(ops.dim_l, ops.dim)
    lo, up = ops.lower[sl], ops.upper[sl]
    full = theta.copy()
    x = full[sl].copy()
    best = cost_fn(full)
    g = None
    step = 1.0
    for _ in range(BEST_RESPONSE_STEPS):
        if g is None:  # the point moved, or this is the first step
            g = ops.pseudo_grad(full)[sl]
        cand = np.clip(x - step * g, lo, up)
        full_cand = full.copy()
        full_cand[sl] = cand
        c = cost_fn(full_cand)
        if c < best:
            best = c
            x = cand
            full = full_cand
            g = None
            step *= 1.5
        else:
            step *= 0.5
            if step < 1e-14:
                break
    return best


def nash_verify(theta: np.ndarray, ops: VIGame, tol: float = 1e-6) -> bool:
    """Check the Nash condition numerically: neither player can improve its own
    cost by more than tol via projected descent with the opponent fixed."""
    base_l = ops.cost_l(theta)
    base_d = ops.cost_d(theta)
    best_l = _best_response_descent(ops, theta, "l")
    best_d = _best_response_descent(ops, theta, "d")
    return (base_l - best_l) <= tol and (base_d - best_d) <= tol


def initial_point(game: GameSpec, seed: int) -> np.ndarray:
    """Uniform draw inside the boxes, with the learner means shrunk toward 0
    so the hinge probabilities do not saturate at iteration 0."""
    ops = _costs.game_operator(game)
    rng = np.random.default_rng(seed)
    theta = _uniform_init(ops, rng)
    m = game.k + 1
    theta[:m] *= 0.1
    return ops.project(theta)


def solve_svm_game(
    game: GameSpec, init: np.ndarray | None = None, cfg: SolverConfig = SolverConfig()
) -> tuple[LearnerParams, AttackerParams, EquilibriumResult]:
    """Solve the randomized SVM game and return typed equilibrium strategies."""
    ops = _costs.game_operator(game)
    if init is None:
        init = initial_point(game, cfg.seed)
    result = extragradient_solve(ops, init, cfg)
    theta_l, theta_d = unflatten(result.theta, game.n, game.k)
    return theta_l, theta_d, result
