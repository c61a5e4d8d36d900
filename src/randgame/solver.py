"""Modified extragradient descent for the game's variational inequality.

One iteration from the current feasible point theta:

    d      = P(theta - g(theta)) - theta
    t      = max { beta^p } with -g(theta + t d) . d >= sigma ||d||^2
    eta    = -(t / ||g(theta_bar)||^2) * g(theta_bar) . d
    theta' = P(theta - eta * g(theta_bar))

stopping when the squared step ||theta' - theta||^2 drops below epsilon.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import costs as _costs
from .model import AttackerParams, GameSpec, LearnerParams, unflatten
from .ops import VIGame

TERM_TOLERANCE = "tolerance"
TERM_MAX_ITER = "max_iter"
TERM_LINESEARCH = "linesearch_fail"


@dataclass(frozen=True)
class SolverConfig:
    sigma_ls: float = 0.5
    beta: float = 0.5
    epsilon: float = 1e-10
    max_iter: int = 5000
    max_linesearch_pow: int = 60
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.sigma_ls < 1.0 and 0.0 < self.beta < 1.0):
            raise ValueError("sigma_ls and beta must lie in (0, 1)")
        if self.epsilon <= 0 or self.max_iter < 1 or self.max_linesearch_pow < 1:
            raise ValueError("bad solver configuration")


@dataclass(frozen=True)
class EquilibriumResult:
    theta: np.ndarray
    dim_l: int
    iterations: int
    residual_trace: np.ndarray
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


def extragradient_solve(
    ops: VIGame, init: np.ndarray | None = None, cfg: SolverConfig = SolverConfig()
) -> EquilibriumResult:
    """Run the modified extragradient descent on a game operator."""
    rng = np.random.default_rng(cfg.seed)
    theta = ops.project(
        np.asarray(init, dtype=float) if init is not None else _uniform_init(ops, rng)
    )
    trace: list[float] = []
    termination = TERM_MAX_ITER
    for _ in range(cfg.max_iter):
        g = ops.pseudo_grad(theta)
        if not np.all(np.isfinite(g)):
            raise FloatingPointError("non-finite pseudo-gradient")
        d = ops.project(theta - g) - theta
        dd = float(d @ d)
        if dd == 0.0:
            # theta is a fixed point of the projected operator
            trace.append(0.0)
            termination = TERM_TOLERANCE
            break

        t = 1.0
        g_bar = None
        accepted = False
        for _p in range(cfg.max_linesearch_pow + 1):
            g_bar = ops.pseudo_grad(theta + t * d)
            if -float(g_bar @ d) >= cfg.sigma_ls * dd:
                accepted = True
                break
            t *= cfg.beta
        if not accepted:
            termination = TERM_LINESEARCH
            break

        gg = float(g_bar @ g_bar)
        if gg == 0.0:
            theta_next = ops.project(theta + t * d)
        else:
            eta = -(t / gg) * float(g_bar @ d)
            theta_next = ops.project(theta - eta * g_bar)

        step_sq = float(np.sum((theta_next - theta) ** 2))
        trace.append(step_sq)
        theta = theta_next
        if step_sq <= cfg.epsilon:
            termination = TERM_TOLERANCE
            break

    converged = termination == TERM_TOLERANCE
    return EquilibriumResult(
        theta=theta,
        dim_l=ops.dim_l,
        iterations=len(trace),
        residual_trace=np.asarray(trace),
        converged=converged,
        termination=termination,
    )


def vi_residual(theta: np.ndarray, ops: VIGame) -> float:
    """||P(theta - g(theta)) - theta||; zero exactly at VI solutions."""
    g = ops.pseudo_grad(theta)
    return float(np.linalg.norm(ops.project(theta - g) - theta))


def _best_response_descent(ops, theta, block, steps):
    """Projected descent on one player's own block, opponent fixed.

    Returns the best cost found. Step sizes adapt multiplicatively.
    """
    cost_fn = ops.cost_l if block == "l" else ops.cost_d
    sl = slice(0, ops.dim_l) if block == "l" else slice(ops.dim_l, ops.dim)
    lo, up = ops.lower[sl], ops.upper[sl]
    full = theta.copy()
    x = full[sl].copy()
    best = cost_fn(full)
    step = 1.0
    for _ in range(steps):
        g = ops.pseudo_grad(full)[sl]
        cand = np.clip(x - step * g, lo, up)
        full_cand = full.copy()
        full_cand[sl] = cand
        c = cost_fn(full_cand)
        if c < best:
            best = c
            x = cand
            full = full_cand
            step *= 1.5
        else:
            step *= 0.5
            if step < 1e-14:
                break
    return best


def nash_verify(theta: np.ndarray, ops: VIGame, steps: int = 200, tol: float = 1e-6) -> bool:
    """Check the Nash condition numerically: neither player can improve its own
    cost by more than tol via projected descent with the opponent fixed."""
    base_l = ops.cost_l(theta)
    base_d = ops.cost_d(theta)
    best_l = _best_response_descent(ops, theta, "l", steps)
    best_d = _best_response_descent(ops, theta, "d", steps)
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


def save_trace_csv(path, result: EquilibriumResult) -> None:
    with open(path, "w") as fh:
        fh.write("iter,step_sq\n")
        for i, v in enumerate(result.residual_trace):
            fh.write(f"{i},{v:.17g}\n")
