"""Adaptive-step extragradient method for the game's variational inequality,
with guarded projected Newton steps where the operator gives one.

Korpelevich's extragradient with a local-Lipschitz step (Khobotov 1987;
Marcotte 1991). One iteration from the feasible point theta, with g = F(theta)
the pseudo-gradient and P the clamp onto the box:

    r      = ||P(theta - g) - theta||, stop when r <= epsilon
    y      = P(theta - lam g), accepted when lam ||F(y) - g|| <= MU ||y - theta||,
             else lam <- 0.99 MU ||y - theta|| / ||F(y) - g|| and retry
    theta' = P(theta - lam F(y)), then lam <- GROWTH lam

The natural residual r is zero exactly at a solution; F(theta') both opens the
next iteration and measures its residual. Every game starts, unless given a
start, from initial_point: a seeded uniform draw in the box with the learner
means shrunk by 0.1.

For an operator with a newton, an iteration may first try a projected
Newton step on the box VI, globalized by the natural residual (Josephy 1979;
Facchinei & Pang 2003, ch. 7-8):

    pre-step  z = theta with the coordinates that P(theta - g) clamps moved
              onto that bound, and g_z = F(z) (one evaluation);
    active    the coordinates of z at a bound whose g_z points out of the box;
              the rest are free;
    step      J_FF d = -g_z,F on the free coordinates, d = 0 on the active
              ones, with J the Jacobian at z; candidate c = P(z + d).

The candidate replaces theta, and ends the iteration, when its residual is at
most NEWTON_ACCEPT r; otherwise the iteration takes the extragradient step
from theta unchanged. A singular system or a non-finite step is a rejection
too, never regularized. The operator gives the step as VIGame.newton: J is
arrow-shaped, the learner block and one (b, b) block per attacker row,
coupled only to the learner, so every row block is eliminated, leaving one
Schur system on the learner block (ops.solve_learner). The kernel game and
the test games eliminate the rows densely from one all-rows Jacobian
(ops.dense_newton); the primal game's costs.newton_step eliminates them in
closed form, with 2 x 2 solves.

The operator states what an attempt costs in operator evaluations, as
VIGame.newton_price (ops.dense_newton_price for the dense elimination, which
the primal game keeps for its closed form). An attempt is made once the
extragradient steps since the last attempt have spent price * gap
evaluations, where gap starts at 1, doubles on each rejection and resets to 1
on an acceptance, after which the next iteration tries again at once. An
operator without a newton, and a solve that never spends its first price,
runs the extragradient method alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ShapeError
from .ops import VIGame

TERM_TOLERANCE = "tolerance"
TERM_MAX_ITER = "max_iter"
# Never returned; kept because the benchmark's tracer (bench/tracing.py) reads it.
TERM_LINESEARCH = "linesearch_fail"

MU = 0.9  # largest accepted ratio of lam ||F(y) - g|| to ||y - theta||
GROWTH = 1.05  # step growth after each accepted iteration
NEWTON_ACCEPT = 0.5  # largest accepted ratio of the candidate's residual to r
BEST_RESPONSE_STEPS = 200  # descent steps per player in nash_verify


@dataclass(frozen=True)
class SolverConfig:
    epsilon: float = 1e-8  # tolerance on the natural residual norm
    max_iter: int = 5000
    seed: int = 0

    def __post_init__(self):
        whole = all(isinstance(v, (int, np.integer)) for v in (self.max_iter, self.seed))
        if not (0 < self.epsilon < np.inf and whole and self.max_iter >= 1 and self.seed >= 0):
            raise ValueError("bad solver configuration")  # a NaN epsilon fails too


@dataclass(frozen=True)
class EquilibriumResult:
    theta: np.ndarray  # the flat joint profile
    iterations: int
    residual_trace: np.ndarray  # natural residual at the start of each iteration
    residual: float  # natural residual at theta
    converged: bool
    termination: str
    evaluations: int  # pseudo-gradient calls, Newton pre-steps and candidates included
    newton_accepted: int
    newton_rejected: int  # singular systems and non-finite steps included


def initial_point(game, seed: int) -> np.ndarray:
    """The solver's start for a GameSpec or a VIGame: a seeded uniform draw
    inside the box [game.lower, game.upper], with the learner means (the first
    dim_l // 2 coordinates, by the flat layout) shrunk toward 0 so the hinge
    probabilities do not saturate at iteration 0."""
    lower, upper = game.lower, game.upper
    theta = lower + np.random.default_rng(seed).uniform(size=lower.size) * (upper - lower)
    theta[: game.dim_l // 2] *= 0.1
    return np.clip(theta, lower, upper)


def _grad(ops: VIGame, theta: np.ndarray) -> np.ndarray:
    g = ops.pseudo_grad(theta)
    if not np.isfinite(g).all():
        raise FloatingPointError("non-finite pseudo-gradient")
    return g


def _norm(d: np.ndarray) -> float:
    """np.linalg.norm(d) of a 1-D float vector, without its wrapper."""
    return math.sqrt(d @ d)


def _step(ops: VIGame, theta: np.ndarray, lam: float, g: np.ndarray) -> np.ndarray:
    """P(theta - lam g), built in one array."""
    t = np.multiply(lam, g)
    np.subtract(theta, t, out=t)
    return ops.project(t, out=t)


def _residual(ops: VIGame, theta: np.ndarray, g: np.ndarray) -> float:
    t = np.subtract(theta, g)
    ops.project(t, out=t)
    t -= theta
    return _norm(t)


def _newton_candidate(ops: VIGame, theta: np.ndarray, g: np.ndarray):
    """The Newton candidate P(z + d) from the pre-step point z, or None when
    the step fails. z is theta with the coordinates that P(theta - g) puts on
    a bound moved there, and d = ops.newton(z, F(z), free)."""
    z = np.subtract(theta, g)
    ops.project(z, out=z)
    np.copyto(z, theta, where=(ops.lower < z) & (z < ops.upper))
    g_z = _grad(ops, z)
    free = ~(((z == ops.lower) & (g_z > 0.0)) | ((z == ops.upper) & (g_z < 0.0)))
    d = ops.newton(z, g_z, free)
    if d is None:
        return None
    d += z
    return ops.project(d, out=d)


def extragradient_solve(
    ops: VIGame, init: np.ndarray | None = None, cfg: SolverConfig = SolverConfig()
) -> EquilibriumResult:
    """Run the adaptive-step extragradient method on a game operator from
    init, by default initial_point(ops, cfg.seed), with guarded Newton steps
    when the operator has a newton."""
    init = initial_point(ops, cfg.seed) if init is None else np.asarray(init, dtype=float)
    if init.shape != (ops.dim,):
        raise ShapeError(f"init has shape {init.shape}, not the profile's ({ops.dim},)")
    theta = ops.project(init)
    g = _grad(ops, theta)
    residual = _residual(ops, theta, g)
    lam = 1.0
    trace: list[float] = []
    evaluations, accepted, rejected = 1, 0, 0
    price = ops.newton_price if ops.newton is not None else np.inf
    # the extragradient steps' evaluations since the last attempt are
    # evaluations - since, infinite after an acceptance
    since, gap = evaluations, 1
    for _ in range(cfg.max_iter):
        trace.append(residual)
        if residual <= cfg.epsilon:
            break
        if evaluations - since >= price * gap:
            cand = _newton_candidate(ops, theta, g)
            evaluations += 1
            if cand is not None:
                g_c = _grad(ops, cand)
                evaluations += 1
                r_c = _residual(ops, cand, g_c)
                if r_c <= NEWTON_ACCEPT * residual:
                    theta, g, residual = cand, g_c, r_c
                    accepted += 1
                    gap, since = 1, -math.inf
                    continue
            rejected += 1
            gap, since = 2 * gap, evaluations
        while True:
            y = _step(ops, theta, lam, g)
            g_y = _grad(ops, y)
            evaluations += 1
            dy, dg = _norm(y - theta), _norm(g_y - g)
            if lam * dg <= MU * dy:
                break
            lam = 0.99 * MU * dy / dg
        theta = _step(ops, theta, lam, g_y)
        g = _grad(ops, theta)
        evaluations += 1
        residual = _residual(ops, theta, g)
        lam *= GROWTH

    converged = residual <= cfg.epsilon
    return EquilibriumResult(
        theta=theta,
        iterations=len(trace),
        residual_trace=np.asarray(trace),
        residual=residual,
        converged=converged,
        termination=TERM_TOLERANCE if converged else TERM_MAX_ITER,
        evaluations=evaluations,
        newton_accepted=accepted,
        newton_rejected=rejected,
    )


def vi_residual(theta: np.ndarray, ops: VIGame) -> float:
    """||P(theta - g(theta)) - theta||; zero exactly at VI solutions."""
    return _residual(ops, theta, ops.pseudo_grad(theta))


def _best_response_descent(ops, theta, player, best):
    """Projected descent on one player's own block (player 0 the learner, 1
    the attacker, as in ops.costs) from its cost best at theta, opponent fixed:
    each trial is the solver's _step, with the pseudo-gradient zero off the block.

    Returns the best cost found. Step sizes adapt multiplicatively; the
    gradient is re-evaluated only after an accepted step moves the point.
    """
    own = (np.arange(ops.dim) < ops.dim_l) == (player == 0)  # the player's own block
    g = None
    step = 1.0
    for _ in range(BEST_RESPONSE_STEPS):
        if g is None:  # the point moved, or this is the first step
            g = np.where(own, _grad(ops, theta), 0.0)
        cand = _step(ops, theta, step, g)
        c = ops.costs(cand)[player]
        if c < best:
            best, theta, g = c, cand, None
            step *= 1.5
        else:
            step *= 0.5
            if step < 1e-14:
                break
    return best


def nash_verify(theta: np.ndarray, ops: VIGame, tol: float) -> bool:
    """Check the Nash condition numerically: neither player can improve its own
    cost by more than tol via projected descent with the opponent fixed. A profile
    outside the box (NaN included) is a ValueError, a non-finite gradient a FloatingPointError."""
    if np.shape(theta) != (ops.dim,) or not ((ops.lower <= theta) & (theta <= ops.upper)).all():
        raise ValueError("nash_verify takes a profile in the box")
    base_l, base_d = ops.costs(theta)
    best_l = _best_response_descent(ops, theta, 0, base_l)
    best_d = _best_response_descent(ops, theta, 1, base_d)
    return (base_l - best_l) <= tol and (base_d - best_d) <= tol
