"""Generic two-player game operator over a flat parameter vector.

The extragradient solver and the diagnostics work on this interface only, so
toy games used in tests and the primal/dual SVM games share one code path.
The feasible set is one box [lower, upper] over the whole vector: the
learner's block is its first dim_l coordinates, the attacker's the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class VIGame:
    """Variational-inequality view of a two-player game.

    costs gives both players' full costs (cost_l, cost_d) at a joint flat
    vector; pseudo_grad stacks the r-weighted own-block gradients. Both also
    take a stack of profiles of shape (..., dim): costs then gives two arrays
    of shape (...) and pseudo_grad one of shape (..., dim), each profile's
    entries as its own call gives them (the diagnostics' monotonicity sample
    passes (k, 2, dim) stacks of pairs). The solver passes one profile. The
    rest is optional and takes one profile: the solver's Newton steps need
    newton, the diagnostics need loss_jacobian and reg_hess:

    - loss_jacobian(theta) gives the Jacobian of both players' loss
      gradients (no regularizer, no weight) as the blocks (ll, ld, dl, dd)
      for n attacker rows of b entries, each row seeing only itself and the
      learner: ll (dim_l, dim_l) is the learner's own block, and ld[i]
      (dim_l, b), dl[i] (b, dim_l) and dd[i] (b, b) are row i's cross blocks
      and own block; pseudo_jacobian makes them pseudo_grad's Jacobian;
    - reg_hess() gives the constant Hessians of both expected regularizers
      in their cost weights: the learner's (dim_l, dim_l) block and the
      (b, b) block that every attacker row shares;
    - newton(z, g, free) gives the solver's Newton step at z from the
      pseudo-gradient g there: d with J_FF d_F = -g_F for the free
      coordinates F and d = 0 off them, or None when the system is singular
      or d is not finite. The solver attempts Newton steps exactly when
      newton is set. dense_newton gives this step from pseudo_jacobian's
      blocks; an operator that knows more of its structure computes it
      without them. newton_price is what one call of newton costs, in
      operator evaluations, and spaces the solver's attempts; the solver
      reads it only when newton is set, and at 0 tries a step every iteration.
    """

    dim_l: int
    lower: np.ndarray
    upper: np.ndarray
    costs: Callable[[np.ndarray], tuple[float, float]]
    pseudo_grad: Callable[[np.ndarray], np.ndarray]
    rho: tuple[float, float] = (1.0, 1.0)
    reg_hess: Optional[Callable[[], tuple[np.ndarray, np.ndarray]]] = None
    loss_jacobian: Optional[Callable[[np.ndarray], tuple]] = None
    newton_price: float = 0.0
    newton: Optional[Callable[..., Optional[np.ndarray]]] = None

    @property
    def r(self) -> tuple[float, float]:
        """The players' weights in pseudo_grad: the attacker's block is scaled
        by rho_l / rho_d."""
        return (1.0, self.rho[0] / self.rho[1])

    @property
    def dim(self) -> int:
        return self.lower.size

    def project(self, theta: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        # np.clip's result, signed zeros and NaN included, at half its cost;
        # out (theta itself, say) takes the result in place
        return np.minimum(np.maximum(theta, self.lower, out=out), self.upper, out=out)


def pseudo_jacobian(ops: VIGame, blocks):
    """The blocks of ops.pseudo_grad's Jacobian from ops.loss_jacobian's, which
    it overwrites: the only code that adds ops.reg_hess() to the own blocks
    and weights the attacker's rows, dl and dd, by r_d (the learner's is 1)."""
    ll, _, dl, dd = blocks
    reg_l, reg_d = ops.reg_hess()
    ll += reg_l
    dd += reg_d
    dl *= ops.r[1]
    dd *= ops.r[1]
    return blocks


def solve_learner(S: np.ndarray, rhs: np.ndarray, free: np.ndarray):
    """The learner step d_l of a Newton step from its Schur system S d_l = rhs,
    with each coordinate that free does not mark decoupled (its row and
    column of S the identity's, its right side 0); None when S is singular.
    Both eliminations of the attacker rows, dense_newton and
    costs.newton_step, end here. S and rhs are overwritten."""
    fixed = ~free
    S[fixed, :] = 0.0
    S[:, fixed] = 0.0
    S[fixed, fixed] = 1.0
    rhs[fixed] = 0.0
    try:
        return np.linalg.solve(S, rhs)
    except np.linalg.LinAlgError:
        return None


def dense_newton(blocks, g: np.ndarray, free: np.ndarray):
    """The Newton step d with J_FF d_F = -g_F and d = 0 off the free
    coordinates, for J the arrow-shaped Jacobian of pseudo_jacobian's blocks
    (ll, ld, dl, dd) of all rows; None when a system is singular or d is not
    finite.

    A fixed coordinate of an attacker row is decoupled: its row and column of
    the row block become the identity's, and its entries of the cross blocks
    and of g are zero, so the row's solve returns 0 there; the learner's fixed
    coordinates are decoupled in the Schur system the same way. One batched
    solve gives X_i = D_i^-1 [g_i, E_i] for row i's own block D_i and its
    learner coupling E_i; with C_i its coupling into the learner block, the
    Schur system is S = ll - sum_i C_i X_i[:, 1:] with right side
    -g_l + sum_i C_i X_i[:, 0]. The learner step solves S d_l = rhs, and the
    rows follow as d_i = -(X_i[:, 0] + X_i[:, 1:] d_l). It never forms a
    dim x dim matrix.
    """
    ll, ld, dl, dd = blocks
    n, b, L = dl.shape
    f, g_d = free[L:].reshape(n, b), g[L:].reshape(n, b)
    X = np.empty((n, b, L + 1))
    X[:, :, 0] = np.where(f, g_d, 0.0)
    X[:, :, 1:] = dl * f[:, :, None]
    try:
        X = np.linalg.solve(np.where(f[:, :, None] & f[:, None, :], dd, np.eye(b)), X)
    except np.linalg.LinAlgError:
        return None
    C = (ld * f[:, None, :]).transpose(1, 0, 2).reshape(L, -1)
    d_l = solve_learner(ll - C @ X[:, :, 1:].reshape(-1, L), -g[:L] + C @ X[:, :, 0].ravel(),
                        free[:L])
    if d_l is None:
        return None
    X[:, :, 0] += X[:, :, 1:] @ d_l
    d = np.concatenate([d_l, -X[:, :, 0].ravel()])
    return d if np.isfinite(d).all() else None


def dense_newton_price(L: int, b: int, n: int) -> float:
    """Operator evaluations that one dense_newton step costs, from the shapes
    of the Jacobian blocks: learner block L, n attacker rows of b. It counts
    the dense elimination's flops over the profile's L + n b coordinates, so
    it overprices the step of an operator that eliminates the rows in closed
    form (the primal game's costs.newton_step) by 10x to 285x."""
    return (L * L + n * (2 * L * b + b * b + b**3 + b * b * (L + 1))) / (L + n * b)
