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
    jacobian and use newton when it is there, the diagnostics need jacobian
    and reg_hess:

    - jacobian(theta, rows=slice(None)) gives the Jacobian of pseudo_grad as
      the blocks (ll, ld, dl, dd) for an attacker block of n rows of
      row_size = b entries, each row seeing only itself and the learner:
      ld[i] (dim_l, b), dl[i] (b, dim_l) and dd[i] (b, b) are row i's cross
      blocks and own block for the rows in the unit-step slice rows, and ll
      (dim_l, dim_l) is that range's share of the learner's own block, so the
      shares of ranges that partition the rows sum to the whole block (the
      solver's Newton step streams over ranges; the diagnostics take all rows);
    - reg_hess() gives the constant Hessians of both expected regularizers
      in their cost weights: the learner's (dim_l, dim_l) block and the
      (b, b) block that every attacker row shares;
    - newton(z, g, free) gives the solver's Newton step at z from the
      pseudo-gradient g there: d with J_FF d_F = -g_F for the free
      coordinates F and d = 0 off them, or None when the system is singular
      or d is not finite. It is the step that the solver's own elimination
      of jacobian's blocks gives, computed from what the operator knows of
      its structure; the solver uses it in place of that elimination, and
      only for an operator that has a jacobian. newton.jacobian names the
      jacobian it stands in for, and an operator whose newton names another
      is refused with ValueError: dataclasses.replace(ops, jacobian=...)
      fails at once unless it replaces or drops newton too. With
      jacobian=None the solver makes no attempt, and newton may stay.
    """

    dim_l: int
    lower: np.ndarray
    upper: np.ndarray
    costs: Callable[[np.ndarray], tuple[float, float]]
    pseudo_grad: Callable[[np.ndarray], np.ndarray]
    rho: tuple[float, float] = (1.0, 1.0)
    reg_hess: Optional[Callable[[], tuple[np.ndarray, np.ndarray]]] = None
    jacobian: Optional[Callable[..., tuple]] = None
    row_size: int = 1
    newton: Optional[Callable[..., Optional[np.ndarray]]] = None

    def __post_init__(self):
        if self.newton is None or self.jacobian is None:
            return
        if getattr(self.newton, "jacobian", None) is not self.jacobian:
            raise ValueError("newton stands in for another jacobian: replace both, or set "
                             "newton=None")

    @property
    def r(self) -> tuple[float, float]:
        """The players' weights in pseudo_grad: the attacker's block is scaled
        by rho_l / rho_d."""
        return (1.0, self.rho[0] / self.rho[1])

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def dim_d(self) -> int:
        return self.lower.size - self.dim_l

    def project(self, theta: np.ndarray) -> np.ndarray:
        # np.clip's result, signed zeros and NaN included, at half its cost
        return np.minimum(np.maximum(theta, self.lower), self.upper)


def solve_learner(S: np.ndarray, rhs: np.ndarray, free: np.ndarray):
    """The learner step d_l of a Newton step from its Schur system S d_l = rhs,
    with each coordinate that free does not mark decoupled (its row and
    column of S the identity's, its right side 0); None when S is singular.
    Both eliminations of the attacker rows, the solver's and
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
