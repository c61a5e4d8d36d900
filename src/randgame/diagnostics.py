"""Numeric verification of the equilibrium existence/uniqueness machinery.

Every curvature quantity at a profile comes from the closed-form Jacobian of
the players' loss gradients, which VIGame.loss_jacobian gives as blocks: the
learner's own block ll, and for each attacker row i the cross blocks ld[i],
dl[i] and the own block dd[i]. Row i's gradient sees only its own row and the
learner block, so these are all the nonzero blocks: nothing is differenced, no
dim x dim matrix is built, and a profile on the boundary of the box is as good
as any other. ops.pseudo_jacobian of the same blocks is the pseudo-gradient's.

The uniqueness margin reported is

    (rho_l * lambda_omega_l + lambda_L_l) * (rho_d * lambda_omega_d + lambda_L_d)
    - tau_estimate

with lambda_L the smallest eigenvalue of a player's symmetrized loss Hessian
(for the attacker, over the n per-row blocks) and tau the largest eigenvalue of
R^T R, where R is the symmetrized cross-block loss Hessian. They are taken at
uniform interior profiles, so none is a certified global bound: a positive
margin certifies the sufficient uniqueness condition on the sample only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ShapeError
from .ops import VIGame, pseudo_jacobian

MONOTONE_TOL = 1e-12  # slack of the monotonicity inner product
# Entries of the (k, 2, dim) stack of pairs that one pseudo-gradient call of
# the monotonicity sample takes at most: 89 pairs of a 10-point game (dim 46)
# per call, and one pair per call above dim 2048, where the overhead of a call
# is small against its work and a larger stack only adds memory.
MONOTONE_CHUNK_ENTRIES = 2**13
# The smallest Jacobian eigenvalue is bracketed to EIG_RTOL times the scale of
# the spectrum, in at most EIG_MAX_STEPS steps (bisection alone needs about 47),
# and a loss block's smallest eigenvalue that is negative by no more than
# EIG_RTOL times its largest absolute one is rounding, read as 0.
EIG_RTOL = 1e-14
EIG_MAX_STEPS = 100


def _sym(A):
    return 0.5 * (A + np.swapaxes(A, -1, -2))


def _least_eig(H) -> float:
    """The smallest eigenvalue of the symmetric part of H, or of a stack of
    blocks H, as 0 when it lies in [-EIG_RTOL * scale, 0) for the largest
    absolute eigenvalue scale."""
    vals = np.linalg.eigvalsh(_sym(H))
    least = float(vals.min())
    return 0.0 if -EIG_RTOL * np.abs(vals).max() <= least < 0.0 else least


def _min_sym_eig(blocks) -> float:
    """Smallest eigenvalue of the symmetric part S = [[A, C], [C^T, D]] of the
    block Jacobian, D = blockdiag(D_i), without assembling S.

    With D_i = V_i diag(e_i) V_i^T and G = [C_1 V_1, ..., C_n V_n], S - tI is
    congruent to blockdiag(F(t), D - tI) for t < e_min = min(e), where
    F(t) = A - tI - G diag(1 / (e - t)) G^T is the Schur complement. So S has
    an eigenvalue below t < e_min iff f(t) = lambda_min(F(t)) < 0. On
    (-inf, e_min) f is strictly decreasing, and lambda_min(S) <= e_min by
    interlacing: the eigenvalue is f's root there, or e_min if f has none.
    The root is kept in a bracket [lo, hi] that every evaluation of f's sign
    narrows. The next t is the root of the model a - t - c / (e_min - t)
    fitted to f and f' at t, which is exact when one pole couples, or the
    bracket's midpoint when the model's root falls outside it. Each step costs
    O(L^2 n b) for an L x L block A.
    """
    ll, ld, dl, dd = blocks
    A = _sym(ll)
    e, V = np.linalg.eigh(_sym(dd))
    G = np.matmul(0.5 * (ld + dl.transpose(0, 2, 1)), V)  # row i's C_i V_i
    G = G.transpose(1, 0, 2).reshape(A.shape[0], -1)
    e = e.ravel()
    pole = hi = float(e.min())
    # S - lo I is PSD: the block diagonal's spectrum shifted by ||C|| <= ||G||_F
    lo = min(float(np.linalg.eigvalsh(A)[0]), hi) - float(np.linalg.norm(G))
    tol = EIG_RTOL * (abs(lo) + abs(hi) + np.finfo(float).tiny)
    t, eye = lo, np.eye(A.shape[0])
    for _ in range(EIG_MAX_STEPS):
        if hi - lo <= tol:
            break
        w = 1.0 / (e - t)
        vals, vecs = np.linalg.eigh(A - t * eye - (G * w) @ G.T)
        f = vals[0]
        if f >= 0.0:
            lo = t
        else:
            hi = t
        # f' = -(1 + u.u); the model's c and q = a - e_min match f and f' at t
        u = (vecs[:, 0] @ G) * w
        d = pole - t
        c = (u @ u) * d * d
        q = f + (u @ u) * d - d
        root = np.sqrt(q * q + 4.0 * c)
        t_new = pole - (0.5 * (root - q) if q <= 0.0 else 2.0 * c / (q + root))
        t_new += np.copysign(tol, f)  # so that near the root the next t lies across it
        t = t_new if lo < t_new < hi else 0.5 * (lo + hi)
    return float(0.5 * (lo + hi))


@dataclass(frozen=True)
class Curvature:
    """The curvature numbers of the uniqueness condition at one profile."""

    lambda_L_l: float
    lambda_L_d: float
    tau: float
    min_jacobian_eig: float


def profile_curvature(ops: VIGame, theta) -> Curvature:
    """lambda_L of both players (a negative one of rounding's size read as
    0), tau and the smallest eigenvalue of the symmetrized pseudo-Jacobian at
    theta, from one ops.loss_jacobian call: the step of uniqueness_margin at
    each sampled profile. theta may lie on the box boundary."""
    H_ll, H_ld, H_dl, H_dd = blocks = ops.loss_jacobian(np.asarray(theta, dtype=float))
    R = 0.5 * (H_ld.transpose(0, 2, 1) + H_dl)  # row i's block of R, (b, L)
    R = R.reshape(-1, R.shape[2])
    return Curvature(
        lambda_L_l=_least_eig(H_ll),
        lambda_L_d=_least_eig(H_dd),
        # R^T R = sum_i R_i^T R_i has the nonzero spectrum of R R^T, at the
        # learner block's size
        tau=float(np.linalg.eigvalsh(R.T @ R)[-1]),
        # last, as pseudo_jacobian overwrites the loss blocks
        min_jacobian_eig=_min_sym_eig(pseudo_jacobian(ops, blocks)),
    )


@dataclass(frozen=True)
class DiagnosticsReport:
    lambda_omega_l: float
    lambda_omega_d: float
    lambda_L_l: float
    lambda_L_d: float
    tau_estimate: float
    uniqueness_margin: float
    min_jacobian_eig: tuple
    monotone_violations: int

    def as_text(self) -> str:
        lines = [
            f"lambda_omega_l={self.lambda_omega_l:.6g}",
            f"lambda_omega_d={self.lambda_omega_d:.6g}",
            f"lambda_L_l_sampled={self.lambda_L_l:.6g}",
            f"lambda_L_d_sampled={self.lambda_L_d:.6g}",
            f"tau_sampled={self.tau_estimate:.6g}",
            f"min_jacobian_eig_sampled={min(self.min_jacobian_eig):.6g}",
            f"uniqueness_margin={self.uniqueness_margin:.6g}",
            f"monotone_violations={self.monotone_violations}",
        ]
        return "\n".join(lines)


def _interior_sample(ops: VIGame, rng: np.random.Generator, stack=()) -> np.ndarray:
    """Profiles of shape stack + (dim,), each coordinate uniform on the middle
    80% of its interval."""
    width = ops.upper - ops.lower
    u = rng.uniform(0.1, 0.9, size=stack + (ops.dim,))
    return ops.lower + u * width


def monotonicity_sample(ops: VIGame, n_pairs: int, seed: int) -> int:
    """Count violations of (g(a) - g(b)) . (a - b) >= -MONOTONE_TOL over
    random pairs of interior profiles. The pairs are drawn in chunks of at
    most MONOTONE_CHUNK_ENTRIES stacked entries (one pair at least), and each
    chunk's pseudo-gradients come from one ops.pseudo_grad call on its
    (k, 2, dim) stack, which must return that shape."""
    rng = np.random.default_rng(seed)
    chunk = max(1, MONOTONE_CHUNK_ENTRIES // (2 * ops.dim))
    violations = 0
    for start in range(0, n_pairs, chunk):
        # row j of the stack is pair start + j, (a, b) as a loop would draw them
        pairs = _interior_sample(ops, rng, (min(chunk, n_pairs - start), 2))
        g = ops.pseudo_grad(pairs)
        if np.shape(g) != pairs.shape:
            raise ShapeError(f"pseudo_grad gave shape {np.shape(g)} for a stack of profiles "
                             f"of shape {pairs.shape}")
        inner = np.vecdot(g[:, 0] - g[:, 1], pairs[:, 0] - pairs[:, 1])
        violations += int(np.count_nonzero(inner < -MONOTONE_TOL))
    return violations


def uniqueness_margin(ops: VIGame, n_profiles: int, seed: int, n_pairs: int) -> DiagnosticsReport:
    """Estimate the sufficient-condition margin on sampled interior profiles:
    one ops.loss_jacobian call per profile, and for the monotonicity sample
    one stacked pseudo-gradient call per chunk of pairs."""
    if n_profiles < 1:
        raise ValueError("n_profiles must be at least 1: a margin over no profile reads inf")
    if n_pairs < 1:
        raise ValueError("n_pairs must be at least 1: a sample of no pair reads no violation")
    if ops.loss_jacobian is None or ops.reg_hess is None:
        raise ValueError(
            "operator lacks the loss Jacobian blocks or the regularizer Hessians of the "
            "loss/regularizer split"
        )
    rng = np.random.default_rng(seed)
    rho_l, rho_d = ops.rho

    curv = [profile_curvature(ops, _interior_sample(ops, rng)) for _ in range(n_profiles)]
    lam_omega_l, lam_omega_d = (
        float(np.linalg.eigvalsh(reg)[0] / rho) for reg, rho in zip(ops.reg_hess(), ops.rho)
    )
    lam_L_l = min(c.lambda_L_l for c in curv)
    lam_L_d = min(c.lambda_L_d for c in curv)
    tau = max(c.tau for c in curv)

    margin = (rho_l * lam_omega_l + lam_L_l) * (rho_d * lam_omega_d + lam_L_d) - tau
    return DiagnosticsReport(
        lambda_omega_l=lam_omega_l,
        lambda_omega_d=lam_omega_d,
        lambda_L_l=lam_L_l,
        lambda_L_d=lam_L_d,
        tau_estimate=tau,
        uniqueness_margin=float(margin),
        min_jacobian_eig=tuple(c.min_jacobian_eig for c in curv),
        monotone_violations=monotonicity_sample(ops, n_pairs, seed + 1),
    )
