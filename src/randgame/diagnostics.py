"""Numeric verification of the equilibrium existence/uniqueness machinery.

Every curvature quantity comes from one central finite-difference Jacobian of
the analytic pseudo-gradient per sampled profile (2 * dim gradient calls, at
uniform interior strategy profiles); none is a certified global bound. The
uniqueness margin reported is

    (rho_l * lambda_omega_l + lambda_L_l) * (rho_d * lambda_omega_d + lambda_L_d)
    - tau_estimate

with tau the sampled supremum of the largest eigenvalue of R R^T, where R is
the symmetrized cross-block loss Hessian. A positive margin certifies the
sufficient uniqueness condition on the sample only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ops import VIGame


class BoundaryError(ValueError):
    """Evaluation point too close to the feasible-box boundary for central FD."""


def _fd_steps(theta, idx, h_step, lower=None, upper=None):
    """Per-coordinate FD steps, shrunk so theta +- h stays inside the box."""
    h = h_step * (1.0 + np.abs(theta[idx]))
    if lower is not None and upper is not None:
        room = np.minimum(theta[idx] - lower[idx], upper[idx] - theta[idx]) / 2.0
        if np.any(room < 1e-12 * (1.0 + np.abs(theta[idx]))):
            raise BoundaryError("theta too close to the box boundary for central FD")
        h = np.minimum(h, room)
    return h


def pseudo_jacobian(ops: VIGame, theta, h_step=1e-4) -> np.ndarray:
    """Central-difference Jacobian of ops.pseudo_grad; column j is the
    derivative along theta_j."""
    theta = np.asarray(theta, dtype=float)
    h = _fd_steps(theta, np.arange(ops.dim), h_step, ops.lower, ops.upper)
    J = np.empty((ops.dim, ops.dim))
    for j in range(ops.dim):
        tp = theta.copy(); tp[j] += h[j]
        tm = theta.copy(); tm[j] -= h[j]
        J[:, j] = (ops.pseudo_grad(tp) - ops.pseudo_grad(tm)) / (2.0 * h[j])
    return J


def _min_sym_eig(A) -> float:
    return float(np.linalg.eigvalsh(0.5 * (A + A.T)).min())


def loss_hessians(ops: VIGame, J):
    """Loss Hessian blocks (ll, ld, dl, dd) from a pseudo-Jacobian J.

    Dividing row block i by r_i gives the cost Hessians. The regularizers are
    separable with constant diagonal Hessians, so the cross blocks are already
    loss blocks and each own block loses rho_i * diag(reg_hess_i).
    """
    m = ops.dim_l
    H_l = J[:m] / ops.r[0]
    H_d = J[m:] / ops.r[1]
    return (
        H_l[:, :m] - ops.rho[0] * np.diag(ops.reg_hess_l),
        H_l[:, m:],
        H_d[:, :m],
        H_d[:, m:] - ops.rho[1] * np.diag(ops.reg_hess_d),
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
    rho_l: float
    rho_d: float

    def as_text(self) -> str:
        lines = [
            f"lambda_omega_l={self.lambda_omega_l:.6g}",
            f"lambda_omega_d={self.lambda_omega_d:.6g}",
            f"lambda_L_l_sampled={self.lambda_L_l:.6g}",
            f"lambda_L_d_sampled={self.lambda_L_d:.6g}",
            f"tau_sampled={self.tau_estimate:.6g}",
            f"uniqueness_margin={self.uniqueness_margin:.6g}",
            f"monotone_violations={self.monotone_violations}",
        ]
        return "\n".join(lines)


def _interior_sample(ops: VIGame, rng: np.random.Generator) -> np.ndarray:
    width = ops.upper - ops.lower
    u = rng.uniform(0.1, 0.9, size=ops.dim)
    return ops.lower + u * width


def monotonicity_sample(ops: VIGame, n_pairs: int, seed: int = 0, tol: float = 1e-12) -> int:
    """Count violations of (g(a) - g(b)) . (a - b) >= -tol over random pairs."""
    rng = np.random.default_rng(seed)
    violations = 0
    for _ in range(n_pairs):
        a = _interior_sample(ops, rng)
        b = _interior_sample(ops, rng)
        inner = float((ops.pseudo_grad(a) - ops.pseudo_grad(b)) @ (a - b))
        if inner < -tol:
            violations += 1
    return violations


def uniqueness_margin(
    ops: VIGame,
    n_profiles: int = 20,
    seed: int = 0,
    h_step: float = 1e-4,
    n_pairs: int | None = None,
) -> DiagnosticsReport:
    """Estimate the sufficient-condition margin on sampled interior profiles."""
    if n_profiles < 1:
        raise ValueError("n_profiles must be at least 1: a margin over no profile reads inf")
    if ops.reg_hess_l is None or ops.reg_hess_d is None:
        raise ValueError("operator lacks the regularizer Hessians of the loss/regularizer split")
    rng = np.random.default_rng(seed)
    rho_l, rho_d = ops.rho

    lam_omega_l = float(np.min(ops.reg_hess_l))
    lam_omega_d = float(np.min(ops.reg_hess_d))

    lam_L_l = np.inf
    lam_L_d = np.inf
    tau = -np.inf
    eigs = []
    for _ in range(n_profiles):
        J = pseudo_jacobian(ops, _interior_sample(ops, rng), h_step)
        eigs.append(_min_sym_eig(J))
        H_ll, H_ld, H_dl, H_dd = loss_hessians(ops, J)
        lam_L_l = min(lam_L_l, _min_sym_eig(H_ll))
        lam_L_d = min(lam_L_d, _min_sym_eig(H_dd))
        R = 0.5 * (H_ld.T + H_dl)
        # R^T R has the nonzero spectrum of R R^T, at the learner block's size
        tau = max(tau, float(np.linalg.eigvalsh(R.T @ R).max()))

    margin = (rho_l * lam_omega_l + lam_L_l) * (rho_d * lam_omega_d + lam_L_d) - tau
    violations = monotonicity_sample(ops, n_pairs if n_pairs is not None else n_profiles, seed + 1)
    return DiagnosticsReport(
        lambda_omega_l=lam_omega_l,
        lambda_omega_d=lam_omega_d,
        lambda_L_l=lam_L_l,
        lambda_L_d=lam_L_d,
        tau_estimate=tau,
        uniqueness_margin=float(margin),
        min_jacobian_eig=tuple(eigs),
        monotone_violations=violations,
        rho_l=rho_l,
        rho_d=rho_d,
    )
