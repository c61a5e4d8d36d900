"""Finite-difference curvature diagnostics on games with known Hessians."""

import dataclasses

import numpy as np
import pytest

from randgame.costs import game_operator
from randgame.diagnostics import (
    BoundaryError,
    _fd_steps,
    loss_hessians,
    monotonicity_sample,
    pseudo_jacobian,
    uniqueness_margin,
)
from randgame.model import Dataset, GameSpec, default_boxes
from randgame.ops import VIGame


def fd_hessian_block(f, theta, block_rows, block_cols, h_step=1e-4, lower=None, upper=None):
    """Scalar central-difference second-derivative block, the oracle for the
    Jacobian-derived Hessians: O(rows * cols) calls of f instead of the
    pseudo-gradient.

    Entry (a, b) approximates d^2 f / d theta_rows[a] d theta_cols[b]; without
    lower and upper the box is unbounded.
    """
    theta = np.asarray(theta, dtype=float)
    if lower is None:
        lower, upper = np.full(theta.shape, -np.inf), np.full(theta.shape, np.inf)
    rows = np.asarray(block_rows, dtype=int)
    cols = np.asarray(block_cols, dtype=int)
    hr = _fd_steps(theta, rows, h_step, lower, upper)
    hc = _fd_steps(theta, cols, h_step, lower, upper)

    H = np.empty((rows.size, cols.size))
    for a, i in enumerate(rows):
        for b, j in enumerate(cols):
            if i == j:
                h = hr[a]
                tp = theta.copy(); tp[i] += h
                tm = theta.copy(); tm[i] -= h
                H[a, b] = (f(tp) - 2.0 * f(theta) + f(tm)) / (h * h)
            else:
                hi, hj = hr[a], hc[b]
                tpp = theta.copy(); tpp[i] += hi; tpp[j] += hj
                tpm = theta.copy(); tpm[i] += hi; tpm[j] -= hj
                tmp = theta.copy(); tmp[i] -= hi; tmp[j] += hj
                tmm = theta.copy(); tmm[i] -= hi; tmm[j] -= hj
                H[a, b] = (f(tpp) - f(tpm) - f(tmp) + f(tmm)) / (4.0 * hi * hj)
    return H


def unit_box_game(pseudo_grad):
    """Two scalar players on [0, 1]^2 whose only callable is the gradient."""
    return VIGame(
        dim_l=1,
        dim_d=1,
        lower=np.zeros(2),
        upper=np.ones(2),
        cost_l=lambda v: 0.0,
        cost_d=lambda v: 0.0,
        pseudo_grad=pseudo_grad,
    )


def coupled_quadratic(c):
    """cost_l = v0^2/2 + c v0 v1, cost_d = v1^2/2 + c v0 v1.

    Both regularizers are v^2/2, both losses the bilinear coupling, so the
    cross-block loss Hessians are both c and the symmetrized coupling is c.
    """
    return VIGame(
        dim_l=1,
        dim_d=1,
        lower=np.full(2, -5.0),
        upper=np.full(2, 5.0),
        cost_l=lambda v: 0.5 * v[0] ** 2 + c * v[0] * v[1],
        cost_d=lambda v: 0.5 * v[1] ** 2 + c * v[0] * v[1],
        pseudo_grad=lambda v: np.array([v[0] + c * v[1], v[1] + c * v[0]]),
        reg_hess_l=np.ones(1),
        reg_hess_d=np.ones(1),
    )


def antisymmetric_bilinear():
    """cost_l = v0^2/2 + v0 v1, cost_d = v1^2/2 - v0 v1.

    The cross-block loss Hessians are +1 and -1; their symmetrization
    cancels exactly, so the coupling bound tau is zero and the margin is
    the product of the regularizer curvatures.
    """
    return VIGame(
        dim_l=1,
        dim_d=1,
        lower=np.full(2, -5.0),
        upper=np.full(2, 5.0),
        cost_l=lambda v: 0.5 * v[0] ** 2 + v[0] * v[1],
        cost_d=lambda v: 0.5 * v[1] ** 2 - v[0] * v[1],
        pseudo_grad=lambda v: np.array([v[0] + v[1], v[1] - v[0]]),
        reg_hess_l=np.ones(1),
        reg_hess_d=np.ones(1),
    )


class TestFdHessian:
    def test_exact_on_quadratic(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(4, 4))
        A = 0.5 * (A + A.T)

        def f(v):
            return 0.5 * v @ A @ v

        theta = rng.normal(size=4)
        idx = np.arange(4)
        H = fd_hessian_block(f, theta, idx, idx, h_step=1e-4)
        np.testing.assert_allclose(H, A, atol=1e-6)

    def test_off_diagonal_block(self):
        def f(v):
            return v[0] * v[1] * 2.0 + v[0] ** 3

        H = fd_hessian_block(f, np.array([0.5, -0.3]), [0], [1], h_step=1e-5)
        assert H[0, 0] == pytest.approx(2.0, abs=1e-6)

    def test_box_shrinks_steps_instead_of_escaping(self):
        # h would be 1e-4 but the box leaves only 1e-6 of room
        def inside(v):
            if np.any(v < 0.0) or np.any(v > 1.0):
                raise AssertionError("evaluated outside the box")
            return v

        theta = np.array([1.0 - 1e-6, 0.5])
        H = fd_hessian_block(
            lambda v: float(inside(v) @ v), theta, [0], [0], h_step=1e-4,
            lower=np.zeros(2), upper=np.ones(2),
        )
        J = pseudo_jacobian(unit_box_game(lambda v: 2.0 * inside(v)), theta)
        assert H[0, 0] == pytest.approx(2.0, rel=1e-3)
        assert J[0, 0] == pytest.approx(2.0, rel=1e-3)

    def test_boundary_error_when_pinned(self):
        def f(v):
            return float(v @ v)

        theta = np.array([1.0, 0.5])
        with pytest.raises(BoundaryError):
            fd_hessian_block(f, theta, [0], [0], lower=np.zeros(2), upper=np.ones(2))
        with pytest.raises(BoundaryError):
            pseudo_jacobian(unit_box_game(lambda v: 2.0 * v), theta)


def min_sym_eig(J):
    return float(np.linalg.eigvalsh(0.5 * (J + J.T)).min())


class TestPseudoJacobian:
    def test_bilinear_min_eig_is_one(self):
        # Jacobian [[1, 1], [-1, 1]] has symmetric part I
        J = pseudo_jacobian(antisymmetric_bilinear(), np.array([0.3, -0.4]))
        assert min_sym_eig(J) == pytest.approx(1.0, abs=1e-5)

    def test_coupled_quadratic_min_eig(self):
        # symmetric part [[1, c], [c, 1]] has min eigenvalue 1 - c
        J = pseudo_jacobian(coupled_quadratic(0.4), np.array([0.2, 0.1]))
        assert min_sym_eig(J) == pytest.approx(0.6, abs=1e-5)


class TestMonotonicity:
    def test_monotone_operator_clean(self):
        assert monotonicity_sample(antisymmetric_bilinear(), 100, seed=0) == 0

    def test_violations_detected(self):
        g = VIGame(
            dim_l=1,
            dim_d=1,
            lower=np.full(2, -1.0),
            upper=np.full(2, 1.0),
            cost_l=lambda v: -0.5 * v[0] ** 2,
            cost_d=lambda v: -0.5 * v[1] ** 2,
            pseudo_grad=lambda v: -v,
        )
        assert monotonicity_sample(g, 50, seed=0) == 50


class TestUniquenessMargin:
    def test_antisymmetric_coupling_cancels(self):
        rep = uniqueness_margin(antisymmetric_bilinear(), n_profiles=5, seed=0)
        assert rep.lambda_omega_l == 1.0 and rep.lambda_omega_d == 1.0
        assert rep.lambda_L_l == pytest.approx(0.0, abs=1e-5)
        assert rep.lambda_L_d == pytest.approx(0.0, abs=1e-5)
        assert rep.tau_estimate == pytest.approx(0.0, abs=1e-5)
        assert rep.uniqueness_margin == pytest.approx(1.0, abs=1e-4)
        assert rep.monotone_violations == 0
        assert min(rep.min_jacobian_eig) == pytest.approx(1.0, abs=1e-5)

    def test_symmetric_coupling_reduces_margin(self):
        rep = uniqueness_margin(coupled_quadratic(0.5), n_profiles=5, seed=1)
        # (1 + 0) * (1 + 0) - 0.25
        assert rep.tau_estimate == pytest.approx(0.25, abs=1e-4)
        assert rep.uniqueness_margin == pytest.approx(0.75, abs=1e-3)

    def test_requires_loss_split(self):
        g = VIGame(
            dim_l=1,
            dim_d=1,
            lower=np.zeros(2),
            upper=np.ones(2),
            cost_l=lambda v: 0.0,
            cost_d=lambda v: 0.0,
            pseudo_grad=lambda v: np.zeros(2),
        )
        with pytest.raises(ValueError, match="split"):
            uniqueness_margin(g)

    def test_rejects_zero_profiles(self):
        # a margin over no profile would read inf and certify any game
        with pytest.raises(ValueError, match="n_profiles"):
            uniqueness_margin(antisymmetric_bilinear(), n_profiles=0)

    def test_report_text_has_all_fields(self):
        rep = uniqueness_margin(antisymmetric_bilinear(), n_profiles=2, seed=2)
        text = rep.as_text()
        for key in ("lambda_omega_l", "tau_sampled", "uniqueness_margin", "monotone_violations"):
            assert key in text


class TestSvmGameDiagnostics:
    def _ops(self, bias_reg=0.0, rho=1.0):
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(3, 2))
        y = np.array([-1.0, 1.0, 1.0])
        lb, ab = default_boxes(3, 2, W=0.5)
        return game_operator(GameSpec(Dataset(X, y), rho, rho, lb, ab, bias_reg=bias_reg))

    def test_default_game_has_flat_bias_direction(self):
        rep = uniqueness_margin(self._ops(), n_profiles=2, seed=0)
        assert rep.lambda_omega_l == 0.0
        assert rep.lambda_omega_d == 1.0

    def test_bias_regularized_game_has_positive_floor(self):
        rep = uniqueness_margin(self._ops(bias_reg=1.0, rho=100.0), n_profiles=2, seed=0)
        assert rep.lambda_omega_l == pytest.approx(0.01)
        assert 100.0 * rep.lambda_omega_l == pytest.approx(1.0)

    def test_margin_calls_only_the_pseudo_gradient(self):
        ops = self._ops(bias_reg=1.0, rho=100.0)
        calls = {"cost": 0, "pgrad": 0}

        def counted(key, fn):
            def call(v):
                calls[key] += 1
                return fn(v)

            return call

        ops = dataclasses.replace(
            ops,
            cost_l=counted("cost", ops.cost_l),
            cost_d=counted("cost", ops.cost_d),
            pseudo_grad=counted("pgrad", ops.pseudo_grad),
        )
        uniqueness_margin(ops, n_profiles=3, seed=0, n_pairs=7)
        assert calls == {"cost": 0, "pgrad": 3 * 2 * ops.dim + 2 * 7}

    def test_loss_hessians_match_scalar_oracle(self):
        # distinct rho so that r_d = rho_l / rho_d != 1 is divided out
        rng = np.random.default_rng(3)
        n, k, rho_l, rho_d, bias_reg = 3, 2, 2.0, 5.0, 0.5
        X = rng.uniform(size=(n, k))
        lb, ab = default_boxes(n, k, W=0.5)
        game = GameSpec(Dataset(X, np.array([-1.0, 1.0, 1.0])), rho_l, rho_d, lb, ab, bias_reg)
        ops = game_operator(game)
        m = k + 1

        def loss_l(v):
            mu_w, sig_w = v[:m], v[m : 2 * m]
            reg = 0.5 * rho_l * (mu_w[:k] @ mu_w[:k] + sig_w[:k] @ sig_w[:k])
            reg += 0.5 * bias_reg * (mu_w[k] ** 2 + sig_w[k] ** 2)
            return ops.cost_l(v) - reg

        def loss_d(v):
            blocks = v[2 * m :].reshape(n, 2 * k)
            reg = 0.5 * rho_d * (((blocks[:, :k] - X) ** 2).sum() + (blocks[:, k:] ** 2).sum())
            return ops.cost_d(v) - reg

        theta = ops.lower + rng.uniform(0.1, 0.9, size=ops.dim) * (ops.upper - ops.lower)
        # score 0.92 at x = (0.9, 0.9): the learner margin of sample 1 and the
        # attacker margin of sample 0 sit near the hinge kink, so both own
        # blocks carry loss curvature
        theta[:m] = (0.4, 0.4, 0.2)
        theta[2 * m : 2 * m + k] = 0.9
        theta[2 * m + 2 * k : 2 * m + 3 * k] = 0.9
        idx_l, idx_d = np.arange(ops.dim_l), np.arange(ops.dim_l, ops.dim)
        box = dict(lower=ops.lower, upper=ops.upper)
        oracle = (
            fd_hessian_block(loss_l, theta, idx_l, idx_l, **box),
            fd_hessian_block(loss_l, theta, idx_l, idx_d, **box),
            fd_hessian_block(loss_d, theta, idx_d, idx_l, **box),
            fd_hessian_block(loss_d, theta, idx_d, idx_d, **box),
        )
        blocks = loss_hessians(ops, pseudo_jacobian(ops, theta))
        for got, want in zip(blocks, oracle):
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-5)
