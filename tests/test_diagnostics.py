"""Curvature diagnostics from the closed-form block Jacobian: toy games with
known Hessians, and the primal and dual games against the finite-difference
Jacobian and dense eigenvalues of the assembled blocks."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from oracles import BoundaryError, assemble, evaluate, fd_pseudo_jacobian, fd_steps
from randgame import diagnostics
from randgame.cli import main
from randgame.costs import _primal_terms, game_operator
from randgame.data import synth_2d
from randgame.diagnostics import (
    MONOTONE_TOL,
    monotonicity_sample,
    profile_curvature,
    uniqueness_margin,
)
from randgame.kernel import Kernel, _dual_terms, dual_game_operator, gram
from randgame.model import Dataset, GameSpec, ShapeError, default_boxes
from randgame.ops import VIGame, pseudo_jacobian
from randgame.solver import SolverConfig, extragradient_solve


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
    hr = fd_steps(theta, rows, h_step, lower, upper)
    hc = fd_steps(theta, cols, h_step, lower, upper)

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
        lower=np.zeros(2),
        upper=np.ones(2),
        costs=lambda v: (0.0, 0.0),
        pseudo_grad=pseudo_grad,
    )


def constant_blocks(H):
    """The loss_jacobian callable of a two-scalar game whose loss Jacobian is
    H: one attacker row of one entry, fresh blocks at each call, as
    pseudo_jacobian overwrites them."""
    H = np.asarray(H, dtype=float)
    return lambda v: (H[:1, :1].copy(), H[None, :1, 1:].copy(), H[None, 1:, :1].copy(),
                      H[None, 1:, 1:].copy())


def coupled_quadratic(c):
    """cost_l = v0^2/2 + c v0 v1, cost_d = v1^2/2 + c v0 v1.

    Both regularizers are v^2/2, both losses the bilinear coupling, so the
    cross-block loss Hessians are both c and the symmetrized coupling is c.
    Like the games' operators, costs and pseudo_grad take a stack of profiles.
    """
    return VIGame(
        dim_l=1,
        lower=np.full(2, -5.0),
        upper=np.full(2, 5.0),
        costs=lambda v: (0.5 * v[..., 0] ** 2 + c * v[..., 0] * v[..., 1],
                         0.5 * v[..., 1] ** 2 + c * v[..., 0] * v[..., 1]),
        pseudo_grad=lambda v: np.stack([v[..., 0] + c * v[..., 1], v[..., 1] + c * v[..., 0]],
                                       axis=-1),
        loss_jacobian=constant_blocks([[0.0, c], [c, 0.0]]),
        reg_hess=lambda: (np.eye(1), np.eye(1)),
    )


def antisymmetric_bilinear():
    """cost_l = v0^2/2 + v0 v1, cost_d = v1^2/2 - v0 v1.

    The cross-block loss Hessians are +1 and -1; their symmetrization
    cancels exactly, so the coupling bound tau is zero and the margin is
    the product of the regularizer curvatures.
    """
    return VIGame(
        dim_l=1,
        lower=np.full(2, -5.0),
        upper=np.full(2, 5.0),
        costs=lambda v: (0.5 * v[..., 0] ** 2 + v[..., 0] * v[..., 1],
                         0.5 * v[..., 1] ** 2 - v[..., 0] * v[..., 1]),
        pseudo_grad=lambda v: np.stack([v[..., 0] + v[..., 1], v[..., 1] - v[..., 0]], axis=-1),
        loss_jacobian=constant_blocks([[0.0, 1.0], [-1.0, 0.0]]),
        reg_hess=lambda: (np.eye(1), np.eye(1)),
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
        J = fd_pseudo_jacobian(unit_box_game(lambda v: 2.0 * inside(v)), theta)
        assert H[0, 0] == pytest.approx(2.0, rel=1e-3)
        assert J[0, 0] == pytest.approx(2.0, rel=1e-3)

    def test_boundary_error_when_pinned(self):
        def f(v):
            return float(v @ v)

        theta = np.array([1.0, 0.5])
        with pytest.raises(BoundaryError):
            fd_hessian_block(f, theta, [0], [0], lower=np.zeros(2), upper=np.ones(2))
        with pytest.raises(BoundaryError):
            fd_pseudo_jacobian(unit_box_game(lambda v: 2.0 * v), theta)


def min_sym_eig(J):
    return float(np.linalg.eigvalsh(0.5 * (J + J.T)).min())


class TestPseudoJacobian:
    """The toy games' Jacobian blocks against the FD oracle, and the smallest
    eigenvalue of their symmetric part from the blocks."""

    def test_bilinear_min_eig_is_one(self):
        # Jacobian [[1, 1], [-1, 1]] has symmetric part I
        ops, theta = antisymmetric_bilinear(), np.array([0.3, -0.4])
        J = assemble(pseudo_jacobian(ops, ops.loss_jacobian(theta)))
        np.testing.assert_allclose(J, fd_pseudo_jacobian(ops, theta), rtol=0, atol=1e-9)
        assert profile_curvature(ops, theta).min_jacobian_eig == pytest.approx(1.0, abs=1e-12)

    def test_coupled_quadratic_min_eig(self):
        # symmetric part [[1, c], [c, 1]] has min eigenvalue 1 - c
        ops, theta = coupled_quadratic(0.4), np.array([0.2, 0.1])
        J = assemble(pseudo_jacobian(ops, ops.loss_jacobian(theta)))
        np.testing.assert_allclose(J, fd_pseudo_jacobian(ops, theta), rtol=0, atol=1e-9)
        assert min_sym_eig(J) == pytest.approx(0.6, abs=1e-12)
        assert profile_curvature(ops, theta).min_jacobian_eig == pytest.approx(0.6, abs=1e-12)


class TestMonotonicity:
    def test_monotone_operator_clean(self):
        assert monotonicity_sample(antisymmetric_bilinear(), 100, seed=0) == 0

    def test_violations_detected(self):
        g = VIGame(
            dim_l=1,
            lower=np.full(2, -1.0),
            upper=np.full(2, 1.0),
            costs=lambda v: (-0.5 * v[..., 0] ** 2, -0.5 * v[..., 1] ** 2),
            pseudo_grad=lambda v: -v,
        )
        assert monotonicity_sample(g, 50, seed=0) == 50

    def test_one_profile_operator_raises(self):
        # an operator that reads only one profile per call sees the
        # (k, 2, dim) stack as a single vector and would miscount it
        g = dataclasses.replace(antisymmetric_bilinear(),
                                pseudo_grad=lambda v: np.array([v[0] + v[1], v[1] - v[0]]))
        with pytest.raises(ShapeError, match="stack"):
            monotonicity_sample(g, 5, seed=0)

    @pytest.mark.parametrize("n_pairs", [1, 50, 200])
    def test_counts_as_the_pair_loop(self, n_pairs, monkeypatch):
        # the stacked chunks draw the profiles of a loop that takes pair after
        # pair, a then b, one pseudo-gradient call per profile, and count the
        # same violations; a small chunk bound splits the sample into several
        # calls. The weakly regularized game on a wide box is not monotone.
        X = np.random.default_rng(0).uniform(size=(3, 2))
        ops = game_operator(GameSpec(Dataset(X, np.array([-1.0, 1.0, 1.0])), 0.01, 0.01,
                                     *default_boxes(3, 2, W=5.0)))
        rng, width, want = np.random.default_rng(3), ops.upper - ops.lower, 0
        for _ in range(n_pairs):
            a = ops.lower + rng.uniform(0.1, 0.9, size=ops.dim) * width
            b = ops.lower + rng.uniform(0.1, 0.9, size=ops.dim) * width
            want += float((ops.pseudo_grad(a) - ops.pseudo_grad(b)) @ (a - b)) < -MONOTONE_TOL
        assert want > 0 or n_pairs == 1
        assert monotonicity_sample(ops, n_pairs, seed=3) == want
        monkeypatch.setattr(diagnostics, "MONOTONE_CHUNK_ENTRIES", 5 * ops.dim)
        assert monotonicity_sample(ops, n_pairs, seed=3) == want


class TestUniquenessMargin:
    def test_antisymmetric_coupling_cancels(self):
        rep = uniqueness_margin(antisymmetric_bilinear(), n_profiles=5, seed=0, n_pairs=5)
        assert rep.lambda_omega_l == 1.0 and rep.lambda_omega_d == 1.0
        assert rep.lambda_L_l == pytest.approx(0.0, abs=1e-12)
        assert rep.lambda_L_d == pytest.approx(0.0, abs=1e-12)
        assert rep.tau_estimate == pytest.approx(0.0, abs=1e-12)
        assert rep.uniqueness_margin == pytest.approx(1.0, abs=1e-12)
        assert rep.monotone_violations == 0
        assert len(rep.min_jacobian_eig) == 5
        assert min(rep.min_jacobian_eig) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_coupling_reduces_margin(self):
        rep = uniqueness_margin(coupled_quadratic(0.5), n_profiles=5, seed=1, n_pairs=5)
        # (1 + 0) * (1 + 0) - 0.25
        assert rep.tau_estimate == pytest.approx(0.25, abs=1e-12)
        assert rep.uniqueness_margin == pytest.approx(0.75, abs=1e-12)
        assert min(rep.min_jacobian_eig) == pytest.approx(0.5, abs=1e-12)

    def test_requires_loss_split(self):
        g = VIGame(
            dim_l=1,
            lower=np.zeros(2),
            upper=np.ones(2),
            costs=lambda v: (0.0, 0.0),
            pseudo_grad=lambda v: np.zeros(2),
        )
        with pytest.raises(ValueError, match="split"):
            uniqueness_margin(g, n_profiles=1, seed=0, n_pairs=1)

    def test_rejects_zero_profiles(self):
        # a margin over no profile would read inf and certify any game
        with pytest.raises(ValueError, match="n_profiles"):
            uniqueness_margin(antisymmetric_bilinear(), n_profiles=0, seed=0, n_pairs=1)

    @pytest.mark.parametrize("n_pairs", [0, -5])
    def test_rejects_no_pairs(self, n_pairs):
        # a sample of no pair would read 0 violations for any operator
        with pytest.raises(ValueError, match="n_pairs"):
            uniqueness_margin(antisymmetric_bilinear(), n_profiles=1, seed=0, n_pairs=n_pairs)

    def test_report_text_has_all_fields(self):
        # every number check-eq computes is printed, the smallest eigenvalue
        # of the symmetrized pseudo-Jacobian over the profiles after tau
        rep = uniqueness_margin(coupled_quadratic(0.5), n_profiles=2, seed=2, n_pairs=2)
        lines = rep.as_text().splitlines()
        assert [line.partition("=")[0] for line in lines] == [
            "lambda_omega_l", "lambda_omega_d", "lambda_L_l_sampled", "lambda_L_d_sampled",
            "tau_sampled", "min_jacobian_eig_sampled", "uniqueness_margin",
            "monotone_violations"]
        assert lines[5] == f"min_jacobian_eig_sampled={min(rep.min_jacobian_eig):.6g}" == (
            "min_jacobian_eig_sampled=0.5")


class TestLossEigenvalueFloor:
    """A loss block's smallest eigenvalue that is negative by rounding only
    reads 0; a negative one above rounding reads as computed."""

    def _ops(self):
        ds = synth_2d(5, 0.4, 0)
        return game_operator(GameSpec(ds, 1.0, 1.0, *default_boxes(ds.n, ds.k, 0.5), bias_reg=1.0))

    def test_check_eq_prints_rounding_as_zero(self, tmp_path, capsys):
        # the learner's smallest loss eigenvalue computes as about -1e-27 here
        data, game = tmp_path / "synth10.csv", tmp_path / "game.cfg"
        assert main(["gen-synth", "--n", "5", "--seed", "0", "--out", str(data)]) == 0
        game.write_text("rho_l=1\nrho_d=1\nbias_reg=1\nW=0.5\n")
        argv = ["check-eq", "--data", str(data), "--game", str(game), "--profiles", "5",
                "--pairs", "5"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[2:4] == ["lambda_L_l_sampled=0", "lambda_L_d_sampled=0"]

    @pytest.mark.parametrize("least", [-1e-6, -1e-16])
    def test_planted_smallest_eigenvalue(self, least):
        # each player's loss block is replaced by one whose smallest
        # eigenvalue is least times its largest; -1e-6 is curvature, -1e-16
        # is below EIG_RTOL and reads 0 (or its rounding above 0)
        ops = self._ops()
        theta = random_profiles(ops, 0, 1)[0]
        ll, ld, dl, dd = ops.loss_jacobian(theta)
        rng = np.random.default_rng(1)

        def planted(size):
            Q = np.linalg.qr(rng.normal(size=(size, size)))[0]
            e = np.linspace(0.5, 1.0, size)
            e[0] = least
            return (Q * e) @ Q.T

        ll, dd[0] = planted(ll.shape[0]), planted(dd.shape[1])
        c = profile_curvature(dataclasses.replace(ops, loss_jacobian=lambda t: (ll, ld, dl, dd)),
                              theta)
        for value in (c.lambda_L_l, c.lambda_L_d):
            if least < -diagnostics.EIG_RTOL:
                assert value == pytest.approx(least, rel=1e-6)
            else:
                assert 0.0 <= value <= 1e-15


class TestSvmGameDiagnostics:
    def _ops(self, bias_reg=0.0, rho=1.0):
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(3, 2))
        y = np.array([-1.0, 1.0, 1.0])
        lb, ab = default_boxes(3, 2, W=0.5)
        return game_operator(GameSpec(Dataset(X, y), rho, rho, lb, ab, bias_reg=bias_reg))

    def test_default_game_has_flat_bias_direction(self):
        rep = uniqueness_margin(self._ops(), n_profiles=2, seed=0, n_pairs=2)
        assert rep.lambda_omega_l == 0.0
        assert rep.lambda_omega_d == 1.0

    def test_bias_regularized_game_has_positive_floor(self):
        rep = uniqueness_margin(self._ops(bias_reg=1.0, rho=100.0), n_profiles=2, seed=0, n_pairs=2)
        assert rep.lambda_omega_l == pytest.approx(0.01)
        assert 100.0 * rep.lambda_omega_l == pytest.approx(1.0)

    def test_margin_calls_only_the_pseudo_gradient(self):
        # one closed-form Jacobian per profile; the pseudo-gradient only for
        # the monotonicity pairs, and no scalar cost at all
        ops = self._ops(bias_reg=1.0, rho=100.0)
        calls, shapes = {"cost": 0, "loss_jacobian": 0, "pgrad": 0}, []

        def counted(key, fn):
            def call(v):
                calls[key] += 1
                if key == "pgrad":
                    shapes.append(np.shape(v))
                return fn(v)

            return call

        ops = dataclasses.replace(
            ops,
            costs=counted("cost", ops.costs),
            pseudo_grad=counted("pgrad", ops.pseudo_grad),
            loss_jacobian=counted("loss_jacobian", ops.loss_jacobian),
        )
        uniqueness_margin(ops, n_profiles=3, seed=0, n_pairs=7)
        # the monotonicity sample's 7 pairs take one stacked call
        assert calls == {"cost": 0, "loss_jacobian": 3, "pgrad": 1}
        assert shapes == [(7, 2, ops.dim)]

    def test_loss_blocks_match_scalar_oracle(self):
        ops, theta, game = near_kink_primal()
        X = game.dataset.features
        n, k = X.shape
        rho_l, rho_d = ops.rho
        m = k + 1

        def loss_l(v):
            mu_w, sig_w = v[:m], v[m : 2 * m]
            reg = 0.5 * rho_l * (mu_w[:k] @ mu_w[:k] + sig_w[:k] @ sig_w[:k])
            reg += 0.5 * NEAR_KINK_BIAS_REG * (mu_w[k] ** 2 + sig_w[k] ** 2)
            return ops.costs(v)[0] - reg

        def loss_d(v):
            blocks = v[2 * m :].reshape(n, 2 * k)
            reg = 0.5 * rho_d * (((blocks[:, :k] - X) ** 2).sum() + (blocks[:, k:] ** 2).sum())
            return ops.costs(v)[1] - reg

        idx_l, idx_d = np.arange(ops.dim_l), np.arange(ops.dim_l, ops.dim)
        box = dict(lower=ops.lower, upper=ops.upper)
        oracle = (
            fd_hessian_block(loss_l, theta, idx_l, idx_l, **box),
            fd_hessian_block(loss_l, theta, idx_l, idx_d, **box),
            fd_hessian_block(loss_d, theta, idx_d, idx_l, **box),
            fd_hessian_block(loss_d, theta, idx_d, idx_d, **box),
        )
        H = assemble(ops.loss_jacobian(theta))
        L = ops.dim_l
        for got, want in zip((H[:L, :L], H[:L, L:], H[L:, :L], H[L:, L:]), oracle):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-5)
        assert np.abs(oracle[0]).max() > 0.1 and np.abs(oracle[3]).max() > 0.1


NEAR_KINK_BIAS_REG = 0.5


def near_kink_primal():
    """(ops, theta, game): a 3-point primal game with distinct rho, so that
    r_d = rho_l / rho_d != 1 matters, and bias_reg > 0, at a profile where the
    learner margin of sample 1 and the attacker margin of sample 0 sit near
    the hinge kink (score 0.92 at x = (0.9, 0.9)), so that both own blocks
    carry loss curvature."""
    rng = np.random.default_rng(3)
    n, k = 3, 2
    X = rng.uniform(size=(n, k))
    lb, ab = default_boxes(n, k, W=0.5)
    game = GameSpec(Dataset(X, np.array([-1.0, 1.0, 1.0])), 2.0, 5.0, lb, ab, NEAR_KINK_BIAS_REG)
    ops = game_operator(game)
    m = k + 1
    theta = ops.lower + rng.uniform(0.1, 0.9, size=ops.dim) * (ops.upper - ops.lower)
    theta[:m] = (0.4, 0.4, 0.2)
    theta[2 * m : 2 * m + k] = 0.9
    theta[2 * m + 2 * k : 2 * m + 3 * k] = 0.9
    return ops, theta, game


def rbf_dual(n_per_class=3, rho_l=3.0, rho_d=7.0, bias_reg=0.5):
    return dual_game_operator(synth_2d(n_per_class, 0.4, 1), Kernel("rbf", 1.0), rho_l, rho_d,
                              bias_reg)


def random_profiles(ops, seed, count):
    rng = np.random.default_rng(seed)
    return [ops.lower + rng.uniform(0.05, 0.95, ops.dim) * (ops.upper - ops.lower)
            for _ in range(count)]


class TestClosedFormJacobian:
    """The Jacobian blocks of both games against the central-difference
    Jacobian of the pseudo-gradient, and every diagnostics number against
    dense eigenvalues of the assembled blocks."""

    def test_primal_blocks_match_fd_near_the_kink(self):
        ops, theta, _ = near_kink_primal()
        J_fd = fd_pseudo_jacobian(ops, theta)
        # the FD truncation error near the kink is about 5e-7
        np.testing.assert_allclose(assemble(pseudo_jacobian(ops, ops.loss_jacobian(theta))),
                                   J_fd, rtol=0, atol=2e-6)

    def test_dual_blocks_match_fd(self):
        ops = rbf_dual()
        for theta in random_profiles(ops, 0, 2):
            J_fd = fd_pseudo_jacobian(ops, theta)
            np.testing.assert_allclose(assemble(pseudo_jacobian(ops, ops.loss_jacobian(theta))),
                                       J_fd, rtol=0, atol=1e-6 * np.abs(J_fd).max())

    @pytest.mark.parametrize("game", ["primal", "dual"])
    def test_loss_blocks_match_fd_of_the_loss_gradient(self, game):
        # the loss gradient is evaluate's with every weight at zero, so the
        # loss blocks hold no regularizer and no weight r_d (rho_l != rho_d
        # in both games). The tolerances are those of the two tests above at
        # the same profiles: the regularizers are quadratic, so the FD error
        # is all in the loss part
        if game == "primal":
            ops, theta, spec = near_kink_primal()
            terms, thetas = _primal_terms(spec), [theta]
        else:
            data = synth_2d(3, 0.4, 1)
            ops = rbf_dual()
            terms = _dual_terms(gram(data, Kernel("rbf", 1.0)), data.labels, 3.0, 7.0, 0.5)
            thetas = random_profiles(ops, 0, 2)
        loss_ops = dataclasses.replace(
            ops, pseudo_grad=lambda v: evaluate(v, *terms[:6], 0.0, 0.0, 0.0)[2])
        for theta in thetas:
            atol = (2e-6 if game == "primal"
                    else 1e-6 * np.abs(fd_pseudo_jacobian(ops, theta)).max())
            np.testing.assert_allclose(assemble(ops.loss_jacobian(theta)),
                                       fd_pseudo_jacobian(loss_ops, theta), rtol=0, atol=atol)

    @pytest.mark.parametrize("game", ["primal", "dual"])
    def test_loss_numbers_do_not_depend_on_rho(self, game):
        # lambda_L and tau are read from the loss blocks, which no rho
        # weights, so they keep their bits from rho = 1 to 1e6 and at
        # rho_l != rho_d; the box, and so the profiles, do not depend on rho
        def make(rho_l, rho_d):
            if game == "dual":
                return rbf_dual(rho_l=rho_l, rho_d=rho_d)
            ds = synth_2d(5, 0.4, 0)
            return game_operator(GameSpec(ds, rho_l, rho_d, *default_boxes(ds.n, ds.k, 0.5)))

        games = [make(*rho) for rho in ((1.0, 1.0), (1e6, 1e6), (3.0, 7.0))]
        for theta in random_profiles(games[0], 3, 5):
            numbers = []
            for ops in games:
                assert np.array_equal(ops.lower, games[0].lower)
                assert np.array_equal(ops.upper, games[0].upper)
                c = profile_curvature(ops, theta)
                numbers.append((c.lambda_L_l, c.lambda_L_d, c.tau))
            assert numbers[1] == numbers[0] and numbers[2] == numbers[0]

    def test_dual_loss_blocks_match_scalar_oracle(self):
        # the dual regularizers are K-weighted: the oracle subtracts them
        # from the costs, and the loss blocks never held them
        data = synth_2d(2, 0.4, 1)
        n, rho_l, rho_d, bias_reg = data.n, 3.0, 7.0, 0.5
        ops = dual_game_operator(data, Kernel("rbf", 1.0), rho_l, rho_d, bias_reg)
        d = data.features[:, None, :] - data.features[None, :, :]
        K = np.exp(-(d**2).sum(axis=2))

        def loss_l(v):
            mu_a, mu_b, sig_a, sig_b = v[:n], v[n], v[n + 1 : 2 * n + 1], v[2 * n + 1]
            reg = 0.5 * rho_l * (mu_a @ K @ mu_a + np.diag(K) @ sig_a**2)
            return ops.costs(v)[0] - reg - 0.5 * bias_reg * (mu_b**2 + sig_b**2)

        def loss_d(v):
            rows = v[2 * n + 2 :].reshape(n, 2 * n)
            shift, sig = rows[:, :n] - np.eye(n), rows[:, n:]
            reg = np.einsum("ij,jk,ik->", shift, K, shift) + ((sig**2) @ np.diag(K)).sum()
            return ops.costs(v)[1] - 0.5 * rho_d * reg

        theta = random_profiles(ops, 3, 1)[0]
        idx_l, idx_d = np.arange(ops.dim_l), np.arange(ops.dim_l, ops.dim)
        box = dict(lower=ops.lower, upper=ops.upper)
        H = assemble(ops.loss_jacobian(theta))
        L = ops.dim_l
        np.testing.assert_allclose(H[:L, :L], fd_hessian_block(loss_l, theta, idx_l, idx_l, **box),
                                   rtol=0, atol=1e-5)
        np.testing.assert_allclose(H[L:, L:], fd_hessian_block(loss_d, theta, idx_d, idx_d, **box),
                                   rtol=0, atol=1e-5)

    def test_fd_sees_no_entries_between_attacker_rows(self):
        # the block form drops them: check that the FD Jacobian has none
        ops, theta, game = near_kink_primal()
        J_fd = fd_pseudo_jacobian(ops, theta)
        b = 2 * game.k
        np.testing.assert_allclose(J_fd[ops.dim_l : ops.dim_l + b, ops.dim_l + b :], 0.0,
                                   atol=1e-12)

    @staticmethod
    def _game(game, rho):
        if game == "dual":
            return rbf_dual(rho_l=rho, rho_d=rho)
        rng = np.random.default_rng(4)
        n, k = 12, 3
        X = rng.uniform(size=(n, k))
        y = np.where(np.arange(n) % 2 == 0, -1.0, 1.0)
        return game_operator(GameSpec(Dataset(X, y), rho, 2.0 * rho, *default_boxes(n, k, 1.0),
                                      bias_reg=0.3))

    @pytest.mark.parametrize("game, rho", [("primal", 0.5), ("dual", 10.0)])
    def test_profile_numbers_match_dense_eigenvalues(self, game, rho):
        ops = self._game(game, rho)
        L = ops.dim_l
        for theta in random_profiles(ops, 5, 4):
            H = assemble(ops.loss_jacobian(theta))
            J = assemble(pseudo_jacobian(ops, ops.loss_jacobian(theta)))
            R = 0.5 * (H[:L, L:].T + H[L:, :L])
            c = profile_curvature(ops, theta)
            assert c.min_jacobian_eig == pytest.approx(min_sym_eig(J), abs=1e-9)
            assert c.lambda_L_l == pytest.approx(min_sym_eig(H[:L, :L]), abs=1e-9)
            assert c.lambda_L_d == pytest.approx(min_sym_eig(H[L:, L:]), abs=1e-9)
            assert c.tau == pytest.approx(np.linalg.eigvalsh(R @ R.T).max(), abs=1e-9)

    @pytest.mark.parametrize("game", ["primal", "dual"])
    def test_eigenvalue_root_search_takes_few_steps(self, game, monkeypatch):
        # each step of the search is one eigh of the L x L Schur complement;
        # bisection alone would need about 47 to reach the tolerance, and
        # without the overshoot by tol these profiles take up to 41
        ops, steps, eigh = self._game(game, 1.0), [], np.linalg.eigh

        def counted(A):
            steps.append(A.ndim == 2)
            return eigh(A)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        for theta in random_profiles(ops, 5, 8):
            steps.clear()
            profile_curvature(ops, theta)
            assert 1 <= sum(steps) <= 24

    def test_dual_equilibrium_on_the_box_boundary(self):
        # where the dual solve stops, coordinates sit on the box: the FD
        # Jacobian cannot be taken there, the closed-form one can
        ops = dual_game_operator(synth_2d(15, 0.4, 0), Kernel("rbf", 1.0), 10.0, 10.0)
        theta = extragradient_solve(ops, None, SolverConfig(max_iter=300, seed=0)).theta
        assert np.any((theta == ops.lower) | (theta == ops.upper))
        with pytest.raises(BoundaryError):
            fd_pseudo_jacobian(ops, theta)
        c = profile_curvature(ops, theta)
        J = assemble(pseudo_jacobian(ops, ops.loss_jacobian(theta)))
        assert c.min_jacobian_eig == pytest.approx(min_sym_eig(J), abs=1e-9)
        rep = uniqueness_margin(ops, n_profiles=1, seed=0, n_pairs=1)
        assert np.isfinite(rep.uniqueness_margin)

    def test_one_profile_at_n5000_stays_small(self):
        # the dense Jacobian would be dim^2 = 20006^2 doubles, 3.2 GB
        rng = np.random.default_rng(6)
        n, k = 5000, 2
        X = rng.uniform(size=(n, k))
        y = np.where(np.arange(n) % 2 == 0, -1.0, 1.0)
        ops = game_operator(GameSpec(Dataset(X, y), 10.0, 10.0, *default_boxes(n, k, 1.0),
                                     bias_reg=1.0))
        theta = random_profiles(ops, 7, 1)[0]
        tracemalloc.start()
        try:
            c = profile_curvature(ops, theta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(c.min_jacobian_eig)
        assert peak < 100e6


def _condition_games():
    """(label, ops) at rho_l = rho_d, so r = 1."""
    ds = synth_2d(5, 0.4, 0)
    for rho, bias_reg in [(1.0, 1.0), (10.0, 1.0), (100.0, 1.0), (1000.0, 1.0), (10.0, 0.0)]:
        yield f"synth10 rho={rho:g} bias_reg={bias_reg:g}", game_operator(
            GameSpec(ds, rho, rho, *default_boxes(ds.n, ds.k, 0.5), bias_reg=bias_reg))
    X = np.random.default_rng(5).uniform(size=(50, 5))
    k5 = Dataset(X, np.where(X[:, :3].sum(axis=1) > 1.5, 1.0, -1.0))
    yield "uniform50 k=5 rho=10", game_operator(
        GameSpec(k5, 10.0, 10.0, *default_boxes(k5.n, k5.k, 0.5), bias_reg=1.0))
    yield "rbf dual n=6", dual_game_operator(synth_2d(3, 0.4, 0), Kernel("rbf", 1.0), 10.0, 10.0,
                                             1.0)
    yield "linear dual n=4", dual_game_operator(synth_2d(2, 0.4, 0), Kernel("linear"), 10.0,
                                                10.0, 1.0)


@pytest.mark.parametrize("ops", [pytest.param(ops, id=label) for label, ops in _condition_games()])
def test_paper_condition_bounds_the_smallest_jacobian_eigenvalue(ops):
    # At r = 1 the symmetrized pseudo-Jacobian is [[A, R], [R^T, D]] with
    # A >= a I, D >= d I and ||R||^2 = tau, so its smallest eigenvalue is at
    # least that of [[a, sqrt(tau)], [sqrt(tau), d]]: the paper's condition,
    # a d > tau, makes it positive. The eigenvalue comes from the root search
    # on the Schur complement, a, d and tau from the loss blocks' own
    # eigenvalues and reg_hess, two independent computations.
    reg_l, reg_d = (np.linalg.eigvalsh(reg)[0] for reg in ops.reg_hess())
    rng = np.random.default_rng(0)
    for _ in range(10):
        c = profile_curvature(ops, diagnostics._interior_sample(ops, rng))
        a, d, tau = c.lambda_L_l + reg_l, c.lambda_L_d + reg_d, c.tau
        tol = 1e-12 * max(abs(a), abs(d), np.sqrt(tau), 1.0)
        assert c.min_jacobian_eig >= ((a + d) - np.sqrt((a - d) ** 2 + 4.0 * tau)) / 2 - tol
        # a curvature of rounding's size (bias_reg = 0 leaves the learner's
        # bias direction flat) certifies nothing
        if a > tol and d > tol and a * d > tau:
            assert c.min_jacobian_eig > 0.0
