"""Extragradient solver on toy games with known equilibria, its guarded
Newton steps on the SVM games, and the natural residual that certifies a
solve, itself checked against exact best responses."""

import dataclasses
import hashlib

import numpy as np
import pytest

from oracles import (assemble, best_response_gaps, counting_operator, deviation_mask,
                     extragradient_reference, with_dense_newton)
from randgame.costs import game_operator
from randgame.data import synth_2d
from randgame.kernel import Kernel, dual_game_operator
from randgame.model import Dataset, GameSpec, ShapeError, default_boxes
from randgame.ops import VIGame, dense_newton, dense_newton_price, pseudo_jacobian
from randgame.solver import (
    EquilibriumResult,
    SolverConfig,
    TERM_MAX_ITER,
    TERM_TOLERANCE,
    extragradient_solve,
    initial_point,
    vi_residual,
)


def quadratic_game(target=(0.3, -0.2), box=2.0):
    """Decoupled strongly convex game; unique equilibrium at the target."""
    a, c = target

    return VIGame(
        dim_l=1,
        lower=np.full(2, -box),
        upper=np.full(2, box),
        costs=lambda v: (0.5 * (v[0] - a) ** 2, 0.5 * (v[1] - c) ** 2),
        pseudo_grad=lambda v: np.array([v[0] - a, v[1] - c]),
    )


def bilinear_game(box=5.0):
    """Coupled game c_l = v0^2/2 + v0 v1, c_d = v1^2/2 - v0 v1.

    The pseudo-gradient (v0 + v1, v1 - v0) is strongly monotone (its Jacobian
    has symmetric part I), so (0, 0) is the unique equilibrium.
    """
    return VIGame(
        dim_l=1,
        lower=np.full(2, -box),
        upper=np.full(2, box),
        costs=lambda v: (0.5 * v[0] ** 2 + v[0] * v[1], 0.5 * v[1] ** 2 - v[0] * v[1]),
        pseudo_grad=lambda v: np.array([v[0] + v[1], v[1] - v[0]]),
        reg_hess=lambda: (np.eye(1), np.eye(1)),
    )


def boundary_game():
    """One-sided pull: both optima lie outside the box, so the equilibrium is
    pinned at the lower-left box corner."""
    return VIGame(
        dim_l=1,
        lower=np.zeros(2),
        upper=np.ones(2),
        costs=lambda v: (2.0 * v[0], 3.0 * v[1]),
        pseudo_grad=lambda v: np.array([2.0, 3.0]),
    )


def assert_deviations_on_floor(ops, theta):
    """Every deviation coordinate of an SVM game profile sits exactly on its
    lower bound (costs module docstring: the own-deviation entries of the
    pseudo-gradient are positive everywhere in the box)."""
    dev = deviation_mask(ops)
    np.testing.assert_array_equal(theta[dev], ops.lower[dev])


def regularized_game(rho, bias_reg=1.0):
    ds = synth_2d(25, 0.4, 0)
    lb, ab = default_boxes(ds.n, ds.k, W=1.0)
    return GameSpec(ds, rho, rho, lb, ab, bias_reg=bias_reg)


class TestExtragradient:
    def test_quadratic_game_converges_to_target(self):
        game = quadratic_game()
        res = extragradient_solve(game, np.array([1.5, 1.5]), SolverConfig(epsilon=1e-10))
        assert res.converged and res.termination == TERM_TOLERANCE
        assert res.residual == vi_residual(res.theta, game) <= 1e-10
        np.testing.assert_allclose(res.theta, [0.3, -0.2], atol=1e-8)

    def test_bilinear_game_converges_to_origin(self):
        res = extragradient_solve(
            bilinear_game(), np.array([3.0, -4.0]), SolverConfig(epsilon=1e-8)
        )
        assert res.residual == vi_residual(res.theta, bilinear_game())
        assert np.linalg.norm(res.theta) <= 1e-6
        assert res.iterations <= 500
        assert vi_residual(res.theta, bilinear_game()) <= 1e-6

    def test_boundary_game_hits_the_face(self):
        res = extragradient_solve(
            boundary_game(), np.array([0.7, 0.4]), SolverConfig(epsilon=1e-12)
        )
        assert res.converged
        assert res.residual == vi_residual(res.theta, boundary_game())
        np.testing.assert_allclose(res.theta, [0.0, 0.0], atol=1e-10)

    def test_starts_from_projected_init(self):
        # infeasible init is projected before the first step
        game = quadratic_game(box=1.0)
        res = extragradient_solve(game, np.array([50.0, -50.0]), SolverConfig(epsilon=1e-10))
        assert res.converged
        assert res.residual == vi_residual(res.theta, game)
        np.testing.assert_allclose(res.theta, [0.3, -0.2], atol=1e-8)

    def test_fixed_point_detected_immediately(self):
        res = extragradient_solve(quadratic_game(), np.array([0.3, -0.2]))
        assert res.converged and res.iterations == 1
        assert res.residual_trace[-1] == res.residual == 0.0

    def test_max_iter_termination_reported(self):
        res = extragradient_solve(
            bilinear_game(), np.array([3.0, 3.0]), SolverConfig(epsilon=1e-15, max_iter=3)
        )
        assert not res.converged and res.termination == TERM_MAX_ITER
        assert res.iterations == 3
        assert res.residual == vi_residual(res.theta, bilinear_game()) > 1e-15

    def test_deterministic_given_seeded_default_init(self):
        cfg = SolverConfig(seed=11)
        r1 = extragradient_solve(bilinear_game(), None, cfg)
        r2 = extragradient_solve(bilinear_game(), None, cfg)
        assert np.array_equal(r1.theta, r2.theta)

    @pytest.mark.parametrize("init", [np.array([0.5]), np.zeros(3), np.zeros((2, 1))],
                             ids=["short", "long", "column"])
    def test_rejects_an_init_of_another_shape(self, init):
        # clip would broadcast a short init over the box and solve from it
        with pytest.raises(ShapeError, match=r"init has shape .*, not the profile's \(2,\)"):
            extragradient_solve(quadratic_game(), init)

    @pytest.mark.parametrize("which", ["primal", "dual"])
    def test_default_start_is_initial_point(self, which):
        # one start rule for both games: no init means initial_point(ops, cfg.seed)
        data = synth_2d(5, 0.4, 2)
        if which == "primal":
            ops = game_operator(GameSpec(data, 10.0, 10.0, *default_boxes(data.n, data.k, 1.0)))
        else:
            ops = dual_game_operator(data, Kernel("rbf", 1.0), 10.0, 10.0)
        cfg = SolverConfig(max_iter=50, seed=3)
        res = extragradient_solve(ops, None, cfg)
        np.testing.assert_array_equal(
            res.theta, extragradient_solve(ops, initial_point(ops, cfg.seed), cfg).theta)
        assert res.evaluations > 1

    @pytest.mark.parametrize("good_calls", [0, 3])
    def test_non_finite_pseudo_gradient_raises(self, good_calls):
        # NaN from the first call, at the start, or from the fourth, in the loop
        ops = quadratic_game()
        calls = []

        def pseudo_grad(v):
            calls.append(1)
            return ops.pseudo_grad(v) if len(calls) <= good_calls else np.array([np.nan, 0.0])

        with pytest.raises(FloatingPointError, match="non-finite pseudo-gradient"):
            extragradient_solve(dataclasses.replace(ops, pseudo_grad=pseudo_grad),
                                np.array([1.0, 1.0]))
        assert len(calls) == good_calls + 1

    def test_trace_is_monotone_enough_to_stop(self):
        res = extragradient_solve(quadratic_game(), np.array([1.5, 1.5]))
        assert res.residual_trace[-1] <= SolverConfig().epsilon

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            SolverConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            SolverConfig(max_iter=0)
        # counts and seeds that would fail only inside the solve
        for bad in (dict(max_iter=2.5), dict(max_iter=3.0), dict(seed=-1), dict(seed=1.5),
                    dict(seed=None)):
            with pytest.raises(ValueError, match="bad solver configuration"):
                SolverConfig(**bad)

    def test_accepts_numpy_integers(self):
        cfg = SolverConfig(max_iter=np.int64(3), seed=np.uint32(5))
        res = extragradient_solve(bilinear_game(), None, cfg)
        assert res.iterations == 3
        np.testing.assert_array_equal(res.theta, extragradient_solve(
            bilinear_game(), None, SolverConfig(max_iter=3, seed=5)).theta)

    @pytest.mark.parametrize("epsilon", [np.inf, np.nan])
    def test_rejects_non_finite_epsilon(self, epsilon):
        # epsilon = inf would stop every solve at once as converged, and NaN
        # would never stop one, since residual <= nan is False
        with pytest.raises(ValueError):
            SolverConfig(epsilon=epsilon)


class TestResidualAndNash:
    def test_residual_zero_at_solution_nonzero_away(self):
        g = quadratic_game()
        assert vi_residual(np.array([0.3, -0.2]), g) == 0.0
        assert vi_residual(np.array([1.0, 1.0]), g) > 0.1

    def test_nash_verify_accepts_equilibrium(self):
        # the natural residual is the equilibrium check: 0 at the bilinear
        # game's equilibrium (0, 0)
        assert vi_residual(np.array([0.0, 0.0]), bilinear_game()) == 0.0

    def test_nash_verify_rejects_non_equilibrium(self):
        # at (2, 2) the pseudo-gradient is (4, 0) and P(theta - g) = (-2, 2)
        assert vi_residual(np.array([2.0, 2.0]), bilinear_game()) == 4.0

    def test_residual_is_zero_at_the_boundary_equilibrium(self):
        assert vi_residual(np.array([0.0, 0.0]), boundary_game()) == 0.0

    def test_residual_raises_on_a_non_finite_pseudo_gradient(self):
        # P(theta - NaN) - theta is NaN, whose norm would read as a residual
        ops = dataclasses.replace(bilinear_game(), pseudo_grad=lambda v: np.full(2, np.nan))
        with pytest.raises(FloatingPointError):
            vi_residual(np.array([2.0, 2.0]), ops)


class TestSvmGame:
    def _game(self, seed=0, n_per_class=10):
        from randgame.data import synth_2d

        ds = synth_2d(n_per_class, 0.4, seed)
        lb, ab = default_boxes(ds.n, ds.k, W=1.0)
        return GameSpec(ds, 10.0, 10.0, lb, ab)

    def test_equilibrium_passes_nash_check(self):
        # each player's exact best response gains nothing at the solve, and
        # gains at a profile 1e-3 away from it
        ops = game_operator(self._game())
        res = extragradient_solve(ops)
        assert res.converged
        assert max(best_response_gaps(ops, res.theta)) <= 1e-9
        noise = np.random.default_rng(0).normal(scale=1e-3, size=ops.dim)
        assert min(best_response_gaps(ops, ops.project(res.theta + noise))) > 1e-8

    def test_result_is_the_flat_profile(self):
        game = self._game(seed=2, n_per_class=5)
        res = extragradient_solve(game_operator(game))
        assert isinstance(res, EquilibriumResult)
        assert res.theta.shape == (game.dim_l + game.dim_d,)
        assert not any(hasattr(res, name) for name in ("dim_l", "theta_l", "theta_d"))

    def test_initial_point_feasible_and_seeded(self):
        game = self._game(seed=3, n_per_class=4)
        p1, p2 = initial_point(game, 7), initial_point(game, 7)
        assert np.array_equal(p1, p2)
        from randgame.costs import game_operator

        ops = game_operator(game)
        assert np.all(p1 >= ops.lower) and np.all(p1 <= ops.upper)
        assert not np.array_equal(p1, initial_point(game, 8))
        # one uniform draw over both boxes, the learner means then shrunk by 0.1
        want = ops.lower + np.random.default_rng(7).uniform(size=ops.dim) * (ops.upper - ops.lower)
        want[: game.k + 1] *= 0.1
        np.testing.assert_array_equal(p1, want)
        # the operator's box and layout give the same start as the game's
        np.testing.assert_array_equal(initial_point(ops, 7), p1)

    def test_initial_point_shrinks_the_dual_learner_means(self):
        # the dual game's learner means are its n + 1 alpha and bias means
        ops = dual_game_operator(synth_2d(3, 0.4, 0), Kernel("rbf", 1.0), 10.0, 10.0)
        u = np.random.default_rng(4).uniform(size=ops.dim)
        want = ops.lower + u * (ops.upper - ops.lower)
        want[: ops.dim_l // 2] *= 0.1
        assert ops.dim_l // 2 == 7
        np.testing.assert_array_equal(initial_point(ops, 4), want)

    def test_default_game_has_no_unique_equilibrium_until_the_bias_is_regularized(self):
        from randgame.data import synth_2d

        ds = synth_2d(25, 0.4, 0)
        lb, ab = default_boxes(ds.n, ds.k, W=1.0)
        spread = {}
        for bias_reg in (0.0, 1.0):
            game = GameSpec(ds, 10.0, 10.0, lb, ab, bias_reg=bias_reg)
            sols = []
            for seed in range(4):
                res = extragradient_solve(game_operator(game), initial_point(game, seed))
                assert res.converged
                if bias_reg > 0:
                    assert_deviations_on_floor(game_operator(game), res.theta)
                sols.append(res.theta)
            spread[bias_reg] = max(np.abs(a - b).max() for a in sols for b in sols)
        # bias_reg=0 (the CLI default): converged solves from different starts
        # disagree; bias_reg=1: they agree to the solver tolerance
        assert spread[0.0] > 1e-2
        assert spread[1.0] < 1e-6

    def test_500_point_game_converges_in_under_1000_evaluations(self):
        from randgame.costs import game_operator

        game = self._game(n_per_class=250)
        ops = game_operator(game)
        calls = []

        def counted(theta):
            calls.append(1)
            return ops.pseudo_grad(theta)

        counting = dataclasses.replace(ops, pseudo_grad=counted)
        res = extragradient_solve(counting, initial_point(game, 0), SolverConfig(epsilon=1e-8))
        assert res.converged and res.residual <= 1e-8
        assert res.residual == vi_residual(res.theta, ops)
        assert len(calls) < 1000


class TestWhatTheEquilibriumIs:
    """What the solved game on synth_2d(25, 0.4, 0) at W = 1 plays, from
    initial_point(game, 0): the classifier its learner means give, the
    attacker's move and the deviations."""

    def test_the_bias_regularized_learner_labels_every_point_positive(self):
        # the features lie in [0, 1], so the threshold has to come from b, and
        # bias_reg pulls b to 0: every score is then positive
        game = regularized_game(10.0, bias_reg=1.0)
        res = extragradient_solve(game_operator(game), initial_point(game, 0))
        assert res.converged and res.iterations == 47
        mu_a, mu_b = res.theta[:2], res.theta[2]
        np.testing.assert_allclose(mu_a, [0.6823, 0.6255], rtol=0, atol=5e-5)
        assert abs(mu_b) <= 1e-12
        X, y = game.dataset.features, game.dataset.labels
        labels = np.where(X @ mu_a + mu_b >= 0.0, 1.0, -1.0)
        assert np.all(labels == 1.0)
        assert np.mean(labels == y) == 0.5

    @pytest.mark.parametrize("bias_reg", [0.0, 1.0])
    @pytest.mark.parametrize("rho", [0.1, 10.0, 100.0])
    def test_the_attacker_moves_every_row_by_mu_a_over_rho_d(self, rho, bias_reg):
        # an interior row's own gradient is rho_d times its move plus the
        # hinge's slope times y mu_a, whose slope is 1 here: the move has
        # length |mu_a| / rho_d up to the residual over rho_d
        game = regularized_game(rho, bias_reg)
        ops = game_operator(game)
        res = extragradient_solve(ops, initial_point(game, 0))
        assert res.converged
        n, k = game.n, game.k
        rows = res.theta[game.dim_l :].reshape(n, 2 * k)
        assert np.all((rows[:, :k] > 0.0) & (rows[:, :k] < 1.0))  # every row interior
        move = np.linalg.norm(rows[:, :k] - game.dataset.features, axis=1)
        err = np.abs(move - np.linalg.norm(res.theta[:k]) / rho).max()
        assert err <= res.residual / rho + 1e-15
        # every deviation sits at its floor, but for the unregularized bias's
        dev = deviation_mask(ops)
        if bias_reg == 0.0:
            dev[2 * k + 1] = False
        np.testing.assert_array_equal(res.theta[dev], ops.lower[dev])


class TestNewton:
    """The guarded Newton steps of extragradient_solve, against the
    first-order path of the same operator without its newton."""

    @pytest.mark.parametrize("rho", [0.1, 10.0, 100.0])
    def test_agrees_with_the_first_order_solve(self, rho):
        game = regularized_game(rho)
        ops = game_operator(game)
        init = initial_point(game, 0)
        res = extragradient_solve(ops, init)
        first = extragradient_solve(dataclasses.replace(ops, newton=None), init)
        assert res.converged and first.converged
        assert res.newton_accepted >= 1
        assert first.newton_accepted == first.newton_rejected == 0
        assert np.abs(res.theta - first.theta).max() <= 1e-7
        for r in (res, first):
            assert_deviations_on_floor(ops, r.theta)
        if rho == 0.1:  # the first-order path takes about 3800 evaluations
            assert res.evaluations <= 200 < first.evaluations

    @pytest.mark.parametrize("with_newton", [True, False])
    def test_evaluations_count_every_pseudo_gradient_call(self, with_newton):
        game = regularized_game(10.0)
        ops = game_operator(game)
        if not with_newton:
            ops = dataclasses.replace(ops, newton=None)
        counted, calls = counting_operator(ops)
        res = extragradient_solve(counted, initial_point(game, 0))
        assert res.converged
        assert res.evaluations == len(calls)
        assert (res.newton_accepted > 0) == with_newton

    def test_without_jacobian_follows_the_first_order_loop_exactly(self):
        game = regularized_game(10.0)
        cases = [
            (dataclasses.replace(game_operator(game), loss_jacobian=None, newton=None),
             initial_point(game, 0), 1e-8),
            (bilinear_game(), np.array([3.0, -4.0]), 1e-8),
            (boundary_game(), np.array([0.7, 0.4]), 1e-12),
        ]
        for ops, init, eps in cases:
            res = extragradient_solve(ops, init, SolverConfig(epsilon=eps))
            theta, trace = extragradient_reference(ops, init, eps, SolverConfig().max_iter)
            np.testing.assert_array_equal(res.theta, theta)
            np.testing.assert_array_equal(res.residual_trace, trace)

    def test_dual_game_makes_no_attempt_within_its_price(self):
        # the RBF dual game of 60 points (dim 7322): an attempt is priced at
        # about 2.9e4 evaluations, which 100 iterations do not reach, so the
        # path is the first-order loop's, bit for bit
        ops = dual_game_operator(synth_2d(30, 0.4, 1), Kernel("rbf", 1.0), 10.0, 10.0)
        u = np.random.default_rng(5).uniform(size=ops.dim)
        init = ops.lower + u * (ops.upper - ops.lower)
        res = extragradient_solve(ops, init, SolverConfig(max_iter=100))
        assert res.iterations == 100
        assert res.newton_accepted == res.newton_rejected == 0
        theta, trace = extragradient_reference(ops, init, 1e-8, 100)
        np.testing.assert_array_equal(res.theta, theta)
        np.testing.assert_array_equal(res.residual_trace, trace)

    def test_dual_game_of_the_benchmark_shape_keeps_its_bits(self):
        # the shape of the benchmark's solve-dual workload: the RBF dual game
        # of 60 points (dim 7322) at rho 10 and bias_reg 0, capped at 100
        # iterations from initial_point(ops, 0); the digest pins theta and
        # termination
        ops = dual_game_operator(synth_2d(30, 0.4, 0), Kernel("rbf", 1.0), 10.0, 10.0)
        res = extragradient_solve(ops, cfg=SolverConfig(max_iter=100, seed=0))
        assert (res.termination, res.evaluations) == (TERM_MAX_ITER, 307)
        digest = hashlib.sha256(res.theta.tobytes() + res.termination.encode()).hexdigest()
        assert digest == "8d42b95ecd7776cd971ca0f0a13da0846d68da1537d1f18144c1ae338d718b42"

    def test_kernel_game_takes_newton_steps(self):
        # the RBF dual game of 4 points, an attempt priced at 140 evaluations:
        # its newton eliminates the rows of the Jacobian blocks, and one kept
        # step ends the solve in 49 iterations, where the first-order loop
        # alone still has residual 0.095 after 500
        ops = dual_game_operator(synth_2d(2, 0.4, 0), Kernel("rbf", 1.0), 10.0, 10.0,
                                 bias_reg=1.0)
        init = initial_point(ops, 0)
        res = extragradient_solve(ops, init)
        assert res.converged and res.newton_accepted >= 1 and res.iterations <= 100
        first = extragradient_solve(dataclasses.replace(ops, newton=None), init,
                                    SolverConfig(max_iter=500))
        assert not first.converged and first.newton_accepted == first.newton_rejected == 0

    def test_attempt_schedule_converges_a_large_game(self):
        # the (4000, 2) game at rho 0.1, bias_reg 1: it takes 75 iterations,
        # keeping 2 of 3 attempts; with no doubling of the gap after a
        # rejection it takes 4682 iterations, keeping 10 of 198
        ds = synth_2d(2000, 0.4, 0)
        game = GameSpec(ds, 0.1, 0.1, *default_boxes(ds.n, ds.k, 1.0), bias_reg=1.0)
        res = extragradient_solve(game_operator(game), initial_point(game, 0))
        assert res.converged and res.iterations <= 100 and res.newton_accepted >= 1

    def test_operators_state_the_dense_elimination_price(self):
        # (L^2 + n (2 L b + b^2 + b^3 + b^2 (L + 1))) / (L + n b) for L = 2k + 2
        # and n rows of b = 2k, worked out by hand
        ds = synth_2d(2000, 0.4, 0)
        primal = game_operator(GameSpec(ds, 0.1, 0.1, *default_boxes(ds.n, ds.k, 1.0)))
        assert primal.newton_price == 960036 / 16006  # about 59.98
        prices = [dual_game_operator(synth_2d(n_per_class, 0.4, 0), Kernel("rbf", 1.0), 10.0,
                                     10.0).newton_price for n_per_class in (30, 2)]
        assert prices == [212587684 / 7322, 5860 / 42]  # about 29034.1 and 139.52

    def test_a_wrong_jacobian_is_always_rejected(self):
        # the planted Jacobian is the true one negated (its loss blocks and
        # its regularizer Hessians both negated), so every Newton step heads
        # away from the solution: only the residual guard keeps the solve
        # converging
        game = regularized_game(10.0)
        ops = game_operator(game)
        negated = dataclasses.replace(
            ops, reg_hess=lambda: tuple(-reg for reg in ops.reg_hess()),
            loss_jacobian=lambda theta: tuple(-block for block in ops.loss_jacobian(theta)))

        res = extragradient_solve(with_dense_newton(negated), initial_point(game, 0))
        assert res.converged
        assert res.newton_accepted == 0 and res.newton_rejected >= 2
        assert_deviations_on_floor(ops, res.theta)

    def test_primal_solve_takes_its_steps_in_closed_form(self):
        # the primal operator's newton eliminates the rows without the
        # Jacobian blocks: no loss_jacobian call, and the steps are kept as
        # the dense elimination keeps them
        game = regularized_game(10.0)
        ops = game_operator(game)
        calls = {"loss_jacobian": 0, "newton": 0}

        def counted(name):
            fn = getattr(ops, name)

            def call(*args):
                calls[name] += 1
                return fn(*args)

            return call

        logged = dataclasses.replace(ops, loss_jacobian=counted("loss_jacobian"),
                                     newton=counted("newton"))
        res = extragradient_solve(logged, initial_point(game, 0))
        dense = extragradient_solve(with_dense_newton(ops), initial_point(game, 0))
        assert res.converged and res.newton_accepted >= 1
        assert calls == {"loss_jacobian": 0,
                         "newton": res.newton_accepted + res.newton_rejected}
        assert (res.iterations, res.evaluations, res.newton_accepted, res.newton_rejected) == (
            dense.iterations, dense.evaluations, dense.newton_accepted, dense.newton_rejected)
        assert np.abs(res.theta - dense.theta).max() <= 1e-12

    @staticmethod
    def _dense_game(k):
        """A primal game on 7 random rows and a profile inside its box."""
        n = 7
        rng = np.random.default_rng(k)
        y = np.where(np.arange(n) % 2 == 0, -1.0, 1.0)
        game = GameSpec(Dataset(rng.uniform(size=(n, k)), y), 10.0, 10.0,
                        *default_boxes(n, k, 1.0), bias_reg=1.0)
        ops = game_operator(game)
        return ops, ops.lower + rng.uniform(0.2, 0.8, ops.dim) * (ops.upper - ops.lower)

    @pytest.mark.parametrize("k", [2, 3])
    def test_step_matches_a_dense_solve_on_the_free_coordinates(self, k):
        ops, z = self._dense_game(k)
        L, b = ops.dim_l, ops.dim_l - 2
        g = ops.pseudo_grad(z)
        free = np.ones(ops.dim, dtype=bool)
        free[[1, L - 1]] = False  # a learner mean and a learner deviation
        for row, j in ((0, 1), (1, b - 1), (6, 0)):  # one coordinate of some rows
            free[L + row * b + j] = False
        free[L + 4 * b : L + 5 * b] = False  # all of row 4
        d = dense_newton(pseudo_jacobian(ops, ops.loss_jacobian(z)), g, free)
        J = assemble(pseudo_jacobian(ops, ops.loss_jacobian(z)))
        want = np.zeros(ops.dim)
        want[free] = np.linalg.solve(J[np.ix_(free, free)], -g[free])
        assert np.all(d[~free] == 0.0)
        assert np.linalg.norm(d - want) <= 1e-10 * np.linalg.norm(want)

    def test_a_singular_row_block_gives_no_step(self):
        ops, z = self._dense_game(2)
        blocks = pseudo_jacobian(ops, ops.loss_jacobian(z))
        planted = blocks[3].copy()
        planted[4] = 0.0  # row 4's own block
        free = np.ones(ops.dim, dtype=bool)
        g = ops.pseudo_grad(z)
        assert dense_newton(blocks[:3] + (planted,), g, free) is None
        # the same step without the planted block exists
        assert dense_newton(blocks, g, free) is not None

    def test_linear_game_takes_one_exact_newton_step(self):
        # one row of one entry: an attempt is priced at 3.5 evaluations, and
        # on an affine operator the Newton step lands on the solution. The
        # loss blocks are the Jacobian [[1, 1], [-1, 1]] less the identity of
        # the regularizers, fresh at each call, as pseudo_jacobian
        # overwrites them
        def blocks(theta):
            return np.zeros((1, 1)), np.ones((1, 1, 1)), -np.ones((1, 1, 1)), np.zeros((1, 1, 1))

        ops = dataclasses.replace(with_dense_newton(bilinear_game(), blocks),
                                  newton_price=dense_newton_price(1, 1, 1))
        assert ops.newton_price == 3.5
        res = extragradient_solve(ops, np.array([3.0, -4.0]), SolverConfig(epsilon=1e-12))
        assert res.converged and res.newton_accepted == 1 and res.newton_rejected == 0
        assert res.iterations <= 4
        assert np.abs(res.theta).max() <= 1e-12
