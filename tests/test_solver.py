"""Extragradient solver on toy games with known equilibria, plus the
numeric Nash verifier."""

import numpy as np
import pytest

from randgame.model import Dataset, GameSpec, default_boxes
from randgame.ops import VIGame
from randgame.solver import (
    EquilibriumResult,
    SolverConfig,
    TERM_MAX_ITER,
    TERM_TOLERANCE,
    extragradient_solve,
    initial_point,
    nash_verify,
    save_trace_csv,
    solve_svm_game,
    vi_residual,
)


def quadratic_game(target=(0.3, -0.2), box=2.0):
    """Decoupled strongly convex game; unique equilibrium at the target."""
    a, c = target

    return VIGame(
        dim_l=1,
        dim_d=1,
        lower=np.full(2, -box),
        upper=np.full(2, box),
        cost_l=lambda v: 0.5 * (v[0] - a) ** 2,
        cost_d=lambda v: 0.5 * (v[1] - c) ** 2,
        pseudo_grad=lambda v: np.array([v[0] - a, v[1] - c]),
    )


def bilinear_game(box=5.0):
    """Coupled game c_l = v0^2/2 + v0 v1, c_d = v1^2/2 - v0 v1.

    The pseudo-gradient (v0 + v1, v1 - v0) is strongly monotone (its Jacobian
    has symmetric part I), so (0, 0) is the unique equilibrium.
    """
    return VIGame(
        dim_l=1,
        dim_d=1,
        lower=np.full(2, -box),
        upper=np.full(2, box),
        cost_l=lambda v: 0.5 * v[0] ** 2 + v[0] * v[1],
        cost_d=lambda v: 0.5 * v[1] ** 2 - v[0] * v[1],
        pseudo_grad=lambda v: np.array([v[0] + v[1], v[1] - v[0]]),
        reg_hess_l=np.ones(1),
        reg_hess_d=np.ones(1),
    )


def boundary_game():
    """One-sided pull: both optima lie outside the box, so the equilibrium is
    pinned at the lower-left box corner."""
    return VIGame(
        dim_l=1,
        dim_d=1,
        lower=np.zeros(2),
        upper=np.ones(2),
        cost_l=lambda v: 2.0 * v[0],
        cost_d=lambda v: 3.0 * v[1],
        pseudo_grad=lambda v: np.array([2.0, 3.0]),
    )


class TestExtragradient:
    def test_quadratic_game_converges_to_target(self):
        res = extragradient_solve(
            quadratic_game(), np.array([1.5, 1.5]), SolverConfig(epsilon=1e-20)
        )
        assert res.converged and res.termination == TERM_TOLERANCE
        np.testing.assert_allclose(res.theta, [0.3, -0.2], atol=1e-8)

    def test_bilinear_game_converges_to_origin(self):
        res = extragradient_solve(
            bilinear_game(), np.array([3.0, -4.0]), SolverConfig(epsilon=1e-16)
        )
        assert np.linalg.norm(res.theta) <= 1e-6
        assert res.iterations <= 500
        assert vi_residual(res.theta, bilinear_game()) <= 1e-6

    def test_boundary_game_hits_the_face(self):
        res = extragradient_solve(
            boundary_game(), np.array([0.7, 0.4]), SolverConfig(epsilon=1e-24)
        )
        assert res.converged
        np.testing.assert_allclose(res.theta, [0.0, 0.0], atol=1e-10)

    def test_starts_from_projected_init(self):
        # infeasible init is projected before the first step
        res = extragradient_solve(
            quadratic_game(box=1.0), np.array([50.0, -50.0]), SolverConfig(epsilon=1e-20)
        )
        assert res.converged
        np.testing.assert_allclose(res.theta, [0.3, -0.2], atol=1e-8)

    def test_fixed_point_detected_immediately(self):
        res = extragradient_solve(quadratic_game(), np.array([0.3, -0.2]))
        assert res.converged and res.iterations == 1
        assert res.residual_trace[-1] == 0.0

    def test_max_iter_termination_reported(self):
        res = extragradient_solve(
            bilinear_game(), np.array([3.0, 3.0]), SolverConfig(epsilon=1e-30, max_iter=3)
        )
        assert not res.converged and res.termination == TERM_MAX_ITER
        assert res.iterations == 3

    def test_deterministic_given_seeded_default_init(self):
        cfg = SolverConfig(seed=11)
        r1 = extragradient_solve(bilinear_game(), None, cfg)
        r2 = extragradient_solve(bilinear_game(), None, cfg)
        assert np.array_equal(r1.theta, r2.theta)

    def test_trace_is_monotone_enough_to_stop(self):
        res = extragradient_solve(quadratic_game(), np.array([1.5, 1.5]))
        assert res.residual_trace[-1] <= SolverConfig().epsilon

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            SolverConfig(sigma_ls=1.5)
        with pytest.raises(ValueError):
            SolverConfig(beta=0.0)
        with pytest.raises(ValueError):
            SolverConfig(epsilon=0.0)


class TestResidualAndNash:
    def test_residual_zero_at_solution_nonzero_away(self):
        g = quadratic_game()
        assert vi_residual(np.array([0.3, -0.2]), g) == 0.0
        assert vi_residual(np.array([1.0, 1.0]), g) > 0.1

    def test_nash_verify_accepts_equilibrium(self):
        assert nash_verify(np.array([0.0, 0.0]), bilinear_game(), tol=1e-6)

    def test_nash_verify_rejects_non_equilibrium(self):
        assert not nash_verify(np.array([2.0, 2.0]), bilinear_game(), tol=1e-6)

    def test_nash_verify_accepts_boundary_equilibrium(self):
        assert nash_verify(np.array([0.0, 0.0]), boundary_game(), tol=1e-9)


class TestSvmGame:
    def _game(self, seed=0, n_per_class=10):
        from randgame.data import synth_2d

        ds = synth_2d(n_per_class, 0.4, seed)
        lb, ab = default_boxes(ds.n, ds.k, W=1.0)
        return GameSpec(ds, 10.0, 10.0, lb, ab)

    def test_equilibrium_passes_nash_check(self):
        from randgame.costs import game_operator

        game = self._game()
        theta_l, theta_d, res = solve_svm_game(game)
        assert res.converged
        assert nash_verify(res.theta, game_operator(game), tol=1e-4)

    def test_typed_results_have_game_shapes(self):
        game = self._game(seed=2, n_per_class=5)
        theta_l, theta_d, res = solve_svm_game(game)
        assert theta_l.k == game.k and theta_d.n == game.n
        assert res.theta_l.size == game.dim_l and res.theta_d.size == game.dim_d

    def test_initial_point_feasible_and_seeded(self):
        game = self._game(seed=3, n_per_class=4)
        p1, p2 = initial_point(game, 7), initial_point(game, 7)
        assert np.array_equal(p1, p2)
        from randgame.costs import game_operator

        ops = game_operator(game)
        assert np.all(p1 >= ops.lower) and np.all(p1 <= ops.upper)
        assert not np.array_equal(p1, initial_point(game, 8))

    def test_trace_csv(self, tmp_path):
        res = extragradient_solve(quadratic_game(), np.array([1.0, 1.0]))
        p = tmp_path / "trace.csv"
        save_trace_csv(p, res)
        lines = p.read_text().splitlines()
        assert lines[0] == "iter,step_sq"
        assert len(lines) == res.iterations + 1
