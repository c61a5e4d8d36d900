"""Dual (kernelized) game: Gram matrices, moment formulas against Monte
Carlo, gradient blocks against finite differences, and the identity-kernel
reduction to the primal game."""

import numpy as np
import pytest

from oracles import evaluate, margin_moments, profile
from randgame.costs import _primal_terms, game_operator
from randgame.data import synth_2d
from randgame.hinge import hinge_expect
from randgame.kernel import Kernel, _dual_terms, check_psd, dual_game_operator, gram
from randgame.model import Dataset, GameSpec, ShapeError, default_boxes
from randgame.solver import SolverConfig, extragradient_solve, initial_point, vi_residual


def random_dual(seed, n=4):
    """(mu_w, sigma_w, mu_x, sigma_x) of a dual profile: the primal game's
    strategies with k = n, the alpha means and deviations plus the bias's and
    the rows of xi."""
    rng = np.random.default_rng(seed)
    mu_a, sig_a = rng.normal(scale=0.5, size=n), rng.uniform(0.05, 0.3, size=n)
    mu_b, sig_b = rng.normal(scale=0.3), rng.uniform(0.05, 0.3)
    return (np.append(mu_a, mu_b), np.append(sig_a, sig_b),
            rng.normal(scale=0.5, size=(n, n)), rng.uniform(0.05, 0.3, size=(n, n)))


def dual(parts, K, y, rho_l=1.0, rho_d=1.0, bias_reg=0.0):
    """evaluate's (cost_l, cost_d, unweighted gradient) of the dual game on K,
    after check_psd as the dual operator does, at the profile of parts."""
    check_psd(K)
    return evaluate(profile(*parts), *_dual_terms(K, y, rho_l, rho_d, bias_reg))


def random_psd(seed, n=4):
    A = np.random.default_rng(seed).normal(size=(n, n))
    return A @ A.T / n + 0.1 * np.eye(n)


def random_dataset(seed, n=4, k=3):
    rng = np.random.default_rng(seed)
    y = rng.choice([-1.0, 1.0], size=n)
    if np.all(y == y[0]):
        y[0] = -y[0]
    return Dataset(rng.uniform(size=(n, k)), y)


class TestGram:
    def test_linear_gram_is_inner_products(self):
        ds = random_dataset(0)
        K = gram(ds, Kernel("linear"))
        np.testing.assert_allclose(K, ds.features @ ds.features.T, atol=1e-15)

    def test_rbf_gram_unit_diagonal(self):
        ds = random_dataset(1)
        K = gram(ds, Kernel("rbf", gamma=2.0))
        np.testing.assert_allclose(np.diag(K), 1.0, atol=1e-15)
        assert np.all(K > 0) and np.all(K <= 1.0 + 1e-15)

    def test_rbf_gram_entry(self):
        ds = random_dataset(2)
        K = gram(ds, Kernel("rbf", gamma=1.5))
        d2 = np.sum((ds.features[0] - ds.features[1]) ** 2)
        assert K[0, 1] == pytest.approx(np.exp(-1.5 * d2), rel=1e-12)

    def test_gram_symmetric_and_psd(self):
        for kind, gamma in (("linear", 1.0), ("rbf", 0.7)):
            ds = random_dataset(3, n=6)
            K = gram(ds, Kernel(kind, gamma))
            np.testing.assert_allclose(K, K.T, atol=0)
            check_psd(K)

    def test_check_psd_rejects_indefinite(self):
        with pytest.raises(ValueError, match="PSD"):
            check_psd(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_check_psd_rejects_nonsymmetric(self):
        # the lower triangle alone is the PSD matrix [[2, 1], [1, 2]]
        K = np.array([[2.0, 0.0], [1.0, 2.0]])
        with pytest.raises(ValueError, match="symmetric"):
            check_psd(K)
        with pytest.raises(ValueError, match="symmetric"):
            dual(random_dual(0, n=2), K, np.array([1.0, -1.0]))

    def test_check_psd_accepts_roundoff_asymmetry_of_large_entries(self):
        # a linear Gram matrix over many large features, one row at a time
        X = np.random.default_rng(0).uniform(0.0, 1000.0, size=(30, 500))
        K = np.array([X @ x for x in X])
        assert np.abs(K - K.T).max() > 1e-10
        check_psd(K)
        y = np.where(np.arange(30) % 2 == 0, 1.0, -1.0)
        dual(random_dual(0, n=30), K, y)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_check_psd_rejects_non_finite_entries(self, bad):
        # NaN fails both the symmetry and the eigenvalue comparisons, so
        # neither would reject it
        for K in (np.array([[1.0, bad], [bad, 1.0]]), np.diag([1.0, bad])):
            with pytest.raises(ValueError, match="non-finite"):
                check_psd(K)

    def test_kernel_validation(self):
        with pytest.raises(ValueError):
            Kernel("polynomial")
        for gamma in (-1.0, 0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="gamma must be positive and finite"):
                Kernel("rbf", gamma=gamma)



class TestDualParams:
    """The dual strategies are one flat profile of the primal layout with k = n."""

    def test_rejects_nonpositive_deviations(self):
        ops = dual_game_operator(random_dataset(5, n=2), Kernel("rbf", 1.0), 1.0, 1.0)
        inside = 0.5 * (ops.lower + ops.upper)
        # sigma_alpha_1 (0), sigma_xi of row 2 (nan), sigma_b (nan)
        for i, bad in ((3, 0.0), (ops.dim_l + 4 + 2, np.nan), (ops.dim_l - 1, np.nan)):
            v = inside.copy()
            v[i] = bad
            for fn in (ops.costs, ops.pseudo_grad):
                with pytest.raises(ValueError):
                    fn(v)

    def test_costs_reject_sizes_other_than_the_kernel(self):
        K = random_psd(3, n=3)
        y = np.array([1.0, -1.0, 1.0])
        mu_w, sigma_w, mu_x, sigma_x = random_dual(4, n=3)
        small = random_dual(4, n=2)
        wide = (np.zeros((3, 2)), np.full((3, 2), 0.1))  # n = 3, k = 2
        for parts in (small[:2] + (mu_x, sigma_x), (mu_w, sigma_w) + small[2:], small,
                      (mu_w, sigma_w) + wide):
            with pytest.raises(ShapeError):
                dual(parts, K, y)


class TestDualMoments:
    """The (mu, sigma) that the dual game's evaluation passes to hinge_expect,
    checked against the sampled margin of one sample's xi Gaussian."""

    def test_monte_carlo_oracle(self, hinge_inputs):
        n_draws = 1_000_000
        for seed in range(5):
            parts = random_dual(seed)
            mu_w, sigma_w, mu_x, sigma_x = parts
            n = mu_x.shape[0]
            K = random_psd(30 + seed)
            rng = np.random.default_rng(60 + seed)
            y = 1.0 if seed % 2 else -1.0
            i = seed % n
            labels = np.resize([1.0, -1.0], n)
            labels[i] = y
            a = rng.normal(mu_w[:-1], sigma_w[:-1], size=(n_draws, n))
            b = rng.normal(mu_w[-1], sigma_w[-1], size=n_draws)
            xi = rng.normal(mu_x[i], sigma_x[i], size=(n_draws, n))
            s = 1.0 - y * (np.einsum("ij,jk,ik->i", a, K, xi) + b)
            hinge_inputs.clear()
            dual(parts, K, labels)
            [((mu, _), (sigma, _))] = hinge_inputs
            assert abs(mu[i] - s.mean()) <= 4 * s.std() / np.sqrt(n_draws)
            assert abs(sigma[i] ** 2 - s.var()) <= 4 * s.var() * np.sqrt(2.0 / (n_draws - 1))

    def test_sides_mirror(self, hinge_inputs):
        parts = random_dual(8)
        dual(parts, random_psd(9), np.ones(parts[2].shape[0]))
        [((mu_s, mu_t), (sig_s, sig_t))] = hinge_inputs
        np.testing.assert_allclose(mu_s + mu_t, 2.0, rtol=1e-14)
        np.testing.assert_array_equal(sig_s, sig_t)


class TestDualGradients:
    def _fd(self, f, v, h=1e-6):
        g = np.empty_like(v)
        for i in range(v.size):
            vp = v.copy(); vp[i] += h
            vm = v.copy(); vm[i] -= h
            g[i] = (f(vp) - f(vm)) / (2 * h)
        return g

    def test_all_blocks_vs_fd(self):
        for seed in range(5):
            n = 4
            K = random_psd(40 + seed, n)
            y = np.random.default_rng(80 + seed).choice([-1.0, 1.0], size=n)
            terms = _dual_terms(K, y, 2.0, 3.0, 0.5)
            v = profile(*random_dual(seed, n))
            _, _, g = evaluate(v, *terms)

            def cl(vv):
                return evaluate(vv, *terms)[0]

            def cd(vv):
                return evaluate(vv, *terms)[1]

            m = 2 * n + 2
            np.testing.assert_allclose(g[:m], self._fd(cl, v)[:m], rtol=1e-5, atol=1e-8)
            np.testing.assert_allclose(g[m:], self._fd(cd, v)[m:], rtol=1e-5, atol=1e-8)


class TestIdentityKernelReduction:
    """With orthonormal samples the linear-kernel Gram is the identity and the
    dual game must be coordinate-for-coordinate the primal game."""

    def _setup(self, seed=0, n=4):
        # samples = standard basis vectors, so K = X X^T = I exactly
        X = np.eye(n)
        y = np.array([1.0, -1.0, 1.0, -1.0])[:n]
        ds = Dataset(X, y)
        K = gram(ds, Kernel("linear"))
        np.testing.assert_array_equal(K, np.eye(n))
        # one profile plays both games: w~ <-> alpha, x_i <-> xi_i (same coordinates)
        mu_w, sigma_w, mu_x, sigma_x = random_dual(seed, n)
        parts = (mu_w, sigma_w, np.clip(mu_x, 0.0, 1.0), sigma_x)
        lower, upper = default_boxes(n, n, W=2.0)
        game = GameSpec(ds, rho_l=2.0, rho_d=3.0, lower=lower, upper=upper)
        primal = evaluate(profile(*parts), *_primal_terms(game))
        return dual(parts, K, ds.labels, game.rho_l, game.rho_d), primal

    def test_costs_match(self):
        (cl, cd, _), (primal_l, primal_d, _) = self._setup()
        assert cl == pytest.approx(primal_l, abs=1e-12)
        assert cd == pytest.approx(primal_d, abs=1e-12)

    def test_gradients_match(self):
        (_, _, g), (_, _, primal_g) = self._setup(seed=1)
        # with k = n the dual and primal flat layouts coincide
        np.testing.assert_allclose(g, primal_g, atol=1e-12)


class TestDualOperator:
    def test_operator_dims_and_defaults(self):
        ds = random_dataset(6, n=3)
        ops = dual_game_operator(ds, Kernel("rbf", 1.0), 1.0, 2.0)
        assert ops.dim_l == 2 * 3 + 2 and ops.dim - ops.dim_l == 2 * 9
        assert ops.r == (1.0, 0.5)

    @pytest.mark.parametrize("rho_l, rho_d, bias_reg", [
        (-1.0, 1.0, 0.0), (1.0, 0.0, 0.0), (1.0, np.inf, 0.0), (np.nan, 1.0, 0.0),
        (1.0, 1.0, -5.0), (1.0, 1.0, np.nan),
    ])
    def test_rejects_bad_weights(self, rho_l, rho_d, bias_reg):
        # the weights GameSpec rejects for the primal game; rho_d = 0 must not
        # reach the division by rho_d
        with pytest.raises(ValueError, match="finite"):
            dual_game_operator(random_dataset(6, n=3), Kernel("rbf", 1.0), rho_l, rho_d,
                               bias_reg)

    def test_pseudo_grad_consistent_with_costs(self):
        ds = random_dataset(7, n=3)
        ops = dual_game_operator(ds, Kernel("linear"), 2.0, 2.0)
        rng = np.random.default_rng(10)
        v = ops.project(ops.lower + rng.uniform(0.2, 0.8, ops.dim) * (ops.upper - ops.lower))
        g = ops.pseudo_grad(v)
        h = 1e-6
        for i in (0, ops.dim_l - 1, ops.dim_l, ops.dim - 1):
            vp = v.copy(); vp[i] += h
            vm = v.copy(); vm[i] -= h
            player = 0 if i < ops.dim_l else 1  # the entry of ops.costs that owns i
            fd = (ops.costs(vp)[player] - ops.costs(vm)[player]) / (2 * h)
            assert g[i] == pytest.approx(fd, rel=1e-4, abs=1e-7)

    def test_operator_matches_costs_and_grads(self):
        ds = random_dataset(11, n=4)
        ops = dual_game_operator(ds, Kernel("rbf", 1.0), 2.0, 5.0)
        rng = np.random.default_rng(12)
        v = ops.lower + rng.uniform(0.2, 0.8, ops.dim) * (ops.upper - ops.lower)
        K = gram(ds, Kernel("rbf", 1.0))
        cost_l, cost_d, grad = evaluate(v, *_dual_terms(K, ds.labels, 2.0, 5.0, 0.0))
        grad[ops.dim_l :] *= ops.r[1]
        assert ops.r == (1.0, 0.4)
        assert ops.costs(v) == (cost_l, cost_d)
        np.testing.assert_array_equal(ops.pseudo_grad(v), grad)

    def test_one_evaluation_per_pseudo_gradient(self, count_hinge_calls):
        import randgame.costs as costs_module

        ops = dual_game_operator(random_dataset(13, n=3), Kernel("rbf", 1.0), 1.0, 2.0)
        v = 0.5 * (ops.lower + ops.upper)
        calls = count_hinge_calls(costs_module)
        ops.pseudo_grad(v)
        assert calls == ["hinge_expect"]

    def test_cost_splits_into_loss_plus_regularizer(self):
        n = 5
        ds = random_dataset(14, n=n)
        K = gram(ds, Kernel("rbf", 2.0))
        assert not np.allclose(K, np.eye(n))
        parts = random_dual(15, n)
        mu_w, sigma_w, mu_x, sigma_x = parts
        bias_reg = 0.7
        cl, cd, _ = dual(parts, K, ds.labels, 2.0, 3.0, bias_reg)

        def expected_loss(side):
            # per-sample margin moments, independent of the vectorized costs
            total = 0.0
            for y, mu_xi, sig_xi in zip(ds.labels, mu_x, sigma_x):
                mu, var = margin_moments(side, y, mu_w, sigma_w, mu_xi, sig_xi, K)
                total += hinge_expect(mu, np.sqrt(var))[0]
            return total

        dK = np.diag(K)
        mu_a, sig_a = mu_w[:-1], sigma_w[:-1]
        reg_l = mu_a @ K @ mu_a + dK @ sig_a**2
        reg_l_b = mu_w[-1] ** 2 + sigma_w[-1] ** 2
        reg_d = sum(
            (mu_xi - e) @ K @ (mu_xi - e) + dK @ sig_xi**2
            for mu_xi, sig_xi, e in zip(mu_x, sigma_x, np.eye(n))
        )
        expected_l = expected_loss("learner") + 0.5 * 2.0 * reg_l + 0.5 * bias_reg * reg_l_b
        assert cl == pytest.approx(expected_l, rel=1e-12)
        assert cd == pytest.approx(expected_loss("attacker") + 0.5 * 3.0 * reg_d, rel=1e-12)

    def test_kernel_checked_once_per_operator(self, monkeypatch):
        import randgame.kernel as kernel_module

        calls = []

        def counted(K, *args, **kwargs):
            calls.append(1)
            return check_psd(K, *args, **kwargs)

        monkeypatch.setattr(kernel_module, "check_psd", counted)
        ops = dual_game_operator(random_dataset(8, n=4), Kernel("rbf", 1.0), 1.0, 1.0)
        res = extragradient_solve(ops, None, SolverConfig(max_iter=5))
        assert res.iterations == 5
        assert len(calls) == 1

    def test_default_dual_boxes_shape(self):
        ops = dual_game_operator(random_dataset(14, n=3), Kernel("rbf", 1.0), 1.0, 1.0)
        L = ops.dim_l
        np.testing.assert_array_equal(ops.lower[:L], [-1.0] * 4 + [1e-6] * 4)
        np.testing.assert_array_equal(ops.upper[:L], [1.0] * 4 + [1e-3] * 4)
        np.testing.assert_array_equal(ops.lower[L:], ([-1.0] * 3 + [1e-3] * 3) * 3)
        np.testing.assert_array_equal(ops.upper[L:], ([2.0] * 3 + [0.5] * 3) * 3)


def _both_operators():
    ds = random_dataset(21, n=4, k=3)
    lb, ab = default_boxes(ds.n, ds.k, W=2.0)
    return {
        "primal": game_operator(GameSpec(ds, 2.0, 3.0, lb, ab, bias_reg=0.5)),
        "dual": dual_game_operator(ds, Kernel("rbf", 1.0), 2.0, 3.0, bias_reg=0.5),
    }


@pytest.mark.parametrize("which", ["primal", "dual"])
class TestBothOperators:
    """The primal and the dual operator are one evaluation with different
    fixed terms, so they must treat their input the same way."""

    def _inside(self, ops):
        rng = np.random.default_rng(22)
        return ops.lower + rng.uniform(0.2, 0.8, ops.dim) * (ops.upper - ops.lower)

    def test_read_only_theta_is_accepted_and_unchanged(self, which):
        ops = _both_operators()[which]
        v = self._inside(ops)
        before = v.copy()
        v.setflags(write=False)
        for fn in (ops.costs, ops.pseudo_grad, ops.project):
            fn(v)
        np.testing.assert_array_equal(v, before)
        g = ops.pseudo_grad(v)
        assert g.flags.writeable and not np.shares_memory(g, v)

    def test_non_finite_theta_raises(self, which):
        ops = _both_operators()[which]
        n_mean = (ops.dim_l - 2) // 2
        # learner mean, learner deviation, attacker mean, attacker deviation
        for i in (0, n_mean + 1, ops.dim_l, ops.dim_l + n_mean):
            for bad in (np.nan, np.inf):
                v = self._inside(ops)
                v[i] = bad
                for fn in (ops.costs, ops.pseudo_grad):
                    with pytest.raises(ValueError, match="finite"):
                        fn(v)

    def test_wrong_length_and_nonpositive_deviation_raise(self, which):
        ops = _both_operators()[which]
        with pytest.raises(ShapeError):
            ops.pseudo_grad(self._inside(ops)[:-1])
        n_mean = (ops.dim_l - 2) // 2
        for i in (n_mean + 1, ops.dim_l - 1, ops.dim_l + n_mean):
            v = self._inside(ops)
            v[i] = 0.0
            for fn in (ops.costs, ops.pseudo_grad):
                with pytest.raises(ValueError, match="positive"):
                    fn(v)


def test_a_singular_gram_matrix_leaves_the_equilibrium_not_unique():
    # Both players see a row's coefficient means only through K times them,
    # so F does not change along null(K): moving an interior row of an
    # equilibrium along null(K) gives another equilibrium. The linear K of 4
    # points in [0, 1]^2 has rank 2.
    data = synth_2d(2, 0.4, 0)
    K = gram(data, Kernel("linear"))
    assert np.linalg.matrix_rank(K) == 2
    ops = dual_game_operator(data, Kernel("linear"), 10.0, 10.0, bias_reg=1.0)
    res = extragradient_solve(ops, initial_point(ops, 0))
    assert res.converged and res.residual <= 1e-8
    assert (res.iterations, res.newton_accepted, res.newton_rejected) == (144, 2, 1)
    n, L = data.n, ops.dim_l
    row1 = slice(L + 2 * n, L + 3 * n)  # row 1's coefficient means
    assert np.all(res.theta[row1] > -0.47) and np.all(res.theta[row1] < 1.15)
    v = np.linalg.eigh(K)[1][:, 0]  # a unit vector of null(K)
    assert np.abs(K @ v).max() <= 1e-12
    moved = res.theta.copy()
    moved[row1] += 0.05 * v
    assert np.array_equal(ops.project(moved), moved)
    assert vi_residual(moved, ops) <= 1e-8
    assert np.linalg.norm(moved - res.theta) == pytest.approx(0.05, rel=1e-12)
