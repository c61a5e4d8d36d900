"""Dual (kernelized) game: Gram matrices, moment formulas against Monte
Carlo, gradient blocks against finite differences, and the identity-kernel
reduction to the primal game."""

import numpy as np
import pytest

from oracles import margin_moments
from randgame.costs import costs_and_grads, game_operator
from randgame.hinge import hinge_expect
from randgame.kernel import (
    Kernel,
    check_psd,
    default_dual_boxes,
    dual_costs_and_grads,
    dual_game_operator,
    gram,
)
from randgame.model import (
    AttackerParams,
    Dataset,
    GameSpec,
    LearnerParams,
    ShapeError,
    default_boxes,
    flatten,
    unflatten,
)
from randgame.solver import SolverConfig, extragradient_solve


def random_dual(seed, n=4):
    """Dual strategies (theta_l, theta_d): the primal containers with k = n."""
    rng = np.random.default_rng(seed)
    mu_a, sig_a = rng.normal(scale=0.5, size=n), rng.uniform(0.05, 0.3, size=n)
    mu_b, sig_b = rng.normal(scale=0.3), rng.uniform(0.05, 0.3)
    theta_l = LearnerParams(np.append(mu_a, mu_b), np.append(sig_a, sig_b))
    theta_d = AttackerParams(rng.normal(scale=0.5, size=(n, n)), rng.uniform(0.05, 0.3, size=(n, n)))
    return theta_l, theta_d


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
            dual_costs_and_grads(*random_dual(0, n=2), K, 1.0, 1.0, np.array([1.0, -1.0]))

    def test_check_psd_accepts_roundoff_asymmetry_of_large_entries(self):
        # a linear Gram matrix over many large features, one row at a time
        X = np.random.default_rng(0).uniform(0.0, 1000.0, size=(30, 500))
        K = np.array([X @ x for x in X])
        assert np.abs(K - K.T).max() > 1e-10
        check_psd(K)
        y = np.where(np.arange(30) % 2 == 0, 1.0, -1.0)
        dual_costs_and_grads(*random_dual(0, n=30), K, 1.0, 1.0, y)

    def test_kernel_validation(self):
        with pytest.raises(ValueError):
            Kernel("polynomial")
        with pytest.raises(ValueError):
            Kernel("rbf", gamma=-1.0)



class TestDualParams:
    """The dual strategies are LearnerParams and AttackerParams with k = n."""

    def test_flatten_roundtrip(self):
        theta_l, theta_d = random_dual(5)
        v = flatten(theta_l, theta_d)
        back_l, back_d = unflatten(v, theta_d.n, theta_d.n)
        np.testing.assert_array_equal(v, flatten(back_l, back_d))
        np.testing.assert_array_equal(back_l.mu_w, theta_l.mu_w)
        np.testing.assert_array_equal(back_d.sigma_x, theta_d.sigma_x)
        n = theta_d.n
        # [mu_alpha; mu_b; sigma_alpha; sigma_b; mu_xi_1; sigma_xi_1; ...]
        assert v[n] == theta_l.mu_b and v[2 * n + 1] == theta_l.sigma_b
        np.testing.assert_array_equal(v[2 * n + 2 : 3 * n + 2], theta_d.mu_x[0])
        np.testing.assert_array_equal(v[3 * n + 2 : 4 * n + 2], theta_d.sigma_x[0])

    def test_rejects_nonpositive_deviations(self):
        with pytest.raises(ValueError):
            LearnerParams(np.zeros(3), np.array([0.1, 0.0, 0.1]))
        sig = np.full((2, 2), 0.1)
        sig[1, 0] = np.nan
        with pytest.raises(ValueError):
            AttackerParams(np.zeros((2, 2)), sig)
        with pytest.raises(ValueError):
            LearnerParams(np.zeros(3), np.array([0.1, 0.1, np.nan]))  # sigma_b

    def test_unflatten_rejects_wrong_length(self):
        with pytest.raises(ShapeError):
            unflatten(np.zeros(11), 2, 2)

    def test_costs_reject_sizes_other_than_the_kernel(self):
        K = random_psd(3, n=3)
        y = np.array([1.0, -1.0, 1.0])
        theta_l, theta_d = random_dual(4, n=3)
        small_l, small_d = random_dual(4, n=2)
        wide_d = AttackerParams(np.zeros((3, 2)), np.full((3, 2), 0.1))  # n = 3, k = 2
        for tl, td in ((small_l, theta_d), (theta_l, small_d), (small_l, small_d), (theta_l, wide_d)):
            with pytest.raises(ShapeError):
                dual_costs_and_grads(tl, td, K, 1.0, 1.0, y)


class TestDualMoments:
    """The (mu, sigma) that dual_costs_and_grads passes to hinge_expect,
    checked against the sampled margin of one sample's xi Gaussian."""

    def test_monte_carlo_oracle(self, hinge_inputs):
        n_draws = 1_000_000
        for seed in range(5):
            theta_l, theta_d = random_dual(seed)
            n = theta_d.n
            K = random_psd(30 + seed)
            rng = np.random.default_rng(60 + seed)
            y = 1.0 if seed % 2 else -1.0
            i = seed % n
            labels = np.resize([1.0, -1.0], n)
            labels[i] = y
            a = rng.normal(theta_l.mu_tilde, theta_l.sigma_tilde, size=(n_draws, n))
            b = rng.normal(theta_l.mu_b, theta_l.sigma_b, size=n_draws)
            xi = rng.normal(theta_d.mu_x[i], theta_d.sigma_x[i], size=(n_draws, n))
            s = 1.0 - y * (np.einsum("ij,jk,ik->i", a, K, xi) + b)
            hinge_inputs.clear()
            dual_costs_and_grads(theta_l, theta_d, K, 1.0, 1.0, labels)
            (mu, sigma), _ = hinge_inputs
            assert abs(mu[i] - s.mean()) <= 4 * s.std() / np.sqrt(n_draws)
            assert abs(sigma[i] ** 2 - s.var()) <= 4 * s.var() * np.sqrt(2.0 / (n_draws - 1))

    def test_sides_mirror(self, hinge_inputs):
        theta_l, theta_d = random_dual(8)
        dual_costs_and_grads(theta_l, theta_d, random_psd(9), 1.0, 1.0, np.ones(theta_d.n))
        (mu_s, sig_s), (mu_t, sig_t) = hinge_inputs
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
            theta_l, theta_d = random_dual(seed, n)
            K = random_psd(40 + seed, n)
            y = np.random.default_rng(80 + seed).choice([-1.0, 1.0], size=n)
            v = flatten(theta_l, theta_d)
            _, _, g = dual_costs_and_grads(theta_l, theta_d, K, 2.0, 3.0, y, bias_reg=0.5)

            def cl(vv):
                c, _, _ = dual_costs_and_grads(*unflatten(vv, n, n), K, 2.0, 3.0, y, 0.5)
                return c

            def cd(vv):
                _, c, _ = dual_costs_and_grads(*unflatten(vv, n, n), K, 2.0, 3.0, y, 0.5)
                return c

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
        theta_l, theta_d = random_dual(seed, n)
        theta_d = AttackerParams(np.clip(theta_d.mu_x, 0.0, 1.0), theta_d.sigma_x)
        lb, ab = default_boxes(n, n, W=2.0)
        game = GameSpec(ds, rho_l=2.0, rho_d=3.0, learner_box=lb, attacker_box=ab)
        return ds, K, theta_l, theta_d, game

    def test_costs_match(self):
        ds, K, theta_l, theta_d, game = self._setup()
        cl, cd, _ = dual_costs_and_grads(theta_l, theta_d, K, game.rho_l, game.rho_d, ds.labels)
        primal_l, primal_d, _ = costs_and_grads(theta_l, theta_d, game)
        assert cl == pytest.approx(primal_l, abs=1e-12)
        assert cd == pytest.approx(primal_d, abs=1e-12)

    def test_gradients_match(self):
        ds, K, theta_l, theta_d, game = self._setup(seed=1)
        _, _, g = dual_costs_and_grads(theta_l, theta_d, K, game.rho_l, game.rho_d, ds.labels)
        # with k = n the dual and primal flat layouts coincide
        np.testing.assert_allclose(g, costs_and_grads(theta_l, theta_d, game)[2], atol=1e-12)


class TestDualOperator:
    def test_operator_dims_and_defaults(self):
        ds = random_dataset(6, n=3)
        ops = dual_game_operator(ds, Kernel("rbf", 1.0), 1.0, 2.0)
        assert ops.dim_l == 2 * 3 + 2 and ops.dim_d == 2 * 9
        assert ops.r == (1.0, 0.5)

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
            fn = ops.cost_l if i < ops.dim_l else ops.cost_d
            fd = (fn(vp) - fn(vm)) / (2 * h)
            assert g[i] == pytest.approx(fd, rel=1e-4, abs=1e-7)

    def test_operator_matches_costs_and_grads(self):
        ds = random_dataset(11, n=4)
        ops = dual_game_operator(ds, Kernel("rbf", 1.0), 2.0, 5.0)
        rng = np.random.default_rng(12)
        v = ops.lower + rng.uniform(0.2, 0.8, ops.dim) * (ops.upper - ops.lower)
        K = gram(ds, Kernel("rbf", 1.0))
        cost_l, cost_d, grad = dual_costs_and_grads(*unflatten(v, 4, 4), K, 2.0, 5.0, ds.labels)
        grad[ops.dim_l :] *= ops.r[1]
        assert ops.r == (1.0, 0.4)
        assert ops.cost_l(v) == cost_l
        assert ops.cost_d(v) == cost_d
        np.testing.assert_array_equal(ops.pseudo_grad(v), grad)

    def test_one_evaluation_per_pseudo_gradient(self, count_hinge_calls):
        import randgame.costs as costs_module

        ops = dual_game_operator(random_dataset(13, n=3), Kernel("rbf", 1.0), 1.0, 2.0)
        v = 0.5 * (ops.lower + ops.upper)
        calls = count_hinge_calls(costs_module)
        ops.pseudo_grad(v)
        assert calls == ["hinge_expect", "hinge_expect"]

    def test_cost_splits_into_loss_plus_regularizer(self):
        n = 5
        ds = random_dataset(14, n=n)
        K = gram(ds, Kernel("rbf", 2.0))
        assert not np.allclose(K, np.eye(n))
        theta_l, theta_d = random_dual(15, n)
        bias_reg = 0.7
        cl, cd, _ = dual_costs_and_grads(theta_l, theta_d, K, 2.0, 3.0, ds.labels, bias_reg)

        def expected_loss(side):
            # per-sample margin moments, independent of the vectorized costs
            total = 0.0
            for y, mu_xi, sig_xi in zip(ds.labels, theta_d.mu_x, theta_d.sigma_x):
                mu, var = margin_moments(side, y, theta_l, mu_xi, sig_xi, K)
                total += hinge_expect(mu, np.sqrt(var))[0]
            return total

        dK = np.diag(K)
        mu_a, sig_a = theta_l.mu_tilde, theta_l.sigma_tilde
        reg_l = mu_a @ K @ mu_a + dK @ sig_a**2
        reg_l_b = theta_l.mu_b**2 + theta_l.sigma_b**2
        reg_d = sum(
            (mu_xi - e) @ K @ (mu_xi - e) + dK @ sig_xi**2
            for mu_xi, sig_xi, e in zip(theta_d.mu_x, theta_d.sigma_x, np.eye(n))
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
        lb, ab = default_dual_boxes(3)
        assert lb.dim == 8 and ab.dim == 18
        np.testing.assert_array_equal(lb.lower, [-1.0] * 4 + [1e-6] * 4)
        np.testing.assert_array_equal(lb.upper, [1.0] * 4 + [1e-3] * 4)
        np.testing.assert_array_equal(ab.lower, ([-1.0] * 3 + [1e-3] * 3) * 3)
        np.testing.assert_array_equal(ab.upper, ([2.0] * 3 + [0.5] * 3) * 3)
        lb, _ = default_dual_boxes(2, W=2.5)
        np.testing.assert_array_equal(lb.lower[:3], [-2.5] * 3)
        np.testing.assert_array_equal(lb.upper[:3], [2.5] * 3)


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
        for fn in (ops.cost_l, ops.cost_d, ops.pseudo_grad, ops.project, ops.split):
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
                for fn in (ops.cost_l, ops.cost_d, ops.pseudo_grad):
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
            for fn in (ops.cost_l, ops.cost_d, ops.pseudo_grad):
                with pytest.raises(ValueError, match="positive"):
                    fn(v)
