"""Player costs and analytic gradients against finite-difference oracles."""

import numpy as np
import pytest

from randgame.costs import (
    attacker_cost,
    attacker_grad,
    game_operator,
    learner_cost,
    learner_grad,
    nominal_attacker,
    pseudo_gradient,
    train_baseline_svm,
)
from randgame.hinge import hinge_expect, margin_moments
from randgame.model import (
    AttackerParams,
    Dataset,
    GameSpec,
    LearnerParams,
    default_boxes,
    flatten,
)


def random_game(seed, n=5, k=3, rho_l=2.0, rho_d=3.0, bias_reg=0.0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, k))
    y = rng.choice([-1.0, 1.0], size=n)
    if np.all(y == y[0]):
        y[0] = -y[0]
    lb, ab = default_boxes(n, k, W=2.0)
    return GameSpec(Dataset(X, y), rho_l, rho_d, lb, ab, bias_reg=bias_reg)


def random_profile(game, seed, sigma_scale=0.3):
    rng = np.random.default_rng(seed)
    n, k = game.n, game.k
    theta_l = LearnerParams(
        rng.normal(scale=0.5, size=k + 1), rng.uniform(0.05, sigma_scale, size=k + 1)
    )
    theta_d = AttackerParams(
        rng.uniform(size=(n, k)), rng.uniform(0.05, sigma_scale, size=(n, k))
    )
    return theta_l, theta_d


def fd_gradient(f, v, h=1e-6):
    g = np.empty_like(v)
    for i in range(v.size):
        vp = v.copy(); vp[i] += h
        vm = v.copy(); vm[i] -= h
        g[i] = (f(vp) - f(vm)) / (2 * h)
    return g


class TestGradients:
    def test_learner_gradient_vs_fd(self):
        for seed in range(5):
            game = random_game(seed)
            theta_l, theta_d = random_profile(game, 50 + seed)
            m = game.k + 1

            def f(v):
                tl = LearnerParams(v[:m], v[m:])
                return learner_cost(tl, theta_d, game)

            v = np.concatenate([theta_l.mu_w, theta_l.sigma_w])
            d_mu, d_sig = learner_grad(theta_l, theta_d, game)
            np.testing.assert_allclose(
                np.concatenate([d_mu, d_sig]), fd_gradient(f, v), rtol=1e-6, atol=1e-8
            )

    def test_learner_gradient_with_bias_reg(self):
        game = random_game(3, bias_reg=1.5)
        theta_l, theta_d = random_profile(game, 53)
        m = game.k + 1

        def f(v):
            return learner_cost(LearnerParams(v[:m], v[m:]), theta_d, game)

        v = np.concatenate([theta_l.mu_w, theta_l.sigma_w])
        d_mu, d_sig = learner_grad(theta_l, theta_d, game)
        np.testing.assert_allclose(
            np.concatenate([d_mu, d_sig]), fd_gradient(f, v), rtol=1e-6, atol=1e-8
        )

    def test_attacker_gradient_vs_fd(self):
        for seed in range(5):
            game = random_game(seed)
            theta_l, theta_d = random_profile(game, 70 + seed)
            n, k = game.n, game.k

            def f(v):
                td = AttackerParams(v[: n * k].reshape(n, k), v[n * k :].reshape(n, k))
                return attacker_cost(theta_l, td, game)

            v = np.concatenate([theta_d.mu_x.ravel(), theta_d.sigma_x.ravel()])
            d_mu, d_sig = attacker_grad(theta_l, theta_d, game)
            np.testing.assert_allclose(
                np.concatenate([d_mu.ravel(), d_sig.ravel()]),
                fd_gradient(f, v),
                rtol=1e-6,
                atol=1e-8,
            )

    def test_pseudo_gradient_weights(self):
        game = random_game(2, rho_l=6.0, rho_d=2.0)
        theta_l, theta_d = random_profile(game, 72)
        pg = pseudo_gradient(theta_l, theta_d, game)
        assert game_operator(game).r == (1.0, 3.0)
        d_mu, d_sig = attacker_grad(theta_l, theta_d, game)
        raw = np.hstack([d_mu, d_sig]).ravel()
        np.testing.assert_allclose(pg[game.dim_l :], 3.0 * raw, rtol=1e-14)
        assert pg.size == game.dim_l + game.dim_d


class TestOperator:
    def test_operator_matches_typed_api(self):
        game = random_game(4)
        theta_l, theta_d = random_profile(game, 74)
        v = flatten(theta_l, theta_d)
        ops = game_operator(game)
        assert ops.cost_l(v) == pytest.approx(learner_cost(theta_l, theta_d, game))
        assert ops.cost_d(v) == pytest.approx(attacker_cost(theta_l, theta_d, game))
        np.testing.assert_allclose(
            ops.pseudo_grad(v), pseudo_gradient(theta_l, theta_d, game)
        )

    def test_cost_splits_into_loss_plus_regularizer(self):
        game = random_game(5)
        theta_l, theta_d = random_profile(game, 75)
        v = flatten(theta_l, theta_d)
        ops = game_operator(game)

        def expected_loss(side):
            # per-sample margin moments, independent of the vectorized costs
            mm = [
                margin_moments(side, y, theta_l, mu_x, sig_x)
                for y, mu_x, sig_x in zip(game.dataset.labels, theta_d.mu_x, theta_d.sigma_x)
            ]
            return sum(float(hinge_expect(m.mu, m.sigma)) for m in mm)

        reg_l = 0.5 * game.rho_l * (
            theta_l.mu_tilde @ theta_l.mu_tilde
            + theta_l.sigma_tilde @ theta_l.sigma_tilde
        )
        assert ops.cost_l(v) == pytest.approx(expected_loss("learner") + reg_l, rel=1e-12)
        diff = theta_d.mu_x - game.dataset.features
        reg_d = 0.5 * game.rho_d * ((diff**2).sum() + (theta_d.sigma_x**2).sum())
        assert ops.cost_d(v) == pytest.approx(expected_loss("attacker") + reg_d, rel=1e-12)

    def test_reg_hessian_diagonals(self):
        game = random_game(6, rho_l=4.0, bias_reg=2.0)
        ops = game_operator(game)
        k = game.k
        # bias coordinates carry bias_reg / rho_l so that rho_l * reg_hess_l
        # is the true regularizer Hessian
        assert ops.reg_hess_l[k] == pytest.approx(0.5)
        assert ops.reg_hess_l[2 * k + 1] == pytest.approx(0.5)
        assert np.all(ops.reg_hess_l[:k] == 1.0)
        assert np.all(ops.reg_hess_d == 1.0)

    def test_nominal_attacker_sits_on_data(self):
        game = random_game(7)
        td = nominal_attacker(game)
        np.testing.assert_allclose(td.mu_x, game.dataset.features)
        assert np.all(td.sigma_x == game.attacker_box.lower.reshape(game.n, -1)[:, game.k :])


class TestDeterministicLimit:
    def test_low_deviation_limit_matches_csvm_objective(self):
        # deviations at their box floors: the expected hinge collapses to the
        # plain hinge and the cost approaches the deterministic SVM objective
        for seed in range(10):
            game = random_game(seed, n=6, k=3, rho_l=1.7)
            rng = np.random.default_rng(200 + seed)
            m = game.k + 1
            mu_w = rng.normal(scale=0.5, size=m)
            theta_l = LearnerParams(mu_w, np.full(m, game.learner_box.lower[m]))
            theta_d = nominal_attacker(game)
            X, y = game.dataset.features, game.dataset.labels
            margins = 1.0 - y * (X @ mu_w[:-1] + mu_w[-1])
            det = 0.5 * game.rho_l * mu_w[:-1] @ mu_w[:-1] + np.maximum(margins, 0).sum()
            assert learner_cost(theta_l, theta_d, game) == pytest.approx(det, abs=1e-3)


class TestBaselineSvm:
    def test_separable_data_is_separated(self):
        X = np.vstack([np.full((5, 2), 0.1), np.full((5, 2), 0.9)])
        X = np.clip(X + np.random.default_rng(0).normal(scale=0.02, size=X.shape), 0, 1)
        y = np.concatenate([-np.ones(5), np.ones(5)])
        w, b = train_baseline_svm(Dataset(X, y), C=10.0)
        assert np.all(y * (X @ w + b) > 0)

    def test_regularizer_shrinks_with_small_c(self):
        ds = Dataset(*_blob_data())
        w_small, _ = train_baseline_svm(ds, C=0.01)
        w_big, _ = train_baseline_svm(ds, C=100.0)
        assert np.linalg.norm(w_small) < np.linalg.norm(w_big)

    def test_rejects_nonpositive_c(self):
        with pytest.raises(ValueError):
            train_baseline_svm(Dataset(*_blob_data()), C=0.0)

    def test_deterministic_given_seed(self):
        ds = Dataset(*_blob_data())
        w1, b1 = train_baseline_svm(ds, C=1.0, seed=5)
        w2, b2 = train_baseline_svm(ds, C=1.0, seed=5)
        assert np.array_equal(w1, w2) and b1 == b2


def _blob_data(n=8, seed=42):
    rng = np.random.default_rng(seed)
    X = np.clip(
        np.vstack(
            [
                rng.normal(0.3, 0.05, size=(n, 2)),
                rng.normal(0.7, 0.05, size=(n, 2)),
            ]
        ),
        0,
        1,
    )
    y = np.concatenate([-np.ones(n), np.ones(n)])
    return X, y
