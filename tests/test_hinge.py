"""Rectified-Gaussian expectation: Monte-Carlo and finite-difference oracles,
and the margin moments that the game's costs feed to it."""

import numpy as np
import pytest
from scipy.stats import norm

from randgame.costs import costs_and_grads
from randgame.hinge import hinge_expect
from randgame.model import AttackerParams, Dataset, GameSpec, LearnerParams, default_boxes


def value(mu, sigma):
    return hinge_expect(mu, sigma)[0]


class TestHingeExpect:
    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(0)
        n = 2_000_000
        for mu in (-2.0, -0.5, 0.0, 0.5, 2.0):
            for sigma in (0.1, 1.0, 3.0):
                draws = np.maximum(rng.normal(mu, sigma, size=n), 0.0)
                se = draws.std() / np.sqrt(n)
                assert abs(value(mu, sigma) - draws.mean()) <= 4 * se + 1e-12

    def test_positive_mu_large_limit(self):
        # far from the kink the expectation is just mu
        assert value(30.0, 1.0) == pytest.approx(30.0, abs=1e-12)

    def test_negative_mu_large_limit(self):
        assert value(-30.0, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_at_zero_mean(self):
        # E[max(0, N(0, s^2))] = s / sqrt(2 pi)
        for s in (0.3, 1.0, 2.0):
            assert value(0.0, s) == pytest.approx(s / np.sqrt(2 * np.pi), rel=1e-12)

    def test_vectorized_matches_scalar(self):
        mus = np.array([-1.0, 0.0, 2.0])
        sig = np.array([0.5, 1.0, 2.0])
        out = hinge_expect(mus, sig)
        for i in range(3):
            for vec, scalar in zip(out, hinge_expect(mus[i], sig[i])):
                assert vec[i] == pytest.approx(scalar, rel=1e-14)

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            hinge_expect(0.0, 0.0)

    def test_scalar_inputs_give_floats_and_arrays_give_arrays(self):
        assert all(type(v) is float for v in hinge_expect(0.3, 1.2))
        out = hinge_expect(np.array([0.3, -0.1]), 1.2)
        assert all(isinstance(v, np.ndarray) and v.shape == (2,) for v in out)

    def test_exact_lower_tail(self):
        # 1 - erf(-z / sqrt(2)) cancels to nothing for z << 0; erfc does not
        for mu in (-5.0, -8.0, -10.0):
            h, p, _ = hinge_expect(mu, 1.0)
            assert p == pytest.approx(norm.cdf(mu), rel=1e-12)
            assert h == pytest.approx(norm.pdf(mu) + mu * norm.cdf(mu), rel=1e-10)


class TestHingeDerivatives:
    def test_dmu_finite_difference(self):
        h = 1e-6
        for mu in (-1.5, -0.2, 0.0, 0.7, 2.0):
            for sigma in (0.2, 1.0, 3.0):
                fd = (value(mu + h, sigma) - value(mu - h, sigma)) / (2 * h)
                assert hinge_expect(mu, sigma)[1] == pytest.approx(fd, abs=1e-8)

    def test_dvar_finite_difference(self):
        h = 1e-7
        for mu in (-1.5, 0.0, 0.7):
            for sigma in (0.5, 1.0, 2.0):
                v = sigma**2
                fd = (value(mu, np.sqrt(v + h)) - value(mu, np.sqrt(v - h))) / (2 * h)
                assert hinge_expect(mu, sigma)[2] == pytest.approx(fd, abs=1e-7)

    def test_dmu_is_a_probability(self):
        rng = np.random.default_rng(1)
        p = hinge_expect(rng.normal(size=50), rng.uniform(0.1, 2.0, size=50))[1]
        # the deep upper tail saturates to exactly 1 in floating point
        assert np.all(p >= 0) and np.all(p <= 1)

    def test_dvar_strictly_positive(self):
        rng = np.random.default_rng(2)
        d = hinge_expect(rng.normal(size=50), rng.uniform(0.1, 2.0, size=50))[2]
        assert np.all(d > 0)


class TestMarginMoments:
    """The (mu, sigma) that costs_and_grads passes to hinge_expect for a
    one-sample game, checked against the sampled margin."""

    def _random_setup(self, seed, k=4):
        rng = np.random.default_rng(seed)
        theta_l = LearnerParams(rng.normal(size=k + 1), rng.uniform(0.05, 0.4, size=k + 1))
        mu_x = rng.uniform(size=k)
        sigma_x = rng.uniform(0.05, 0.3, size=k)
        y = float(rng.choice([-1.0, 1.0]))
        return theta_l, mu_x, sigma_x, y

    def _captured(self, hinge_inputs, theta_l, mu_x, sigma_x, y):
        lb, ab = default_boxes(1, mu_x.size, W=1.0)
        game = GameSpec(Dataset(mu_x[None], [y]), 1.0, 1.0, lb, ab)
        hinge_inputs.clear()
        costs_and_grads(theta_l, AttackerParams(mu_x[None], sigma_x[None]), game)
        (mu_s, sig_s), (mu_t, sig_t) = hinge_inputs
        return float(mu_s[0]), float(sig_s[0]), float(mu_t[0]), float(sig_t[0])

    def test_monte_carlo_oracle(self, hinge_inputs):
        n = 1_000_000
        for seed in range(5):
            theta_l, mu_x, sigma_x, y = self._random_setup(seed)
            rng = np.random.default_rng(100 + seed)
            k = mu_x.size
            w = rng.normal(theta_l.mu_tilde, theta_l.sigma_tilde, size=(n, k))
            b = rng.normal(theta_l.mu_b, theta_l.sigma_b, size=n)
            x = rng.normal(mu_x, sigma_x, size=(n, k))
            s = 1.0 - y * ((w * x).sum(axis=1) + b)
            mu, sigma, _, _ = self._captured(hinge_inputs, theta_l, mu_x, sigma_x, y)
            se_mean = s.std() / np.sqrt(n)
            se_var = s.var() * np.sqrt(2.0 / (n - 1))
            assert abs(mu - s.mean()) <= 4 * se_mean
            assert abs(sigma**2 - s.var()) <= 4 * se_var

    def test_sides_mirror(self, hinge_inputs):
        mu_s, sig_s, mu_t, sig_t = self._captured(hinge_inputs, *self._random_setup(9))
        assert mu_s + mu_t == pytest.approx(2.0, rel=1e-14)
        assert sig_s == sig_t
