"""Rectified-Gaussian expectation: Monte-Carlo and finite-difference oracles,
and the margin moments that the game's costs feed to it."""

import warnings

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import norm

from oracles import profile
from randgame import hinge
from randgame.costs import game_operator
from randgame.hinge import hinge_expect, hinge_hessian
from randgame.model import Dataset, GameSpec, default_boxes


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


class TestNormalCdf:
    """p = Phi(mu / sigma) from both of hinge's methods, which the array size
    picks, against scipy's ndtr: a relative error of at most 1e-12 wherever
    Phi >= 1e-300, exactly 0 or 1 where exp(-z^2 / 2) underflows, and no
    RuntimeWarning up to |z| = 1e150."""

    # zero, the band edges |z| / sqrt(2) = 1 and 8, the underflow of
    # exp(-z^2 / 2) near |z| = 38.6, and the far tails
    FIXED = [0.0, -0.0, 2**0.5, -(2**0.5), 8 * 2**0.5, -8 * 2**0.5, 38.5, -38.5, 38.7, -38.7,
             1e3, -1e3, 1e100, -1e100, 1e150, -1e150]

    def _z(self, size, seed):
        rng = np.random.default_rng(seed)
        k = (size - len(self.FIXED)) // 2
        rest = size - len(self.FIXED) - k
        return np.concatenate([self.FIXED, np.linspace(-38.0, 38.0, k),
                               rng.normal(scale=15.0, size=rest)])

    def _check(self, z):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = hinge_expect(z, 1.0)[1]
            e = np.exp(-0.5 * z * z)
        assert np.shape(p) == np.shape(z)
        p, ref = np.asarray(p), ndtr(z)
        live = ref >= 1e-300
        assert np.all(np.abs(p[live] - ref[live]) <= 1e-12 * ref[live])
        np.testing.assert_array_equal(p[e == 0.0], z[e == 0.0] > 0)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_both_sides_of_the_switch(self, offset):
        size = hinge._RATIONAL_MIN_SIZE + offset
        z = self._z(size, seed=size)
        for shape in ((size,), (1, size), (size, 1)):
            self._check(z.reshape(shape))

    def test_nan_stays_nan(self):
        for size in (1, hinge._RATIONAL_MIN_SIZE):
            assert np.isnan(hinge_expect(np.full(size, np.nan), 1.0)[1]).all()

    def test_stacked_margins(self):
        # the costs' (2, n) shape, at and below the switch
        for n in (hinge._RATIONAL_MIN_SIZE // 2 - 1, hinge._RATIONAL_MIN_SIZE // 2):
            self._check(self._z(2 * n, seed=n).reshape(2, n))

    def test_stack_takes_the_path_of_its_last_two_axes(self):
        # each (2, 300) profile below the switch keeps the erfc path's bits in
        # a (3, 2, 300) stack of 1800 entries
        z = self._z(1800, seed=5).reshape(3, 2, 300)
        self._check(z)
        p = hinge_expect(z, 1.0)[1]
        for i in range(3):
            np.testing.assert_array_equal(p[i], hinge_expect(z[i], 1.0)[1])

    def test_scalars(self):
        for z in self._z(64, seed=3):
            self._check(np.array(z))


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


class TestHingeHessian:
    """The second derivatives against central differences of hinge_expect's
    first derivatives, in mu and in sigma^2, including the lower tail."""

    POINTS = [(mu, sigma) for mu in (-10.0, -1.5, -0.2, 0.0, 0.7, 2.0) for sigma in (0.3, 1.0, 2.5)]

    @pytest.mark.parametrize("mu, sigma", POINTS)
    def test_matches_central_differences(self, mu, sigma):
        h_mu, h_var = 1e-5 * sigma, 1e-5 * sigma**2
        _, p_hi, v_hi = hinge_expect(mu + h_mu, sigma)
        _, p_lo, v_lo = hinge_expect(mu - h_mu, sigma)
        var = sigma**2
        _, pv_hi, vv_hi = hinge_expect(mu, np.sqrt(var + h_var))
        _, pv_lo, vv_lo = hinge_expect(mu, np.sqrt(var - h_var))
        d_mumu, d_muvar, d_varvar = hinge_hessian(mu, sigma)
        # each derivative is checked twice where both differences exist: d/dmu
        # of dE/d(sigma^2) and d/d(sigma^2) of dE/dmu are the same mixed term
        scale = 1e-7 / sigma**3
        assert d_mumu == pytest.approx((p_hi - p_lo) / (2 * h_mu), rel=1e-6, abs=scale)
        assert d_muvar == pytest.approx((v_hi - v_lo) / (2 * h_mu), rel=1e-6, abs=scale)
        assert d_muvar == pytest.approx((pv_hi - pv_lo) / (2 * h_var), rel=1e-6, abs=scale)
        assert d_varvar == pytest.approx((vv_hi - vv_lo) / (2 * h_var), rel=1e-6, abs=scale)

    def test_lower_tail_is_tiny_not_zero(self):
        # at mu = -10, sigma = 1 every derivative is about phi(10) = 7.7e-23
        d_mumu, d_muvar, d_varvar = hinge_hessian(-10.0, 1.0)
        assert d_mumu == pytest.approx(norm.pdf(-10.0), rel=1e-12)
        assert d_muvar == pytest.approx(5.0 * norm.pdf(-10.0), rel=1e-12)
        assert d_varvar == pytest.approx(0.25 * 99.0 * norm.pdf(-10.0), rel=1e-12)

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            hinge_hessian(0.0, 0.0)


class TestMarginMoments:
    """The (mu, sigma) that the game's evaluation passes to hinge_expect for
    a one-sample game, checked against the sampled margin."""

    def _random_setup(self, seed, k=4):
        rng = np.random.default_rng(seed)
        mu_w, sigma_w = rng.normal(size=k + 1), rng.uniform(0.05, 0.4, size=k + 1)
        mu_x = rng.uniform(size=k)
        sigma_x = rng.uniform(0.05, 0.3, size=k)
        y = float(rng.choice([-1.0, 1.0]))
        return mu_w, sigma_w, mu_x, sigma_x, y

    def _captured(self, hinge_inputs, mu_w, sigma_w, mu_x, sigma_x, y):
        lb, ab = default_boxes(1, mu_x.size, W=1.0)
        game = GameSpec(Dataset(mu_x[None], [y]), 1.0, 1.0, lb, ab)
        hinge_inputs.clear()
        game_operator(game).pseudo_grad(profile(mu_w, sigma_w, mu_x[None], sigma_x[None]))
        [((mu_s, mu_t), (sig_s, sig_t))] = hinge_inputs
        return float(mu_s[0]), float(sig_s[0]), float(mu_t[0]), float(sig_t[0])

    def test_monte_carlo_oracle(self, hinge_inputs):
        n = 1_000_000
        for seed in range(5):
            mu_w, sigma_w, mu_x, sigma_x, y = self._random_setup(seed)
            rng = np.random.default_rng(100 + seed)
            k = mu_x.size
            w = rng.normal(mu_w[:-1], sigma_w[:-1], size=(n, k))
            b = rng.normal(mu_w[-1], sigma_w[-1], size=n)
            x = rng.normal(mu_x, sigma_x, size=(n, k))
            s = 1.0 - y * ((w * x).sum(axis=1) + b)
            mu, sigma, _, _ = self._captured(hinge_inputs, mu_w, sigma_w, mu_x, sigma_x, y)
            se_mean = s.std() / np.sqrt(n)
            se_var = s.var() * np.sqrt(2.0 / (n - 1))
            assert abs(mu - s.mean()) <= 4 * se_mean
            assert abs(sigma**2 - s.var()) <= 4 * se_var

    def test_sides_mirror(self, hinge_inputs):
        mu_s, sig_s, mu_t, sig_t = self._captured(hinge_inputs, *self._random_setup(9))
        assert mu_s + mu_t == pytest.approx(2.0, rel=1e-14)
        assert sig_s == sig_t
