"""Evasion attacks against brute-force and random-search oracles, threshold
selection, and security curves."""

import warnings

import numpy as np
import pytest

from randgame.attacks import (
    AttackSpec,
    SecurityCurve,
    attack_flip_binary,
    attack_l2_box,
    attack_l2_closed,
    predict,
    security_curve,
    tp_at_fp,
)
from randgame.model import Dataset, LearnerParams


class TestClosedFormL2:
    def test_score_drop_is_exactly_budget_times_norm(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            w = rng.normal(size=4)
            x = rng.uniform(size=4)
            d_max = float(rng.uniform(0.1, 2.0))
            adv = attack_l2_closed(w, x, 1.0, d_max)
            drop = w @ x - w @ adv
            assert drop == pytest.approx(d_max * np.linalg.norm(w), abs=1e-9)
            assert np.linalg.norm(adv - x) == pytest.approx(d_max, abs=1e-9)

    def test_legitimate_sample_moves_opposite(self):
        w = np.array([1.0, 0.0])
        adv = attack_l2_closed(w, np.zeros(2), -1.0, 1.0)
        # y = -1: the attacker of a legitimate sample raises the score
        np.testing.assert_allclose(adv, [1.0, 0.0], atol=1e-12)

    def test_zero_weight_warns_and_keeps_sample(self):
        x = np.array([0.4, 0.6])
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            adv = attack_l2_closed(np.zeros(2), x, 1.0, 1.0)
        assert len(rec) == 1 and "zero weight" in str(rec[0].message)
        np.testing.assert_array_equal(adv, x)


class TestBoxL2:
    def _spec(self, d_max, k=3, monotone=False):
        return AttackSpec(
            d_max=d_max,
            mode="l2_box_pgd",
            monotone_increase_only=monotone,
            box_lower=np.zeros(k),
            box_upper=np.ones(k),
        )

    def test_never_beaten_by_random_feasible_search(self):
        rng = np.random.default_rng(1)
        for trial in range(10):
            k = 3
            w = rng.normal(size=k)
            b = float(rng.normal())
            x = rng.uniform(0.2, 0.8, size=k)
            d_max = float(rng.uniform(0.2, 0.8))
            adv = attack_l2_box(w, x, 1.0, d_max, self._spec(d_max))
            # random feasible candidates: ball samples clamped to the box
            # (clamping toward a box containing x never increases the distance)
            u = rng.normal(size=(10_000, k))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            radii = d_max * rng.uniform(size=(10_000, 1)) ** (1.0 / k)
            cand = np.clip(x + radii * u, 0.0, 1.0)
            assert w @ adv + b <= (cand @ w + b).min() + 1e-9

    def test_respects_all_constraints(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            w = rng.normal(size=4)
            x = rng.uniform(size=4)
            d_max = 0.5
            adv = attack_l2_box(w, x, 1.0, d_max, self._spec(d_max, k=4))
            assert np.all(adv >= -1e-12) and np.all(adv <= 1.0 + 1e-12)
            assert np.linalg.norm(adv - x) <= d_max + 1e-9

    def test_monotone_constraint_only_increases_features(self):
        rng = np.random.default_rng(3)
        w = np.array([2.0, -1.0, 0.5])
        x = rng.uniform(0.1, 0.5, size=3)
        adv = attack_l2_box(w, x, 1.0, 0.6, self._spec(0.6, monotone=True))
        assert np.all(adv >= x - 1e-12)

    def test_zero_budget_returns_original(self):
        x = np.array([0.3, 0.3])
        adv = attack_l2_box(np.ones(2), x, 1.0, 0.0, self._spec(0.0, k=2))
        np.testing.assert_array_equal(adv, x)

    def test_rejects_sample_outside_box(self):
        spec = AttackSpec(
            d_max=0.5, mode="l2_box_pgd",
            box_lower=np.zeros(2), box_upper=np.full(2, 0.5),
        )
        with pytest.raises(ValueError, match="outside"):
            attack_l2_box(np.ones(2), np.array([0.9, 0.1]), 1.0, 0.5, spec)


class TestBinaryFlip:
    def _brute_force(self, w, x, y, d_max):
        from itertools import combinations

        best = y * (w @ x)
        k = x.size
        for r in range(1, d_max + 1):
            for subset in combinations(range(k), r):
                z = x.copy()
                z[list(subset)] = 1.0 - z[list(subset)]
                best = min(best, y * (w @ z))
        return best

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            k = int(rng.integers(4, 13))
            d_max = int(rng.integers(0, 4))
            w = rng.normal(size=k)
            x = rng.integers(0, 2, size=k).astype(float)
            y = float(rng.choice([-1.0, 1.0]))
            adv = attack_flip_binary(w, x, y, d_max)
            assert y * (w @ adv) == pytest.approx(
                self._brute_force(w, x, y, d_max), abs=1e-12
            )

    def test_output_stays_binary_within_budget(self):
        w = np.array([3.0, -2.0, 1.0, -0.5])
        x = np.array([1.0, 0.0, 1.0, 1.0])
        adv = attack_flip_binary(w, x, 1.0, 2)
        assert np.all(np.isin(adv, (0.0, 1.0)))
        assert int(np.sum(adv != x)) <= 2

    def test_rejects_non_binary_input(self):
        with pytest.raises(ValueError, match="binary"):
            attack_flip_binary(np.ones(2), np.array([0.5, 1.0]), 1.0, 1)


class TestPredict:
    def _learner(self):
        return LearnerParams(np.array([1.0, -0.5, 0.2]), np.full(3, 0.05))

    def test_expected_scores(self):
        tl = self._learner()
        X = np.array([[0.5, 0.5], [1.0, 0.0]])
        np.testing.assert_allclose(predict(tl, X), X @ tl.mu_tilde + tl.mu_b)

    def test_sampled_mean_approaches_expected(self):
        tl = self._learner()
        x = np.array([[0.4, 0.7]])
        mean, votes = predict(tl, x, mode="sampled", n_draws=200_000, seed=0)
        assert mean == pytest.approx(float(predict(tl, x)), abs=2e-3)
        assert 0.0 <= votes <= 1.0

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            predict(self._learner(), np.zeros((1, 2)), mode="exact")


class TestTpAtFp:
    def test_documented_example(self):
        legit = np.array([-2.0, -1.0, 0.0, 1.0])
        mal = np.array([0.5, 2.0, 3.0, -1.0])
        thr, tp = tp_at_fp(legit, mal, 0.2)
        # no midpoint threshold reaches FP <= 0.2 with four legitimate
        # samples, so the threshold sits just above the top legitimate score
        assert thr == pytest.approx(1.0)
        assert tp == pytest.approx(0.5)

    def test_fp_bound_is_respected(self):
        rng = np.random.default_rng(5)
        legit = rng.normal(size=500)
        mal = rng.normal(loc=2.0, size=300)
        thr, tp = tp_at_fp(legit, mal, 0.01)
        assert (legit >= thr).mean() <= 0.01
        assert tp == (mal >= thr).mean()

    def test_tp_maximal_among_feasible_thresholds(self):
        rng = np.random.default_rng(6)
        legit = rng.normal(size=200)
        mal = rng.normal(loc=1.0, size=200)
        thr, tp = tp_at_fp(legit, mal, 0.05)
        grid = np.linspace(legit.min() - 1, legit.max() + 1, 2000)
        ok = [(mal >= t).mean() for t in grid if (legit >= t).mean() <= 0.05]
        assert tp >= max(ok) - 1e-12

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            tp_at_fp([], [1.0], 0.01)
        with pytest.raises(ValueError):
            tp_at_fp([1.0], [1.0], 0.0)


class TestSecurityCurve:
    def _setup(self, n=40, seed=7):
        rng = np.random.default_rng(seed)
        X = np.clip(
            np.vstack(
                [rng.normal(0.3, 0.08, size=(n, 2)), rng.normal(0.7, 0.08, size=(n, 2))]
            ),
            0,
            1,
        )
        y = np.concatenate([-np.ones(n), np.ones(n)])
        tl = LearnerParams(np.array([1.0, 1.0, -1.0]), np.full(3, 1e-3))
        spec = AttackSpec(
            d_max=1.0, mode="l2_box_pgd", box_lower=np.zeros(2), box_upper=np.ones(2)
        )
        return tl, Dataset(X, y), spec

    def test_tp_degrades_with_budget(self):
        tl, ds, spec = self._setup()
        curve = security_curve(tl, ds, spec, [0.0, 0.3, 0.8], repetitions=3, seed=0)
        tps = [p[1] for p in curve.points]
        assert tps[0] >= tps[1] >= tps[2]
        assert tps[0] > 0.9  # clean well-separated data is detected

    def test_deterministic_given_seed(self):
        tl, ds, spec = self._setup()
        c1 = security_curve(tl, ds, spec, [0.0, 0.4], repetitions=2, seed=3)
        c2 = security_curve(tl, ds, spec, [0.0, 0.4], repetitions=2, seed=3)
        assert c1.points == c2.points

    def test_requires_increasing_budgets(self):
        tl, ds, spec = self._setup()
        with pytest.raises(ValueError, match="increasing"):
            security_curve(tl, ds, spec, [0.5, 0.5])

    def test_requires_a_repetition(self):
        tl, ds, spec = self._setup()
        with pytest.raises(ValueError, match="repetitions"):
            security_curve(tl, ds, spec, [0.0, 0.5], repetitions=0)

    def test_auc_trapezoid(self):
        curve = SecurityCurve(
            points=((0.0, 1.0, 0.0), (1.0, 0.5, 0.0), (2.0, 0.0, 0.0)),
            fp_target=0.01,
            repetitions=1,
        )
        assert curve.auc() == pytest.approx(1.0)

    def test_write_csv(self, tmp_path):
        tl, ds, spec = self._setup()
        curve = security_curve(tl, ds, spec, [0.0, 0.4], repetitions=2, seed=1)
        p = tmp_path / "curve.csv"
        curve.write_csv(p, seed=1)
        lines = p.read_text().splitlines()
        assert lines[0] == "d_max,tp_mean,tp_std,fp_target,repetitions,seed"
        assert len(lines) == 3


class TestAttackSpecValidation:
    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError):
            AttackSpec(d_max=-1.0)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            AttackSpec(d_max=1.0, mode="teleport")

    def test_binary_flip_needs_integer_budget(self):
        with pytest.raises(ValueError, match="integer"):
            AttackSpec(d_max=1.5, mode="binary_flip")
