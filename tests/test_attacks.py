"""Evasion attacks against brute-force and random-search oracles, threshold
selection, and security curves."""

import time
import warnings

import numpy as np
import pytest
from oracles import (
    attack_l2_box_bisection,
    flip_binary_greedy,
    security_curve_per_repetition,
    tp_at_fp_scan,
)

from randgame import attacks
from randgame.attacks import (
    ATTACK_MODES,
    SecurityCurve,
    _attack_rows,
    attack_flip_binary,
    attack_l2_box,
    attack_l2_closed,
    security_curve,
    tp_at_fp,
)
from randgame.model import Dataset


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

    def test_zero_weight_warns_once_per_batch(self):
        X = np.random.default_rng(0).uniform(size=(5, 2))
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            adv = attack_l2_closed(np.zeros(2), X, 1.0, 1.0)
        assert len(rec) == 1 and "zero weight" in str(rec[0].message)
        np.testing.assert_array_equal(adv, X)

    def test_zero_weight_warns_once_per_budget_in_a_curve(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(size=(20, 2))
        ds = Dataset(X, np.where(np.arange(20) < 10, -1.0, 1.0))
        mu_w = np.zeros(3)
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            security_curve(mu_w, ds, "l2_closed_form", [0.0, 0.5, 1.0], repetitions=2)
        assert len(rec) == 2  # the two nonzero budgets, not one per sample

    def test_batch_equals_rows(self):
        rng = np.random.default_rng(1)
        w, X = rng.normal(size=4), rng.uniform(size=(6, 4))
        batch = attack_l2_closed(w, X, -1.0, 0.7)
        for x, row in zip(X, batch):
            np.testing.assert_array_equal(row, attack_l2_closed(w, x, -1.0, 0.7))


class TestBoxL2:
    def test_never_beaten_by_random_feasible_search(self):
        rng = np.random.default_rng(1)
        for trial in range(10):
            k = 3
            w = rng.normal(size=k)
            b = float(rng.normal())
            x = rng.uniform(0.2, 0.8, size=k)
            d_max = float(rng.uniform(0.2, 0.8))
            adv = attack_l2_box(w, x, 1.0, d_max)
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
            adv = attack_l2_box(w, x, 1.0, d_max)
            assert np.all(adv >= -1e-12) and np.all(adv <= 1.0 + 1e-12)
            assert np.linalg.norm(adv - x) <= d_max + 1e-12

    def test_batch_matches_bisection_oracle(self):
        rng = np.random.default_rng(8)
        for trial in range(300):
            n, k = int(rng.integers(1, 12)), int(rng.integers(1, 8))
            w = rng.normal(size=k) * 10.0 ** rng.uniform(-6, 0, size=k)  # wide scales
            w[rng.random(k) < 0.3] = 0.0  # zero-weight coordinates
            X = rng.uniform(size=(n, k))
            X[rng.random((n, k)) < 0.2] = float(rng.integers(0, 2))  # on a box face
            y = float(rng.choice([-1.0, 1.0]))
            d_max = float(rng.uniform(0.01, 2.5))  # up to past the corner (sqrt(7) at k=7)
            monotone = trial % 3 == 0
            adv = attack_l2_box(w, X, y, d_max, monotone)
            assert adv.shape == X.shape
            ref = np.array([attack_l2_box_bisection(w, x, y, d_max, monotone) for x in X])
            np.testing.assert_allclose(adv, ref, rtol=0, atol=1e-12)
            assert np.all(np.linalg.norm(adv - X, axis=1) <= d_max + 1e-12)

    def test_corner_within_budget_is_returned(self):
        w = np.array([1.0, -2.0, 0.0])
        X = np.array([[0.2, 0.9, 0.5], [0.5, 0.5, 0.5]])
        adv = attack_l2_box(w, X, 1.0, 0.6)
        np.testing.assert_array_equal(adv[0], [0.0, 1.0, 0.5])  # 0.224 from x
        assert np.linalg.norm(adv[1] - X[1]) == pytest.approx(0.6, abs=1e-15)  # corner: 0.707

    def test_one_sample_gives_one_row(self):
        rng = np.random.default_rng(9)
        w, X = rng.normal(size=3), rng.uniform(size=(4, 3))
        batch = attack_l2_box(w, X, 1.0, 0.4)
        for x, row in zip(X, batch):
            single = attack_l2_box(w, x, 1.0, 0.4)
            assert single.shape == (3,)
            np.testing.assert_array_equal(single, row)

    def test_extreme_weight_scales_stay_within_budget(self):
        X = np.full((2, 3), 0.5)
        for w in ([1e200, -3e199, 1e-200], [1e-300, 0.0, -2e-300], [1.0, 1e-170, 0.0]):
            adv = attack_l2_box(np.array(w), X, 1.0, 0.7)
            assert np.all(np.isfinite(adv))
            assert np.all(np.linalg.norm(adv - X, axis=1) <= 0.7 + 1e-12)
            assert np.all(adv[:, 0] < 0.5)  # the largest weight's feature moves

    def test_empty_batch(self):
        adv = attack_l2_box(np.ones(3), np.zeros((0, 3)), 1.0, 0.5)
        assert adv.shape == (0, 3)

    def test_monotone_constraint_only_increases_features(self):
        rng = np.random.default_rng(3)
        w = np.array([2.0, -1.0, 0.5])
        x = rng.uniform(0.1, 0.5, size=3)
        adv = attack_l2_box(w, x, 1.0, 0.6, monotone=True)
        assert np.all(adv >= x - 1e-12)

    def test_zero_budget_returns_original(self):
        x = np.array([0.3, 0.3])
        adv = attack_l2_box(np.ones(2), x, 1.0, 0.0)
        np.testing.assert_array_equal(adv, x)

    def test_rejects_sample_outside_box(self):
        with pytest.raises(ValueError, match="outside"):
            attack_l2_box(np.ones(2), np.array([1.2, 0.1]), 1.0, 0.5)
        with pytest.raises(ValueError, match="outside"):  # one bad row in a batch
            attack_l2_box(np.ones(2), np.array([[0.1, 0.1], [0.1, -0.1]]), 1.0, 0.5)


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
        with pytest.raises(ValueError, match="binary"):
            attack_flip_binary(np.ones(2), np.array([[0.0, 1.0], [1.0, 2.0]]), 1.0, 1)
        # -0.0 counts as zero; NaN and 0.5 count as neither 0 nor 1
        w = np.array([1.0, -1.0, 0.5])
        adv = attack_flip_binary(w, np.array([[-0.0, 1.0, 0.0], [1.0, -0.0, 1.0]]), 1.0, 3)
        np.testing.assert_array_equal(adv, [[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
        for X in ([[np.nan, 1.0, 0.0]], [[-0.0, 0.5, 1.0]], [[np.nan, -0.0, 0.5]],
                  [[np.nan, 0.0, 0.0], [1.0, -0.0, 1.0]]):
            with pytest.raises(ValueError, match="binary"):
                attack_flip_binary(w, np.array(X), 1.0, 1)

    @pytest.mark.parametrize("y", [-1.0, 1.0])
    def test_batch_equals_per_row_greedy(self, y):
        rng = np.random.default_rng(10)
        for _ in range(200):
            n, k = int(rng.integers(1, 15)), int(rng.integers(1, 15))
            w = np.round(rng.normal(size=k), 1)  # ties in |w| and zero weights
            X = rng.integers(0, 2, size=(n, k)).astype(float)
            d_max = int(rng.integers(0, 6))
            adv = attack_flip_binary(w, X, y, d_max)
            ref = np.array([flip_binary_greedy(w, x, y, d_max) for x in X])
            np.testing.assert_array_equal(adv, ref)
            single = attack_flip_binary(w, X[0], y, d_max)
            assert single.shape == (k,)
            np.testing.assert_array_equal(single, ref[0])

    @pytest.mark.parametrize("y", [-1.0, 1.0])
    def test_wide_rows_match_greedy_oracle(self, y):
        # k from 300 to 3000 at 0.5-5% density, so the block scan of the flip
        # order runs past its first block of 2 * d_max columns
        rng = np.random.default_rng(14)
        for trial in range(30):
            n, k = int(rng.integers(1, 7)), int(rng.integers(300, 3001))
            X = (rng.random((n, k)) < rng.uniform(0.005, 0.05)).astype(float)
            w = rng.normal(size=k)
            if trial % 3 == 0:  # all positive: at y = +1 rows hold fewer candidates than d_max
                w = np.abs(w)
            elif trial % 3 == 1:  # ties in |w| and zero weights
                w = np.round(w, 1)
            d_max = [0, 1, 2, 5, 20, 60, 400, k, k + 7][trial % 9]
            adv = attack_flip_binary(w, X, y, d_max)
            ref = np.array([flip_binary_greedy(w, x, y, d_max) for x in X])
            np.testing.assert_array_equal(adv, ref)


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

    def test_matches_threshold_scan(self):
        rng = np.random.default_rng(11)
        for trial in range(2500):
            n_legit = 1 if trial % 10 == 0 else int(rng.integers(2, 80))
            n_mal = int(rng.integers(1, 40))
            if trial % 2:  # integer scores: ties within and across the classes
                legit = rng.integers(-4, 5, size=n_legit).astype(float)
                mal = rng.integers(-4, 5, size=n_mal).astype(float)
            else:
                legit, mal = rng.normal(size=n_legit), rng.normal(1.0, size=n_mal)
            fp = float(rng.choice([0.01, 0.05, 0.2, 0.5, 0.99]))
            assert tp_at_fp(legit, mal, fp) == tp_at_fp_scan(legit, mal, fp)

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
        return np.array([1.0, 1.0, -1.0]), Dataset(X, y), "l2_box_pgd"

    def test_tp_degrades_with_budget(self):
        mu_w, ds, mode = self._setup()
        curve = security_curve(mu_w, ds, mode, [0.0, 0.3, 0.8], repetitions=3, seed=0)
        tps = [p[1] for p in curve.points]
        assert tps[0] >= tps[1] >= tps[2]
        assert tps[0] > 0.9  # clean well-separated data is detected

    def test_deterministic_given_seed(self):
        mu_w, ds, mode = self._setup()
        c1 = security_curve(mu_w, ds, mode, [0.0, 0.4], repetitions=2, seed=3)
        c2 = security_curve(mu_w, ds, mode, [0.0, 0.4], repetitions=2, seed=3)
        assert c1.points == c2.points

    def test_dense_box_curve_is_fast(self):
        rng = np.random.default_rng(12)
        n, k = 2000, 20
        y = np.where(np.arange(n) < n // 2, -1.0, 1.0)
        X = np.clip(0.5 + 0.1 * rng.normal(size=(n, k)) + 0.1 * y[:, None], 0.0, 1.0)
        w = 1.0 + 0.3 * rng.normal(size=k)
        mu_w = np.append(w, -0.5 * w.sum())
        start = time.perf_counter()
        curve = security_curve(mu_w, Dataset(X, y), "l2_box_pgd", [0.0, 0.5, 1.0], repetitions=5)
        assert time.perf_counter() - start < 0.5
        tps = [p[1] for p in curve.points]
        assert tps[0] > 0.9 and tps[0] > tps[1] > tps[2]

    @staticmethod
    def _check_against_oracle(monkeypatch, mode, budget_lists):
        # the curve scores the legitimate rows once, finds each repetition's
        # threshold once and scores every malicious row once per budget
        # (binary_flip ranks once and flips in place), and a repetition
        # indexes the scores; the oracle attacks and scores each repetition's
        # drawn rows afresh per budget and scans for each threshold. Binary
        # rows suit every mode; float weights hold ties in |w| and zero
        # weights, integer weights give scores that tie exactly.
        calls = dict.fromkeys(("_threshold", "_flip_ranks"), 0)
        for name in calls:
            def counted(*args, fn=getattr(attacks, name), name=name):
                calls[name] += 1
                return fn(*args)

            monkeypatch.setattr(attacks, name, counted)
        n, k, reps = 120, 400, 3
        y = np.where(np.arange(n) < n // 2, -1.0, 1.0)
        for seed in (5, 6, 7):
            rng = np.random.default_rng(seed + 10)
            X = (rng.random((n, k)) < np.where(y[:, None] > 0, 0.06, 0.02)).astype(float)
            ds = Dataset(X, y)
            before = X.copy()
            for mu_w in (np.append(np.round(rng.normal(0.3, 1.0, size=k), 1), -0.3),
                         np.append(rng.integers(-2, 4, size=k), -1.0)):
                for budgets in budget_lists:
                    calls.update(dict.fromkeys(calls, 0))
                    curve = security_curve(mu_w, ds, mode, budgets, repetitions=reps, seed=seed)
                    assert calls["_threshold"] == reps
                    assert calls["_flip_ranks"] == (mode == "binary_flip")
                    np.testing.assert_array_equal(ds.features, before)
                    ref = security_curve_per_repetition(mu_w, ds, mode, budgets, reps, seed)
                    assert curve.points == ref
                    if budgets is budget_lists[0]:
                        assert ref[0][1] > ref[-1][1]  # the attack moves the curve

    def test_binary_flip_curve_equals_one_attack_per_budget(self, monkeypatch):
        self._check_against_oracle(monkeypatch, "binary_flip",
                                   ([0, 1, 3, 8, 20, 50], [2, 5, 9], [4]))

    @pytest.mark.parametrize("mode", ["l2_closed_form", "l2_box_pgd"])
    def test_l2_curve_equals_one_attack_per_repetition_and_budget(self, monkeypatch, mode):
        self._check_against_oracle(monkeypatch, mode, ([0.0, 0.05, 0.1, 0.3], [0.02, 0.2], [0.1]))

    def test_requires_increasing_budgets(self):
        mu_w, ds, mode = self._setup()
        with pytest.raises(ValueError, match="increasing"):
            security_curve(mu_w, ds, mode, [0.5, 0.5])

    @pytest.mark.parametrize("label", [-1.0, 1.0])
    def test_requires_both_classes(self, label):
        # the CLI refuses such a set before the call, a library caller is not
        mu_w, ds, mode = self._setup()
        one = Dataset(ds.features[ds.labels == label], ds.labels[ds.labels == label])
        with pytest.raises(ValueError, match="both classes"):
            security_curve(mu_w, one, mode, [0.0, 0.5])

    def test_requires_a_repetition(self):
        mu_w, ds, mode = self._setup()
        with pytest.raises(ValueError, match="repetitions"):
            security_curve(mu_w, ds, mode, [0.0, 0.5], repetitions=0)

    def test_auc_trapezoid(self):
        curve = SecurityCurve(
            points=((0.0, 1.0, 0.0), (1.0, 0.5, 0.0), (2.0, 0.0, 0.0)),
            fp_target=0.01,
            repetitions=1,
        )
        assert curve.auc() == pytest.approx(1.0)

    def test_auc_needs_two_points(self):
        # one point has area 0 whatever its TP, so it cannot rank curves
        mu_w, ds, mode = self._setup()
        curve = security_curve(mu_w, ds, mode, [0.5], repetitions=2)
        with pytest.raises(ValueError, match="at least two points, got 1"):
            curve.auc()

    def test_write_csv(self, tmp_path):
        mu_w, ds, mode = self._setup()
        curve = security_curve(mu_w, ds, mode, [0.0, 0.4], repetitions=2, seed=1)
        p = tmp_path / "curve.csv"
        curve.write_csv(p, seed=1)
        lines = p.read_text().splitlines()
        assert lines[0] == "d_max,tp_mean,tp_std,fp_target,repetitions,seed"
        assert len(lines) == 3


ATTACKS = {
    "l2_closed_form": attack_l2_closed,
    "l2_box_pgd": attack_l2_box,
    "binary_flip": attack_flip_binary,
}

# bad budgets, each with a strictly increasing curve grid that holds it
BAD_BUDGETS = [(-0.3, [-0.3, 1.0]), (np.nan, [0.0, np.nan]), (np.inf, [0.0, np.inf])]


def _binary_case():
    """A learner's means [w; b] and a binary test set that every attack mode accepts."""
    X = np.random.default_rng(13).integers(0, 2, size=(20, 4)).astype(float)
    y = np.where(np.arange(20) < 10, -1.0, 1.0)
    return np.array([1.0, -1.0, 0.5, 0.2, 0.0]), Dataset(X, y)


class TestAttackSpecValidation:
    """Each attack checks the budget it is given; security_curve checks the
    mode and every budget of its grid."""

    def test_rejects_negative_budget(self):
        mu_w, ds = _binary_case()
        for mode, attack in ATTACKS.items():
            with pytest.raises(ValueError, match="non-negative"):
                attack(mu_w[:-1], ds.features, 1.0, -1.0)
            with pytest.raises(ValueError, match="non-negative"):
                _attack_rows(mu_w[:-1], ds.features, mode, -1.0)

    @pytest.mark.parametrize("mode", ATTACK_MODES)
    def test_attack_takes_one_label(self, mode):
        # a per-row label array was broadcast along the features, so every
        # row moved by one vector (numpy's broadcast error when n != k), and
        # y = 2 doubled the closed-form move
        w = np.array([1.0, 2.0, 3.0])
        X = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 0.0]])
        for bad in (np.array([1.0, -1.0, 1.0]), np.ones(2), [1.0], 0.0, 2.0, -2.0, np.nan):
            with pytest.raises(ValueError, match=r"one label, -1 or \+1"):
                ATTACKS[mode](w, X, bad, 1.0)
        for y in (-1, np.float64(1.0)):
            batch = ATTACKS[mode](w, X, y, 1.0)
            for x, row in zip(X, batch):
                np.testing.assert_array_equal(row, ATTACKS[mode](w, x, float(y), 1.0))

    def test_rejects_unknown_mode(self):
        mu_w, ds = _binary_case()
        for d_max in (0.0, 1.0):
            with pytest.raises(ValueError, match="mode"):
                _attack_rows(mu_w[:-1], ds.features, "teleport", d_max)
        with pytest.raises(ValueError, match="mode"):
            security_curve(mu_w, ds, "teleport", [0.0, 1.0])

    def test_curve_checks_grid_and_mode_before_any_attack(self, monkeypatch):
        # an empty grid gave points == () and AUC 0.0, and an unknown mode
        # with an empty grid passed silently
        mu_w, ds = _binary_case()

        def no_attack(*args, **kwargs):
            raise AssertionError("attack work before the arguments were checked")

        monkeypatch.setattr(attacks, "_flip_ranks", no_attack)
        monkeypatch.setattr(attacks, "_attack_rows", no_attack)
        for mode in ATTACK_MODES:
            with pytest.raises(ValueError, match="non-empty"):
                security_curve(mu_w, ds, mode, [])
        for grid in ([], [0.0, 1.0]):
            with pytest.raises(ValueError, match="mode"):
                security_curve(mu_w, ds, "nonsense", grid)

    @pytest.mark.parametrize("bad", ["nan_weight", "inf_bias", "short", "long"])
    def test_curve_needs_k_plus_1_finite_means(self, monkeypatch, bad):
        # a NaN weight gave TP 0.0 at every budget and an inf bias 1.0; a
        # wrong length ended in numpy's matmul error
        mu_w, ds = _binary_case()
        mu_w = {"nan_weight": np.where(np.arange(5) == 1, np.nan, mu_w),
                "inf_bias": np.append(mu_w[:-1], np.inf),
                "short": mu_w[:-1], "long": np.append(mu_w, 0.0)}[bad]

        def no_attack(*args, **kwargs):
            raise AssertionError("attack work before mu_w was checked")

        monkeypatch.setattr(attacks, "_flip_ranks", no_attack)
        monkeypatch.setattr(attacks, "_attack_rows", no_attack)
        for mode in ATTACK_MODES:
            with pytest.raises(ValueError, match=r"mu_w must be k \+ 1 = 5 finite values"):
                security_curve(mu_w, ds, mode, [0.0, 1.0], repetitions=1)

    def test_binary_flip_needs_integer_budget(self):
        mu_w, ds = _binary_case()
        for d_max in (1.5, 1.7):  # never truncated to 1
            with pytest.raises(ValueError, match="integer"):
                attack_flip_binary(mu_w[:-1], ds.features, 1.0, d_max)
            with pytest.raises(ValueError, match="integer"):
                _attack_rows(mu_w[:-1], ds.features, "binary_flip", d_max)
            with pytest.raises(ValueError, match="integer"):
                security_curve(mu_w, ds, "binary_flip", [0.0, d_max])
        # whole budgets given as floats still run
        attack_flip_binary(mu_w[:-1], ds.features, 1.0, 2.0)
        security_curve(mu_w, ds, "binary_flip", [0.0, 1.0, 2.0], repetitions=1)

    @pytest.mark.parametrize("mode", ATTACK_MODES)
    @pytest.mark.parametrize("d_max, grid", BAD_BUDGETS, ids=["negative", "nan", "inf"])
    def test_bad_budget_raises(self, mode, d_max, grid):
        # unchecked, a negative box-L2 budget attacked with |d_max|, NaN gave
        # the box corner and a curve up to inf reported AUC inf
        mu_w, ds = _binary_case()
        with pytest.raises(ValueError, match="budget"):
            ATTACKS[mode](mu_w[:-1], ds.features[0], 1.0, d_max)
        with pytest.raises(ValueError, match="budget"):
            ATTACKS[mode](mu_w[:-1], ds.features, 1.0, d_max)
        with pytest.raises(ValueError, match="budget"):
            security_curve(mu_w, ds, mode, grid, repetitions=1)
