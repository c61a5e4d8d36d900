"""Worst-case evasion attacks against linear classifiers, randomized
prediction, and security-evaluation curves (TP at fixed FP vs. attack budget).

Attacks minimize y * f(x) subject to a distance budget d_max from the original
sample; the attacked decision function is the expected one f(x) = mu_w~.x + mu_b
(the distribution parameters are the only stable object a worst-case attacker
of a randomized classifier can know).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .model import Dataset, LearnerParams, ShapeError, atomic_write

ATTACK_MODES = ("l2_closed_form", "l2_box_pgd", "binary_flip")

BISECTION_STEPS = 200


@dataclass(frozen=True)
class AttackSpec:
    d_max: float
    mode: str = "l2_closed_form"
    monotone_increase_only: bool = False
    box_lower: np.ndarray | None = None
    box_upper: np.ndarray | None = None

    def __post_init__(self):
        if self.d_max < 0:
            raise ValueError("d_max must be non-negative")
        if self.mode not in ATTACK_MODES:
            raise ValueError(f"unknown attack mode {self.mode!r}")
        if self.mode == "binary_flip" and self.d_max != int(self.d_max):
            raise ValueError("binary_flip requires an integer d_max")


def attack_l2_closed(w, x, y, d_max):
    """Unconstrained L2 attack: x - y * d_max * w / ||w||."""
    w = np.asarray(w, dtype=float)
    x = np.asarray(x, dtype=float)
    norm = float(np.linalg.norm(w))
    if norm == 0.0:
        warnings.warn("zero weight vector: attack leaves the sample unchanged")
        return x.copy()
    return x - y * d_max * w / norm


def attack_l2_box(w, x, y, d_max, spec: AttackSpec):
    """Minimize y*f(x) within the L2 ball around x, the feature box, and
    optionally the monotone constraint x >= x_hat.

    For a linear score the minimizer over the box-ball intersection is
    z(t) = clip(x - t * y * w); the distance ||z(t) - x|| is non-decreasing
    in t, so the optimal step is found by bisection on the ball constraint
    (KKT of the active-set solution) in BISECTION_STEPS steps.
    """
    w = np.asarray(w, dtype=float)
    x_hat = np.asarray(x, dtype=float)
    lo = np.asarray(spec.box_lower, dtype=float) if spec.box_lower is not None else np.zeros_like(x_hat)
    up = np.asarray(spec.box_upper, dtype=float) if spec.box_upper is not None else np.ones_like(x_hat)
    if np.any(lo > up):
        raise ValueError("infeasible attack box")
    if np.any(x_hat < lo - 1e-12) or np.any(x_hat > up + 1e-12):
        raise ValueError("original sample outside the attack box")
    if spec.monotone_increase_only:
        lo = np.maximum(lo, x_hat)
    if d_max == 0.0 or not np.any(w):
        return np.clip(x_hat, lo, up)

    grad = y * w  # gradient of y * f(x) is constant for linear f

    def point(t):
        return np.clip(x_hat - t * grad, lo, up)

    # the box corner the gradient points away from is the unconstrained limit
    corner = np.where(grad > 0, lo, np.where(grad < 0, up, np.clip(x_hat, lo, up)))
    if np.linalg.norm(corner - x_hat) <= d_max:
        return corner
    t_hi = d_max / np.linalg.norm(grad)
    while np.linalg.norm(point(t_hi) - x_hat) < d_max:
        t_hi *= 2.0
    t_lo = 0.0
    for _ in range(BISECTION_STEPS):
        t_mid = 0.5 * (t_lo + t_hi)
        if np.linalg.norm(point(t_mid) - x_hat) > d_max:
            t_hi = t_mid
        else:
            t_lo = t_mid
    return point(t_lo)


def attack_flip_binary(w, x, y, d_max):
    """Greedy flip of up to d_max binary features in descending |w|, flipping
    only when the flip strictly decreases y*f. Optimal for linear scores."""
    w = np.asarray(w, dtype=float)
    x = np.asarray(x, dtype=float)
    if not np.all(np.isin(x, (0.0, 1.0))):
        raise ValueError("binary flip attack needs binary features")
    d_max = int(d_max)
    order = np.lexsort((np.arange(w.size), -np.abs(w)))
    out = x.copy()
    flips = 0
    for k in order:
        if flips >= d_max:
            break
        yw = y * w[k]
        if yw > 0 and out[k] == 1.0:
            out[k] = 0.0
            flips += 1
        elif yw < 0 and out[k] == 0.0:
            out[k] = 1.0
            flips += 1
    return out


def predict(theta_l: LearnerParams, X, mode: str = "expected", n_draws: int = 1000, seed: int = 0):
    """Scores of samples under the randomized linear classifier.

    expected: mu_w~ . x + mu_b.
    sampled:  mean score over n_draws weight draws, plus positive-vote fraction.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != theta_l.k:
        raise ShapeError("sample dimension inconsistent with learner")
    if mode == "expected":
        scores = X @ theta_l.mu_tilde + theta_l.mu_b
        return scores if scores.size > 1 else float(scores[0])
    if mode != "sampled":
        raise ValueError(f"unknown prediction mode {mode!r}")
    rng = np.random.default_rng(seed)
    W = rng.normal(theta_l.mu_w, theta_l.sigma_w, size=(n_draws, theta_l.k + 1))
    scores = X @ W[:, :-1].T + W[:, -1]  # n_samples x n_draws
    mean_scores = scores.mean(axis=1)
    votes = (scores > 0).mean(axis=1)
    if mean_scores.size == 1:
        return float(mean_scores[0]), float(votes[0])
    return mean_scores, votes


def tp_at_fp(scores_legit, scores_malicious, fp_target):
    """Detection threshold and TP rate at an empirical FP bound.

    Candidate thresholds are midpoints of adjacent sorted legitimate scores
    plus +-inf sentinels; among thresholds with FP <= fp_target the smallest
    (maximizing TP) is chosen. Detection means score >= threshold.
    """
    legit = np.asarray(scores_legit, dtype=float)
    mal = np.asarray(scores_malicious, dtype=float)
    if legit.size == 0 or mal.size == 0:
        raise ValueError("score sequences must be non-empty")
    if not (0.0 < fp_target < 1.0):
        raise ValueError("fp_target must lie in (0, 1)")
    s = np.sort(legit)
    above_all = np.nextafter(s[-1], np.inf)
    candidates = np.concatenate([[-np.inf], 0.5 * (s[:-1] + s[1:]), [above_all, np.inf]])
    for t in candidates:
        fp = float((legit >= t).mean())
        if fp <= fp_target:
            return float(t), float((mal >= t).mean())
    raise AssertionError("unreachable: +inf threshold always satisfies the FP bound")


@dataclass(frozen=True)
class SecurityCurve:
    """TP-at-FP against attack strength, aggregated over repetitions."""

    points: tuple  # (d_max, tp_mean, tp_std) triples
    fp_target: float
    repetitions: int

    def write_csv(self, path, seed=None) -> None:
        rows = ["d_max,tp_mean,tp_std,fp_target,repetitions,seed\n"]
        for d, m, s in self.points:
            rows.append(
                f"{d:.17g},{m:.17g},{s:.17g},{self.fp_target:.17g},"
                f"{self.repetitions},{'' if seed is None else seed}\n"
            )
        atomic_write(path, "".join(rows))

    def auc(self) -> float:
        """Trapezoid-rule area under the curve over the d_max grid."""
        d = np.array([p[0] for p in self.points])
        tp = np.array([p[1] for p in self.points])
        return float(np.trapezoid(tp, d))


def _attack_sample(w, x, y, spec: AttackSpec):
    if spec.d_max == 0.0:
        return np.asarray(x, dtype=float).copy()
    if spec.mode == "l2_closed_form":
        return attack_l2_closed(w, x, y, spec.d_max)
    if spec.mode == "l2_box_pgd":
        return attack_l2_box(w, x, y, spec.d_max, spec)
    return attack_flip_binary(w, x, y, spec.d_max)


def security_curve(
    theta_l: LearnerParams,
    test: Dataset,
    attack: AttackSpec,
    d_max_list,
    repetitions: int = 5,
    seed: int = 0,
    fp_target: float = 0.01,
    subsample: float = 0.8,
) -> SecurityCurve:
    """Attack every malicious test sample at each budget and track TP at the
    fixed FP rate, mean/std over seeded re-subsamplings of the test set."""
    if repetitions < 1:
        raise ValueError("repetitions must be at least 1: a curve needs a measurement")
    d_max_list = [float(d) for d in d_max_list]
    if any(b >= a for a, b in zip(d_max_list[1:], d_max_list)):
        raise ValueError("d_max_list must be strictly increasing")
    w = theta_l.mu_tilde
    b = theta_l.mu_b
    X, y = test.features, test.labels
    mal_idx = np.flatnonzero(y == 1)
    leg_idx = np.flatnonzero(y == -1)
    if mal_idx.size == 0 or leg_idx.size == 0:
        raise ValueError("test set needs both classes")

    tp = np.empty((repetitions, len(d_max_list)))
    for rep in range(repetitions):
        rng = np.random.default_rng(seed + rep)
        mal = rng.choice(mal_idx, size=max(1, int(subsample * mal_idx.size)), replace=False)
        leg = rng.choice(leg_idx, size=max(1, int(subsample * leg_idx.size)), replace=False)
        legit_scores = X[leg] @ w + b
        for j, d in enumerate(d_max_list):
            spec = replace(attack, d_max=d)
            attacked = np.array([_attack_sample(w, X[i], 1.0, spec) for i in mal])
            mal_scores = attacked @ w + b
            _, tp[rep, j] = tp_at_fp(legit_scores, mal_scores, fp_target)

    points = tuple(
        (d, float(tp[:, j].mean()), float(tp[:, j].std())) for j, d in enumerate(d_max_list)
    )
    return SecurityCurve(points=points, fp_target=fp_target, repetitions=repetitions)
