"""Worst-case evasion attacks against linear classifiers and security-evaluation
curves (TP at fixed FP vs. attack budget).

Attacks minimize y * f(x) subject to a distance budget d_max from the original
sample; the attacked decision function is the expected one f(x) = mu_w~.x + mu_b
(the distribution parameters are the only stable object a worst-case attacker
of a randomized classifier can know).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .model import Dataset

ATTACK_MODES = ("l2_closed_form", "l2_box_pgd", "binary_flip")
SUBSAMPLE = 0.8  # share of each class drawn for one repetition of a security curve


class NonBinaryFeatures(ValueError):
    """A binary_flip attack on a row with a value other than 0 or 1."""


def _check_budget(d_max, whole=False) -> float:
    """d_max as a float; ValueError unless it is finite and non-negative and,
    for whole (binary flips), an integer."""
    d = float(d_max)
    if not 0.0 <= d < np.inf:
        raise ValueError(f"attack budget must be finite and non-negative, got {d_max!r}")
    if whole and d != int(d):
        raise ValueError(f"binary_flip requires an integer budget, got {d_max!r}")
    return d


def _check_label(y) -> float:
    """y as a float; ValueError unless it is one label, -1 or +1 (NaN is neither)."""
    if np.ndim(y) != 0 or y not in (-1.0, 1.0):
        raise ValueError(f"an attack takes one label, -1 or +1, got {y!r}")
    return float(y)


def _rows(X):
    """X as float rows (n x k), and whether it came as one 1-D sample."""
    X = np.asarray(X, dtype=float)
    return np.atleast_2d(X), X.ndim == 1


def attack_l2_closed(w, X, y, d_max):
    """Unconstrained L2 attack on each row x of X: x - y * d_max * w / ||w||."""
    d_max, y = _check_budget(d_max), _check_label(y)
    w = np.asarray(w, dtype=float)
    X = np.asarray(X, dtype=float)
    norm = float(np.linalg.norm(w))
    if norm == 0.0:
        warnings.warn("zero weight vector: attack leaves the samples unchanged")
        return X.copy()
    return X - y * d_max * w / norm


def attack_l2_box(w, X, y, d_max, monotone=False):
    """Minimize y*f(x) for each row x_hat of X within the L2 ball around
    x_hat, the unit feature box [0, 1]^k, and with monotone the constraint
    x >= x_hat.

    For a linear score the minimizer over the box-ball intersection is
    z(t) = clip(x_hat - t * g) with g = y * w, at the smallest t with
    ||z(t) - x_hat|| = d_max, or the box corner g points away from when that
    corner lies within the ball. Coordinate j saturates at t_j = D_j / |g_j|,
    D_j its distance to the bound it moves toward, so with the t_j sorted
    ||z(t) - x_hat||^2 = sum_{saturated} D_j^2 + t^2 * sum_{free} g_j^2 is
    piecewise quadratic: an exact breakpoint search (the continuous quadratic
    knapsack pattern, Kiwiel 2008), O(n k log k) for n rows. Only the
    direction of w matters; a coordinate whose weight relative to max|w|
    squares to zero (below about 2e-162) counts as zero and stays put.
    """
    d_max, y = _check_budget(d_max), _check_label(y)
    w = np.asarray(w, dtype=float)
    X_hat, one = _rows(X)
    if np.any(X_hat < -1e-12) or np.any(X_hat > 1.0 + 1e-12):
        raise ValueError("original sample outside the unit feature box")
    lo = np.maximum(X_hat, 0.0) if monotone else 0.0
    up = 1.0
    if d_max == 0.0 or not np.any(w):
        out = np.clip(X_hat, lo, up)
        return out[0] if one else out

    g = y * w / np.abs(w).max()
    g = np.where(g * g > 0.0, g, 0.0)
    moves = g != 0.0
    D = np.maximum(np.where(g > 0.0, X_hat - lo, np.where(moves, up - X_hat, 0.0)), 0.0)
    t = np.divide(D, np.abs(g), out=np.full(D.shape, np.inf), where=moves)  # breakpoints
    order = np.argsort(t, axis=1)
    t = np.take_along_axis(t, order, axis=1)
    D2 = np.take_along_axis(D * D, order, axis=1)
    sat = np.zeros_like(D2)
    np.cumsum(D2[:, :-1], axis=1, out=sat[:, 1:])
    free = np.cumsum((g * g)[order][:, ::-1], axis=1)[:, ::-1]  # reverse sums: no cancellation
    # on the segment ending at breakpoint m, ||z(t) - x_hat||^2 = sat[m] + t^2 free[m];
    # the budget binds on the first segment whose root lies before its end
    finite = np.isfinite(t)
    root = np.divide(
        np.sqrt(np.maximum(d_max**2 - sat, 0.0)), np.sqrt(free),
        out=np.full(t.shape, np.inf), where=finite,
    )
    hit = finite & (root <= t)
    binds = hit.any(axis=1)
    t_star = np.where(binds, root[np.arange(t.shape[0]), hit.argmax(axis=1)], 0.0)
    corner = np.where(g > 0.0, lo, np.where(g < 0.0, up, np.clip(X_hat, lo, up)))
    out = np.where(binds[:, None], np.clip(X_hat - t_star[:, None] * g, lo, up), corner)
    return out[0] if one else out


def _flip_ranks(w, X, y, d_max):
    """Each binary row's first d_max flip candidates in flip order (descending
    |w|, ties by index) as flat indices row * k + column into X, and ranks that
    count the row's candidates up to each; a candidate strictly decreases y*f.
    The order is read once, in column blocks doubling from 2 * d_max, and only
    the rows still short of d_max candidates are compared, counted and ranked."""
    on = X == 1.0
    if np.count_nonzero(on) != np.count_nonzero(X):  # -0.0 is zero; NaN is neither 0 nor 1
        raise NonBinaryFeatures("binary flip attack needs binary features")
    order = np.lexsort((np.arange(X.shape[1]), -np.abs(w)))
    yw = y * np.asarray(w, dtype=float)[order]
    held = np.zeros(X.shape[0], dtype=np.intp)  # candidates so far, per row
    live = np.arange(X.shape[0] if d_max else 0)  # the rows still short of d_max
    found = [(np.empty(0, dtype=np.intp),) * 2]
    start, width = 0, 2 * d_max
    while live.size and start < X.shape[1]:
        cols, ywb = order[start:start + width], yw[start:start + width]
        cand = on[:, cols][live] == (ywb > 0.0)  # on and y*w > 0, or off and y*w < 0
        cand &= ywb != 0.0
        r, c = np.divmod(np.flatnonzero(cand), cols.size)  # row by row
        counts = np.bincount(r, minlength=live.size)
        rank = np.arange(1, r.size + 1) + (held[live] - np.cumsum(counts) + counts)[r]
        keep = rank <= d_max
        found.append((live[r[keep]] * X.shape[1] + cols[c[keep]], rank[keep]))
        held[live] += counts
        live = live[held[live] < d_max]
        start, width = start + width, 2 * width
    return tuple(np.concatenate(part) for part in zip(*found))


def attack_flip_binary(w, X, y, d_max):
    """Greedy flip of up to d_max binary features of each row of X, in
    descending |w| (ties by index) and only where the flip strictly decreases
    y*f: the row's first d_max candidates from `_flip_ranks`. Optimal for
    linear scores."""
    d_max, y = int(_check_budget(d_max, whole=True)), _check_label(y)
    X, one = _rows(X)
    flat, _ = _flip_ranks(w, X, y, d_max)
    out = X.copy()
    out.put(flat, 1.0 - out.take(flat))
    return out[0] if one else out


def _threshold(legit, fp_target):
    """The smallest threshold whose FP rate on the non-empty legitimate scores
    is at most fp_target, among the midpoints of adjacent sorted scores and
    +-inf sentinels; detection means score >= threshold."""
    if not (0.0 < fp_target < 1.0):
        raise ValueError("fp_target must lie in (0, 1)")
    s = np.sort(legit)
    above_all = np.nextafter(s[-1], np.inf)
    candidates = np.concatenate([[-np.inf], 0.5 * (s[:-1] + s[1:]), [above_all, np.inf]])
    # FP(t) = share of legitimate scores >= t never rises with t, so the first
    # candidate within the bound is the smallest feasible threshold
    fp = (s.size - np.searchsorted(s, candidates, side="left")) / s.size
    return float(candidates[np.argmax(fp <= fp_target)])


def tp_at_fp(scores_legit, scores_malicious, fp_target):
    """Detection threshold and TP rate at an empirical FP bound: the smallest
    threshold with FP <= fp_target, which maximizes TP."""
    legit, mal = (np.asarray(s, dtype=float) for s in (scores_legit, scores_malicious))
    if legit.size == 0 or mal.size == 0:
        raise ValueError("score sequences must be non-empty")
    t = _threshold(legit, fp_target)
    return t, float((mal >= t).mean())


@dataclass(frozen=True)
class SecurityCurve:
    """TP-at-FP against attack strength, aggregated over repetitions."""

    points: tuple  # (d_max, tp_mean, tp_std) triples
    fp_target: float
    repetitions: int

    def auc(self) -> float:
        """Trapezoid-rule area under the curve over the d_max grid, which needs
        at least two points: one point has no area, so every curve would tie."""
        if len(self.points) < 2:
            raise ValueError(f"a curve's area needs at least two points, got {len(self.points)}")
        d = np.array([p[0] for p in self.points])
        tp = np.array([p[1] for p in self.points])
        return float(np.trapezoid(tp, d))


def _attack_rows(w, X, mode, d_max, monotone=False):
    """The rows of X attacked as malicious samples (y = +1) with budget d_max
    (monotone applies to l2_box_pgd only); X itself at d_max = 0."""
    if mode not in ATTACK_MODES:
        raise ValueError(f"unknown attack mode {mode!r}")
    if d_max == 0.0:
        return X
    if mode == "l2_closed_form":
        return attack_l2_closed(w, X, 1.0, d_max)
    if mode == "l2_box_pgd":
        return attack_l2_box(w, X, 1.0, d_max, monotone)
    return attack_flip_binary(w, X, 1.0, d_max)


def security_curve(
    mu_w,
    test: Dataset,
    mode: str,
    d_max_list,
    repetitions: int = 5,
    seed: int = 0,
    fp_target: float = 0.01,
) -> SecurityCurve:
    """Attack every malicious test sample at each budget and track TP at the
    fixed FP rate, mean/std over seeded re-subsamplings of the test set, for
    the learner's means mu_w = [w; b] (k + 1 finite values, the first block of
    the flat profile). The legitimate samples are scored once, and each
    repetition's threshold is found once, before the budgets; at each budget
    every malicious sample is attacked and scored once (binary_flip ranks once,
    at the largest budget, and flips in place the entries ranked in (previous
    budget, budget]), and a repetition only indexes its drawn samples' scores."""
    if mode not in ATTACK_MODES:
        raise ValueError(f"unknown attack mode {mode!r}")
    if repetitions < 1:
        raise ValueError("repetitions must be at least 1: a curve needs a measurement")
    d_max_list = [_check_budget(d, whole=mode == "binary_flip") for d in d_max_list]
    if not d_max_list or any(b >= a for a, b in zip(d_max_list[1:], d_max_list)):
        raise ValueError("d_max_list must be non-empty and strictly increasing")
    X, y = test.features, test.labels
    mu_w = np.asarray(mu_w, dtype=float)
    if mu_w.shape != (X.shape[1] + 1,) or not np.isfinite(mu_w).all():
        raise ValueError(f"mu_w must be k + 1 = {X.shape[1] + 1} finite values")
    w, b = mu_w[:-1], float(mu_w[-1])
    mal_idx = np.flatnonzero(y == 1)
    leg_idx = np.flatnonzero(y == -1)
    if mal_idx.size == 0 or leg_idx.size == 0:
        raise ValueError("test set needs both classes")

    legit = X[leg_idx] @ w + b
    draws = []  # per repetition: its drawn positions in mal_idx, and its drawn legit's threshold
    for rep in range(repetitions):
        rng = np.random.default_rng(seed + rep)
        pos, leg = (rng.choice(idx.size, size=max(1, int(SUBSAMPLE * idx.size)), replace=False)
                    for idx in (mal_idx, leg_idx))
        draws.append((pos, _threshold(legit[leg], fp_target)))
    X_mal = X[mal_idx]  # a copy: binary_flip flips in it
    flat = rank = np.empty(0, dtype=np.intp)
    if mode == "binary_flip" and d_max_list[-1] > 0:  # checked binary only if a budget attacks
        flat, rank = _flip_ranks(w, X_mal, 1.0, int(d_max_list[-1]))

    tp = np.empty((repetitions, len(d_max_list)))
    for j, (done, d) in enumerate(zip([0.0] + d_max_list, d_max_list)):
        if mode == "binary_flip":
            new = flat[(rank > done) & (rank <= d)]
            X_mal.put(new, 1.0 - X_mal.take(new))
            scores = X_mal @ w + b
        else:
            scores = _attack_rows(w, X_mal, mode, d) @ w + b
        for rep, (pos, t) in enumerate(draws):
            tp[rep, j] = (scores[pos] >= t).mean()

    points = tuple((d, float(c.mean()), float(c.std())) for d, c in zip(d_max_list, tp.T))
    return SecurityCurve(points=points, fp_target=fp_target, repetitions=repetitions)
