"""Helpers that only the tests need: the flat joint profile of both players'
strategies, a nominal attacker, the (cost_l, cost_d, grad) triple of
costs._evaluation, per-sample margin moments and costs and
gradients written out one sample at a time (independent of the vectorized
evaluation in randgame.costs), an operator that counts its evaluations, an
operator that takes its Newton steps from the dense elimination of its
Jacobian blocks, the deviation coordinates of a game's profile, the
first-order extragradient loop the solver ran before it took Newton steps,
the central finite-difference Jacobian of a pseudo-gradient and the dense
matrix of a block Jacobian (the oracles of the closed-form blocks), and per-sample loop
versions of the batched attacks and of the TP-at-FP threshold search in
randgame.attacks, a security curve that attacks and scores each repetition's
drawn rows separately, and token-by-token readers of the data and parameter files
(the oracles of the bulk parsers in randgame.data and randgame.model)."""

import dataclasses
import math

import numpy as np

from randgame.costs import _evaluation
from randgame.model import Dataset, GameSpec, ParseError
from randgame.ops import dense_newton


def profile(mu_w, sigma_w, mu_x, sigma_x):
    """The flat joint profile [mu_w; sigma_w; mu_x_1; sigma_x_1; ...] of the
    learner's means and deviations mu_w, sigma_w (k + 1 each, the bias last)
    and the attacker's mu_x, sigma_x (n, k), whose row i is sample i's."""
    return np.concatenate([mu_w, sigma_w, np.hstack([mu_x, sigma_x]).ravel()])


def nominal_attacker(game: GameSpec):
    """(mu_x, sigma_x) of the attacker parked at the training points with
    deviations at the box floor."""
    n, k = game.n, game.k
    lower = game.lower[game.dim_l :].reshape(n, 2 * k)
    upper = game.upper[game.dim_l :].reshape(n, 2 * k)
    return np.clip(game.dataset.features, lower[:, :k], upper[:, :k]), lower[:, k:]


def margin_moments(side, y, mu_w, sigma_w, mu_x, sigma_x, M=None):
    """(mean, variance) of the learner margin 1 - y(a.M x + b) or the attacker
    margin 1 + y(a.M x + b) for independent axis-aligned Gaussians [a; b] with
    means mu_w and deviations sigma_w, and x; M defaults to the identity (the
    primal game)."""
    if side not in ("learner", "attacker"):
        raise ValueError(f"unknown side {side!r}")
    M = np.eye(len(mu_w) - 1) if M is None else np.asarray(M, dtype=float)
    mu_a, s2a = mu_w[:-1], sigma_w[:-1] ** 2
    mu_x, s2x = np.asarray(mu_x, dtype=float), np.asarray(sigma_x, dtype=float) ** 2
    Mx, Ma = M @ mu_x, M.T @ mu_a
    sign = -1.0 if side == "learner" else 1.0
    mu = 1.0 + sign * y * (mu_a @ Mx + mu_w[-1])
    var = s2a @ Mx**2 + s2x @ Ma**2 + s2a @ (M * M) @ s2x + sigma_w[-1] ** 2
    return float(mu), float(var)


def _hinge_scalar(mu, sigma):
    """(E[max(0, S)], dE/dmu, dE/d(sigma^2)) for S ~ Normal(mu, sigma^2)."""
    z = mu / sigma
    phi = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    p = 0.5 * math.erfc(-z / math.sqrt(2.0))
    return sigma * phi + mu * p, p, phi / (2.0 * sigma)


def evaluate(theta, *terms):
    """(cost_l, cost_d, grad) of costs._evaluation(theta, *terms): both
    players' costs and the unweighted gradient of each cost in its own block."""
    costs, grad = _evaluation(theta, *terms)
    return *costs(), grad(1.0)


def evaluate_loop(theta, M, anchors, y, rho_l, rho_d, bias_reg):
    """(cost_l, cost_d, flat unweighted gradient) of evaluate for a
    dense symmetric metric M and anchors of shape (n, m) (row i is xhat_i),
    summed one sample at a time from the cost written out term by term and
    its chain rule through E[max(0, S)]."""
    M = np.asarray(M, dtype=float)
    anchors = np.asarray(anchors, dtype=float)
    n, m = anchors.shape
    theta = np.asarray(theta, dtype=float)
    mu_a, mu_b = theta[:m], theta[m]
    sig_a, sig_b = theta[m + 1 : 2 * m + 1], theta[2 * m + 1]
    s2a, M2 = sig_a**2, M * M
    Ma = M @ mu_a
    cost_l = 0.5 * rho_l * (mu_a @ Ma + np.diag(M) @ s2a) + 0.5 * bias_reg * (mu_b**2 + sig_b**2)
    cost_d = 0.0
    g_mu_a, g_sig_a = rho_l * Ma, rho_l * np.diag(M) * sig_a
    g_mu_b, g_sig_b = bias_reg * mu_b, bias_reg * sig_b
    g_rows = []
    for i in range(n):
        row = theta[2 * m + 2 + 2 * m * i : 2 * m + 2 + 2 * m * (i + 1)]
        mu_x, sig_x = row[:m], row[m:]
        s2x = sig_x**2
        Mx = M @ mu_x
        score = mu_a @ Mx + mu_b
        var = s2a @ Mx**2 + s2x @ Ma**2 + s2a @ M2 @ s2x + sig_b**2
        h_s, p_s, v_s = _hinge_scalar(1.0 - y[i] * score, math.sqrt(var))
        h_t, p_t, v_t = _hinge_scalar(1.0 + y[i] * score, math.sqrt(var))
        shifted = mu_x - anchors[i]
        cost_l += h_s
        cost_d += 0.5 * rho_d * (shifted @ M @ shifted + np.diag(M) @ s2x) + h_t
        # d score / d mu_a = Mx; d var / d mu_a = 2 M (s2x * Ma);
        # d var / d sigma_a = 2 sigma_a (Mx^2 + (M*M) s2x)
        g_mu_a = g_mu_a - p_s * y[i] * Mx + v_s * 2.0 * M @ (s2x * Ma)
        g_mu_b -= p_s * y[i]
        g_sig_a = g_sig_a + v_s * 2.0 * sig_a * (Mx**2 + M2 @ s2x)
        g_sig_b += v_s * 2.0 * sig_b
        # d score / d mu_x = Ma; d var / d mu_x = 2 M (s2a * Mx);
        # d var / d sigma_x = 2 sigma_x (Ma^2 + (M*M) s2a)
        g_mu_x = rho_d * M @ shifted + p_t * y[i] * Ma + v_t * 2.0 * M @ (s2a * Mx)
        g_sig_x = rho_d * np.diag(M) * sig_x + v_t * 2.0 * sig_x * (Ma**2 + M2 @ s2a)
        g_rows += [g_mu_x, g_sig_x]
    grad = np.concatenate([g_mu_a, [g_mu_b], g_sig_a, [g_sig_b], *g_rows])
    return float(cost_l), float(cost_d), grad


def counting_operator(ops):
    """A copy of the VIGame ops that appends (name, copy of theta) for each
    costs and pseudo_grad call to the returned list."""
    calls = []

    def counted(name):
        fn = getattr(ops, name)

        def call(theta):
            calls.append((name, np.array(theta, dtype=float)))
            return fn(theta)

        return call

    names = ("costs", "pseudo_grad")
    return dataclasses.replace(ops, **{name: counted(name) for name in names}), calls


def deviation_mask(ops):
    """True at the deviation coordinates of an SVM game operator's flat
    profile: the learner's sigma_a and sigma_b (the second half of its block)
    and the second half of each attacker row, its sigma_x."""
    dev = np.zeros(ops.dim, dtype=bool)
    dev[ops.dim_l // 2 : ops.dim_l] = True
    dev[ops.dim_l :].reshape(-1, ops.row_size)[:, ops.row_size // 2 :] = True
    return dev


def with_dense_newton(ops, jacobian=None):
    """ops with jacobian, by default its own, whose Newton steps are
    dense_newton of that jacobian's blocks: the reference of the primal
    game's closed-form step, and the step of a planted Jacobian."""
    jacobian = ops.jacobian if jacobian is None else jacobian
    return dataclasses.replace(
        ops, jacobian=jacobian, newton=lambda z, g, free: dense_newton(jacobian(z), g, free))


def extragradient_reference(ops, init, epsilon, max_iter):
    """(theta, residual trace) of the adaptive-step extragradient loop alone,
    written out as randgame.solver ran it before it took Newton steps: the
    oracle of the solver's path on an operator without a newton."""
    mu, growth = 0.9, 1.05

    def residual(theta, g):
        return float(np.linalg.norm(ops.project(theta - g) - theta))

    theta = ops.project(np.asarray(init, dtype=float))
    g = ops.pseudo_grad(theta)
    r = residual(theta, g)
    lam, trace = 1.0, []
    for _ in range(max_iter):
        trace.append(r)
        if r <= epsilon:
            break
        while True:
            y = ops.project(theta - lam * g)
            g_y = ops.pseudo_grad(y)
            dy = float(np.linalg.norm(y - theta))
            dg = float(np.linalg.norm(g_y - g))
            if lam * dg <= mu * dy:
                break
            lam = 0.99 * mu * dy / dg
        theta = ops.project(theta - lam * g_y)
        g = ops.pseudo_grad(theta)
        r = residual(theta, g)
        lam *= growth
    return theta, np.asarray(trace)


FD_STEP = 1e-4  # relative central-difference step, h = FD_STEP * (1 + |theta|)


class BoundaryError(ValueError):
    """Evaluation point too close to the feasible-box boundary for central FD."""


def fd_steps(theta, idx, h_step, lower, upper):
    """Per-coordinate FD steps, shrunk so theta +- h stays inside the box."""
    h = h_step * (1.0 + np.abs(theta[idx]))
    room = np.minimum(theta[idx] - lower[idx], upper[idx] - theta[idx]) / 2.0
    if np.any(room < 1e-12 * (1.0 + np.abs(theta[idx]))):
        raise BoundaryError("theta too close to the box boundary for central FD")
    return np.minimum(h, room)


def pseudo_jacobian(ops, theta) -> np.ndarray:
    """Central-difference Jacobian of ops.pseudo_grad (2 * dim calls); column
    j is the derivative along theta_j."""
    theta = np.asarray(theta, dtype=float)
    h = fd_steps(theta, np.arange(ops.dim), FD_STEP, ops.lower, ops.upper)
    J = np.empty((ops.dim, ops.dim))
    for j in range(ops.dim):
        tp = theta.copy(); tp[j] += h[j]
        tm = theta.copy(); tm[j] -= h[j]
        J[:, j] = (ops.pseudo_grad(tp) - ops.pseudo_grad(tm)) / (2.0 * h[j])
    return J


def assemble(blocks) -> np.ndarray:
    """The dense matrix of the block Jacobian (ll, ld, dl, dd): ld[i], dl[i]
    and dd[i] belong to attacker row i, and rows do not see each other."""
    ll, ld, dl, dd = blocks
    n, b, L = dl.shape
    J = np.zeros((L + n * b, L + n * b))
    J[:L, :L] = ll
    J[:L, L:] = ld.transpose(1, 0, 2).reshape(L, n * b)
    J[L:, :L] = dl.reshape(n * b, L)
    for i in range(n):
        J[L + i * b : L + (i + 1) * b, L + i * b : L + (i + 1) * b] = dd[i]
    return J


def attack_l2_box_bisection(w, x, y, d_max, monotone=False, steps=200):
    """The box-L2 attack on one sample in [0, 1]^k by bisection on the step t
    of z(t) = clip(x - t*y*w) until ||z(t) - x|| meets d_max; with monotone,
    z >= x as well."""
    w = np.asarray(w, dtype=float)
    x_hat = np.asarray(x, dtype=float)
    lo = np.maximum(x_hat, 0.0) if monotone else np.zeros_like(x_hat)
    up = np.ones_like(x_hat)
    if d_max == 0.0 or not np.any(w):
        return np.clip(x_hat, lo, up)
    grad = y * w

    def point(t):
        return np.clip(x_hat - t * grad, lo, up)

    corner = np.where(grad > 0, lo, np.where(grad < 0, up, np.clip(x_hat, lo, up)))
    if np.linalg.norm(corner - x_hat) <= d_max:
        return corner
    t_hi = d_max / np.linalg.norm(grad)
    while np.linalg.norm(point(t_hi) - x_hat) < d_max:
        t_hi *= 2.0
    t_lo = 0.0
    for _ in range(steps):
        t_mid = 0.5 * (t_lo + t_hi)
        if np.linalg.norm(point(t_mid) - x_hat) > d_max:
            t_hi = t_mid
        else:
            t_lo = t_mid
    return point(t_lo)


def flip_binary_greedy(w, x, y, d_max):
    """Binary flips of one sample, one feature at a time in descending |w|
    (ties by index), while a flip strictly decreases y*w.x and budget is left."""
    w = np.asarray(w, dtype=float)
    out = np.array(x, dtype=float)
    flips = 0
    for j in np.lexsort((np.arange(w.size), -np.abs(w))):
        if flips >= d_max:
            break
        yw = y * w[j]
        if (yw > 0 and out[j] == 1.0) or (yw < 0 and out[j] == 0.0):
            out[j] = 1.0 - out[j]
            flips += 1
    return out


def tp_at_fp_scan(scores_legit, scores_malicious, fp_target):
    """TP at FP by scanning the candidate thresholds (-inf, midpoints of the
    sorted legitimate scores, just above the largest, +inf) in order and
    taking the first whose FP is within fp_target."""
    legit = np.asarray(scores_legit, dtype=float)
    mal = np.asarray(scores_malicious, dtype=float)
    s = np.sort(legit)
    above_all = np.nextafter(s[-1], np.inf)
    for t in np.concatenate([[-np.inf], 0.5 * (s[:-1] + s[1:]), [above_all, np.inf]]):
        if float((legit >= t).mean()) <= fp_target:
            return float(t), float((mal >= t).mean())
    raise AssertionError("unreachable: +inf threshold always satisfies the FP bound")


def security_curve_per_repetition(mu_w, test, mode, d_max_list, repetitions, seed,
                                  fp_target=0.01):
    """The points of attacks.security_curve by its earlier method: each
    repetition draws its rows from the same seed, attacks its drawn malicious
    rows afresh at every budget and scores them and its drawn legitimate rows
    on their own."""
    from randgame.attacks import SUBSAMPLE, attack_flip_binary, attack_l2_box, attack_l2_closed

    attack = {"l2_closed_form": attack_l2_closed, "l2_box_pgd": attack_l2_box,
              "binary_flip": attack_flip_binary}[mode]
    w, b = mu_w[:-1], mu_w[-1]
    mal, leg = np.flatnonzero(test.labels == 1), np.flatnonzero(test.labels == -1)
    tp = np.empty((repetitions, len(d_max_list)))
    for rep in range(repetitions):
        rng = np.random.default_rng(seed + rep)
        drawn = test.features[rng.choice(mal, size=max(1, int(SUBSAMPLE * mal.size)),
                                          replace=False)]
        legit = test.features[rng.choice(leg, size=max(1, int(SUBSAMPLE * leg.size)),
                                         replace=False)] @ w + b
        for j, d in enumerate(d_max_list):
            tp[rep, j] = tp_at_fp_scan(legit, attack(w, drawn, 1.0, d) @ w + b, fp_target)[1]
    return tuple((float(d), float(tp[:, j].mean()), float(tp[:, j].std()))
                 for j, d in enumerate(d_max_list))


def _label_token(tok, path, lineno):
    try:
        val = float(tok)
    except ValueError:
        raise ParseError(f"{path}:{lineno}: bad label {tok!r}") from None
    if val not in (-1.0, 1.0):
        raise ParseError(f"{path}:{lineno}: label must be -1 or +1, got {tok!r}")
    return val


def _read_dataset(path, X, labels, kind):
    try:
        return Dataset(X, np.array(labels), kind)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def load_dense_tokens(path):
    """load_dense_csv one line and one value at a time."""
    labels, rows = [], []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            toks = line.split(",")
            labels.append(_label_token(toks[0], path, lineno))
            try:
                rows.append([float(t) for t in toks[1:]])
            except ValueError:
                raise ParseError(f"{path}:{lineno}: malformed feature value") from None
            if len(rows[-1]) != len(rows[0]):
                raise ParseError(f"{path}:{lineno}: inconsistent feature count")
    if not rows:
        raise ParseError(f"{path}: no samples")
    return _read_dataset(path, np.array(rows), labels, "continuous_unit_interval")


def load_sparse_tokens(path):
    """load_sparse one line and one idx:value token at a time."""
    labels, rows, cols, vals = [], [], [], []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            toks = line.split()
            labels.append(_label_token(toks[0], path, lineno))
            for tok in toks[1:]:
                if ":" not in tok:
                    raise ParseError(f"{path}:{lineno}: expected idx:value, got {tok!r}")
                idx_s, _, val_s = tok.partition(":")
                try:
                    idx, val = int(idx_s), float(val_s)
                except ValueError:
                    raise ParseError(f"{path}:{lineno}: malformed idx:value {tok!r}") from None
                if idx < 1:
                    raise ParseError(f"{path}:{lineno}: indices are 1-based")
                rows.append(len(labels) - 1)
                cols.append(idx - 1)
                vals.append(val)
    if not labels:
        raise ParseError(f"{path}: no samples")
    X = np.zeros((len(labels), max(cols, default=-1) + 1))
    X[rows, cols] = vals
    kind = "binary" if np.isin(X[rows, cols], (0.0, 1.0)).all() else "continuous_unit_interval"
    return _read_dataset(path, X, labels, kind)


def load_flat_tokens(path):
    """load_flat_csv one value at a time, from the whole file's text."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not UTF-8 text") from None
    if not lines[0].strip():
        raise ParseError(f"{path}: empty parameter file")
    try:
        if any(line.strip() for line in lines[1:]):
            raise ValueError("a second line")
        v = np.array([float(tok) for tok in lines[0].split(",")], dtype=float)
    except ValueError:
        raise ParseError(f"{path}: expected one line of comma-separated numbers") from None
    if not np.isfinite(v).all():
        raise ParseError(f"{path}: non-finite parameter value")
    return v
