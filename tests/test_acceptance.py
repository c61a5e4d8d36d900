"""End-to-end acceptance gate.

Each test exercises one library-level guarantee against an independent
oracle (Monte Carlo, finite differences, exhaustive enumeration, or a
random feasible search) and prints a single PASS/FAIL line.
"""

import time
from itertools import combinations

import numpy as np

from oracles import counting_operator, deviation_mask, evaluate, nominal_attacker, profile
from randgame.attacks import (
    attack_flip_binary,
    attack_l2_box,
    attack_l2_closed,
    tp_at_fp,
)
from randgame.costs import _primal_terms, game_operator, train_baseline_svm
from randgame.data import synth_2d
from randgame.diagnostics import uniqueness_margin
from randgame.hinge import hinge_expect
from randgame.kernel import Kernel, _dual_terms, check_psd, gram
from randgame.model import Dataset, GameSpec, default_boxes
from randgame.ops import VIGame
from randgame.solver import (
    SolverConfig,
    extragradient_solve,
    initial_point,
    nash_verify,
    vi_residual,
)


def _report(num: int, desc: str, ok: bool, detail: str = ""):
    tail = f" ({detail})" if detail else ""
    print(f"\ncriterion {num:02d}: {'PASS' if ok else 'FAIL'} - {desc}{tail}")
    assert ok, f"criterion {num:02d} failed: {desc}{tail}"


def _fd_gradient(f, v, h=1e-6):
    g = np.empty_like(v)
    for i in range(v.size):
        vp = v.copy(); vp[i] += h
        vm = v.copy(); vm[i] -= h
        g[i] = (f(vp) - f(vm)) / (2 * h)
    return g


def _rel_err(analytic, fd):
    return float(np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-12))


def test_criterion_01_hinge_expectation_monte_carlo():
    start = time.perf_counter()
    n = 10_000_000
    worst = 0.0
    rng = np.random.default_rng(0)
    for mu in (-2.0, -1.0, 0.0, 1.0, 2.0):
        for sigma in (0.1, 1.0, 3.0):
            total = sq = 0.0
            for _ in range(10):  # stream in chunks to bound memory
                d = np.maximum(rng.normal(mu, sigma, size=n // 10), 0.0)
                total += d.sum()
                sq += (d * d).sum()
            mean = total / n
            se = np.sqrt(max(sq / n - mean**2, 0.0) / n)
            gap = abs(hinge_expect(mu, sigma)[0] - mean)
            # deep in the negative tail every draw rectifies to exactly zero
            worst = max(worst, gap / se if se > 0 else (0.0 if gap < 1e-12 else np.inf))
    elapsed = time.perf_counter() - start
    _report(
        1,
        "closed-form rectified-Gaussian expectation within 4 SE of 1e7-draw Monte Carlo",
        worst <= 4.0 and elapsed < 30.0,
        f"worst deviation {worst:.2f} SE, {elapsed:.1f}s",
    )


def test_criterion_02_gradients_match_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(2, 11))
        k = int(rng.integers(2, 7))
        X = rng.uniform(size=(n, k))
        y = rng.choice([-1.0, 1.0], size=n)
        if np.all(y == y[0]):
            y[0] = -y[0]
        lb, ab = default_boxes(n, k, W=2.0)
        game = GameSpec(Dataset(X, y), 2.0, 3.0, lb, ab, bias_reg=0.5)
        mu_w, sigma_w = rng.normal(scale=0.5, size=k + 1), rng.uniform(0.05, 0.3, size=k + 1)
        mu_x, sigma_x = rng.uniform(size=(n, k)), rng.uniform(0.05, 0.3, size=(n, k))
        terms = _primal_terms(game)
        m = k + 1
        vl = np.concatenate([mu_w, sigma_w])
        g = evaluate(profile(mu_w, sigma_w, mu_x, sigma_x), *terms)[2]
        fd = _fd_gradient(
            lambda v: evaluate(profile(v[:m], v[m:], mu_x, sigma_x), *terms)[0], vl
        )
        worst = max(worst, _rel_err(g[: game.dim_l], fd))

        va = np.concatenate([mu_x.ravel(), sigma_x.ravel()])
        fd = _fd_gradient(
            lambda v: evaluate(
                profile(mu_w, sigma_w, v[: n * k].reshape(n, k), v[n * k :].reshape(n, k)),
                *terms,
            )[1],
            va,
        )
        # the flat layout interleaves each sample's (mu_x_i, sigma_x_i) rows
        g_d = g[game.dim_l :].reshape(n, 2, k).transpose(1, 0, 2).ravel()
        worst = max(worst, _rel_err(g_d, fd))

    for trial in range(20):
        n = int(rng.integers(2, 7))
        A = rng.normal(size=(n, n))
        K = A @ A.T / n + 0.1 * np.eye(n)
        y = rng.choice([-1.0, 1.0], size=n)
        mu_a, s_a = rng.normal(scale=0.5, size=n), rng.uniform(0.05, 0.3, size=n)
        mu_b, s_b = rng.normal(scale=0.3), rng.uniform(0.05, 0.3)
        v = profile(np.append(mu_a, mu_b), np.append(s_a, s_b),
                    rng.normal(scale=0.5, size=(n, n)), rng.uniform(0.05, 0.3, size=(n, n)))
        check_psd(K)
        terms = _dual_terms(K, y, 2.0, 3.0, 0.5)
        _, _, g = evaluate(v, *terms)

        def cl(vv):
            return evaluate(vv, *terms)[0]

        def cd(vv):
            return evaluate(vv, *terms)[1]

        m = 2 * n + 2
        worst = max(worst, _rel_err(g[:m], _fd_gradient(cl, v)[:m]))
        worst = max(worst, _rel_err(g[m:], _fd_gradient(cd, v)[m:]))

    elapsed = time.perf_counter() - start
    _report(
        2,
        "learner/attacker/dual gradient blocks match central finite differences",
        worst <= 1e-5 and elapsed < 60.0,
        f"worst relative error {worst:.2e}, {elapsed:.1f}s",
    )


def _sampled_margin_moments(rng, y, draw_score, n_draws=10_000_000, chunks=10):
    """Mean and variance of the learner margin 1 - y * score from n_draws
    samples of draw_score(rng, m), drawn in chunks of m."""
    m = n_draws // chunks
    total = sq = 0.0
    for _ in range(chunks):
        s = 1.0 - y * draw_score(rng, m)
        total += s.sum()
        sq += (s * s).sum()
    mean = total / n_draws
    return mean, sq / n_draws - mean**2, n_draws


def _moment_deviation(captured, i, sampled):
    """Largest deviation, in standard errors, of the (mu, sigma) arrays that
    costs._evaluation passed to hinge_expect in its one call (row 0 the learner's
    margins, row 1 the attacker's) at sample i from the sampled margin
    moments; the attacker's margin 1 + y * score has mean 2 - mean."""
    mean, var, n_draws = sampled
    [((mu_s, mu_t), (sig_s, sig_t))] = captured
    se_mean, se_var = np.sqrt(var / n_draws), var * np.sqrt(2.0 / (n_draws - 1))
    return max(
        abs(mu_s[i] - mean) / se_mean,
        abs(mu_t[i] - (2.0 - mean)) / se_mean,
        abs(sig_s[i] ** 2 - var) / se_var,
        abs(sig_t[i] ** 2 - var) / se_var,
    )


def _normal(rng, loc, scale, size):
    """rng.normal(loc, scale, size) bit for bit, with no temporaries."""
    z = rng.standard_normal(size)
    z *= scale
    z += loc
    return z


def test_criterion_03_margin_moments_match_sampling(hinge_inputs):
    # Each seed checks one sample i of a profile whose other samples come from
    # a separate stream, so the captured arrays must also keep rows apart.
    loc, scale = np.array([0.5, -1.0, 2.0, 0.0]), np.array([0.1, 0.3, 0.05, 0.4])
    assert np.array_equal(_normal(np.random.default_rng(0), loc, scale, (1000, 4)),
                          np.random.default_rng(0).normal(loc, scale, (1000, 4)))
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(10 + seed)
        k = 4
        mu_w, sigma_w = rng.normal(size=k + 1), rng.uniform(0.05, 0.4, size=k + 1)
        mu_x = rng.uniform(size=k)
        sigma_x = rng.uniform(0.05, 0.3, size=k)
        y = float(rng.choice([-1.0, 1.0]))
        n, i = 3, seed % 3
        other = np.random.default_rng(70 + seed)
        mu_rows, sig_rows = other.uniform(size=(n, k)), other.uniform(0.05, 0.3, size=(n, k))
        mu_rows[i], sig_rows[i] = mu_x, sigma_x
        labels = np.resize([1.0, -1.0], n)
        labels[i] = y
        lb, ab = default_boxes(n, k, W=1.0)
        game = GameSpec(Dataset(mu_rows, labels), 1.0, 1.0, lb, ab)
        hinge_inputs.clear()
        game_operator(game).pseudo_grad(profile(mu_w, sigma_w, mu_rows, sig_rows))

        def primal_score(rng, m):
            w = _normal(rng, mu_w[:-1], sigma_w[:-1], (m, k))
            b = _normal(rng, mu_w[-1], sigma_w[-1], m)
            x = _normal(rng, mu_x, sigma_x, (m, k))
            return np.vecdot(w, x) + b

        sampled = _sampled_margin_moments(rng, y, primal_score)
        worst = max(worst, _moment_deviation(hinge_inputs, i, sampled))

    for seed in range(5):
        rng = np.random.default_rng(40 + seed)
        n = 4
        A = rng.normal(size=(n, n))
        K = A @ A.T / n + 0.1 * np.eye(n)
        mu_a = rng.normal(scale=0.5, size=n)
        s_a = rng.uniform(0.05, 0.3, size=n)
        mu_b, s_b = float(rng.normal(scale=0.3)), float(rng.uniform(0.05, 0.3))
        mu_xi = rng.normal(scale=0.5, size=n)
        s_xi = rng.uniform(0.05, 0.3, size=n)
        y = float(rng.choice([-1.0, 1.0]))
        i = seed % n
        other = np.random.default_rng(80 + seed)
        mu_rows, sig_rows = other.normal(scale=0.5, size=(n, n)), other.uniform(0.05, 0.3, size=(n, n))
        mu_rows[i], sig_rows[i] = mu_xi, s_xi
        labels = np.resize([1.0, -1.0], n)
        labels[i] = y
        hinge_inputs.clear()
        check_psd(K)
        evaluate(profile(np.append(mu_a, mu_b), np.append(s_a, s_b), mu_rows, sig_rows),
                 *_dual_terms(K, labels, 1.0, 1.0, 0.0))

        def dual_score(rng, m):
            a = _normal(rng, mu_a, s_a, (m, n))
            b = _normal(rng, mu_b, s_b, m)
            xi = _normal(rng, mu_xi, s_xi, (m, n))
            return np.vecdot(a @ K, xi) + b

        sampled = _sampled_margin_moments(rng, y, dual_score)
        worst = max(worst, _moment_deviation(hinge_inputs, i, sampled))
    _report(
        3,
        "the primal and dual margin moments that the costs feed to hinge_expect lie "
        "within 4 SE of 1e7 joint Gaussian draws",
        worst <= 4.0,
        f"worst deviation {worst:.2f} SE",
    )


def _bilinear():
    return VIGame(
        dim_l=1,
        lower=np.full(2, -5.0),
        upper=np.full(2, 5.0),
        costs=lambda v: (0.5 * v[0] ** 2 + v[0] * v[1], 0.5 * v[1] ** 2 - v[0] * v[1]),
        pseudo_grad=lambda v: np.array([v[0] + v[1], v[1] - v[0]]),
    )


def test_criterion_04_solver_on_toy_games():
    g = _bilinear()
    res = extragradient_solve(g, np.array([3.0, -4.0]), SolverConfig(epsilon=1e-8))
    ok_origin = np.linalg.norm(res.theta) <= 1e-6 and res.iterations <= 500
    ok_resid = vi_residual(res.theta, g) <= 1e-6
    ok_nash = nash_verify(res.theta, g, tol=1e-6)

    pinned = VIGame(
        dim_l=1,
        lower=np.zeros(2),
        upper=np.ones(2),
        costs=lambda v: (2.0 * v[0], 3.0 * v[1]),
        pseudo_grad=lambda v: np.array([2.0, 3.0]),
    )
    res_b = extragradient_solve(pinned, np.array([0.7, 0.4]), SolverConfig(epsilon=1e-12))
    ok_boundary = np.allclose(res_b.theta, 0.0, atol=1e-10)
    _report(
        4,
        "extragradient solves the bilinear toy game and the boundary-pinned case",
        ok_origin and ok_resid and ok_nash and ok_boundary,
        f"|theta|={np.linalg.norm(res.theta):.1e}, iters={res.iterations}, "
        f"residual={vi_residual(res.theta, g):.1e}",
    )


def test_criterion_05_nash_property_on_the_svm_game():
    ds = synth_2d(25, 0.4, 0)  # 50 samples
    lb, ab = default_boxes(ds.n, ds.k, W=1.0)
    game = GameSpec(ds, 10.0, 10.0, lb, ab)
    ops, evals = counting_operator(game_operator(game))
    # Every deviation is dominated (costs module docstring), so each one ends
    # on its floor. The exception is sigma_b: with bias_reg = 0 its entry
    # 2 sigma_b sum(v) underflows to about 0 and does not move it.
    dev = deviation_mask(ops)
    dev[ops.dim_l - 1] = False
    fails, off_floor, most = [], [], 0
    for seed in range(5):
        res = extragradient_solve(game_operator(game), initial_point(game, seed))
        evals.clear()
        if not (
            res.converged and res.residual <= 1e-6 and nash_verify(res.theta, ops, tol=1e-4)
        ):
            fails.append(seed)
        if not np.array_equal(res.theta[dev], ops.lower[dev]):
            off_floor.append(seed)
        most = max(most, len(evals))
    _report(
        5,
        "equilibria of the n=50 synthetic game reach residual 1e-6 and pass the Nash "
        "check at 1e-4 for 5 seeds, each in at most 110 operator evaluations, with "
        "every deviation but sigma_b on its floor",
        not fails and not off_floor and most <= 110,
        f"failing seeds: {fails}, off the floor: {off_floor}, at most {most} evaluations",
    )


def test_criterion_06_attack_oracles():
    rng = np.random.default_rng(2)
    ok_closed = True
    for _ in range(20):
        w = rng.normal(size=5)
        x = rng.uniform(size=5)
        d_max = float(rng.uniform(0.1, 2.0))
        drop = w @ x - w @ attack_l2_closed(w, x, 1.0, d_max)
        ok_closed &= abs(drop - d_max * np.linalg.norm(w)) <= 1e-9

    ok_box = True
    for _ in range(10):
        k = 3
        w = rng.normal(size=k)
        b = float(rng.normal())
        x = rng.uniform(0.2, 0.8, size=k)
        d_max = float(rng.uniform(0.2, 0.8))
        adv = attack_l2_box(w, x, 1.0, d_max)
        u = rng.normal(size=(10_000, k))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        radii = d_max * rng.uniform(size=(10_000, 1)) ** (1.0 / k)
        cand = np.clip(x + radii * u, 0.0, 1.0)
        ok_box &= w @ adv + b <= (cand @ w + b).min() + 1e-9

    ok_flip = True
    for _ in range(50):
        k = int(rng.integers(4, 13))
        d_max = int(rng.integers(0, 4))
        w = rng.normal(size=k)
        x = rng.integers(0, 2, size=k).astype(float)
        y = float(rng.choice([-1.0, 1.0]))
        best = y * (w @ x)
        for r in range(1, d_max + 1):
            for subset in combinations(range(k), r):
                z = x.copy()
                z[list(subset)] = 1.0 - z[list(subset)]
                best = min(best, y * (w @ z))
        ok_flip &= abs(y * (w @ attack_flip_binary(w, x, y, d_max)) - best) <= 1e-12
    _report(
        6,
        "closed-form drop exact; box attack unbeaten by random search; "
        "greedy flips equal exhaustive enumeration",
        ok_closed and ok_box and ok_flip,
    )


def test_criterion_07_deterministic_svm_limit():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(10):
        n, k = 6, 3
        X = rng.uniform(size=(n, k))
        y = rng.choice([-1.0, 1.0], size=n)
        if np.all(y == y[0]):
            y[0] = -y[0]
        lb, ab = default_boxes(n, k, W=2.0)
        game = GameSpec(Dataset(X, y), 1.7, 1.0, lb, ab)
        m = k + 1
        mu_w = rng.normal(scale=0.5, size=m)
        theta = profile(mu_w, np.full(m, game.lower[m]), *nominal_attacker(game))
        margins = 1.0 - y * (X @ mu_w[:-1] + mu_w[-1])
        det = 0.5 * game.rho_l * mu_w[:-1] @ mu_w[:-1] + np.maximum(margins, 0).sum()
        worst = max(worst, abs(evaluate(theta, *_primal_terms(game))[0] - det))
    _report(
        7,
        "learner cost at the deviation floor reproduces the deterministic C-SVM objective",
        worst <= 1e-3,
        f"worst gap {worst:.2e}",
    )


def test_criterion_08_identity_kernel_reduces_to_primal():
    n = 4
    ds = Dataset(np.eye(n), np.array([1.0, -1.0, 1.0, -1.0]))  # orthonormal samples
    K = gram(ds, Kernel("linear"))
    rng = np.random.default_rng(4)
    mu_xi = rng.uniform(size=(n, n))
    mu_a, s_a = rng.normal(scale=0.5, size=n), rng.uniform(0.05, 0.3, size=n)
    mu_b, s_b = rng.normal(scale=0.3), rng.uniform(0.05, 0.3)
    # the dual strategies are the primal flat profile with k = n
    theta = profile(np.append(mu_a, mu_b), np.append(s_a, s_b), mu_xi,
                    rng.uniform(0.05, 0.3, size=(n, n)))
    lb, ab = default_boxes(n, n, W=2.0)
    game = GameSpec(ds, 2.0, 3.0, lb, ab)
    check_psd(K)
    cl, cd, g = evaluate(theta, *_dual_terms(K, ds.labels, game.rho_l, game.rho_d, 0.0))
    pg = game_operator(game).pseudo_grad(theta)
    # with k = n the dual and primal flat layouts coincide
    g[game.dim_l :] *= game.rho_l / game.rho_d
    primal_l, primal_d, _ = evaluate(theta, *_primal_terms(game))
    gap = max(
        abs(cl - primal_l),
        abs(cd - primal_d),
        float(np.abs(g[: game.dim_l] - pg[: game.dim_l]).max()),
        float(np.abs(g[game.dim_l :] - pg[game.dim_l :]).max()),
    )
    ok = np.array_equal(K, np.eye(n)) and gap <= 1e-12
    _report(
        8,
        "identity-kernel dual game reproduces primal costs and pseudo-gradient",
        ok,
        f"max gap {gap:.1e}",
    )


def test_criterion_09_uniqueness_diagnostics():
    rng = np.random.default_rng(5)
    X = rng.uniform(size=(3, 2))
    y = np.array([-1.0, 1.0, 1.0])
    lb, ab = default_boxes(3, 2, W=0.5)

    plain = game_operator(GameSpec(Dataset(X, y), 1.0, 1.0, lb, ab))
    rep_plain = uniqueness_margin(plain, n_profiles=5, seed=0, n_pairs=5)
    ok_flat = rep_plain.lambda_omega_l == 0.0  # the bias direction is unregularized

    strong = game_operator(
        GameSpec(Dataset(X, y), 100.0, 100.0, lb, ab, bias_reg=1.0)
    )
    rep = uniqueness_margin(strong, n_profiles=50, seed=0, n_pairs=50)
    ok_margin = rep.uniqueness_margin > 0.0
    ok_eigs = min(rep.min_jacobian_eig) > 0.0
    _report(
        9,
        "bias-unregularized game reports a flat direction; the regularized "
        "rho=100 game certifies uniqueness on 50 sampled profiles",
        ok_flat and ok_margin and ok_eigs,
        f"margin {rep.uniqueness_margin:.3g}, min Jacobian eig {min(rep.min_jacobian_eig):.3g}",
    )


def test_criterion_10_security_gain_over_baseline():
    start = time.perf_counter()
    seeds = range(5)
    d_grid = (0.5, 1.0)
    tp = {"base": {d: [] for d in d_grid}, "eq": {d: [] for d in d_grid}}
    shift_ok = []
    for seed in seeds:
        ds = synth_2d(500, 0.4, seed)
        rng = np.random.default_rng(seed + 1000)
        tr_idx, te_idx = [], []
        for lab in (-1.0, 1.0):  # class-balanced training subsample
            cls = np.flatnonzero(ds.labels == lab)
            perm = rng.permutation(cls)
            tr_idx.append(perm[:30])
            te_idx.append(perm[30:500])
        train = Dataset(
            ds.features[np.concatenate(tr_idx)], ds.labels[np.concatenate(tr_idx)]
        )
        test = Dataset(
            ds.features[np.concatenate(te_idx)], ds.labels[np.concatenate(te_idx)]
        )

        w_base, b_base = train_baseline_svm(train, C=1.0)
        lb, ab = default_boxes(train.n, train.k, W=1.0)
        game = GameSpec(train, 10.0, 10.0, lb, ab)
        theta = extragradient_solve(game_operator(game), initial_point(game, seed)).theta
        mu_w = theta[: train.k + 1]

        legit = test.features[test.labels == -1]
        mal = test.features[test.labels == 1]
        for name, (w, b) in (
            ("base", (w_base, b_base)),
            ("eq", (mu_w[:-1], mu_w[-1])),
        ):
            s_legit = legit @ w + b
            for d_max in d_grid:
                adv = attack_l2_box(w, mal, 1.0, d_max)
                _, rate = tp_at_fp(s_legit, adv @ w + b, 0.01)
                tp[name][d_max].append(rate)
        # boundary shift: the legitimate-class score (negative normalized
        # margin) must strictly decrease, i.e. the boundary moves toward the
        # legitimate cluster
        base_score = -float(np.mean(legit @ w_base + b_base)) / np.linalg.norm(w_base)
        w_eq = mu_w[:-1]
        eq_score = -float(np.mean(legit @ w_eq + mu_w[-1])) / np.linalg.norm(w_eq)
        shift_ok.append(eq_score < base_score)

    elapsed = time.perf_counter() - start
    tp_ok = all(
        np.mean(tp["eq"][d]) >= np.mean(tp["base"][d]) for d in d_grid
    )
    detail = ", ".join(
        f"d={d}: eq {np.mean(tp['eq'][d]):.3f} vs base {np.mean(tp['base'][d]):.3f}"
        for d in d_grid
    )
    _report(
        10,
        "equilibrium classifier matches or beats the baseline under the box "
        "attack and shifts its boundary toward the legitimate class",
        tp_ok and all(shift_ok) and elapsed < 600.0,
        f"{detail}; shift on {sum(shift_ok)}/5 seeds; {elapsed:.0f}s",
    )


def test_criterion_11_cli_determinism(tmp_path):
    from randgame.cli import main

    outs = []
    for run in ("first", "second"):
        d = tmp_path / run
        d.mkdir()
        data, params, curve = d / "data.csv", d / "eq.csv", d / "curve.csv"
        cfg = d / "game.cfg"
        cfg.write_text("rho_l=10\nrho_d=10\nW=1\nseed=3\nmax_iter=2000\n")
        assert main(["gen-synth", "--n", "10", "--seed", "4", "--out", str(data)]) == 0
        assert main(["train", "--data", str(data), "--game", str(cfg), "--out", str(params)]) == 0
        assert main([
            "secure-eval", "--params", str(params), "--data", str(data),
            "--dmax-list", "0,0.5,1.0", "--reps", "3", "--seed", "9",
            "--out", str(curve),
        ]) == 0
        outs.append((data.read_bytes(), params.read_bytes(), curve.read_bytes()))
    _report(
        11,
        "seeded CLI pipeline produces byte-identical CSVs across two runs",
        outs[0] == outs[1],
    )
