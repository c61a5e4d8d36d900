"""End-to-end acceptance gate.

Each test exercises one library-level guarantee against an independent
oracle (Monte Carlo, finite differences, exhaustive enumeration, or a
random feasible search) and prints a single PASS/FAIL line.
"""

import time
from itertools import combinations

import numpy as np

from oracles import counting_operator, nominal_attacker
from randgame.attacks import (
    AttackSpec,
    attack_flip_binary,
    attack_l2_box,
    attack_l2_closed,
    tp_at_fp,
)
from randgame.costs import costs_and_grads, game_operator, train_baseline_svm
from randgame.data import synth_2d
from randgame.diagnostics import uniqueness_margin
from randgame.hinge import hinge_expect
from randgame.kernel import Kernel, dual_costs_and_grads, gram
from randgame.model import (
    AttackerParams,
    Dataset,
    GameSpec,
    LearnerParams,
    default_boxes,
    flatten,
    unflatten,
)
from randgame.ops import VIGame
from randgame.solver import (
    SolverConfig,
    extragradient_solve,
    initial_point,
    nash_verify,
    solve_svm_game,
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
        theta_l = LearnerParams(
            rng.normal(scale=0.5, size=k + 1), rng.uniform(0.05, 0.3, size=k + 1)
        )
        theta_d = AttackerParams(
            rng.uniform(size=(n, k)), rng.uniform(0.05, 0.3, size=(n, k))
        )
        m = k + 1
        vl = np.concatenate([theta_l.mu_w, theta_l.sigma_w])
        g = costs_and_grads(theta_l, theta_d, game)[2]
        fd = _fd_gradient(
            lambda v: costs_and_grads(LearnerParams(v[:m], v[m:]), theta_d, game)[0], vl
        )
        worst = max(worst, _rel_err(g[: game.dim_l], fd))

        va = np.concatenate([theta_d.mu_x.ravel(), theta_d.sigma_x.ravel()])
        fd = _fd_gradient(
            lambda v: costs_and_grads(
                theta_l,
                AttackerParams(v[: n * k].reshape(n, k), v[n * k :].reshape(n, k)),
                game,
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
        theta_l = LearnerParams(np.append(mu_a, mu_b), np.append(s_a, s_b))
        theta_d = AttackerParams(
            rng.normal(scale=0.5, size=(n, n)), rng.uniform(0.05, 0.3, size=(n, n))
        )
        _, _, g = dual_costs_and_grads(theta_l, theta_d, K, 2.0, 3.0, y, bias_reg=0.5)
        v = flatten(theta_l, theta_d)

        def cl(vv):
            c, _, _ = dual_costs_and_grads(*unflatten(vv, n, n), K, 2.0, 3.0, y, 0.5)
            return c

        def cd(vv):
            _, c, _ = dual_costs_and_grads(*unflatten(vv, n, n), K, 2.0, 3.0, y, 0.5)
            return c

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
    costs.evaluate passed to hinge_expect at sample i from the sampled margin
    moments; the attacker's margin 1 + y * score has mean 2 - mean."""
    mean, var, n_draws = sampled
    (mu_s, sig_s), (mu_t, sig_t) = captured
    se_mean, se_var = np.sqrt(var / n_draws), var * np.sqrt(2.0 / (n_draws - 1))
    return max(
        abs(mu_s[i] - mean) / se_mean,
        abs(mu_t[i] - (2.0 - mean)) / se_mean,
        abs(sig_s[i] ** 2 - var) / se_var,
        abs(sig_t[i] ** 2 - var) / se_var,
    )


def test_criterion_03_margin_moments_match_sampling(hinge_inputs):
    # Each seed checks one sample i of a profile whose other samples come from
    # a separate stream, so the captured arrays must also keep rows apart.
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(10 + seed)
        k = 4
        theta_l = LearnerParams(
            rng.normal(size=k + 1), rng.uniform(0.05, 0.4, size=k + 1)
        )
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
        costs_and_grads(theta_l, AttackerParams(mu_rows, sig_rows), game)

        def primal_score(rng, m):
            w = rng.normal(theta_l.mu_tilde, theta_l.sigma_tilde, size=(m, k))
            b = rng.normal(theta_l.mu_b, theta_l.sigma_b, size=m)
            x = rng.normal(mu_x, sigma_x, size=(m, k))
            return (w * x).sum(axis=1) + b

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
        dual_costs_and_grads(
            LearnerParams(np.append(mu_a, mu_b), np.append(s_a, s_b)),
            AttackerParams(mu_rows, sig_rows), K, 1.0, 1.0, labels,
        )

        def dual_score(rng, m):
            a = rng.normal(mu_a, s_a, size=(m, n))
            b = rng.normal(mu_b, s_b, size=m)
            xi = rng.normal(mu_xi, s_xi, size=(m, n))
            return np.einsum("ij,jk,ik->i", a, K, xi) + b

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
        dim_d=1,
        lower=np.full(2, -5.0),
        upper=np.full(2, 5.0),
        cost_l=lambda v: 0.5 * v[0] ** 2 + v[0] * v[1],
        cost_d=lambda v: 0.5 * v[1] ** 2 - v[0] * v[1],
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
        dim_d=1,
        lower=np.zeros(2),
        upper=np.ones(2),
        cost_l=lambda v: 2.0 * v[0],
        cost_d=lambda v: 3.0 * v[1],
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
    fails, most = [], 0
    for seed in range(5):
        _, _, res = solve_svm_game(game, initial_point(game, seed))
        evals.clear()
        if not (
            res.converged and res.residual <= 1e-6 and nash_verify(res.theta, ops, tol=1e-4)
        ):
            fails.append(seed)
        most = max(most, len(evals))
    _report(
        5,
        "equilibria of the n=50 synthetic game reach residual 1e-6 and pass the Nash "
        "check at 1e-4 for 5 seeds, each in at most 110 operator evaluations",
        not fails and most <= 110,
        f"failing seeds: {fails}, at most {most} evaluations",
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
        spec = AttackSpec(
            d_max=d_max, mode="l2_box_pgd", box_lower=np.zeros(k), box_upper=np.ones(k)
        )
        adv = attack_l2_box(w, x, 1.0, d_max, spec)
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
        theta_l = LearnerParams(mu_w, np.full(m, game.learner_box.lower[m]))
        theta_d = nominal_attacker(game)
        margins = 1.0 - y * (X @ mu_w[:-1] + mu_w[-1])
        det = 0.5 * game.rho_l * mu_w[:-1] @ mu_w[:-1] + np.maximum(margins, 0).sum()
        worst = max(worst, abs(costs_and_grads(theta_l, theta_d, game)[0] - det))
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
    # the dual strategies are the primal containers with k = n
    theta_l = LearnerParams(np.append(mu_a, mu_b), np.append(s_a, s_b))
    theta_d = AttackerParams(mu_xi, rng.uniform(0.05, 0.3, size=(n, n)))
    lb, ab = default_boxes(n, n, W=2.0)
    game = GameSpec(ds, 2.0, 3.0, lb, ab)
    cl, cd, g = dual_costs_and_grads(theta_l, theta_d, K, game.rho_l, game.rho_d, ds.labels)
    pg = game_operator(game).pseudo_grad(flatten(theta_l, theta_d))
    # with k = n the dual and primal flat layouts coincide
    g[game.dim_l :] *= game.rho_l / game.rho_d
    primal_l, primal_d, _ = costs_and_grads(theta_l, theta_d, game)
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
    rep_plain = uniqueness_margin(plain, n_profiles=5, seed=0)
    ok_flat = rep_plain.lambda_omega_l == 0.0  # the bias direction is unregularized

    strong = game_operator(
        GameSpec(Dataset(X, y), 100.0, 100.0, lb, ab, bias_reg=1.0)
    )
    rep = uniqueness_margin(strong, n_profiles=50, seed=0)
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
        theta_l, _, _ = solve_svm_game(game, initial_point(game, seed))

        legit = test.features[test.labels == -1]
        mal = test.features[test.labels == 1]
        for name, (w, b) in (
            ("base", (w_base, b_base)),
            ("eq", (theta_l.mu_w[:-1], theta_l.mu_b)),
        ):
            s_legit = legit @ w + b
            for d_max in d_grid:
                spec = AttackSpec(
                    d_max=d_max,
                    mode="l2_box_pgd",
                    box_lower=np.zeros(2),
                    box_upper=np.ones(2),
                )
                adv = np.array([attack_l2_box(w, x, 1.0, d_max, spec) for x in mal])
                _, rate = tp_at_fp(s_legit, adv @ w + b, 0.01)
                tp[name][d_max].append(rate)
        # boundary shift: the legitimate-class score (negative normalized
        # margin) must strictly decrease, i.e. the boundary moves toward the
        # legitimate cluster
        base_score = -float(np.mean(legit @ w_base + b_base)) / np.linalg.norm(w_base)
        w_eq = theta_l.mu_w[:-1]
        eq_score = -float(np.mean(legit @ w_eq + theta_l.mu_b)) / np.linalg.norm(w_eq)
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
