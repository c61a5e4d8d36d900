"""Player costs and analytic gradients against finite-difference and per-sample loop oracles,
and the closed-form Newton step against the dense one."""

import gc

import numpy as np
import pytest

from oracles import (deviation_mask, evaluate, evaluate_loop, margin_moments,
                     nominal_attacker, profile)
from randgame.costs import (_primal_terms, _vi_game, game_operator, jacobian,
                            train_baseline_svm)
from randgame.data import synth_2d
from randgame.hinge import hinge_expect
from randgame.kernel import (DUAL_W, XI_MEAN_BOUNDS, Kernel, _dual_terms, dual_game_operator,
                             gram)
from randgame.model import Dataset, GameSpec, ShapeError, default_boxes
from randgame.ops import dense_newton, pseudo_jacobian


def random_game(seed, n=5, k=3, rho_l=2.0, rho_d=3.0, bias_reg=0.0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, k))
    y = rng.choice([-1.0, 1.0], size=n)
    if np.all(y == y[0]):
        y[0] = -y[0]
    lb, ab = default_boxes(n, k, W=2.0)
    return GameSpec(Dataset(X, y), rho_l, rho_d, lb, ab, bias_reg=bias_reg)


def random_profile(game, seed, sigma_scale=0.3):
    """(mu_w, sigma_w, mu_x, sigma_x) of a random profile of the game."""
    rng = np.random.default_rng(seed)
    n, k = game.n, game.k
    mu_w, sigma_w = rng.normal(scale=0.5, size=k + 1), rng.uniform(0.05, sigma_scale, size=k + 1)
    return mu_w, sigma_w, rng.uniform(size=(n, k)), rng.uniform(0.05, sigma_scale, size=(n, k))


def primal(game, *parts):
    """evaluate's (cost_l, cost_d, unweighted gradient) of the game at the
    profile of parts (mu_w, sigma_w, mu_x, sigma_x)."""
    return evaluate(profile(*parts), *_primal_terms(game))


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
            mu_w, sigma_w, mu_x, sigma_x = random_profile(game, 50 + seed)
            m = game.k + 1

            def f(v):
                return primal(game, v[:m], v[m:], mu_x, sigma_x)[0]

            v = np.concatenate([mu_w, sigma_w])
            g = primal(game, mu_w, sigma_w, mu_x, sigma_x)[2]
            np.testing.assert_allclose(
                g[: game.dim_l], fd_gradient(f, v), rtol=1e-6, atol=1e-8
            )

    def test_learner_gradient_with_bias_reg(self):
        game = random_game(3, bias_reg=1.5)
        mu_w, sigma_w, mu_x, sigma_x = random_profile(game, 53)
        m = game.k + 1

        def f(v):
            return primal(game, v[:m], v[m:], mu_x, sigma_x)[0]

        v = np.concatenate([mu_w, sigma_w])
        g = primal(game, mu_w, sigma_w, mu_x, sigma_x)[2]
        np.testing.assert_allclose(
            g[: game.dim_l], fd_gradient(f, v), rtol=1e-6, atol=1e-8
        )

    def test_attacker_gradient_vs_fd(self):
        for seed in range(5):
            game = random_game(seed)
            mu_w, sigma_w, mu_x, sigma_x = random_profile(game, 70 + seed)
            n, k = game.n, game.k

            def f(v):
                return primal(game, mu_w, sigma_w, v[: n * k].reshape(n, k),
                              v[n * k :].reshape(n, k))[1]

            v = np.concatenate([mu_x.ravel(), sigma_x.ravel()])
            g = primal(game, mu_w, sigma_w, mu_x, sigma_x)[2][game.dim_l :]
            # the flat layout interleaves each sample's (mu_x_i, sigma_x_i) rows
            g = g.reshape(n, 2, k).transpose(1, 0, 2).ravel()
            np.testing.assert_allclose(g, fd_gradient(f, v), rtol=1e-6, atol=1e-8)

    def test_pseudo_gradient_weights(self):
        game = random_game(2, rho_l=6.0, rho_d=2.0)
        parts = random_profile(game, 72)
        ops = game_operator(game)
        pg = ops.pseudo_grad(profile(*parts))
        assert ops.r == (1.0, 3.0)
        raw = primal(game, *parts)[2]
        np.testing.assert_allclose(pg[: game.dim_l], raw[: game.dim_l], rtol=1e-14)
        np.testing.assert_allclose(pg[game.dim_l :], 3.0 * raw[game.dim_l :], rtol=1e-14)
        assert pg.size == game.dim_l + game.dim_d


def assert_same_evaluation(got, want, rel=1e-12):
    """Costs and every gradient entry within rel * max(|x|, 1) of want."""
    for a, b in zip(got[:2], want[:2]):
        assert abs(a - b) <= rel * max(abs(b), 1.0)
    assert got[2].shape == want[2].shape
    assert np.all(np.abs(got[2] - want[2]) <= rel * np.maximum(np.abs(want[2]), 1.0))


def _dual_case(seed=30, n=6):
    """(theta, K, y) of a dual game on a random SPD K."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    K = A @ A.T / n + 0.1 * np.eye(n)
    y = np.where(np.arange(n) % 2, 1.0, -1.0)
    theta = profile(rng.normal(scale=0.5, size=n + 1), rng.uniform(0.05, 0.3, n + 1),
                    rng.normal(scale=0.5, size=(n, n)), rng.uniform(0.05, 0.3, (n, n)))
    return theta, K, y


def _flat_case(which):
    """(theta, evaluate's fixed terms) of a small primal or dual game."""
    if which == "primal":
        game = random_game(31, bias_reg=0.7)
        return profile(*random_profile(game, 31)), _primal_terms(game)
    theta, K, y = _dual_case()
    return theta, _dual_terms(K, y, 2.0, 3.0, 0.7)


class TestEvaluateOracle:
    """costs._evaluation (through oracles.evaluate) against the per-sample loop
    in tests/oracles.py."""

    @pytest.mark.parametrize("n", [1, 5])
    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_primal_matches_per_sample_loop(self, n, k):
        game = random_game(10 * n + k, n=n, k=k, bias_reg=0.7)
        parts = random_profile(game, 20 * n + k)
        X, y = game.dataset.features, game.dataset.labels
        want = evaluate_loop(profile(*parts), np.eye(k), X, y,
                             game.rho_l, game.rho_d, game.bias_reg)
        assert_same_evaluation(primal(game, *parts), want)

    def test_dual_matches_per_sample_loop(self):
        theta, K, y = _dual_case()
        got = evaluate(theta, *_dual_terms(K, y, 2.0, 3.0, 0.7))
        want = evaluate_loop(theta, K, np.eye(K.shape[0]), y, 2.0, 3.0, 0.7)
        assert_same_evaluation(got, want)

    @pytest.mark.parametrize("which", ["primal", "dual"])
    def test_read_only_and_strided_theta(self, which):
        theta, terms = _flat_case(which)
        want = evaluate(theta.copy(), *terms)
        read_only = theta.copy()
        read_only.setflags(write=False)
        wide = np.full(2 * theta.size, -7.0)
        wide[::2] = theta
        strided = wide[::2]
        assert not strided.flags.c_contiguous
        for v in (read_only, strided):
            got = evaluate(v, *terms)
            assert_same_evaluation(got, want, rel=1e-15)
            np.testing.assert_array_equal(v, theta)
        assert np.all(wide[1::2] == -7.0)

    @pytest.mark.parametrize("which", ["primal", "dual"])
    def test_successive_gradients_do_not_share_memory(self, which):
        theta, terms = _flat_case(which)
        g1 = evaluate(theta, *terms)[2]
        g2 = evaluate(theta, *terms)[2]
        assert not np.shares_memory(g1, g2)
        assert not np.shares_memory(g1, theta)
        np.testing.assert_array_equal(g1, g2)


def _stack_case(which):
    """(ops, evaluate's fixed terms, a (3, 2, dim) stack of interior profiles)
    of a primal game at n = 10 or 100, where one profile's margins take
    hinge's erfc path (the stack's 1200 at n = 100 would take its rationals),
    at n = 600 (the rationals) or of an RBF dual game."""
    if which == "dual":
        data = synth_2d(5, 0.4, 2)
        ops = dual_game_operator(data, Kernel("rbf", 1.0), 2.0, 3.0, bias_reg=0.7)
        terms = _dual_terms(gram(data, Kernel("rbf", 1.0)), data.labels, 2.0, 3.0, 0.7)
    else:
        game = random_game(32, n=int(which.split("=")[1]), k=2, bias_reg=0.7)
        ops, terms = game_operator(game), _primal_terms(game)
    rng = np.random.default_rng(33)
    stack = ops.lower + rng.uniform(0.1, 0.9, size=(3, 2, ops.dim)) * (ops.upper - ops.lower)
    return ops, terms, stack


@pytest.mark.parametrize("m, n", [(2, 10), (3, 600), (60, 60), (7, 1001)])
def test_stacked_products_are_the_bits_of_matmul(m, n):
    # evaluate's stack-safe products must equal @ and np.vdot bit for bit on
    # the installed numpy, for one operand and for each row of a stack; the
    # goldens under tests/data were checked against them on numpy 2.4.6
    rng = np.random.default_rng(m * n)
    a, A, v = rng.normal(size=(3, m)), rng.normal(size=(3, m, n)), rng.normal(size=(3, n))
    flat = A.reshape(3, m * n)
    other = np.roll(flat, 1, axis=0)
    why = f"numpy {np.__version__}: {{}} differs from @ in its bits; evaluate's stacks would too"
    for i in range(3):
        want = a[i] @ A[i]
        assert np.vecmat(a[i], A[i]).tobytes() == want.tobytes(), why.format("vecmat")
        assert np.vecmat(a, A)[i].tobytes() == want.tobytes(), why.format("vecmat")
        want = A[i] @ v[i]
        assert np.matvec(A[i], v[i]).tobytes() == want.tobytes(), why.format("matvec")
        assert np.matvec(A, v)[i].tobytes() == want.tobytes(), why.format("matvec")
        want = np.vdot(flat[i], other[i])
        assert np.vecdot(flat[i], other[i]) == want, why.format("vecdot")
        assert np.vecdot(flat, other)[i] == want, why.format("vecdot")


class TestStackedEvaluation:
    """evaluate, costs and pseudo_grad on a (3, 2, dim) stack of profiles:
    every row is the one-profile call, bit for bit, and one bad row raises the
    one-profile call's error."""

    CASES = ["primal n=10", "primal n=100", "primal n=600", "dual"]

    @pytest.mark.parametrize("which", CASES)
    def test_rows_equal_one_profile_calls(self, which):
        ops, terms, stack = _stack_case(which)
        cost_l, cost_d, grad = evaluate(stack, *terms)
        pgrad, (op_l, op_d) = ops.pseudo_grad(stack), ops.costs(stack)
        assert grad.shape == pgrad.shape == stack.shape
        assert cost_l.shape == cost_d.shape == op_l.shape == op_d.shape == (3, 2)
        for idx in np.ndindex(3, 2):
            one = evaluate(stack[idx], *terms)
            assert type(one[0]) is float and type(one[1]) is float
            assert (cost_l[idx], cost_d[idx]) == one[:2] == ops.costs(stack[idx])
            assert (op_l[idx], op_d[idx]) == one[:2]
            np.testing.assert_array_equal(grad[idx], one[2])
            np.testing.assert_array_equal(pgrad[idx], ops.pseudo_grad(stack[idx]))

    def test_one_profile_passes_hinge_its_margins_as_before(self, hinge_inputs):
        # (2, n) margins over an (n,) sigma for one profile; a stack's margins
        # are (..., 2, n)
        ops, _, stack = _stack_case("primal n=10")
        ops.pseudo_grad(stack[0, 0])
        ops.pseudo_grad(stack)
        assert [mu.shape for mu, _ in hinge_inputs] == [(2, 10), (3, 2, 2, 10)]

    @pytest.mark.parametrize("which", CASES)
    @pytest.mark.parametrize("entry, bad, match", [
        ("mean", np.nan, "finite"), ("deviation", np.inf, "finite"),
        ("deviation", 0.0, "positive"), ("learner deviation", -1.0, "positive"),
    ])
    def test_one_bad_row_raises_as_its_call(self, which, entry, bad, match):
        ops, terms, stack = _stack_case(which)
        i = {"mean": 2 - ops.dim_l, "deviation": -1, "learner deviation": ops.dim_l - 1}[entry]
        stack[2, 1, i] = bad
        for fn in (ops.pseudo_grad, ops.costs, lambda v: evaluate(v, *terms)):
            with pytest.raises(ValueError, match=match):
                fn(stack[2, 1])
            with pytest.raises(ValueError, match=match):
                fn(stack)

    def test_stack_of_wrong_length_and_jacobian_of_a_stack_raise(self):
        ops, terms, stack = _stack_case("primal n=10")
        with pytest.raises(ShapeError):
            ops.pseudo_grad(stack[..., :-1])
        with pytest.raises(ShapeError, match="one profile"):
            jacobian(stack, *terms[:6])


@pytest.mark.parametrize("game", ["primal", "dual"])
def test_an_operator_is_freed_without_the_garbage_collector(game):
    # no reference cycle holds an operator: a dense newton that read its own
    # operator kept the operator, its box and its terms alive until a
    # collection, and raised the solve-dual benchmark's peak RSS by 3-5 MB
    ds = synth_2d(3, 0.4, 0)
    gc.collect()
    gc.disable()
    try:
        if game == "primal":
            ops = game_operator(GameSpec(ds, 1.0, 2.0, *default_boxes(ds.n, ds.k, 1.0),
                                         bias_reg=1.0))
        else:
            ops = dual_game_operator(ds, Kernel("rbf", 1.0), 1.0, 2.0, bias_reg=1.0)
        z = ops.lower + 0.5 * (ops.upper - ops.lower)
        assert ops.newton(z, ops.pseudo_grad(z), np.ones(ops.dim, dtype=bool)) is not None
        del ops
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestDeviationsAreDominated:
    """The own-deviation entries of the pseudo-gradient are > 0 at every
    profile of the box (costs module docstring), so every equilibrium holds
    the deviations at their floor."""

    @staticmethod
    def _profiles(ops, count, seed):
        rng = np.random.default_rng(seed)
        return ops.lower + rng.uniform(size=(count, ops.dim)) * (ops.upper - ops.lower)

    @pytest.mark.parametrize("game", ["primal", "dual"])
    def test_own_deviation_entries_are_positive(self, game):
        ds = synth_2d(25 if game == "primal" else 10, 0.4, 0)
        if game == "primal":
            lb, ab = default_boxes(ds.n, ds.k, W=1.0)
            ops = game_operator(GameSpec(ds, 1.0, 1.0, lb, ab, bias_reg=1.0))
        else:
            ops = dual_game_operator(ds, Kernel("rbf", 1.0), 1.0, 1.0, bias_reg=1.0)
        dev = deviation_mask(ops)
        for theta in self._profiles(ops, 200, 8):
            assert (ops.pseudo_grad(theta)[dev] > 0.0).all()


class TestClosedFormNewtonStep:
    """costs.newton_step, the primal operator's newton, against
    dense_newton of the same operator's Jacobian blocks, with the Schur
    sums over ranges of 3 rows and a ragged last one."""

    N_ROWS = 10

    @classmethod
    def _case(cls, k, bias_reg, rho, kind, seed):
        """The operator, a profile z in the box, the pseudo-gradient there and
        a free mask: interior (all free), boundary (a fifth of the
        coordinates on a bound and fixed, some of the learner's among them),
        or floor (every deviation at its floor; fixed at odd seeds)."""
        rng = np.random.default_rng(seed)
        n = cls.N_ROWS
        X = rng.uniform(size=(n, k))
        y = np.where(np.arange(n) % 2 == 0, -1.0, 1.0)
        game = GameSpec(Dataset(X, y), *rho, *default_boxes(n, k, 1.0), bias_reg=bias_reg)
        ops = game_operator(game)
        z = ops.lower + rng.uniform(0.05, 0.95, ops.dim) * (ops.upper - ops.lower)
        free = np.ones(ops.dim, dtype=bool)
        if kind == "boundary":
            fixed = rng.random(ops.dim) < 0.2
            fixed[[0, k + 1]] = True  # a learner mean and a learner deviation
            z[fixed] = np.where(rng.random(ops.dim) < 0.5, ops.lower, ops.upper)[fixed]
            free = ~fixed
        elif kind == "floor":
            dev = deviation_mask(ops)
            z[dev] = ops.lower[dev]
            if seed % 2:
                free = ~dev
        return ops, z, ops.pseudo_grad(z), free

    @pytest.mark.parametrize("k", [1, 2, 5, 20])
    @pytest.mark.parametrize("bias_reg", [0.0, 1.0])
    @pytest.mark.parametrize("rho", [(10.0, 10.0), (1.0, 10.0), (10.0, 0.5)])
    @pytest.mark.parametrize("kind", ["interior", "boundary", "floor"])
    def test_matches_the_dense_step(self, k, bias_reg, rho, kind, monkeypatch):
        import randgame.costs as costs_module

        monkeypatch.setattr(costs_module, "SCHUR_RANGE_ENTRIES", 3 * (2 * k + 2))
        norm = np.linalg.norm
        steps = nones = 0
        for seed in range(4):
            ops, z, g, free = self._case(k, bias_reg, rho, kind, seed)
            want = dense_newton(pseudo_jacobian(ops, ops.loss_jacobian(z)), g, free)
            got = ops.newton(z, g, free)
            assert (got is None) == (want is None)
            if want is None:
                nones += 1
                continue
            steps += 1
            assert np.all(got[~free] == 0.0)
            assert norm(got - want) <= 1e-12 * norm(want)
        # at bias_reg = 0 the floors leave mu_b and sigma_b flat, and most
        # systems are singular: there the cases compare the Nones
        assert (nones if kind == "floor" and bias_reg == 0.0 else steps) >= 2

    def test_singular_bias_system_gives_no_step(self):
        # bias_reg = 0, every deviation at its floor and every margin many
        # sigma from the kink: each v_s and hinge Hessian underflows to 0, so
        # sigma_b's row of the Schur system is 0 and its gradient entry 0
        # leaves it free
        n, k = 6, 2
        X = np.linspace(0.1, 0.9, n * k).reshape(n, k)
        y = np.where(np.arange(n) % 2 == 0, -1.0, 1.0)
        game = GameSpec(Dataset(X, y), 10.0, 10.0, *default_boxes(n, k, 1.0))
        ops = game_operator(game)
        z = np.clip(profile(np.array([0.3, -0.4, 0.05]), np.zeros(k + 1), X, np.zeros((n, k))),
                    ops.lower, ops.upper)
        g = ops.pseudo_grad(z)
        assert g[2 * k + 1] == 0.0
        free = np.ones(ops.dim, dtype=bool)
        assert dense_newton(pseudo_jacobian(ops, ops.loss_jacobian(z)), g, free) is None
        assert ops.newton(z, g, free) is None

    def test_one_linear_solve_for_all_rows(self, monkeypatch):
        # the rows are eliminated in closed form: the only LAPACK solve is
        # the learner's (L, L) Schur system
        ops, z, g, free = self._case(5, 1.0, (10.0, 10.0), "interior", 0)
        shapes, solve = [], np.linalg.solve

        def logged(a, b):
            shapes.append(np.shape(a))
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", logged)
        assert ops.newton(z, g, free) is not None
        assert shapes == [(ops.dim_l, ops.dim_l)]

    @staticmethod
    def _plant_singular_row(H_t, G, row):
        """H_t = -I and G = I on one row, so that its I + H_t G is 0."""
        H_t[:, :, row], G[:, :, row] = -np.eye(2), np.eye(2)

    def test_capacitance_matches_per_row_inverses_and_refuses_a_singular_row(self):
        import randgame.costs as costs_module

        H_s, H_t, G = np.random.default_rng(3).normal(size=(3, 2, 2, 4))
        NH, HN = costs_module._capacitance(H_s, H_t, G)
        for i in range(4):
            N = np.linalg.inv(np.eye(2) + H_t[:, :, i] @ G[:, :, i])
            np.testing.assert_allclose(NH[:, :, i], N @ H_t[:, :, i], rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(HN[:, :, i], H_s[:, :, i] @ N.T, rtol=1e-12, atol=1e-14)
        self._plant_singular_row(H_t, G, 2)
        assert costs_module._capacitance(H_s, H_t, G) is None

    def test_singular_row_gives_no_step(self, monkeypatch):
        import randgame.costs as costs_module

        ops, z, g, free = self._case(2, 1.0, (10.0, 10.0), "interior", 0)
        assert ops.newton(z, g, free) is not None
        capacitance = costs_module._capacitance

        def singular(H_s, H_t, G):
            self._plant_singular_row(H_t, G, 3)
            return capacitance(H_s, H_t, G)

        monkeypatch.setattr(costs_module, "_capacitance", singular)
        assert ops.newton(z, g, free) is None


class TestOperator:
    def test_operator_matches_evaluate(self):
        # bit for bit, on the primal game and on the dual game
        game = random_game(4, rho_l=2.0, rho_d=5.0)
        data = synth_2d(3, 0.4, 4)
        dual = dual_game_operator(data, Kernel("rbf", 1.0), 2.0, 5.0, bias_reg=0.5)
        interior = dual.lower + np.random.default_rng(74).uniform(0.2, 0.8, dual.dim) * (
            dual.upper - dual.lower)
        for ops, terms, v in [
            (game_operator(game), _primal_terms(game), profile(*random_profile(game, 74))),
            (dual, _dual_terms(gram(data, Kernel("rbf", 1.0)), data.labels, 2.0, 5.0, 0.5),
             interior),
        ]:
            cost_l, cost_d, grad = evaluate(v, *terms)
            grad[ops.dim_l :] *= ops.r[1]
            assert ops.costs(v) == (cost_l, cost_d)
            assert ops.pseudo_grad(v).tobytes() == grad.tobytes()

    def test_each_callable_computes_only_what_it_returns(self):
        # The pseudo-gradient applies M to the planes for Mx and for the
        # attacker block, not for the attacker's regularizer cost; the costs
        # apply M*M only for sigma, not for the learner's deviation gradient.
        data = synth_2d(4, 0.4, 5)
        K = gram(data, Kernel("rbf", 1.0))
        calls = {"planes": 0, "M2": 0}

        def by_M(A):
            calls["planes"] += np.ndim(A) == 2
            return K @ A

        def by_M2(v):
            calls["M2"] += 1
            return (K * K) @ v

        _, M_v, dM, _, anchors, y, *weights = _dual_terms(K, data.labels, 2.0, 5.0, 0.5)
        box = default_boxes(data.n, data.n, DUAL_W, XI_MEAN_BOUNDS)
        ops = _vi_game((by_M, M_v, dM, by_M2, anchors, y, *weights), *box)
        theta = box[0] + np.random.default_rng(5).uniform(0.2, 0.8, ops.dim) * (box[1] - box[0])
        ops.pseudo_grad(theta)
        assert calls == {"planes": 2, "M2": 2}
        calls.update(planes=0, M2=0)
        ops.costs(theta)
        assert calls == {"planes": 2, "M2": 1}

    def test_one_evaluation_per_pseudo_gradient(self, count_hinge_calls):
        import randgame.costs as costs_module

        game = random_game(8)
        v = profile(*random_profile(game, 78))
        ops = game_operator(game)
        calls = count_hinge_calls(costs_module)
        ops.pseudo_grad(v)
        assert calls == ["hinge_expect"]

    def test_cost_splits_into_loss_plus_regularizer(self):
        game = random_game(5)
        mu_w, sigma_w, mu_x, sigma_x = random_profile(game, 75)
        v = profile(mu_w, sigma_w, mu_x, sigma_x)
        ops = game_operator(game)

        def expected_loss(side):
            # per-sample margin moments, independent of the vectorized costs
            mm = [
                margin_moments(side, y, mu_w, sigma_w, mu_xi, sig_xi)
                for y, mu_xi, sig_xi in zip(game.dataset.labels, mu_x, sigma_x)
            ]
            return sum(hinge_expect(mu, np.sqrt(var))[0] for mu, var in mm)

        reg_l = 0.5 * game.rho_l * (mu_w[:-1] @ mu_w[:-1] + sigma_w[:-1] @ sigma_w[:-1])
        assert ops.costs(v)[0] == pytest.approx(expected_loss("learner") + reg_l, rel=1e-12)
        diff = mu_x - game.dataset.features
        reg_d = 0.5 * game.rho_d * ((diff**2).sum() + (sigma_x**2).sum())
        assert ops.costs(v)[1] == pytest.approx(expected_loss("attacker") + reg_d, rel=1e-12)

    def test_reg_hessian_diagonals(self):
        game = random_game(6, rho_l=4.0, bias_reg=2.0)
        reg_l, reg_d = game_operator(game).reg_hess()
        # rho_l on the weights' means and deviations, bias_reg on the bias's
        np.testing.assert_array_equal(reg_l, np.diag([4.0, 4.0, 4.0, 2.0, 4.0, 4.0, 4.0, 2.0]))
        np.testing.assert_array_equal(reg_d, 3.0 * np.eye(6))

    @pytest.mark.parametrize("game, bias_reg", [("primal", 0.0), ("primal", 0.5),
                                                ("dual", 0.5)])
    def test_reg_hess_is_the_weighted_minus_unweighted_hessian(self, game, bias_reg):
        # The regularizers are the only terms that rho_l, rho_d and bias_reg
        # weight, so their Hessian is the finite-difference Jacobian of
        # evaluate's gradient minus the same with every weight at zero; each
        # row's block is the shared reg_d, and no block couples two players.
        if game == "primal":
            spec = random_game(8, bias_reg=bias_reg)
            ops, terms = game_operator(spec), _primal_terms(spec)
            theta = profile(*random_profile(spec, 8))
        else:
            data = synth_2d(2, 0.4, 1)
            ops = dual_game_operator(data, Kernel("rbf", 1.0), 2.0, 3.0, bias_reg)
            terms = _dual_terms(gram(data, Kernel("rbf", 1.0)), data.labels, 2.0, 3.0, bias_reg)
            theta = ops.lower + np.random.default_rng(8).uniform(0.2, 0.8, ops.dim) * (
                ops.upper - ops.lower)
        unweighted = terms[:6] + (0.0, 0.0, 0.0)

        def reg_grad(v):
            return evaluate(v, *terms)[2] - evaluate(v, *unweighted)[2]

        h, dim, L, b = 1e-5, ops.dim, ops.dim_l, ops.dim_l - 2
        fd = np.empty((dim, dim))
        for j in range(dim):
            step = np.zeros(dim)
            step[j] = h
            fd[:, j] = (reg_grad(theta + step) - reg_grad(theta - step)) / (2 * h)
        reg_l, reg_d = ops.reg_hess()
        assert reg_l.shape == (L, L) and reg_d.shape == (b, b)
        want = np.zeros((dim, dim))
        want[:L, :L] = reg_l
        for i in range(L, dim, b):
            want[i : i + b, i : i + b] = reg_d
        np.testing.assert_allclose(want, fd, rtol=0, atol=1e-8)

    def test_nominal_attacker_sits_on_data(self):
        game = random_game(7)
        mu_x, sigma_x = nominal_attacker(game)
        np.testing.assert_allclose(mu_x, game.dataset.features)
        assert np.all(sigma_x == game.lower[game.dim_l :].reshape(game.n, -1)[:, game.k :])


class TestDeterministicLimit:
    def test_low_deviation_limit_matches_csvm_objective(self):
        # deviations at their box floors: the expected hinge collapses to the
        # plain hinge and the cost approaches the deterministic SVM objective
        for seed in range(10):
            game = random_game(seed, n=6, k=3, rho_l=1.7)
            rng = np.random.default_rng(200 + seed)
            m = game.k + 1
            mu_w = rng.normal(scale=0.5, size=m)
            sigma_w = np.full(m, game.lower[m])
            X, y = game.dataset.features, game.dataset.labels
            margins = 1.0 - y * (X @ mu_w[:-1] + mu_w[-1])
            det = 0.5 * game.rho_l * mu_w[:-1] @ mu_w[:-1] + np.maximum(margins, 0).sum()
            cost_l = primal(game, mu_w, sigma_w, *nominal_attacker(game))[0]
            assert cost_l == pytest.approx(det, abs=1e-3)


def _svm_objective(X, y, C, w, b):
    return 0.5 / C * w @ w + np.maximum(1.0 - y * (X @ w + b), 0.0).sum()


def _svm_qp_oracle(X, y, C):
    """The optimal 1/(2C) ||w||^2 + sum(xi) over (w, b, xi) subject to xi >= 0
    and xi >= 1 - y (X w + b): the slack form of the C-SVM, solved by scipy's
    SLSQP, independent of the dual that train_baseline_svm solves."""
    from scipy.optimize import minimize

    n, k = X.shape
    yX = np.hstack([y[:, None] * X, y[:, None], np.eye(n)])  # margin rows over (w, b, xi)
    res = minimize(
        lambda v: 0.5 / C * v[:k] @ v[:k] + v[k + 1:].sum(), np.r_[np.zeros(k + 1), np.ones(n)],
        jac=lambda v: np.r_[v[:k] / C, 0.0, np.ones(n)], method="SLSQP",
        constraints=[{"type": "ineq", "fun": lambda v: yX @ v - 1.0, "jac": lambda v: yX}],
        bounds=[(None, None)] * (k + 1) + [(0.0, None)] * n,
        options={"ftol": 1e-12, "maxiter": 1000},
    )
    assert res.success, res.message
    return res.fun


def _criterion_10_training_set(seed):
    """The class-balanced 30 + 30 training subsample of synth_2d(500, 0.4,
    seed) that criterion 10 trains both classifiers on."""
    ds = synth_2d(500, 0.4, seed)
    rng = np.random.default_rng(seed + 1000)
    idx = np.concatenate([rng.permutation(np.flatnonzero(ds.labels == lab))[:30]
                          for lab in (-1.0, 1.0)])
    return Dataset(ds.features[idx], ds.labels[idx])


class TestBaselineSvm:
    @pytest.mark.parametrize("C", [1.0, 100.0])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_the_qp_oracle(self, seed, C):
        ds = _criterion_10_training_set(seed)
        X, y = ds.features, ds.labels
        got = _svm_objective(X, y, C, *train_baseline_svm(ds, C))
        assert got == pytest.approx(_svm_qp_oracle(X, y, C), rel=1e-6)
        if C == 100.0:  # the optima the randomized subgradient search fell short of
            assert got == pytest.approx([0.264, 0.273, 0.314, 0.225, 0.440][seed], abs=1e-3)

    @pytest.mark.parametrize("label", [-1.0, 1.0])
    def test_one_class_gives_zero_weights_and_a_unit_bias(self, label):
        X = np.random.default_rng(3).uniform(size=(6, 3))
        w, b = train_baseline_svm(Dataset(X, np.full(6, label)), C=10.0)
        assert np.array_equal(w, np.zeros(3)) and b == label

    def test_step_cap_warns_with_the_gap(self, monkeypatch):
        import randgame.costs as costs_module

        # the criterion-10 set at C = 100 takes 23 steps
        monkeypatch.setattr(costs_module, "BASELINE_STEPS", 5)
        ds = _criterion_10_training_set(0)
        with pytest.warns(RuntimeWarning, match=r"cap of 5 SMO steps with KKT gap \S+ > 1e-09"):
            w, b = train_baseline_svm(ds, C=100.0)
        assert _svm_objective(ds.features, ds.labels, 100.0, w, b) > 0.264

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

    @pytest.mark.parametrize("C", [np.nan, np.inf])
    def test_rejects_non_finite_c(self, C):
        # a NaN C passes C <= 0 and would return w = 0, b = 0 with no error
        with pytest.raises(ValueError, match="C must be positive and finite"):
            train_baseline_svm(Dataset(*_blob_data()), C=C)

    def test_deterministic(self):
        ds = Dataset(*_blob_data())
        w1, b1 = train_baseline_svm(ds, C=1.0)
        w2, b2 = train_baseline_svm(ds, C=1.0)
        assert w1.tobytes() == w2.tobytes() and b1 == b2


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
