"""Time one randgame operation in two checkouts and write the before/after
numbers as JSON.

    python tools/ab_timing.py ENTRY [ENTRY ...] --parent PATH [--change PATH] [--out FILE]

ENTRY names a registry entry (ENTRIES): a list of cases, each a setup that
builds its inputs and returns (call, report): call runs the operation that
is timed, and report, or None, turns what the call returned into the case's
JSON report. cold times one fresh interpreter that imports randgame.cli,
which every CLI command pays before it starts its work, and reports the
modules it loaded; pgrad times one pseudo-gradient and costs one
VIGame.costs call (reporting its pair of costs) on the same games, diag one
uniqueness_margin(ops, 1, 0, 1) profile, mono one monotonicity_sample(ops,
50, 0) (reporting its violations) on the diag games, solve one extragradient_solve to natural residual 1e-8 (at most 5000
iterations, the default, or the cap in the case label) and newton one Newton
candidate of the solver, each on the games its cases build; curve times one
security_curve (binary_flip and box-L2) on the sets its cases build, and
load one data.load_dataset of the dense and sparse files its cases write,
or one data.load_flat_csv of its parameter files; cli times one in-process
randgame.cli.main call, check-eq on the diagnostics workload's game and
gen-synth.

Each checkout runs in its own Python process with PYTHONPATH set to its src/
and one BLAS thread. A case runs report(call()) once, on the warm-up call;
a round then repeats the bare call() for at least MIN_ROUND_S, so no report
is built in the time measured. A pass reports the median per-call time of
its rounds, and the parent and the change alternate pass by pass so that
slow drift of the host hits both alike. The JSON holds per case the median
over passes, every pass's median, the ratio change / parent and each side's
report, in which a solve's counts are its EquilibriumResult's. Where both
sides report, a profile theta in the reports becomes max_abs_theta_diff,
the largest coordinate distance between the two sides' profiles, and
same_report says whether the rest of the two reports is equal. Then come
each side's peak RSS of its workers and of their child processes (cold's
interpreters), and bench/run.py's environment(): the core count and the
BLAS.
Several entries write one file that maps each entry's name to its report.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
MIN_ROUND_S = 0.02  # a round repeats the call until it lasts at least this
NEWTON_ITERATE = 10  # first-order iterations to the iterate of a newton case
MONO_PAIRS = 50  # pairs of a mono case's monotonicity sample, as in the diagnostics workload
DUAL_MAX_ITER = 100  # iteration cap of the dual solve case, as in the solve-dual workload
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cold_cases(tiny):
    """A fresh `python -c "import randgame.cli"`, with the worker's
    environment and so the checkout's src/; the same at every size."""
    probe = "import sys, randgame.cli; print(len(sys.modules))"

    def call():
        return subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              check=True).stdout

    yield "import randgame.cli", lambda: (call, lambda stdout: {"modules": int(stdout)})


def _pgrad_games(tiny, timed, report=None):
    """(label, setup) per game: four primal games and an RBF dual game on 60
    points, inputs from fixed seeds. Each case times timed(ops, theta) and
    reports with report."""
    import numpy as np

    from randgame.costs import game_operator
    from randgame.kernel import Kernel, dual_game_operator
    from randgame.model import Dataset, GameSpec, default_boxes

    def setup(seed, n, k, operator):
        rng = np.random.default_rng(seed)
        X, y = rng.uniform(size=(n, k)), rng.choice([-1.0, 1.0], size=n)
        y[0] = -y[-1] if n > 1 else y[0]
        ops = operator(Dataset(X, y))
        theta = ops.lower + rng.uniform(0.2, 0.8, ops.dim) * (ops.upper - ops.lower)
        return lambda: timed(ops, theta), report

    sizes, dual_n = (((3, 2),), 4) if tiny else (((10, 2), (4000, 2), (1000, 200), (500, 1000)), 60)
    for n, k in sizes:
        yield f"primal n={n} k={k}", lambda n=n, k=k: setup(
            n * 7919 + k, n, k,
            lambda d: game_operator(GameSpec(d, 10.0, 10.0, *default_boxes(n, k, 1.0))))
    yield f"dual rbf n={dual_n}", lambda: setup(
        dual_n, dual_n, 2, lambda d: dual_game_operator(d, Kernel("rbf", 1.0), 10.0, 10.0))


def _pgrad_cases(tiny):
    """One pseudo_grad on each _pgrad_games game."""
    return _pgrad_games(tiny, lambda ops, theta: ops.pseudo_grad(theta))


def _costs_cases(tiny):
    """One costs call on each _pgrad_games game, reporting both costs."""
    return _pgrad_games(tiny, lambda ops, theta: ops.costs(theta),
                        lambda costs: {"costs": list(costs)})


def _diag_games(tiny, timed, report=None):
    """The benchmark's certifying diagnostics game (rho = 100, bias_reg = 1,
    W = 0.5) on n uniform points in [0, 1]^2, and an RBF dual game (gamma = 1,
    rho = 10, bias_reg = 1) on 60 such points, whose lambda_omega comes from
    the Gram matrix. Each case times timed(ops) and reports with report."""
    import numpy as np

    from randgame.costs import game_operator
    from randgame.kernel import Kernel, dual_game_operator
    from randgame.model import Dataset, GameSpec, default_boxes

    def setup(n, operator):
        rng = np.random.default_rng(n)
        y = np.where(np.arange(n) % 2 == 0, -1.0, 1.0)
        ops = operator(Dataset(rng.uniform(size=(n, 2)), y))
        return lambda: timed(ops), report

    def primal(n):
        return lambda d: game_operator(GameSpec(d, 100.0, 100.0, *default_boxes(n, 2, 0.5),
                                                bias_reg=1.0))

    for n in (3, 4) if tiny else (10, 500, 5000):
        yield f"n={n} k=2", lambda n=n: setup(n, primal(n))
    dual_n = 4 if tiny else 60
    yield f"dual rbf n={dual_n}", lambda: setup(
        dual_n, lambda d: dual_game_operator(d, Kernel("rbf", 1.0), 10.0, 10.0, 1.0))


def _diag_cases(tiny):
    """One uniqueness_margin(ops, 1, 0, 1) profile on each _diag_games game."""
    from randgame.diagnostics import uniqueness_margin

    return _diag_games(tiny, lambda ops: uniqueness_margin(ops, n_profiles=1, seed=0, n_pairs=1))


def _mono_cases(tiny):
    """One monotonicity_sample(ops, MONO_PAIRS, 0) on each _diag_games game,
    reporting its violations."""
    from randgame.diagnostics import monotonicity_sample

    return _diag_games(tiny, lambda ops: monotonicity_sample(ops, MONO_PAIRS, 0),
                       lambda violations: {"violations": violations})


def _game(n, k, rho, bias_reg):
    """The game of a solve or newton case at rho_l = rho_d = rho, W = 1: on
    synth_2d(n / 2, 0.4, 0) for k = 2, else on n uniform points in [0, 1]^k
    with y = sign(x_1 + x_2 + x_3 - 1.5)."""
    import numpy as np

    from randgame.data import synth_2d
    from randgame.model import Dataset, GameSpec, default_boxes

    if k == 2:
        ds = synth_2d(n // 2, 0.4, 0)
    else:
        X = np.random.default_rng(k).uniform(size=(n, k))
        ds = Dataset(X, np.where(X[:, :3].sum(axis=1) > 1.5, 1.0, -1.0))
    return GameSpec(ds, rho, rho, *default_boxes(n, k, 1.0), bias_reg=bias_reg)


def _solve_cases(tiny):
    """{(50, 2), (4000, 2), (500, 20)} x rho in {0.1, 10, 100} at bias_reg = 1,
    and {(50, 2), (4000, 2)} x rho in {0.1, 10} at bias_reg = 0, the CLI's
    default, from initial_point(game, 0); and the solve-dual workload's game,
    the RBF (gamma = 1) dual game on synth_2d(30, 0.4, 0) at rho = 10, bias_reg = 0,
    from initial_point(ops, 0) and capped at 100 iterations."""
    from randgame.costs import game_operator
    from randgame.data import synth_2d
    from randgame.kernel import Kernel, dual_game_operator
    from randgame.solver import SolverConfig, extragradient_solve, initial_point

    def report(res):
        return {"evaluations": res.evaluations,
                "newton_calls": res.newton_accepted + res.newton_rejected,
                "iterations": res.iterations, "residual": res.residual,
                "newton_accepted": res.newton_accepted, "newton_rejected": res.newton_rejected,
                "theta": res.theta.tolist()}

    def setup(ops, init, max_iter=SolverConfig.max_iter):
        cfg = SolverConfig(epsilon=1e-8, max_iter=max_iter)
        return lambda: extragradient_solve(ops, init, cfg), report

    def primal(n, k, rho, bias_reg):
        game = _game(n, k, rho, bias_reg)
        return setup(game_operator(game), initial_point(game, 0))

    def dual(n_per_class):
        ops = dual_game_operator(synth_2d(n_per_class, 0.4, 0), Kernel("rbf", 1.0), 10.0, 10.0)
        return setup(ops, initial_point(ops, 0), DUAL_MAX_ITER)

    if tiny:
        grid = [(6, 2, 10.0, b) for b in (1.0, 0.0)]
    else:
        grid = [(n, k, rho, 1.0) for n, k in ((50, 2), (4000, 2), (500, 20))
                for rho in (0.1, 10.0, 100.0)]
        grid += [(n, 2, rho, 0.0) for n in (50, 4000) for rho in (0.1, 10.0)]
    for n, k, rho, b in grid:
        yield f"n={n} k={k} rho={rho:g} bias_reg={b:g}", lambda n=n, k=k, rho=rho, b=b: primal(
            n, k, rho, b)
    dual_n = 4 if tiny else 60
    yield f"dual rbf n={dual_n} rho=10 max_iter={DUAL_MAX_ITER}", lambda: dual(dual_n // 2)


def _newton_cases(tiny):
    """One Newton candidate at the iterate that NEWTON_ITERATE extragradient
    iterations without Newton attempts reach from initial_point(game, 0), on
    three games: (4000, 2) at rho = 10 with bias_reg = 0, the solve-primal
    workload's game; (500, 20) at rho = 10 with bias_reg = 1; and (1000, 5)
    at rho = 100 with bias_reg = 1, the CI's k = 5 set, whose solve keeps all
    four of its Newton steps. Each iterate gives a step, which the solver
    would keep at (4000, 2) and reject at the other two; from 15 iterations
    on, the (4000, 2) system is singular."""
    from randgame import solver
    from randgame.costs import game_operator
    from randgame.ops import VIGame

    def setup(n, k, rho, bias_reg):
        game = _game(n, k, rho, bias_reg)
        ops = game_operator(game)
        # no attempt on either side: the solver attempts where the operator has a newton
        first_order = VIGame(dim_l=ops.dim_l, lower=ops.lower, upper=ops.upper, costs=ops.costs,
                             pseudo_grad=ops.pseudo_grad)
        res = solver.extragradient_solve(first_order, solver.initial_point(game, 0),
                                         solver.SolverConfig(max_iter=NEWTON_ITERATE))
        theta, attempts = res.theta, res.newton_accepted + res.newton_rejected
        g = ops.pseudo_grad(theta)

        def report(cand):
            # without a step the iterate stands in for the candidate
            return {"iterate_attempts": attempts, "step": cand is not None,
                    "theta": (theta if cand is None else cand).tolist()}

        return lambda: solver._newton_candidate(ops, theta, g), report

    cases = ((6, 2, 10.0, 1.0),) if tiny else (
        (4000, 2, 10.0, 0.0), (500, 20, 10.0, 1.0), (1000, 5, 100.0, 1.0))
    for n, k, rho, b in cases:
        yield f"n={n} k={k} rho={rho:g} bias_reg={b:g}", lambda n=n, k=k, rho=rho, b=b: setup(
            n, k, rho, b)


def _spam_set(n, k, positive):
    """A learner's means [w; b] and n spam-like binary rows: malicious rows at
    about 3% density, or with all weights positive at 1%."""
    import numpy as np

    from randgame.model import Dataset

    rng = np.random.default_rng(k + positive)
    y = np.where(np.arange(n) < n // 2, -1.0, 1.0)
    p_legit = np.full(k, 0.01)
    p_mal = p_legit.copy()
    if not positive:
        words = rng.permutation(k)[: k // 10]
        p_legit[words], p_mal[words] = 0.02, 0.2
    X = (rng.random((n, k)) < np.where(y[:, None] > 0, p_mal, p_legit)).astype(float)
    w = np.abs(rng.normal(size=k)) if positive else (
        np.log(p_mal / p_legit) + 0.1 * rng.normal(size=k))
    return np.append(w, 0.0), Dataset(X, y)


def _box_set(n, k):
    """A learner's means [w; b] and n dense rows of two classes in [0, 1]^k."""
    import numpy as np

    from randgame.model import Dataset

    rng = np.random.default_rng(n)
    y = np.where(np.arange(n) < n // 2, -1.0, 1.0)
    u = rng.normal(size=k)
    u /= np.linalg.norm(u)
    X = np.clip(0.5 + 0.1 * rng.normal(size=(n, k)) + 0.5 * y[:, None] * u, 0.0, 1.0)
    return np.append(u + 0.2 * rng.normal(size=k) / np.sqrt(k), 0.0), Dataset(X, y)


def _curve_cases(tiny):
    """One security_curve at fp_target 0.01, seed 0: binary_flip on spam-like
    rows as in the benchmark's security-curve workload (malicious rows at
    about 3% density, budgets 0, 2, 5, 10, 20, 3 repetitions); binary_flip
    with all weights positive on rows at 1% density and one attacking budget,
    20, so almost no row holds enough candidates to leave the flip order's
    scan early (its worst case); and box-L2 on two dense classes (budgets 0, 1, 2, 1
    repetition), which never ranks flips."""
    from randgame.attacks import security_curve

    def report(curve):
        return {"points": [list(p) for p in curve.points]}

    def setup(mu_w, data, mode, budgets, reps):
        return lambda: security_curve(mu_w, data, mode, budgets, repetitions=reps), report

    (fn, fk), (bn, bk) = ((40, 60), (20, 5)) if tiny else ((1000, 1000), (500, 20))
    yield f"flip spam {fn}x{fk} d=0..20", lambda: setup(
        *_spam_set(fn, fk, False), "binary_flip", [0, 2, 5, 10, 20], 3)
    yield f"flip w>0 {fn}x{fk} d=0,20", lambda: setup(
        *_spam_set(fn, fk, True), "binary_flip", [0, 20], 3)
    yield f"box {bn}x{bk} d=0,1,2", lambda: setup(*_box_set(bn, bk), "l2_box_pgd", [0, 1, 2], 1)


def _load_cases(tiny):
    """One load_dataset of a file written as the benchmark writes its inputs:
    train's dense synth_2d rows at k = 2, and secure-eval's dense _box_set
    rows at k = 20 and sparse _spam_set rows as 'label idx:1 ...' lines; and
    one data.load_flat_csv of a --params file: secure-eval's learner line
    for the sparse rows (their _spam_set means, then zero deviations), and
    train's output at n = 4000, k = 2, the flat profile of _game(4000, 2, 10,
    0) from initial_point(game, 0). Each reports what it loaded: a set's
    shape, or a vector's size, and a SHA-256 of its arrays."""
    import hashlib
    import tempfile

    import numpy as np

    from randgame import data
    from randgame.solver import initial_point

    def dense(ds):
        return lambda path: data.save_dense_csv(path, ds.features, ds.labels)

    def sparse(ds):
        return lambda path: path.write_text("".join(
            f"{int(t):+d} " + " ".join(f"{j + 1}:1" for j in np.flatnonzero(row)) + "\n"
            for t, row in zip(ds.labels, ds.features)))

    def flat(v):
        return lambda path: data.save_flat_csv(path, v)

    def report(ds):
        sha = hashlib.sha256(ds.features.tobytes() + ds.labels.tobytes()).hexdigest()
        return {"n": ds.n, "k": ds.k, "sha256": sha}

    def report_flat(v):
        return {"size": v.size, "sha256": hashlib.sha256(v.tobytes()).hexdigest()}

    def setup(path, write, load=data.load_dataset, info=report):
        write(path)
        return lambda: load(path), info

    def params(path, write):
        return setup(path, write, data.load_flat_csv, report_flat)

    sn, (bn, bk), (fn, fk) = (5, (10, 5), (20, 300)) if tiny else (2000, (500, 20), (1000, 1000))
    tn = 10 if tiny else 4000
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        yield f"dense {2 * sn}x2", lambda: setup(tmp / "synth.csv",
                                                 dense(data.synth_2d(sn, 0.4, 0)))
        yield f"dense {bn}x{bk}", lambda: setup(tmp / "box.csv", dense(_box_set(bn, bk)[1]))
        yield f"sparse {fn}x{fk}", lambda: setup(tmp / "flip.svm",
                                                 sparse(_spam_set(fn, fk, False)[1]))
        yield f"params learner k={fk}", lambda: params(tmp / "flip_eq.csv", flat(np.append(
            _spam_set(fn, fk, False)[0], np.zeros(fk + 1))))
        yield f"params train {tn}x2", lambda: params(tmp / "eq.csv", flat(
            initial_point(_game(tn, 2, 10.0, 0.0), 0)))


def _cli_cases(tiny):
    """One in-process randgame.cli.main call: check-eq on the diagnostics
    workload's certifying game (rho = 100, bias_reg = 1, W = 0.5) on the 10
    points of synth_2d(5, 0.4, 0), 1 profile and MONO_PAIRS pairs; and
    gen-synth --n 5, a call that is mostly parsing. The call's stdout goes to
    a buffer, so the worker's JSON line stays its only stdout. Each reports
    the exit code and a SHA-256 of the output, its stdout and then the file
    it wrote."""
    import contextlib
    import hashlib
    import io
    import tempfile

    from randgame import cli, data

    def setup(argv, out=None):
        def call():
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                return cli.main(argv), stdout

        def report(result):
            code, stdout = result
            raw = stdout.getvalue().encode() + (out.read_bytes() if out else b"")
            return {"code": code, "output_sha256": hashlib.sha256(raw).hexdigest()}

        return call, report

    def check_eq(path, cfg):
        ds = data.synth_2d(n, 0.4, 0)
        data.save_dense_csv(path, ds.features, ds.labels)
        cfg.write_text("rho_l=100\nrho_d=100\nbias_reg=1\nW=0.5\n")
        return setup(["check-eq", "--data", str(path), "--game", str(cfg), "--profiles", "1",
                      "--pairs", str(pairs)])

    n, pairs = (2, 4) if tiny else (5, MONO_PAIRS)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        yield f"check-eq n={2 * n} pairs={pairs}", lambda: check_eq(tmp / "d.csv", tmp / "g.cfg")
        yield "gen-synth --n 5", lambda: setup(
            ["gen-synth", "--n", "5", "--out", str(tmp / "s.csv")], tmp / "s.csv")


# name: (cases, default output, metric, rounds, passes)
ENTRIES = {
    "cold": (_cold_cases, "BENCH_scipy_free.json",
             "wall time of a fresh interpreter importing randgame.cli", 5, 7),
    "pgrad": (_pgrad_cases, "BENCH_planar_evaluate.json",
              "pseudo_grad wall time per call", 11, 7),
    "costs": (_costs_cases, "BENCH_split_evaluate.json", "VIGame.costs wall time per call", 11, 7),
    "diag": (_diag_cases, "BENCH_analytic_jacobian.json",
             "uniqueness_margin(n_profiles=1, n_pairs=1) wall time per call", 5, 5),
    "mono": (_mono_cases, "BENCH_stacked_pgrad.json",
             "monotonicity_sample(n_pairs=50, seed=0) wall time per call", 5, 5),
    "solve": (_solve_cases, "BENCH_newton_solve.json",
              "wall time of one solve to natural residual 1e-8", 1, 5),
    "newton": (_newton_cases, "BENCH_newton_closed_form.json",
               "_newton_candidate wall time per call", 7, 7),
    "curve": (_curve_cases, "BENCH_flip_ranking.json", "security_curve wall time per call", 7, 9),
    "load": (_load_cases, "BENCH_numpy_reader.json",
             "load_dataset or load_flat_csv wall time per call", 7, 9),
    "cli": (_cli_cases, "BENCH_command_parser.json",
            "in-process randgame.cli.main wall time per call", 7, 9),
}


def _worker(spec: dict) -> dict:
    """Per case: median seconds per bare call, and the report of the warm-up
    call's result (None for a case without a report); the peak RSS of the
    worker and of its child processes, and the file of the randgame package
    that was timed."""
    import resource

    import randgame

    result = {"cases": {}, "randgame": randgame.__file__}
    for label, setup in ENTRIES[spec["entry"]][0](spec["tiny"]):
        call, report = setup()
        t0 = time.perf_counter()
        out = call()
        calls = max(1, int(MIN_ROUND_S / max(time.perf_counter() - t0, 1e-9)))
        info = report(out) if report else None
        rounds = []
        for _ in range(spec["rounds"]):
            t0 = time.perf_counter()
            for _ in range(calls):
                call()
            rounds.append((time.perf_counter() - t0) / calls)
        result["cases"][label] = {"s": median(rounds), "info": info}
    for key, who in (("peak_rss_mb", resource.RUSAGE_SELF),
                     ("child_peak_rss_mb", resource.RUSAGE_CHILDREN)):
        result[key] = resource.getrusage(who).ru_maxrss / 1024
    return result


def time_checkout(checkout, entry, tiny=False, rounds=None) -> dict:
    """One pass of entry in a fresh process with one BLAS thread, on the
    checkout at path. Raises RuntimeError, naming the checkout, if that
    process fails (with its last stderr line) or imported a randgame from
    elsewhere (an installed copy), which would time the wrong code."""
    src = Path(checkout).resolve() / "src"
    env = dict(os.environ, PYTHONPATH=str(src), **{var: "1" for var in _THREAD_VARS})
    spec = {"entry": entry, "tiny": tiny, "rounds": rounds or ENTRIES[entry][3]}
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), entry, "--worker", json.dumps(spec)],
        env=env, capture_output=True, text=True,
    )
    if proc.returncode:
        last = (proc.stderr.strip().splitlines() or ["no stderr"])[-1]
        raise RuntimeError(f"{checkout}: the {entry} worker exited with status "
                           f"{proc.returncode}: {last}")
    result = json.loads(proc.stdout)
    if not Path(result["randgame"]).resolve().is_relative_to(src):
        raise RuntimeError(f"{checkout}: timed randgame from {result['randgame']}, not {src}")
    return result


def compare(entry, parent, change, tiny=False, rounds=None, passes=None) -> dict:
    """Alternate passes of entry over the parent and the change checkout."""
    sys.path.insert(0, str(ROOT / "bench"))
    from run import environment

    _, _, metric, default_rounds, default_passes = ENTRIES[entry]
    rounds, passes = rounds or default_rounds, passes or default_passes
    runs = {"parent": [], "change": []}
    for _ in range(passes):
        for side, path in (("parent", parent), ("change", change)):
            runs[side].append(time_checkout(path, entry, tiny, rounds))
    cases = {}
    for label in runs["change"][0]["cases"]:
        row = {}
        for side in runs:
            ms = [1e3 * r["cases"][label]["s"] for r in runs[side]]
            row.update({f"{side}_ms": median(ms), f"{side}_pass_ms": ms})
            if runs[side][0]["cases"][label]["info"]:
                row[side] = runs[side][0]["cases"][label]["info"]
        row["ratio"] = row["change_ms"] / row["parent_ms"]
        if "parent" in row and "change" in row:
            if "theta" in row["parent"]:
                row["max_abs_theta_diff"] = max(abs(a - b) for a, b in zip(
                    row["change"].pop("theta"), row["parent"].pop("theta")))
            row["same_report"] = row["parent"] == row["change"]
        cases[label] = row
    return {
        "entry": entry,
        "metric": f"{metric}, median of rounds, median over passes",
        "rounds": rounds,
        "passes": passes,
        **environment(),
        "machine": platform.machine(),
        **{key: {side: max(r[key] for r in runs[side]) for side in runs}
           for key in ("peak_rss_mb", "child_peak_rss_mb")},
        "cases": cases,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("entries", nargs="+", choices=sorted(ENTRIES), metavar="ENTRY")
    p.add_argument("--parent", help="checkout of the parent commit")
    p.add_argument("--change", default=str(ROOT),
                   help="checkout of the change (default: this repository)")
    p.add_argument("--out", help="output file (default: the first entry's BENCH file)")
    p.add_argument("--worker", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.worker:
        print(json.dumps(_worker(json.loads(args.worker))))
        return 0
    if not args.parent:
        p.error("--parent is required")
    reports = {entry: compare(entry, args.parent, args.change) for entry in args.entries}
    out = reports[args.entries[0]] if len(reports) == 1 else reports
    Path(args.out or ENTRIES[args.entries[0]][1]).write_text(json.dumps(out, indent=2) + "\n")
    for entry, report in reports.items():
        for label, row in report["cases"].items():
            print(f"{entry:6s} {label:24s} {row['parent_ms']:10.3f} -> "
                  f"{row['change_ms']:10.3f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
