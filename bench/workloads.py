"""The benchmark's four workloads.

Each workload makes the inputs of operation ``i`` from the workload seed
(``prep``), runs the operation through randgame's public entry points
(``run``, the timed part) and checks its output (``check``, untimed). Inputs
are generated here, not by randgame's own generators, so that a change to
the package cannot change what the benchmark feeds it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import randgame.cli
import randgame.costs
import randgame.kernel
import randgame.model
import randgame.solver

from checks import (
    check_curve,
    check_exit,
    check_report,
    check_solve,
    parse_curve,
    parse_report,
)

# Default feasible intervals of the game's coordinates (the defaults of
# model.default_boxes and kernel.default_dual_boxes at the time this benchmark
# was written), kept here so the box check does not trust the package's own.
LEARNER_DEV = (1e-6, 1e-3)
ATTACKER_MEAN = (0.0, 1.0)
ATTACKER_DEV = (1e-3, 0.5)
XI_MEAN = (-1.0, 2.0)

# Sizes of one operation. "toy" is for the self-tests only.
SIZES = {
    "solve-primal": {"full": dict(n_per_class=2000, max_iter=150),
                     "toy": dict(n_per_class=25, max_iter=10)},
    "solve-dual": {"full": dict(n_per_class=30, max_iter=100),
                   "toy": dict(n_per_class=4, max_iter=5)},
    "security-curve": {
        "full": dict(box_n=500, box_k=20, box_dmax="0,1,2", box_reps=1,
                     flip_n=1000, flip_k=1000, flip_dmax="0,2,5,10,20", flip_reps=3),
        "toy": dict(box_n=60, box_k=5, box_dmax="0,1,2", box_reps=1,
                    flip_n=80, flip_k=40, flip_dmax="0,2,5", flip_reps=2),
    },
    "diagnostics": {"full": dict(n_per_class=5, profiles=1, pairs=50),
                    "toy": dict(n_per_class=2, profiles=1, pairs=4)},
}


@dataclass
class Call:
    """One timed call into randgame and what it returned."""

    metric: str
    seconds: float
    code: object = None
    error: str | None = None
    stdout: str = ""
    out: Path | None = None
    result: object = None


@dataclass
class Record:
    """The checked outcome of one call."""

    op: int
    metric: str
    seconds: float
    digest: str
    problems: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)
    ref_seconds: float = 0.0  # seconds scaled to the reference machine speed


def call_cli(metric: str, argv: list, out: Path | None = None) -> Call:
    """Run the CLI in process, looking ``main`` up at call time so that the
    traced run's rebinding is seen."""
    buf = io.StringIO()
    code, error = None, None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = randgame.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # an operation that raises counts as failed
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    return Call(metric, seconds, code, error, buf.getvalue(), out)


def digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


def blobs(rng, n_per_class: int, sep: float = 0.4):
    """The synth_2d distribution: isotropic blobs (std 0.08) at (0.3, 0.3)
    and shifted diagonally by sep, clipped to the unit square."""
    legit = rng.normal(0.3, 0.08, size=(n_per_class, 2))
    mal = rng.normal(0.3 + sep, 0.08, size=(n_per_class, 2))
    X = np.clip(np.vstack([legit, mal]), 0.0, 1.0)
    y = np.concatenate([-np.ones(n_per_class), np.ones(n_per_class)])
    return X, y


def write_dense(path: Path, X, y) -> None:
    path.write_text("".join(
        f"{int(t):+d}," + ",".join(f"{v:.17g}" for v in row) + "\n" for t, row in zip(y, X)
    ))


def write_sparse(path: Path, X, y) -> None:
    path.write_text("".join(
        f"{int(t):+d} " + " ".join(f"{j + 1}:1" for j in np.flatnonzero(row)) + "\n"
        for t, row in zip(y, X)
    ))


def write_learner(path: Path, w, b: float) -> None:
    v = np.concatenate([w, [b], np.full(w.size + 1, 1e-4)])
    path.write_text(",".join(f"{x:.17g}" for x in v) + "\n")


def write_cfg(path: Path, cfg: dict) -> None:
    path.write_text("".join(f"{k}={v}\n" for k, v in cfg.items()))


def read_flat(path: Path) -> np.ndarray:
    return np.array([float(t) for t in path.read_text().strip().split(",")])


def game_box(m: int, W: float, n: int, k: int, attacker_mean) -> tuple:
    """Bounds of the flat layout [learner means (m); learner deviations (m);
    per sample: attacker means (k); attacker deviations (k)]."""
    bounds = []
    for j in (0, 1):
        attacker = np.concatenate([np.full(k, attacker_mean[j]), np.full(k, ATTACKER_DEV[j])])
        bounds.append(np.concatenate([np.full(m, (-W, W)[j]), np.full(m, LEARNER_DEV[j]),
                                      np.tile(attacker, n)]))
    return tuple(bounds)


class Workload:
    name = ""
    # The per-call metrics this workload reports, in the order its calls run.
    metrics: tuple = ()

    def __init__(self, seed: int, workdir: Path, size: str):
        self.seed = seed
        self.workdir = workdir
        self.size = SIZES[self.name][size]

    def rng(self, i: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, i])

    def opdir(self, i: int) -> Path:
        d = self.workdir / f"op{i}"
        d.mkdir(parents=True, exist_ok=True)
        return d

    def cleanup(self, inp: dict) -> None:
        if "dir" in inp:
            shutil.rmtree(inp["dir"], ignore_errors=True)

    def prep(self, i: int) -> dict:
        raise NotImplementedError

    def run(self, inp: dict) -> list:
        raise NotImplementedError

    def check(self, i: int, inp: dict, call: Call) -> Record:
        rec = Record(i, call.metric, call.seconds, "")
        if call.error is not None:
            rec.problems.append(f"raised {call.error}")
            return rec
        try:
            self._check(inp, call, rec)
        except (OSError, ValueError) as exc:
            rec.problems.append(f"unreadable output: {exc}")
        return rec

    def _check(self, inp: dict, call: Call, rec: Record) -> None:
        raise NotImplementedError


class SolvePrimal(Workload):
    """CLI ``train`` on a 4000-point synth_2d set, capped iterations."""

    name = "solve-primal"
    metrics = ("solve_s",)
    rho, W = 10.0, 1.0

    def prep(self, i):
        rng = self.rng(i)
        X, y = blobs(rng, self.size["n_per_class"])
        d = self.opdir(i)
        write_dense(d / "data.csv", X, y)
        write_cfg(d / "game.cfg", dict(rho_l=self.rho, rho_d=self.rho, W=self.W,
                                       max_iter=self.size["max_iter"],
                                       seed=int(rng.integers(2**31))))
        return dict(dir=d, X=X, y=y)

    def run(self, inp):
        d = inp["dir"]
        argv = ["train", "--data", str(d / "data.csv"), "--game", str(d / "game.cfg"),
                "--out", str(d / "eq.csv")]
        return [call_cli("solve_s", argv, d / "eq.csv")]

    def _check(self, inp, call, rec):
        rec.problems += check_exit(call.code, {0, 2})
        raw = call.out.read_bytes()
        rec.digest = digest(raw, call.stdout.encode())
        theta = read_flat(call.out)
        n, k = inp["X"].shape
        lb, ab = randgame.model.default_boxes(n, k, self.W)
        game = randgame.model.GameSpec(randgame.model.Dataset(inp["X"], inp["y"]),
                                       self.rho, self.rho, lb, ab)
        lo, up = game_box(k + 1, self.W, n, k, ATTACKER_MEAN)
        residual = (randgame.solver.vi_residual(theta, randgame.costs.game_operator(game))
                    if theta.shape == lo.shape else float("nan"))
        rec.extras["solve_residual"] = residual
        rec.problems += check_solve(theta, lo, up, call.code == 0, residual)


class SolveDual(Workload):
    """Library dual (RBF kernel) game: the operator is built in prep, the
    timed call is the solve."""

    name = "solve-dual"
    metrics = ("solve_s",)
    rho = 10.0

    def prep(self, i):
        rng = self.rng(i)
        X, y = blobs(rng, self.size["n_per_class"])
        ops = randgame.kernel.dual_game_operator(
            randgame.model.Dataset(X, y), randgame.kernel.Kernel("rbf", 1.0), self.rho, self.rho)
        cfg = randgame.solver.SolverConfig(max_iter=self.size["max_iter"],
                                           seed=int(rng.integers(2**31)))
        return dict(n=X.shape[0], ops=ops, cfg=cfg)

    def run(self, inp):
        t0 = time.perf_counter()
        try:
            result = randgame.solver.extragradient_solve(inp["ops"], None, inp["cfg"])
        except Exception as exc:  # an operation that raises counts as failed
            return [Call("solve_s", time.perf_counter() - t0,
                         error=f"{type(exc).__name__}: {exc}")]
        return [Call("solve_s", time.perf_counter() - t0, result=result)]

    def _check(self, inp, call, rec):
        res = call.result
        theta = np.asarray(res.theta, dtype=float)
        rec.digest = digest(theta.tobytes(), res.termination.encode())
        residual = randgame.solver.vi_residual(theta, inp["ops"])
        rec.extras["solve_residual"] = residual
        n = inp["n"]
        lo, up = game_box(n + 1, 1.0, n, n, XI_MEAN)
        rec.problems += check_solve(theta, lo, up, bool(res.converged), residual)


class SecurityCurve(Workload):
    """CLI ``secure-eval`` twice: box-L2 on a dense set, binary_flip on a
    sparse binary set read from idx:val text."""

    name = "security-curve"
    metrics = ("curve_s", "flip_curve_s")

    def prep(self, i):
        s = self.size
        rng = self.rng(i)
        d = self.opdir(i)
        # Dense set: two classes 1.0 apart along a random unit direction.
        n, k = s["box_n"], s["box_k"]
        y = np.where(np.arange(n) < n // 2, -1.0, 1.0)
        u = rng.normal(size=k)
        u /= np.linalg.norm(u)
        X = np.clip(0.5 + 0.1 * rng.normal(size=(n, k)) + 0.5 * y[:, None] * u, 0.0, 1.0)
        write_dense(d / "box.csv", X, y)
        write_learner(d / "box_eq.csv", u + 0.2 * rng.normal(size=k) / np.sqrt(k), 0.0)
        # Sparse set: spam-like words that malicious samples use more often.
        n, k = s["flip_n"], s["flip_k"]
        y = np.where(np.arange(n) < n // 2, -1.0, 1.0)
        p_legit = np.full(k, 0.01)
        p_mal = p_legit.copy()
        spam = rng.permutation(k)[: k // 10]
        p_legit[spam], p_mal[spam] = 0.02, 0.2
        Xb = (rng.random((n, k)) < np.where(y[:, None] > 0, p_mal, p_legit)).astype(float)
        Xb[0, k - 1] = 1.0  # the file's largest index fixes k
        write_sparse(d / "flip.svm", Xb, y)
        write_learner(d / "flip_eq.csv", np.log(p_mal / p_legit) + 0.1 * rng.normal(size=k), 0.0)
        return dict(dir=d, seed=int(rng.integers(2**31)))

    def run(self, inp):
        d, s = inp["dir"], self.size
        seed = ["--seed", str(inp["seed"])]
        box = ["secure-eval", "--params", str(d / "box_eq.csv"), "--data", str(d / "box.csv"),
               "--dmax-list", s["box_dmax"], "--reps", str(s["box_reps"]),
               "--out", str(d / "box_curve.csv")] + seed
        flip = ["secure-eval", "--params", str(d / "flip_eq.csv"), "--data", str(d / "flip.svm"),
                "--mode", "binary_flip", "--dmax-list", s["flip_dmax"],
                "--reps", str(s["flip_reps"]), "--out", str(d / "flip_curve.csv")] + seed
        return [call_cli("curve_s", box, d / "box_curve.csv"),
                call_cli("flip_curve_s", flip, d / "flip_curve.csv")]

    def _check(self, inp, call, rec):
        rec.problems += check_exit(call.code, {0})
        raw = call.out.read_bytes()
        rec.digest = digest(raw, call.stdout.encode())
        budgets = self.size["box_dmax" if call.metric == "curve_s" else "flip_dmax"]
        rec.problems += check_curve(parse_curve(raw.decode()), budgets.split(","))


class Diagnostics(Workload):
    """CLI ``check-eq`` on a 10-point set of a game that certifies."""

    name = "diagnostics"
    metrics = ("diag_s",)

    def prep(self, i):
        rng = self.rng(i)
        X, y = blobs(rng, self.size["n_per_class"])
        d = self.opdir(i)
        write_dense(d / "data.csv", X, y)
        write_cfg(d / "game.cfg", dict(rho_l=100.0, rho_d=100.0, bias_reg=1.0, W=0.5))
        return dict(dir=d, seed=int(rng.integers(2**31)))

    def run(self, inp):
        d, s = inp["dir"], self.size
        argv = ["check-eq", "--data", str(d / "data.csv"), "--game", str(d / "game.cfg"),
                "--profiles", str(s["profiles"]), "--pairs", str(s["pairs"]),
                "--seed", str(inp["seed"])]
        return [call_cli("diag_s", argv)]

    def _check(self, inp, call, rec):
        rec.problems += check_exit(call.code, {0})
        rec.digest = digest(call.stdout.encode())
        report = parse_report(call.stdout)
        rec.extras["uniqueness_margin"] = report.get("uniqueness_margin", float("nan"))
        rec.problems += check_report(report)


WORKLOADS = {w.name: w for w in (SolvePrimal, SolveDual, SecurityCurve, Diagnostics)}
