"""Time one pseudo-gradient of the primal and the dual game operator in two
checkouts of randgame, and write the before/after numbers as JSON.

    python tools/pgrad_timing.py --parent PATH [--change PATH] [--out FILE]

Each checkout is timed in its own Python process with PYTHONPATH set to its
src/ and one BLAS thread. A round times a batch of calls long enough to read
on the clock; a pass reports the median per-call time of its rounds, and the
parent and the change alternate pass by pass so that slow drift of the host
hits both alike. The JSON holds the median over passes, every pass's median,
the ratio change / parent per size, the core count and the BLAS.
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

# (n, k) of the primal games, and n of the RBF dual game on 2-D points.
PRIMAL_SIZES = ((10, 2), (4000, 2), (1000, 200), (500, 1000))
DUAL_N = 60
ROUNDS = 11
PASSES = 7
MIN_ROUND_S = 0.02  # a round repeats the call until it lasts at least this
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _operators(primal_sizes, dual_n):
    """Yield (label, pseudo_grad, theta) per game, each built only when the
    previous one is done with, using the randgame on sys.path; inputs come
    from fixed seeds, not from randgame's generators."""
    import numpy as np

    from randgame.costs import game_operator
    from randgame.kernel import Kernel, dual_game_operator
    from randgame.model import Dataset, GameSpec, default_boxes

    def labels(rng, n):
        y = rng.choice([-1.0, 1.0], size=n)
        y[0] = -y[-1] if n > 1 else y[0]
        return y

    def inside(ops, rng):
        return ops.lower + rng.uniform(0.2, 0.8, ops.dim) * (ops.upper - ops.lower)

    for n, k in primal_sizes:
        rng = np.random.default_rng(n * 7919 + k)
        data = Dataset(rng.uniform(size=(n, k)), labels(rng, n))
        ops = game_operator(GameSpec(data, 10.0, 10.0, *default_boxes(n, k, 1.0)))
        yield f"primal n={n} k={k}", ops.pseudo_grad, inside(ops, rng)
    if dual_n:
        rng = np.random.default_rng(dual_n)
        data = Dataset(rng.uniform(size=(dual_n, 2)), labels(rng, dual_n))
        ops = dual_game_operator(data, Kernel("rbf", 1.0), 10.0, 10.0)
        yield f"dual rbf n={dual_n}", ops.pseudo_grad, inside(ops, rng)


def _worker(spec: dict) -> dict:
    """Median seconds per pseudo_grad call for every game of spec, and the
    file of the randgame package that was timed."""
    import randgame

    result = {"games": {}, "randgame": randgame.__file__}
    for label, fn, theta in _operators(spec["primal_sizes"], spec["dual_n"]):
        fn(theta)  # warm-up
        t0 = time.perf_counter()
        fn(theta)
        calls = max(1, int(MIN_ROUND_S / max(time.perf_counter() - t0, 1e-9)))
        rounds = []
        for _ in range(spec["rounds"]):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn(theta)
            rounds.append((time.perf_counter() - t0) / calls)
        result["games"][label] = median(rounds)
    return result


def time_checkout(checkout, primal_sizes=PRIMAL_SIZES, dual_n=DUAL_N, rounds=ROUNDS) -> dict:
    """One pass: {game label: median seconds per call} for the checkout at
    path, measured in a fresh process with one BLAS thread. Raises
    RuntimeError if that process imported a randgame from elsewhere (an
    installed copy), which would time the wrong code."""
    src = Path(checkout).resolve() / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.update({var: "1" for var in _THREAD_VARS})
    spec = {"primal_sizes": [list(s) for s in primal_sizes], "dual_n": dual_n, "rounds": rounds}
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--worker", json.dumps(spec)],
        env=env, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout)
    if not Path(result["randgame"]).resolve().is_relative_to(src):
        raise RuntimeError(f"{checkout}: timed randgame from {result['randgame']}, not {src}")
    return result["games"]


def _blas() -> str:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}"


def compare(parent, change, primal_sizes=PRIMAL_SIZES, dual_n=DUAL_N, rounds=ROUNDS,
            passes=PASSES) -> dict:
    """Alternate passes over the parent and the change checkout; the report
    holds per game the median over passes of each side's median ms per call."""
    runs = {"parent": [], "change": []}
    for _ in range(passes):
        for side, path in (("parent", parent), ("change", change)):
            runs[side].append(time_checkout(path, primal_sizes, dual_n, rounds))
    games = {}
    for label in runs["parent"][0]:
        before = [1e3 * r[label] for r in runs["parent"]]
        after = [1e3 * r[label] for r in runs["change"]]
        games[label] = {
            "parent_ms": median(before),
            "change_ms": median(after),
            "ratio": median(after) / median(before),
            "parent_pass_ms": before,
            "change_pass_ms": after,
        }
    return {
        "metric": "pseudo_grad wall time per call, median of rounds, median over passes",
        "rounds": rounds,
        "passes": passes,
        "blas_threads": 1,
        "cores": os.cpu_count(),
        "blas": _blas(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "games": games,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", help="checkout of the parent commit")
    p.add_argument("--change", default=str(Path(__file__).resolve().parent.parent),
                   help="checkout of the change (default: this repository)")
    p.add_argument("--out", default="BENCH_planar_evaluate.json")
    p.add_argument("--worker", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.worker:
        print(json.dumps(_worker(json.loads(args.worker))))
        return 0
    if not args.parent:
        p.error("--parent is required")
    report = compare(args.parent, args.change)
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    for label, g in report["games"].items():
        print(f"{label:24s} {g['parent_ms']:9.3f} -> {g['change_ms']:9.3f} ms  "
              f"({g['ratio']:.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
