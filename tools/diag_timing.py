"""Time one uniqueness-diagnostics profile of the primal game in two checkouts
of randgame, and write the before/after numbers as JSON.

    python tools/diag_timing.py --parent PATH [--change PATH] [--out FILE]

A call is uniqueness_margin(ops, n_profiles=1, seed=0, n_pairs=1): the
curvature numbers at one sampled profile plus one monotonicity pair (two
pseudo-gradient calls). The game is the certifying one of the benchmark's
diagnostics workload (rho_l = rho_d = 100, bias_reg = 1, W = 0.5) on n
uniform points in [0, 1]^2. Sizes in CHANGE_ONLY are timed in the change
alone, since the parent's dense dim x dim Jacobian does not fit there.

Each checkout is timed in its own Python process with PYTHONPATH set to its
src/ and one BLAS thread. A round repeats the call until it lasts at least
MIN_ROUND_S; a pass reports the median per-call time of its rounds, and the
parent and the change alternate pass by pass so that slow drift of the host
hits both alike. The JSON holds the median over passes, every pass's median,
the ratio change / parent per size, the peak RSS of each worker, the core
count and the BLAS.
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

SIZES = (10, 500)
CHANGE_ONLY = (5000,)
ROUNDS = 5
PASSES = 5
MIN_ROUND_S = 0.02
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _worker(spec: dict) -> dict:
    """Median seconds per diagnostics call for every size of spec, the peak
    RSS of this process and the file of the randgame package that was timed."""
    import resource

    import numpy as np

    import randgame
    from randgame.costs import game_operator
    from randgame.diagnostics import uniqueness_margin
    from randgame.model import Dataset, GameSpec, default_boxes

    result = {"sizes": {}, "randgame": randgame.__file__}
    for n in spec["sizes"]:
        rng = np.random.default_rng(n)
        y = np.where(np.arange(n) % 2 == 0, -1.0, 1.0)
        game = GameSpec(Dataset(rng.uniform(size=(n, 2)), y), 100.0, 100.0,
                        *default_boxes(n, 2, 0.5), bias_reg=1.0)
        ops = game_operator(game)

        def call():
            uniqueness_margin(ops, n_profiles=1, seed=0, n_pairs=1)

        call()  # warm-up
        t0 = time.perf_counter()
        call()
        calls = max(1, int(MIN_ROUND_S / max(time.perf_counter() - t0, 1e-9)))
        rounds = []
        for _ in range(spec["rounds"]):
            t0 = time.perf_counter()
            for _ in range(calls):
                call()
            rounds.append((time.perf_counter() - t0) / calls)
        result["sizes"][str(n)] = median(rounds)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


def time_checkout(checkout, sizes, rounds=ROUNDS) -> dict:
    """One pass in a fresh process with one BLAS thread: {"sizes": {n:
    median seconds per call}, "peak_rss_mb": ...}. Raises RuntimeError if that
    process imported a randgame from elsewhere, which would time the wrong
    code."""
    src = Path(checkout).resolve() / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.update({var: "1" for var in _THREAD_VARS})
    spec = {"sizes": list(sizes), "rounds": rounds}
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--worker", json.dumps(spec)],
        env=env, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout)
    if not Path(result["randgame"]).resolve().is_relative_to(src):
        raise RuntimeError(f"{checkout}: timed randgame from {result['randgame']}, not {src}")
    return result


def _blas() -> str:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}"


def compare(parent, change, sizes=SIZES, change_only=CHANGE_ONLY, rounds=ROUNDS,
            passes=PASSES) -> dict:
    """Alternate passes over the parent and the change checkout; the report
    holds per size the median over passes of each side's median ms per call."""
    runs = {"parent": [], "change": []}
    for _ in range(passes):
        runs["parent"].append(time_checkout(parent, sizes, rounds))
        runs["change"].append(time_checkout(change, tuple(sizes) + tuple(change_only), rounds))
    report_sizes = {}
    for n in tuple(sizes) + tuple(change_only):
        after = [1e3 * r["sizes"][str(n)] for r in runs["change"]]
        row = {"change_ms": median(after), "change_pass_ms": after}
        if n in sizes:
            before = [1e3 * r["sizes"][str(n)] for r in runs["parent"]]
            row = {"parent_ms": median(before), **row, "ratio": median(after) / median(before),
                   "parent_pass_ms": before}
        report_sizes[f"n={n} k=2"] = row
    return {
        "metric": "uniqueness_margin(n_profiles=1, n_pairs=1) wall time per call, "
                  "median of rounds, median over passes",
        "rounds": rounds,
        "passes": passes,
        "blas_threads": 1,
        "cores": os.cpu_count(),
        "blas": _blas(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        # of one worker process timing every size of its side
        "peak_rss_mb": {side: max(r["peak_rss_mb"] for r in runs[side]) for side in runs},
        "sizes": report_sizes,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", help="checkout of the parent commit")
    p.add_argument("--change", default=str(Path(__file__).resolve().parent.parent),
                   help="checkout of the change (default: this repository)")
    p.add_argument("--out", default="BENCH_analytic_jacobian.json")
    p.add_argument("--worker", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.worker:
        print(json.dumps(_worker(json.loads(args.worker))))
        return 0
    if not args.parent:
        p.error("--parent is required")
    report = compare(args.parent, args.change)
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    for label, row in report["sizes"].items():
        before = f"{row['parent_ms']:10.3f}" if "parent_ms" in row else " " * 10
        print(f"{label:12s} {before} -> {row['change_ms']:10.3f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
