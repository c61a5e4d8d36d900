"""randgame benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The workload's inputs are generated from
--seed; operations run for --seconds. With --trace 0 the last stdout line is
a JSON object with the end-to-end metrics of BENCHMARK.json; with --trace 1
it has the per-layer metrics of a traced run (see NOTES.md). A record of the
run (environment, every operation's time, output digest and problems, and
for traced runs the spans) is written under .bench_runs/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("solve-primal", "solve-dual", "security-curve", "diagnostics")

BLAS_THREADS = 1
# Set-up is measured this many times per run; the median is reported.
SETUP_REPS = 7
# Every run makes at least this many operations, however short --seconds is.
MIN_OPS = 3
# A traced run reports per-layer totals over this many traced operations.
TRACED_OPS = 2
# Reported times are in reference seconds: wall seconds scaled by
# CAL_REF_S / (wall seconds of calibrate() run next to the measurement).
CAL_REF_S = 0.0625

# Units of the per-workload metrics printed above the result line.
NAMED_UNITS = dict(setup_s="s", solve_s="s", solve_residual="norm", curve_s="s",
                   flip_curve_s="s", diag_s="s", peak_rss_mb="MB")

IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:]; t = time.perf_counter(); "
    "import randgame.cli; t = time.perf_counter() - t; import run; print(t, run.calibrate())"
)


def import_seconds() -> tuple[float, float]:
    """Wall time to import the package in a fresh interpreter, and the
    calibration time measured in that interpreter right after."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC), str(ROOT / "bench")],
                         capture_output=True, text=True, timeout=120, check=True)
    wall, cal = out.stdout.split()[-2:]
    return float(wall), float(cal)


def calibrate() -> float:
    """Wall seconds of a fixed mix of the kinds of work the workloads do:
    ufuncs on a few thousand elements, a small symmetric eigensolve, small
    matrix products and many calls on tiny arrays. A gauge of how fast the
    machine runs right now."""
    import numpy as np

    rng = np.random.default_rng(0)
    a, m, v, s = rng.random(4000), rng.random((60, 60)), rng.random(60), rng.random(3)
    k = m @ m.T
    t0 = time.perf_counter()
    for _ in range(100):
        for _ in range(2):
            float(np.exp(-0.5 * a * a).sum() + np.clip(a, 0.2, 0.8) @ a)
        np.linalg.eigvalsh(k)
        for _ in range(4):
            m @ k
        for _ in range(20):
            v = np.tanh(m @ v)
        for _ in range(50):
            float(s @ s)
    return time.perf_counter() - t0


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return dict(cores=os.cpu_count(), cores_usable=len(os.sched_getaffinity(0)),
                blas=f"{blas.get('name', '?')} {blas.get('version', '?')}",
                blas_threads=BLAS_THREADS, python=sys.version.split()[0],
                numpy=np.__version__, scipy=scipy.__version__)


def run_plain(wl, seconds):
    """Set-up measured SETUP_REPS times, timed operations, then one untimed
    repeat of operation 0 whose output must be byte-identical.

    Returns (timed records, repeat records, set-up samples). Set-up samples
    are (wall, reference) seconds; each record carries both too."""
    setup, inputs = [], {}
    for k in range(SETUP_REPS):
        imp, cal = import_seconds()
        t0 = time.perf_counter()
        inputs[k] = wl.prep(k)
        wall = imp + time.perf_counter() - t0
        setup.append((wall, wall * CAL_REF_S / cal))
    records = []
    t_start, i = time.perf_counter(), 0
    cal_before = calibrate()
    while i < MIN_OPS or time.perf_counter() - t_start < seconds:
        inp = inputs.pop(i) if i in inputs else wl.prep(i)
        calls = wl.run(inp)
        cal_after = calibrate()
        cal = 0.5 * (cal_before + cal_after)
        for c in calls:
            rec = wl.check(i, inp, c)
            rec.ref_seconds = c.seconds * CAL_REF_S / cal
            records.append(rec)
        wl.cleanup(inp)
        cal_before = cal_after
        i += 1
    for inp in inputs.values():
        wl.cleanup(inp)
    inp = wl.prep(0)
    repeat = [wl.check(0, inp, c) for c in wl.run(inp)]
    wl.cleanup(inp)
    for a, b in zip([r for r in records if r.op == 0], repeat):
        if a.digest != b.digest:
            b.problems.append("output differs from the first run of the same inputs")
    return records, repeat, setup


def run_traced(wl, seconds, tracer):
    """Pairs of one traced and one untraced run of the same inputs, in
    alternating order. Spans of the first TRACED_OPS operations are kept.
    Returns (records, traced/untraced time ratio per pair)."""
    records, ratios = [], []
    t_start, i = time.perf_counter(), 0
    while i < TRACED_OPS or time.perf_counter() - t_start < seconds:
        digests, times = {}, {}
        for traced in ((True, False) if i % 2 == 0 else (False, True)):
            if traced:
                tracer.begin(i)
            inp = wl.prep(i)
            if traced:
                tracer.operation()
            calls = wl.run(inp)
            if traced:
                tracer.end(keep=i < TRACED_OPS)
            times[traced] = sum(c.seconds for c in calls)
            recs = [wl.check(i, inp, c) for c in calls]
            wl.cleanup(inp)
            digests[traced] = [r.digest for r in recs]
            records += recs
        if digests[True] != digests[False]:
            records[-1].problems.append("traced output differs from the untraced output")
        ratios.append(times[True] / times[False])
        i += 1
    return records, ratios


def plain_metrics(wl, records, setup):
    """End-to-end metrics, and the per-operation metrics named per workload
    as (reference, wall) medians."""
    ops = {}
    for r in records:
        ops[r.op] = ops.get(r.op, 0.0) + r.ref_seconds
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": {"value": median([s[1] for s in setup]), "unit": "s"},
        "op_s": {"value": median(ops.values()), "unit": "s"},
        "peak_rss_mb": {"value": peak, "unit": "MB"},
    }
    named = {"setup_s": (metrics["setup_s"]["value"], median([s[0] for s in setup]))}
    for m in wl.metrics:
        named[m] = (median([r.ref_seconds for r in records if r.metric == m]),
                    median([r.seconds for r in records if r.metric == m]))
    residuals = [r.extras["solve_residual"] for r in records if "solve_residual" in r.extras]
    if residuals:
        named["solve_residual"] = (median(residuals), None)
    named["peak_rss_mb"] = (peak, None)
    return metrics, named, len(ops)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--toy", action="store_true", help="tiny inputs, for the self-tests")
    args = p.parse_args(argv)

    if not (SRC / "randgame" / "__init__.py").is_file():
        sys.stderr.write(f"error: no randgame sources under {SRC}\n")
        return 2
    # BLAS reads its thread count when numpy is first imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import randgame

    if Path(randgame.__file__).resolve().parent != SRC / "randgame":
        sys.stderr.write(f"error: imported randgame from {randgame.__file__}\n")
        return 2
    import tracing
    import workloads

    env = environment()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-toy" if args.toy else "")
    workdir = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    rundir = ROOT / ".bench_runs"
    rundir.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir, "toy" if args.toy else "full")
    record = dict(workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, size=wl.size, env=env)
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    try:
        if args.trace:
            tracer = tracing.Tracer()
            records, ratios = run_traced(wl, args.seconds, tracer)
            layer, layer_self, layer_calls = tracing.layer_metrics(tracer.arrays(),
                                                                   tracer.solves)
            layer["trace.overhead"] = median(ratios)
            residuals = [r.extras["solve_residual"] for r in records
                         if r.op < TRACED_OPS and "solve_residual" in r.extras]
            layer["solve_residual"] = median(residuals) if residuals else 0.0
            units = dict(tracing.LAYER_METRICS, **{"trace.overhead": "ratio",
                                                   "solve_residual": "norm"})
            metrics = {k: {"value": layer[k], "unit": u} for k, u in units.items()}
            role, holds = tracing.ROLES[args.workload]
            role_ok = bool(holds(layer, layer_self, layer_calls))
            total = sum(layer_self.values()) or 1.0
            print(f"{len(ratios)} traced/untraced pairs; per-layer totals over the first "
                  f"{TRACED_OPS}; tracing overhead {layer['trace.overhead']:.3f}x")
            print("layer self-time share: " + " ".join(
                f"{k}={v / total:.1%}" for k, v in sorted(layer_self.items(), key=lambda x: -x[1])))
            print(f"role: {role}: {'confirmed' if role_ok else 'NOT CONFIRMED'}")
            if tracer.missing:
                print("not traced, missing from the package: " + " ".join(tracer.missing))
            record.update(role=role, role_confirmed=role_ok, layer_self_s=layer_self,
                          layer_calls=layer_calls, overhead_ratios=ratios,
                          untraced_targets=tracer.missing)
            tracer.save(rundir / f"{tag}.spans.npz")
        else:
            records, repeat, setup = run_plain(wl, args.seconds)
            metrics, named, n_ops = plain_metrics(wl, records, setup)
            print(f"{n_ops} timed operations, set-up measured {len(setup)} times; medians "
                  f"in reference seconds (wall seconds in brackets)")
            for k, (v, wall) in named.items():
                print(f"  {k:15s} {v:<12.6g} {NAMED_UNITS[k]}"
                      + ("" if wall is None else f"  ({wall:.6g})"))
            record.update(setup_s=setup, named=named)
            records += repeat
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for r in records if r.problems)
    for r in records:
        for prob in r.problems:
            print(f"FAILED op {r.op} {r.metric}: {prob}")
    print(f"{args.workload}: {len(records)} operations attempted, {failed} failed")
    record.update(metrics=metrics, attempted=len(records), failed=failed,
                  operations=[vars(r) for r in records])
    (rundir / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps(dict(correct=failed == 0, attempted=len(records), failed=failed,
                          metrics=metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
