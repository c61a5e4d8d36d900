"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest -q bench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import workloads  # noqa: E402
from checks import check_curve, check_exit, check_report, check_solve  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# The per-operation metrics each workload prints above its result line.
NAMED = {
    "solve-primal": {"setup_s": "s", "solve_s": "s", "solve_residual": "norm", "peak_rss_mb": "MB"},
    "solve-dual": {"setup_s": "s", "solve_s": "s", "solve_residual": "norm", "peak_rss_mb": "MB"},
    "security-curve": {"setup_s": "s", "curve_s": "s", "flip_curve_s": "s", "peak_rss_mb": "MB"},
    "diagnostics": {"setup_s": "s", "diag_s": "s", "peak_rss_mb": "MB"},
}


def run(workload, trace, seed=1, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.3", "--trace", str(trace), "--toy"],
        capture_output=True, text=True, cwd=cwd, timeout=170)


def result_of(out):
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.fixture
def scratch():
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    d = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".bench_work"))
    yield d
    shutil.rmtree(d, ignore_errors=True)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_toy_run_prints_every_end_to_end_metric(workload):
    lines, result = result_of(run(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = {line.split()[0]: line.split()[2] for line in lines if line.startswith("  ")}
    assert printed == NAMED[workload]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_toy_traced_run_prints_every_layer_metric_and_its_role(workload):
    lines, result = result_of(run(workload, 1))
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["trace.overhead"]["value"] > 0
    assert any(line.startswith("role: ") and line.endswith(": confirmed") for line in lines)


def test_same_seed_gives_byte_identical_outputs():
    digests = []
    for _ in range(2):
        result_of(run("diagnostics", 0, seed=7))
        rec = json.loads((ROOT / ".bench_runs" / "diagnostics-seed7-trace0-toy.json").read_text())
        digests.append({(o["op"], o["metric"]): o["digest"] for o in rec["operations"]})
    common = digests[0].keys() & digests[1].keys()
    assert common and all(digests[0][k] == digests[1][k] for k in common)


def test_fails_without_the_package_sources(scratch):
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    shutil.copytree(BENCH, scratch / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = run("solve-primal", 0, cwd=scratch)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_planted_bad_results_are_counted_as_failures(scratch):
    # check functions on their own
    lo, up = np.zeros(3), np.ones(3)
    assert check_solve(np.full(3, 0.5), lo, up, converged=True, residual=1e-2)
    assert not check_solve(np.full(3, 0.5), lo, up, converged=False, residual=1e-2)
    assert not check_solve(np.full(3, 0.5), lo, up, converged=True, residual=1e-8)
    assert check_solve([np.nan, 0.5, 0.5], lo, up, converged=False, residual=1.0)
    assert check_solve([1.5, 0.5, 0.5], lo, up, converged=False, residual=1.0)
    assert check_exit(3, {0}) and check_exit(64, {0, 2}) and not check_exit(2, {0, 2})
    assert check_curve([(0.0, 0.5, 0.0), (1.0, 0.6, 0.0)], ["0", "1"])
    assert check_curve([(0.0, 1.2, 0.0)], ["0"])
    assert check_report({"uniqueness_margin": 0.0, "monotone_violations": 0.0})
    assert check_report({"uniqueness_margin": 100.0, "monotone_violations": 1.0})

    # a dual solve that stopped at max_iter, then re-flagged as converged
    wl = workloads.SolveDual(1, scratch, "toy")
    inp = wl.prep(0)
    honest = wl.run(inp)[0]
    rec = wl.check(0, inp, honest)
    assert not rec.problems and rec.extras["solve_residual"] > 1e-6
    planted = dataclasses.replace(honest, result=dataclasses.replace(
        honest.result, converged=True, termination="tolerance"))
    assert any("claims convergence" in p for p in wl.check(0, inp, planted).problems)

    # the CLI's exit 0 claims convergence too
    wl = workloads.SolvePrimal(1, scratch, "toy")
    inp = wl.prep(0)
    honest = wl.run(inp)[0]
    assert honest.code == 2 and not wl.check(0, inp, honest).problems
    planted = dataclasses.replace(honest, code=0)
    assert any("claims convergence" in p for p in wl.check(0, inp, planted).problems)

    # check-eq exit 3, and a curve whose TP rises with the budget
    wl = workloads.Diagnostics(1, scratch, "toy")
    call = workloads.Call("diag_s", 0.0, 3, stdout="uniqueness_margin=-1\nmonotone_violations=0\n")
    assert len(wl.check(0, {}, call).problems) == 2
    wl = workloads.SecurityCurve(1, scratch, "toy")
    bad = scratch / "curve.csv"
    bad.write_text("d_max,tp_mean,tp_std,fp_target,repetitions,seed\n"
                   "0,0.5,0,0.01,1,0\n1,0.7,0,0.01,1,0\n2,0.1,0,0.01,1,0\n")
    assert wl.check(0, {}, workloads.Call("curve_s", 0.0, 0, out=bad)).problems
    assert wl.check(0, {}, workloads.Call("curve_s", 0.0, None, error="ValueError: x")).problems
