"""tools/ab_timing.py at tiny sizes: every registry entry's report has its
keys for both sides, and a checkout without randgame is refused rather than
timed."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("ab_timing", ROOT / "tools" / "ab_timing.py")
timing = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(timing)


@pytest.mark.parametrize("entry", sorted(timing.ENTRIES))
def test_compare_reports_every_case(entry):
    report = json.loads(json.dumps(timing.compare(entry, ROOT, ROOT, tiny=True, rounds=1,
                                                  passes=1)))
    assert {"entry", "metric", "rounds", "passes", "blas_threads", "cores", "blas",
            "peak_rss_mb", "cases"} <= set(report)
    assert report["blas_threads"] == 1 and report["cores"] >= 1 and report["blas"]
    assert report["peak_rss_mb"]["parent"] > 0 and report["peak_rss_mb"]["change"] > 0
    labels = [label for label, _ in timing.ENTRIES[entry][0](True)]
    assert list(report["cases"]) == labels
    sides = ("parent", "change")
    keys = {f"{side}_{key}" for side in sides for key in ("ms", "pass_ms")} | {"ratio"}
    for label in labels:
        row = report["cases"][label]
        assert keys <= set(row)
        assert all(row[f"{side}_ms"] > 0 and len(row[f"{side}_pass_ms"]) == 1 for side in sides)
        if entry == "solve":
            for side in sides:
                info = row[side]
                assert info["newton_calls"] == info["newton_accepted"] + info["newton_rejected"]
                if label.startswith("dual"):
                    # the solve-dual workload's game at toy size, within its cap
                    assert label.endswith(f"max_iter={timing.DUAL_MAX_ITER}")
                    assert 0 < info["evaluations"] and info["iterations"] <= timing.DUAL_MAX_ITER
                    continue
                assert info["evaluations"] > 0 and info["residual"] <= 1e-8
                assert info["newton_calls"] >= 1
        if entry == "newton":
            # both sides' candidates start from the first-order iterate
            assert all(row[side]["iterate_attempts"] == 0 for side in sides)
            assert all(row[side]["step"] for side in sides)
        if entry in ("solve", "newton"):
            assert all("theta" not in row[side] for side in sides)
            assert row["max_abs_theta_diff"] == 0.0  # both sides ran the same code
        if entry == "mono":
            assert all(type(row[side]["violations"]) is int for side in sides)
            # both sides ran the same code on the same pairs
            assert row["parent"]["violations"] == row["change"]["violations"]
        if entry == "costs":
            assert all(len(row[side]["costs"]) == 2 for side in sides)
            assert row["same_costs"]  # both sides ran the same code
        if entry == "curve":
            assert all(len(row[side]["points"]) >= 2 for side in sides)
            assert row["same_points"]  # both sides ran the same code
        if entry == "load":
            assert {row[side]["kind"] for side in sides} == {
                "binary" if label.startswith("sparse") else "continuous_unit_interval"}
            assert row["same_data"]  # both sides ran the same code


def test_checkout_without_randgame_is_refused(tmp_path):
    # Without src/randgame the worker either fails to import randgame or picks
    # up an installed copy; either way no timing of the wrong code comes back.
    with pytest.raises((RuntimeError, subprocess.CalledProcessError)):
        timing.time_checkout(tmp_path, "pgrad", tiny=True, rounds=1)
