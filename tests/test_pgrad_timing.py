"""tools/pgrad_timing.py at a tiny size: the report it writes has its keys,
and a checkout without randgame is refused rather than timed."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _timing_module():
    path = ROOT / "tools" / "pgrad_timing.py"
    spec = importlib.util.spec_from_file_location("pgrad_timing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_reports_every_game():
    timing = _timing_module()
    report = timing.compare(ROOT, ROOT, primal_sizes=((3, 2),), dual_n=4, rounds=2, passes=1)
    report = json.loads(json.dumps(report))
    assert {"metric", "rounds", "passes", "blas_threads", "cores", "blas", "games"} <= set(report)
    assert report["blas_threads"] == 1 and report["cores"] >= 1 and report["blas"]
    assert set(report["games"]) == {"primal n=3 k=2", "dual rbf n=4"}
    for game in report["games"].values():
        assert set(game) == {"parent_ms", "change_ms", "ratio", "parent_pass_ms", "change_pass_ms"}
        assert game["parent_ms"] > 0 and game["change_ms"] > 0
        assert len(game["parent_pass_ms"]) == len(game["change_pass_ms"]) == 1


def test_checkout_without_randgame_is_refused(tmp_path):
    # Without src/randgame the worker either fails to import randgame or picks
    # up an installed copy; either way no timing of the wrong code comes back.
    timing = _timing_module()
    with pytest.raises((RuntimeError, subprocess.CalledProcessError)):
        timing.time_checkout(tmp_path, primal_sizes=((3, 2),), dual_n=0, rounds=1)
