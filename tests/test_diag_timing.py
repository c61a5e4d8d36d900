"""tools/diag_timing.py at a tiny size: the report it writes has its keys,
and the sizes timed in the change alone carry no parent numbers."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _timing_module():
    path = ROOT / "tools" / "diag_timing.py"
    spec = importlib.util.spec_from_file_location("diag_timing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_reports_every_size():
    timing = _timing_module()
    report = timing.compare(ROOT, ROOT, sizes=(3,), change_only=(4,), rounds=1, passes=1)
    report = json.loads(json.dumps(report))
    assert {"metric", "rounds", "passes", "blas_threads", "cores", "blas", "peak_rss_mb",
            "sizes"} <= set(report)
    assert report["cores"] >= 1 and report["blas"]
    assert set(report["sizes"]) == {"n=3 k=2", "n=4 k=2"}
    both = report["sizes"]["n=3 k=2"]
    assert set(both) == {"parent_ms", "change_ms", "ratio", "parent_pass_ms", "change_pass_ms"}
    assert both["parent_ms"] > 0 and both["change_ms"] > 0
    assert set(report["sizes"]["n=4 k=2"]) == {"change_ms", "change_pass_ms"}
