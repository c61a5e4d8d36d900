"""Output checks of the benchmark: each returns a list of problems, empty when
the operation's output is correct. They are pure functions, so the self-tests
can plant bad results in them directly."""

from __future__ import annotations

import math

import numpy as np

# A solve that claims convergence must have a natural residual at or below this.
CONVERGED_RESIDUAL = 1e-6


def check_exit(code, allowed) -> list[str]:
    if code not in allowed:
        return [f"exit code {code!r}, expected one of {sorted(allowed)}"]
    return []


def check_solve(theta, lower, upper, converged: bool, residual: float) -> list[str]:
    """A returned point must be finite and inside its box, and a claimed
    convergence must be backed by the natural residual."""
    problems = []
    theta = np.asarray(theta, dtype=float)
    if theta.shape != np.shape(lower):
        return [f"theta has {theta.size} coordinates, expected {np.size(lower)}"]
    if not np.all(np.isfinite(theta)):
        problems.append("theta has non-finite coordinates")
    elif np.any(theta < lower) or np.any(theta > upper):
        problems.append("theta lies outside its feasible box")
    if not math.isfinite(residual):
        problems.append(f"natural residual is {residual}")
    elif converged and residual > CONVERGED_RESIDUAL:
        problems.append(
            f"claims convergence at natural residual {residual:.3g} > {CONVERGED_RESIDUAL:g}"
        )
    return problems


def parse_curve(text: str):
    """(d_max, tp_mean, tp_std) rows of a secure-eval curve CSV."""
    lines = text.strip().splitlines()
    if not lines or not lines[0].startswith("d_max,tp_mean,tp_std"):
        raise ValueError("curve file lacks its header")
    return [tuple(float(t) for t in line.split(",")[:3]) for line in lines[1:]]


def check_curve(rows, d_max_list) -> list[str]:
    """The curve covers the requested budgets, and its tp_mean lies in [0, 1]
    and does not increase with d_max."""
    problems = []
    d = [r[0] for r in rows]
    tp = [r[1] for r in rows]
    if d != [float(x) for x in d_max_list]:
        problems.append(f"curve budgets {d} differ from the requested {list(d_max_list)}")
    if not all(0.0 <= t <= 1.0 for t in tp):
        problems.append(f"tp_mean outside [0, 1]: {tp}")
    if any(b > a for a, b in zip(tp, tp[1:])):
        problems.append(f"tp_mean increases with d_max: {tp}")
    if not all(math.isfinite(r[2]) and r[2] >= 0.0 for r in rows):
        problems.append("tp_std is negative or non-finite")
    return problems


def parse_report(text: str) -> dict:
    """key=value lines printed by check-eq."""
    out = {}
    for line in text.splitlines():
        key, sep, val = line.partition("=")
        if sep:
            out[key.strip()] = float(val)
    return out


def check_report(report: dict) -> list[str]:
    """The certifying game must keep a positive margin and no violations."""
    problems = []
    margin = report.get("uniqueness_margin", float("nan"))
    violations = report.get("monotone_violations", float("nan"))
    if not margin > 0:
        problems.append(f"uniqueness_margin {margin} is not positive")
    if violations != 0:
        problems.append(f"monotone_violations {violations} is not 0")
    return problems
