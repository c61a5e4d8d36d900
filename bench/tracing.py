"""Per-layer tracing from outside the package.

While an operation is traced, the public functions of each randgame layer are
replaced by wrappers that record a span (name, start, end, parent span,
operation id) and, where it applies, an amount (elements or bytes). The
wrappers are bound on the module attributes that callers look up at call
time, e.g. ``randgame.costs.hinge_expect`` for the costs layer's calls into
``hinge``. Spans stay in memory and are written out when the run ends.

A layer's self time is the duration of its spans minus the time covered by
their child spans.
"""

from __future__ import annotations

import dataclasses
import os
import time
from array import array

import numpy as np

import randgame.attacks as attacks
import randgame.cli as cli
import randgame.costs as costs
import randgame.data as data
import randgame.diagnostics as diagnostics
import randgame.hinge as hinge
import randgame.kernel as kernel
import randgame.model as model
import randgame.solver as solver


def _elems(args):
    return int(np.size(args[0]))


def _file_bytes(args):
    try:
        return os.path.getsize(args[0])
    except OSError:
        return 0


_HINGE = ("hinge_expect", "hinge_expect_dmu", "hinge_expect_dvar")

# (module, attribute, span name, amount) rebound while an operation is traced.
TARGETS = [
    (cli, "main", "cli", None),
    (data, "load_dense_csv", "data.load", _file_bytes),
    (data, "load_sparse", "data.load", _file_bytes),
    (kernel, "gram", "kernel.gram", None),
    (kernel, "check_psd", "kernel.check_psd", None),
    (attacks, "security_curve", "attacks.curve", None),
    (attacks, "attack_l2_box", "attacks.l2_box", None),
    (attacks, "attack_flip_binary", "attacks.flip", None),
    (attacks, "tp_at_fp", "attacks.tp_at_fp", None),
    (diagnostics, "uniqueness_margin", "diagnostics.margin", None),
    (diagnostics, "fd_hessian_block", "diagnostics.fd_hessian", None),
    (diagnostics, "pseudo_jacobian_min_eig", "diagnostics.jacobian", None),
    (diagnostics, "monotonicity_sample", "diagnostics.monotonicity", None),
] + [(m, "unflatten", "model.unflatten", None) for m in (model, costs, solver)] + [
    (m, f, "hinge", _elems) for m in (hinge, costs, kernel) for f in _HINGE
]

# Operator factories whose returned VIGame gets its callables wrapped:
# (module, attribute, span of the scalar costs, span of the pseudo-gradient).
OPERATORS = [
    (costs, "game_operator", "costs.cost", "costs.pgrad"),
    (kernel, "dual_game_operator", "kernel.cost", "kernel.grad"),
]
_COST_FIELDS = ("cost_l", "cost_d", "loss_l", "loss_d")

SPAN_NAMES = sorted({t[2] for t in TARGETS} | {o[2] for o in OPERATORS}
                    | {o[3] for o in OPERATORS} | {"solver"})


class Tracer:
    """Records spans of the operations run between ``begin`` and ``end``."""

    def __init__(self):
        self.on = False
        self.op = -1  # 2 * operation + phase (0 prep, 1 op)
        self.names = list(SPAN_NAMES)
        self.cols = dict(name=array("b"), parent=array("l"), opid=array("l"),
                         start=array("d"), end=array("d"), amount=array("q"))
        self.solves = []  # (opid, iterations, termination) per solver call
        self._stack = [-1]
        self._bindings = []
        self.missing = []  # targets the package no longer has
        for mod, attr, span, amount in TARGETS:
            if hasattr(mod, attr):
                fn = getattr(mod, attr)
                self._bindings.append((mod, attr, fn, self._wrap(span, fn, amount)))
            else:
                self.missing.append(f"{mod.__name__}.{attr}")
        for mod, attr, cost_span, grad_span in OPERATORS:
            if hasattr(mod, attr):
                fn = getattr(mod, attr)
                self._bindings.append((mod, attr, fn, self._wrap_operator(fn, cost_span, grad_span)))
            else:
                self.missing.append(f"{mod.__name__}.{attr}")
        fn = solver.extragradient_solve
        self._bindings.append((solver, "extragradient_solve", fn, self._wrap_solver(fn)))

    def _wrap(self, span, fn, amount=None):
        nid = self.names.index(span)
        c = self.cols
        name, parent, opid, start, end, amounts = (
            c["name"], c["parent"], c["opid"], c["start"], c["end"], c["amount"])
        stack, perf, tracer = self._stack, time.perf_counter, self

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            opid.append(tracer.op)
            amounts.append(amount(args) if amount is not None else 0)
            end.append(0.0)
            stack.append(idx)
            start.append(perf())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf()
                stack.pop()

        return traced

    def _wrap_solver(self, fn):
        def solve(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.on:
                self.solves.append((self.op, result.iterations, result.termination))
            return result

        return self._wrap("solver", solve)

    def _wrap_operator(self, fn, cost_span, grad_span):
        def build(*args, **kwargs):
            ops = fn(*args, **kwargs)
            wrapped = {f: self._wrap(cost_span, getattr(ops, f))
                       for f in _COST_FIELDS if callable(getattr(ops, f, None))}
            wrapped["pseudo_grad"] = self._wrap(grad_span, ops.pseudo_grad)
            return dataclasses.replace(ops, **wrapped)

        return build

    def begin(self, i: int) -> None:
        """Start tracing operation i, in its prep phase."""
        self._mark = (len(self.cols["start"]), len(self.solves))
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)
        self.op = 2 * i
        self.on = True

    def operation(self) -> None:
        """Switch from the prep phase to the operation itself."""
        self.op |= 1

    def end(self, keep: bool) -> None:
        """Stop tracing; drop this operation's spans unless keep."""
        self.on = False
        for mod, attr, fn, _ in self._bindings:
            setattr(mod, attr, fn)
        if not keep:
            n, s = self._mark
            for arr in self.cols.values():
                del arr[n:]
            del self.solves[s:]

    def arrays(self) -> dict:
        return dict(names=np.array(self.names),
                    **{k: np.array(v) for k, v in self.cols.items()})

    def save(self, path) -> None:
        np.savez_compressed(path, **self.arrays())


# Per-layer metrics: name -> unit. Counts and self times are totals over the
# traced operations (prep included), so counts repeat exactly for a seed.
LAYER_METRICS = {
    "hinge.calls": "count", "hinge.elems": "count", "hinge.self_s": "s",
    "model.unflatten.calls": "count", "model.unflatten.self_s": "s",
    "costs.pgrad.calls": "count", "costs.pgrad.self_s": "s",
    "costs.cost.calls": "count", "costs.cost.self_s": "s",
    "solver.iterations": "count", "solver.evals": "count",
    "solver.ls_accept_ratio": "ratio", "solver.self_s": "s",
    "kernel.gram.self_s": "s", "kernel.check_psd.calls": "count",
    "kernel.check_psd.self_s": "s", "kernel.grad.calls": "count", "kernel.grad.self_s": "s",
    "attacks.samples": "count", "attacks.l2_box.self_s": "s", "attacks.flip.self_s": "s",
    "attacks.tp_at_fp.calls": "count", "attacks.tp_at_fp.self_s": "s",
    "diagnostics.cost_evals": "count", "diagnostics.pgrad_evals": "count",
    "diagnostics.fd_hessian.self_s": "s", "diagnostics.jacobian.self_s": "s",
    "diagnostics.monotonicity.self_s": "s",
    "data.load.calls": "count", "data.load.bytes": "B", "data.load.self_s": "s",
    "cli.self_s": "s",
}


def layer_metrics(t: dict, solves: list) -> tuple[dict, dict, dict]:
    """Per-layer metrics, and self time and calls per layer in the operation
    phase (for the role checks), from the arrays of ``Tracer.arrays``."""
    names = list(t["names"])
    name, parent, opid = t["name"], t["parent"], t["opid"]
    dur = t["end"] - t["start"]
    child = np.zeros(dur.size)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_t = dur - child

    sid = names.index("solver")
    diag_ids = {names.index(s) for s in names if s.startswith("diagnostics.")}
    name_l = name.tolist()
    under_solver = [False] * name.size
    under_diag = [False] * name.size
    for j, p in enumerate(parent.tolist()):
        if p >= 0:  # a parent is recorded before its children
            under_solver[j] = under_solver[p] or name_l[p] == sid
            under_diag[j] = under_diag[p] or name_l[p] in diag_ids
    under_solver, under_diag = np.array(under_solver, bool), np.array(under_diag, bool)

    def mask(*spans):
        return np.isin(name, [names.index(s) for s in spans])

    def calls(*spans):
        return int(mask(*spans).sum())

    def self_s(*spans):
        return float(self_t[mask(*spans)].sum())

    iterations = sum(s[1] for s in solves)
    starts = iterations + sum(s[2] == solver.TERM_LINESEARCH for s in solves)
    evals = int((mask("costs.pgrad", "kernel.grad") & under_solver).sum())
    trials = evals - starts
    m = {
        "hinge.calls": calls("hinge"), "hinge.elems": int(t["amount"][mask("hinge")].sum()),
        "hinge.self_s": self_s("hinge"),
        "model.unflatten.calls": calls("model.unflatten"),
        "model.unflatten.self_s": self_s("model.unflatten"),
        "costs.pgrad.calls": calls("costs.pgrad"), "costs.pgrad.self_s": self_s("costs.pgrad"),
        "costs.cost.calls": calls("costs.cost"), "costs.cost.self_s": self_s("costs.cost"),
        "solver.iterations": iterations, "solver.evals": evals,
        "solver.ls_accept_ratio": iterations / trials if trials > 0 else 0.0,
        "solver.self_s": self_s("solver"),
        "kernel.gram.self_s": self_s("kernel.gram"),
        "kernel.check_psd.calls": calls("kernel.check_psd"),
        "kernel.check_psd.self_s": self_s("kernel.check_psd"),
        "kernel.grad.calls": calls("kernel.grad"), "kernel.grad.self_s": self_s("kernel.grad"),
        "attacks.samples": calls("attacks.l2_box", "attacks.flip"),
        "attacks.l2_box.self_s": self_s("attacks.l2_box"),
        "attacks.flip.self_s": self_s("attacks.flip"),
        "attacks.tp_at_fp.calls": calls("attacks.tp_at_fp"),
        "attacks.tp_at_fp.self_s": self_s("attacks.tp_at_fp"),
        "diagnostics.cost_evals": int((mask("costs.cost", "kernel.cost") & under_diag).sum()),
        "diagnostics.pgrad_evals": int((mask("costs.pgrad", "kernel.grad") & under_diag).sum()),
        "diagnostics.fd_hessian.self_s": self_s("diagnostics.fd_hessian"),
        "diagnostics.jacobian.self_s": self_s("diagnostics.jacobian"),
        "diagnostics.monotonicity.self_s": self_s("diagnostics.monotonicity"),
        "data.load.calls": calls("data.load"),
        "data.load.bytes": int(t["amount"][mask("data.load")].sum()),
        "data.load.self_s": self_s("data.load"),
        "cli.self_s": self_s("cli"),
    }

    in_op = (opid & 1) == 1
    layer = np.array([n.split(".")[0] for n in names], dtype=object)[name]
    layer_self, layer_calls = {}, {}
    for lay in sorted({s.split(".")[0] for s in names}):
        sel = in_op & (layer == lay)
        layer_self[lay] = float(self_t[sel].sum())
        layer_calls[lay] = int(sel.sum())
    return m, layer_self, layer_calls


def _top(layer_self: dict) -> str:
    return max(layer_self, key=layer_self.get)


# What the trace must show for each workload's stated role.
ROLES = {
    "solve-primal": (
        "hinge and costs hold the largest self-time share of a solve",
        lambda m, s, c: _top(s) in ("hinge", "costs")),
    "solve-dual": (
        "kernel holds the largest self-time share of a solve",
        lambda m, s, c: _top(s) == "kernel"),
    "security-curve": (
        "hinge, costs and solver make zero calls",
        lambda m, s, c: c["hinge"] == c["costs"] == c["solver"] == 0),
    "diagnostics": (
        "scalar cost calls are over 90% of the operator evaluations",
        lambda m, s, c: m["costs.cost.calls"]
        > 0.9 * (m["costs.cost.calls"] + m["costs.pgrad.calls"])),
}
