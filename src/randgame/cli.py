"""Command-line surface: synthetic data, equilibrium and baseline training,
attacks, security evaluation, diagnostics, and grid search.

Exit codes: 0 success; 2 solver hit max_iter; 3 uniqueness check failed;
64 bad flags or game config keys; 66 file errors.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import attacks, costs, data as data_io, diagnostics, model, solver

EX_USAGE = 64
EX_NOINPUT = 66


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EX_USAGE)


def _load_dataset(path):
    with open(path) as fh:
        first = fh.readline()
    if ":" in first:
        return data_io.load_sparse(path)
    return data_io.load_dense_csv(path)


class _UsageError(ValueError):
    pass


# key: (default, whole numbers only, accepted values); every value is finite
_GAME_KEYS = {
    "W": (0.1, False, lambda v: v > 0),
    "rho_l": (1.0, False, lambda v: v > 0),
    "rho_d": (1.0, False, lambda v: v > 0),
    "bias_reg": (0.0, False, lambda v: v >= 0),
    "epsilon": (solver.SolverConfig.epsilon, False, lambda v: v > 0),
    "max_iter": (solver.SolverConfig.max_iter, True, lambda v: v >= 1),
    "seed": (0, True, lambda v: v >= 0),
}


def _game_value(cfg: dict, key: str):
    default, whole, accepts = _GAME_KEYS[key]
    v = cfg.get(key, default)
    ok = isinstance(v, float | int) and np.isfinite(v) and accepts(v)
    if not ok or (whole and v != int(v)):
        raise _UsageError(f"bad value for game config key {key!r}: {v!r}")
    return int(v) if whole else float(v)


def _game_from_config(cfg: dict, dataset) -> tuple[model.GameSpec, solver.SolverConfig]:
    for key in cfg:
        if key not in _GAME_KEYS:
            raise _UsageError(f"unknown game config key {key!r}")
    v = {key: _game_value(cfg, key) for key in _GAME_KEYS}
    lb, ab = model.default_boxes(dataset.n, dataset.k, v["W"])
    game = model.GameSpec(dataset, v["rho_l"], v["rho_d"], lb, ab, v["bias_reg"])
    scfg = solver.SolverConfig(v["epsilon"], v["max_iter"], v["seed"])
    return game, scfg


def _flag(parse, accepts, what):
    """argparse type= converter: a value that parses and is accepted, or a usage error."""

    def convert(text):
        try:
            v = parse(text)
        except ValueError:
            v = None
        if v is None or not accepts(v):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return v

    return convert


_count = _flag(int, lambda n: n >= 1, "a positive integer")
_rate = _flag(float, lambda p: 0.0 < p < 1.0, "a rate in (0, 1)")
_budget = _flag(float, lambda d: 0.0 <= d < np.inf, "a finite non-negative budget")
_budgets = _flag(
    lambda text: [float(t) for t in text.split(",")],
    lambda ds: 0.0 <= ds[0] and ds[-1] < np.inf and all(a < b for a, b in zip(ds, ds[1:])),
    "comma-separated finite budgets, non-negative and strictly increasing",
)


def _check_budgets(mode, budgets) -> None:
    if mode == "binary_flip" and any(d != int(d) for d in budgets):
        raise _UsageError("binary_flip budgets must be whole numbers")


def _load_learner(params_path, k) -> model.LearnerParams:
    v = model.load_flat_csv(params_path)
    m = k + 1
    if v.size < 2 * m:
        raise ValueError(f"{params_path}: too few values for k={k}")
    sigma = np.maximum(v[m : 2 * m], 1e-12)  # baseline files store zero deviations
    return model.LearnerParams(v[:m], sigma)


def _cmd_gen_synth(args) -> int:
    ds = data_io.synth_2d(args.n, args.sep, args.seed)
    data_io.save_dense_csv(args.out, ds.features, ds.labels)
    return 0


def _cmd_train(args) -> int:
    dataset = _load_dataset(args.data)
    cfg = model.load_config(args.game) if args.game else {}
    game, scfg = _game_from_config(cfg, dataset)
    theta_l, theta_d, result = solver.solve_svm_game(game, cfg=scfg)
    model.save_flat_csv(args.out, result.theta)
    print(
        f"iterations={result.iterations} residual={result.residual:.3e} "
        f"termination={result.termination}"
    )
    return 0 if result.converged else 2


def _cmd_train_baseline(args) -> int:
    dataset = _load_dataset(args.data)
    w, b = costs.train_baseline_svm(dataset, args.C, seed=args.seed)
    v = np.concatenate([w, [b], np.zeros(dataset.k + 1)])
    model.save_flat_csv(args.out, v)
    return 0


def _attack_spec(args, dataset) -> attacks.AttackSpec:
    return attacks.AttackSpec(
        d_max=args.dmax,
        mode=args.mode,
        monotone_increase_only=getattr(args, "monotone", False),
        box_lower=np.zeros(dataset.k),
        box_upper=np.ones(dataset.k),
    )


def _cmd_attack(args) -> int:
    dataset = _load_dataset(args.data)
    learner = _load_learner(args.params, dataset.k)
    _check_budgets(args.mode, [args.dmax])
    spec = _attack_spec(args, dataset)
    rows = [
        attacks._attack_sample(learner.mu_tilde, row, y, spec) if y == 1 else row
        for y, row in zip(dataset.labels, dataset.features)
    ]
    data_io.save_dense_csv(args.out, rows, dataset.labels)
    return 0


def _cmd_secure_eval(args) -> int:
    dataset = _load_dataset(args.data)
    learner = _load_learner(args.params, dataset.k)
    d_list = args.dmax_list
    _check_budgets(args.mode, d_list)
    spec = attacks.AttackSpec(
        d_max=d_list[-1],
        mode=args.mode,
        box_lower=np.zeros(dataset.k),
        box_upper=np.ones(dataset.k),
    )
    curve = attacks.security_curve(
        learner, dataset, spec, d_list, repetitions=args.reps, seed=args.seed,
        fp_target=args.fp,
    )
    curve.write_csv(args.out, seed=args.seed)
    return 0


def _cmd_check_eq(args) -> int:
    dataset = _load_dataset(args.data)
    cfg = model.load_config(args.game) if args.game else {}
    game, _ = _game_from_config(cfg, dataset)
    ops = costs.game_operator(game)
    report = diagnostics.uniqueness_margin(
        ops, n_profiles=args.profiles, seed=args.seed, n_pairs=args.pairs
    )
    print(report.as_text())
    ok = report.uniqueness_margin > 0 and report.monotone_violations == 0
    return 0 if ok else 3


def _cmd_grid_search(args) -> int:
    dataset = _load_dataset(args.data)
    cfg = model.load_config(args.grids) if args.grids else {}

    def _grid(key, default):
        raw = cfg.get(key)
        if raw is None:
            return default
        if isinstance(raw, float):
            return (raw,)
        return tuple(float(t) for t in str(raw).split(","))

    grids = data_io.GridSpec(
        rho_l_grid=_grid("rho_l_grid", data_io.DEFAULT_GRID.rho_l_grid),
        rho_d_grid=_grid("rho_d_grid", data_io.DEFAULT_GRID.rho_d_grid),
        W_grid=_grid("W_grid", data_io.DEFAULT_GRID.W_grid),
    )
    n = dataset.n
    train_n = max(2, n // 2)
    val_n = n - train_n
    train, val, _ = data_io.split(
        dataset, data_io.SplitSpec(train_n, max(1, val_n - 1), 1, seed=args.seed)
    )
    d_list = args.dmax_list
    best = None
    for rho_l in grids.rho_l_grid:
        for rho_d in grids.rho_d_grid:
            for W in grids.W_grid:
                lb, ab = model.default_boxes(train.n, train.k, W)
                game = model.GameSpec(train, rho_l, rho_d, lb, ab)
                scfg = solver.SolverConfig(max_iter=args.max_iter, seed=args.seed)
                theta_l, _, _ = solver.solve_svm_game(game, cfg=scfg)
                spec = attacks.AttackSpec(
                    d_max=d_list[-1], mode="l2_box_pgd",
                    box_lower=np.zeros(train.k), box_upper=np.ones(train.k),
                )
                curve = attacks.security_curve(
                    theta_l, val, spec, d_list, repetitions=args.reps, seed=args.seed
                )
                auc = curve.auc()
                if best is None or auc > best[0]:
                    best = (auc, rho_l, rho_d, W)
    auc, rho_l, rho_d, W = best
    model.atomic_write(
        args.out,
        "rho_l,rho_d,W,auc\n" + f"{rho_l:.17g},{rho_d:.17g},{W:.17g},{auc:.17g}\n",
    )
    print(f"best rho_l={rho_l} rho_d={rho_d} W={W} auc={auc:.4f}")
    return 0


def build_parser() -> _Parser:
    p = _Parser(prog="randgame", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-synth", help="generate the 2-D synthetic dataset")
    g.add_argument("--n", type=_count, required=True, help="samples per class")
    g.add_argument("--sep", type=float, default=0.4)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_gen_synth)

    t = sub.add_parser("train", help="solve the randomized SVM game")
    t.add_argument("--game", help="key=value game/solver config file")
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.set_defaults(func=_cmd_train)

    tb = sub.add_parser("train-baseline", help="train the deterministic C-SVM")
    tb.add_argument("--data", required=True)
    tb.add_argument("--C", type=_flag(float, lambda c: 0.0 < c < np.inf, "a finite positive C"),
                    required=True)
    tb.add_argument("--seed", type=int, default=0)
    tb.add_argument("--out", required=True)
    tb.set_defaults(func=_cmd_train_baseline)

    a = sub.add_parser("attack", help="attack the malicious samples of a dataset")
    a.add_argument("--params", required=True)
    a.add_argument("--data", required=True)
    a.add_argument("--dmax", type=_budget, required=True)
    a.add_argument("--mode", default="l2_box_pgd", choices=attacks.ATTACK_MODES)
    a.add_argument("--monotone", action="store_true")
    a.add_argument("--out", required=True)
    a.set_defaults(func=_cmd_attack)

    s = sub.add_parser("secure-eval", help="security evaluation curve")
    s.add_argument("--params", required=True)
    s.add_argument("--data", required=True)
    s.add_argument("--dmax-list", type=_budgets, required=True)
    s.add_argument("--mode", default="l2_box_pgd", choices=attacks.ATTACK_MODES)
    s.add_argument("--fp", type=_rate, default=0.01)
    s.add_argument("--reps", type=_count, default=5)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(func=_cmd_secure_eval)

    c = sub.add_parser("check-eq", help="numeric uniqueness diagnostics")
    c.add_argument("--game")
    c.add_argument("--data", required=True)
    c.add_argument("--profiles", type=_count, default=50)
    c.add_argument("--pairs", type=int, default=200)
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(func=_cmd_check_eq)

    gs = sub.add_parser("grid-search", help="select rho_l, rho_d, W by curve AUC")
    gs.add_argument("--grids", help="key=value file with *_grid comma lists")
    gs.add_argument("--data", required=True)
    gs.add_argument("--dmax-list", type=_budgets, default="0,0.5,1.0")
    gs.add_argument("--reps", type=_count, default=3)
    gs.add_argument("--seed", type=int, default=0)
    gs.add_argument("--max-iter", dest="max_iter", type=_count, default=1000)
    gs.add_argument("--out", required=True)
    gs.set_defaults(func=_cmd_grid_search)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, data_io.ParseError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EX_NOINPUT
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EX_USAGE


if __name__ == "__main__":
    sys.exit(main())
