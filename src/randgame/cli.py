"""Command-line surface: synthetic data, equilibrium and baseline training,
attacks, security evaluation, diagnostics, and grid search.

Exit codes: 0 success; 2 solver hit max_iter; 3 uniqueness check failed;
64 bad flags; 66 file errors.
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


def _game_from_config(cfg: dict, dataset) -> tuple[model.GameSpec, solver.SolverConfig]:
    W = float(cfg.get("W", 0.1))
    lb, ab = model.default_boxes(dataset.n, dataset.k, W)
    game = model.GameSpec(
        dataset=dataset,
        rho_l=float(cfg.get("rho_l", 1.0)),
        rho_d=float(cfg.get("rho_d", 1.0)),
        learner_box=lb,
        attacker_box=ab,
        bias_reg=float(cfg.get("bias_reg", 0.0)),
    )
    scfg = solver.SolverConfig(
        sigma_ls=float(cfg.get("sigma", 0.5)),
        beta=float(cfg.get("beta", 0.5)),
        epsilon=float(cfg.get("epsilon", 1e-10)),
        max_iter=int(cfg.get("max_iter", 5000)),
        max_linesearch_pow=int(cfg.get("max_linesearch_pow", 60)),
        seed=int(cfg.get("seed", 0)),
    )
    return game, scfg


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
    last = result.residual_trace[-1] if result.iterations else float("nan")
    print(
        f"iterations={result.iterations} last_step_sq={last:.3e} "
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
    spec = _attack_spec(args, dataset)
    w, b = learner.mu_tilde, learner.mu_b
    rows = [
        attacks._attack_sample(w, b, row, y, spec) if y == 1 else row
        for y, row in zip(dataset.labels, dataset.features)
    ]
    data_io.save_dense_csv(args.out, rows, dataset.labels)
    return 0


def _cmd_secure_eval(args) -> int:
    dataset = _load_dataset(args.data)
    learner = _load_learner(args.params, dataset.k)
    d_list = [float(t) for t in args.dmax_list.split(",")]
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
    d_list = [float(t) for t in args.dmax_list.split(",")]
    best = None
    for rho_l in grids.rho_l_grid:
        for rho_d in grids.rho_d_grid:
            for W in grids.W_grid:
                lb, ab = model.default_boxes(train.n, train.k, W)
                game = model.GameSpec(train, rho_l, rho_d, lb, ab)
                scfg = solver.SolverConfig(
                    max_iter=args.max_iter, epsilon=1e-8, seed=args.seed
                )
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
    g.add_argument("--n", type=int, required=True, help="samples per class")
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
    tb.add_argument("--C", type=float, required=True)
    tb.add_argument("--seed", type=int, default=0)
    tb.add_argument("--out", required=True)
    tb.set_defaults(func=_cmd_train_baseline)

    a = sub.add_parser("attack", help="attack the malicious samples of a dataset")
    a.add_argument("--params", required=True)
    a.add_argument("--data", required=True)
    a.add_argument("--dmax", type=float, required=True)
    a.add_argument("--mode", default="l2_box_pgd", choices=attacks.ATTACK_MODES)
    a.add_argument("--monotone", action="store_true")
    a.add_argument("--out", required=True)
    a.set_defaults(func=_cmd_attack)

    s = sub.add_parser("secure-eval", help="security evaluation curve")
    s.add_argument("--params", required=True)
    s.add_argument("--data", required=True)
    s.add_argument("--dmax-list", required=True)
    s.add_argument("--mode", default="l2_box_pgd", choices=attacks.ATTACK_MODES)
    s.add_argument("--fp", type=float, default=0.01)
    s.add_argument("--reps", type=int, default=5)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(func=_cmd_secure_eval)

    c = sub.add_parser("check-eq", help="numeric uniqueness diagnostics")
    c.add_argument("--game")
    c.add_argument("--data", required=True)
    c.add_argument("--profiles", type=int, default=50)
    c.add_argument("--pairs", type=int, default=200)
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(func=_cmd_check_eq)

    gs = sub.add_parser("grid-search", help="select rho_l, rho_d, W by curve AUC")
    gs.add_argument("--grids", help="key=value file with *_grid comma lists")
    gs.add_argument("--data", required=True)
    gs.add_argument("--dmax-list", default="0,0.5,1.0")
    gs.add_argument("--reps", type=int, default=3)
    gs.add_argument("--seed", type=int, default=0)
    gs.add_argument("--max-iter", dest="max_iter", type=int, default=1000)
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


if __name__ == "__main__":
    sys.exit(main())
