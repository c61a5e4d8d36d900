"""Command-line surface: synthetic data, equilibrium and baseline training,
attacks, security evaluation, diagnostics, and grid search.

Exit codes: 0 success; 2 the solver or the baseline C-SVM hit its step cap; 3
uniqueness check failed; 64 bad flags or game config keys; 66 file errors.
"""

from __future__ import annotations

import argparse
import itertools
import sys
import warnings

import numpy as np

from . import attacks, costs, data as data_io, diagnostics, model, solver

EX_USAGE = 64
EX_NOINPUT = 66


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EX_USAGE)


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
    lower, upper = model.default_boxes(dataset.n, dataset.k, v["W"])
    game = model.GameSpec(dataset, v["rho_l"], v["rho_d"], lower, upper, v["bias_reg"])
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
_seed = _flag(int, lambda n: n >= 0, "a non-negative integer")
_rate = _flag(float, lambda p: 0.0 < p < 1.0, "a rate in (0, 1)")
_budget = _flag(float, lambda d: 0.0 <= d < np.inf, "a finite non-negative budget")
_budgets = _flag(
    lambda text: [float(t) for t in text.split(",")],
    lambda ds: 0.0 <= ds[0] and ds[-1] < np.inf and all(a < b for a, b in zip(ds, ds[1:])),
    "comma-separated finite budgets, non-negative and strictly increasing",
)


def _check_both_classes(data, path, what) -> None:
    if not np.isin((-1.0, 1.0), data.labels).all():
        raise data_io.ParseError(f"{path}: {what} needs samples of both classes")


def _check_flip_budgets(mode, budgets) -> None:
    """binary_flip's budgets must be whole numbers; attacks checks its features."""
    if mode != "binary_flip":  # the flags' types keep every budget finite and >= 0
        return
    try:
        for d in budgets:
            attacks._check_budget(d, whole=True)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _load_learner(params_path, k) -> np.ndarray:
    """The learner's means [w; b] from a parameter file written by
    train-baseline (2(k+1) values, zero deviations) or by train (2(k+1)
    values plus 2k per attacked sample, every deviation inside its default
    interval)."""
    v = data_io.load_flat_csv(params_path)
    m = k + 1
    fits = v.size >= 2 * m and (v.size - 2 * m) % (2 * k) == 0
    if fits and v.size > 2 * m:  # a train output, projected onto the default box
        (lo, up), (lo_x, up_x) = model.LEARNER_DEV_BOUNDS, model.ATTACKER_DEV_BOUNDS
        dev_l, dev_x = v[m : 2 * m], v[2 * m :].reshape(-1, 2 * k)[:, k:]
        fits = (lo <= dev_l.min() <= dev_l.max() <= up
                and lo_x <= dev_x.min() <= dev_x.max() <= up_x)
    if not fits:
        raise data_io.ParseError(f"{params_path}: {v.size} values do not fit a model with k={k}")
    return v[:m]


def _grids_from_config(cfg: dict):
    """The rho_l, rho_d and W grids: the defaults below, with the grids cfg
    sets, each a comma list of finite positive values."""
    grids = {"rho_l_grid": (0.01, 0.1, 1.0, 10.0, 100.0),
             "rho_d_grid": (0.01, 0.05, 0.1, 1.0, 10.0), "W_grid": (0.01, 0.05, 0.1, 1.0)}
    for key, raw in cfg.items():
        if key not in grids:
            raise _UsageError(f"unknown grid config key {key!r}")
        try:
            grids[key] = tuple(map(data_io.read_number, str(raw).split(",")))
            ok = all(0.0 < v < np.inf for v in grids[key])
        except ValueError:
            ok = False
        if not ok:
            raise _UsageError(f"bad value for grid config key {key!r}: {raw!r}")
    return grids.values()


def _cmd_gen_synth(args) -> int:
    ds = data_io.synth_2d(args.n, args.sep, args.seed)
    data_io.save_dense_csv(args.out, ds.features, ds.labels)
    return 0


def _cmd_train(args) -> int:
    dataset = data_io.load_dataset(args.data)
    cfg = data_io.load_config(args.game) if args.game else {}
    game, scfg = _game_from_config(cfg, dataset)
    result = solver.extragradient_solve(costs.game_operator(game), cfg=scfg)
    data_io.save_flat_csv(args.out, result.theta)
    attempts = result.newton_accepted + result.newton_rejected
    print(f"iterations={result.iterations} residual={result.residual:.3e} "
          f"termination={result.termination} evaluations={result.evaluations} "
          f"newton={result.newton_accepted}/{attempts}")
    return 0 if result.converged else 2


def _cmd_train_baseline(args) -> int:
    dataset = data_io.load_dataset(args.data)
    with warnings.catch_warnings(record=True) as capped:  # the params are written either way
        warnings.simplefilter("always")
        w, b = costs.train_baseline_svm(dataset, args.C)
    data_io.save_flat_csv(args.out, np.concatenate([w, [b], np.zeros(dataset.k + 1)]))
    sys.stderr.writelines(f"error: {warning.message}\n" for warning in capped)
    return 2 if capped else 0


def _cmd_attack(args) -> int:
    dataset = data_io.load_dataset(args.data)
    mu_w = _load_learner(args.params, dataset.k)
    _check_flip_budgets(args.mode, [args.dmax])
    rows = dataset.features.copy()
    mal = dataset.labels == 1
    rows[mal] = attacks._attack_rows(mu_w[:-1], rows[mal], args.mode, args.dmax, args.monotone)
    data_io.save_dense_csv(args.out, rows, dataset.labels)
    return 0


def _cmd_secure_eval(args) -> int:
    dataset = data_io.load_dataset(args.data)
    mu_w = _load_learner(args.params, dataset.k)
    _check_both_classes(dataset, args.data, "secure-eval")
    _check_flip_budgets(args.mode, args.dmax_list)
    curve = attacks.security_curve(mu_w, dataset, args.mode, args.dmax_list,
                                   repetitions=args.reps, seed=args.seed, fp_target=args.fp)
    data_io.save_curve_csv(args.out, curve, args.seed)
    return 0


def _cmd_check_eq(args) -> int:
    dataset = data_io.load_dataset(args.data)
    cfg = data_io.load_config(args.game) if args.game else {}
    game, _ = _game_from_config(cfg, dataset)
    report = diagnostics.uniqueness_margin(costs.game_operator(game), n_profiles=args.profiles,
                                           seed=args.seed, n_pairs=args.pairs)
    print(report.as_text())
    ok = report.uniqueness_margin > 0 and report.monotone_violations == 0
    return 0 if ok else 3


def _cmd_grid_search(args) -> int:
    d_list = args.dmax_list
    if len(d_list) < 2:
        raise _UsageError(f"grid-search scores a curve by its area, which needs at least two "
                          f"--dmax-list budgets, got {len(d_list)}")
    dataset = data_io.load_dataset(args.data)
    grids = _grids_from_config(data_io.load_config(args.grids) if args.grids else {})
    n = dataset.n
    if n < 4:
        raise data_io.ParseError(f"{args.data}: grid-search needs at least 4 samples, got {n}")
    # the first half of one seeded permutation trains, every other sample validates
    idx = np.random.default_rng(args.seed).permutation(n)
    train, val = (model.Dataset(dataset.features[p], dataset.labels[p])
                  for p in np.split(idx, [max(2, n // 2)]))
    _check_both_classes(train, args.data, f"grid-search's training split ({train.n} of {n})")
    _check_both_classes(val, args.data, f"grid-search's validation split ({val.n} of {n})")
    best = None
    for rho_l, rho_d, W in itertools.product(*grids):
        game, scfg = _game_from_config(
            dict(rho_l=rho_l, rho_d=rho_d, W=W, max_iter=args.max_iter, seed=args.seed), train)
        result = solver.extragradient_solve(costs.game_operator(game), cfg=scfg)
        curve = attacks.security_curve(result.theta[: train.k + 1], val, "l2_box_pgd", d_list,
                                       repetitions=args.reps, seed=args.seed)
        auc = curve.auc()
        if best is None or auc > best[0]:
            best = (auc, rho_l, rho_d, W, result)
    auc, rho_l, rho_d, W, result = best
    data_io.save_grid_csv(args.out, rho_l, rho_d, W, auc)
    print(f"best rho_l={rho_l} rho_d={rho_d} W={W} auc={auc:.4f}")
    if result.converged:
        return 0
    sys.stderr.write(f"error: the best point rho_l={rho_l} rho_d={rho_d} W={W} stopped at "
                     f"--max-iter {args.max_iter} with residual={result.residual:.3e}\n")
    return 2


_REQUIRED, _SEED = dict(required=True), dict(type=_seed, default=0)
_MODE = dict(default="l2_box_pgd", choices=attacks.ATTACK_MODES)
# name: (help line, handler, flags): each flag's name, in help order, maps to
# the keyword arguments of its add_argument call
_COMMANDS = {
    "gen-synth": ("generate the 2-D synthetic dataset", _cmd_gen_synth, {
        "--n": dict(type=_count, required=True, help="samples per class"),
        "--sep": dict(type=_flag(float, np.isfinite, "a finite separation"), default=0.4),
        "--seed": _SEED, "--out": _REQUIRED}),
    "train": ("solve the randomized SVM game", _cmd_train, {
        "--game": dict(help="key=value game/solver config file"), "--data": _REQUIRED,
        "--out": _REQUIRED}),
    "train-baseline": ("train the deterministic C-SVM", _cmd_train_baseline, {
        "--data": _REQUIRED,
        "--C": dict(type=_flag(float, lambda c: 0.0 < c < np.inf, "a finite positive C"),
                    required=True),
        "--out": _REQUIRED}),
    "attack": ("attack the malicious samples of a dataset", _cmd_attack, {
        "--params": _REQUIRED, "--data": _REQUIRED, "--dmax": dict(type=_budget, required=True),
        "--mode": _MODE, "--monotone": dict(action="store_true"), "--out": _REQUIRED}),
    "secure-eval": ("security evaluation curve", _cmd_secure_eval, {
        "--params": _REQUIRED, "--data": _REQUIRED,
        "--dmax-list": dict(type=_budgets, required=True), "--mode": _MODE,
        "--fp": dict(type=_rate, default=0.01), "--reps": dict(type=_count, default=5),
        "--seed": _SEED, "--out": _REQUIRED}),
    "check-eq": ("numeric uniqueness diagnostics", _cmd_check_eq, {
        "--game": {}, "--data": _REQUIRED, "--profiles": dict(type=_count, default=50),
        "--pairs": dict(type=_count, default=200), "--seed": _SEED}),
    "grid-search": ("select rho_l, rho_d, W by curve AUC", _cmd_grid_search, {
        "--grids": dict(help="key=value file with *_grid comma lists"), "--data": _REQUIRED,
        "--dmax-list": dict(type=_budgets, default="0,0.5,1.0"),
        "--reps": dict(type=_count, default=3), "--seed": _SEED,
        "--max-iter": dict(dest="max_iter", type=_count, default=1000), "--out": _REQUIRED}),
}


def _add_command(p: _Parser, name: str) -> _Parser:
    _, handler, flags = _COMMANDS[name]
    for flag, kwargs in flags.items():
        p.add_argument(flag, **kwargs)
    p.set_defaults(func=handler)
    return p


def build_parser() -> _Parser:
    """The parser of every command, each a subparser 'randgame <name>'."""
    p = _Parser(prog="randgame", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_line, _, _) in _COMMANDS.items():
        _add_command(sub.add_parser(name, help=help_line), name)
    return p


def main(argv=None) -> int:
    """Run the command that argv (default sys.argv[1:]) names; its exit code.
    Only that command's parser is built, as build_parser builds it; the full
    parser parses argv when it names no command or leaves tokens over, so
    help, usage lines and errors stay its own."""
    argv = sys.argv[1:] if argv is None else argv
    name = argv[0] if argv else None
    if name in _COMMANDS:
        args, extra = _add_command(_Parser(prog=f"randgame {name}"), name).parse_known_args(
            argv[1:])
    if name not in _COMMANDS or extra:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, data_io.ParseError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EX_NOINPUT
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EX_USAGE
    except attacks.NonBinaryFeatures:
        sys.stderr.write(f"error: {args.data}: binary_flip needs binary features, but a "
                         "malicious sample has a value other than 0 or 1\n")
        return EX_NOINPUT


if __name__ == "__main__":
    sys.exit(main())
