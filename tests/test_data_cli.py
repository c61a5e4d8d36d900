"""Dataset IO round trips, splits, the synthetic generator, and the CLI
pipeline including exit codes and determinism."""

import os
import stat
import subprocess
import sys

import numpy as np
import pytest

from randgame.cli import EX_NOINPUT, EX_USAGE, main
from randgame.data import (
    DEFAULT_GRID,
    ParseError,
    SplitSpec,
    load_dense_csv,
    load_sparse,
    normalize_unit_interval,
    save_dense_csv,
    save_sparse,
    split,
    synth_2d,
)
from randgame.model import Dataset, load_flat_csv


class TestDenseCsv:
    def test_roundtrip(self, tmp_path):
        ds = synth_2d(5, 0.4, 0)
        p = tmp_path / "d.csv"
        save_dense_csv(p, ds.features, ds.labels)
        back = load_dense_csv(p)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_bad_label_reports_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("+1,0.1,0.2\n0,0.3,0.4\n")
        with pytest.raises(ParseError, match=r":2:"):
            load_dense_csv(p)

    def test_ragged_rows_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("+1,0.1,0.2\n-1,0.3\n")
        with pytest.raises(ParseError, match="inconsistent"):
            load_dense_csv(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("# only a comment\n")
        with pytest.raises(ParseError, match="no samples"):
            load_dense_csv(p)


class TestSparse:
    def test_roundtrip(self, tmp_path):
        X = np.array([[0.0, 0.5, 0.0], [1.0, 0.0, 0.25]])
        ds = Dataset(X, np.array([1.0, -1.0]))
        p = tmp_path / "s.txt"
        save_sparse(p, ds)
        back = load_sparse(p)
        np.testing.assert_array_equal(back.features, X)
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_binary_kind_detected(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("+1 1:1 3:1\n-1 2:1\n")
        ds = load_sparse(p)
        assert ds.feature_kind == "binary" and ds.k == 3

    def test_k_override(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("+1 1:1\n-1 2:1\n")
        assert load_sparse(p, k=5).k == 5
        with pytest.raises(ParseError, match="exceeds"):
            load_sparse(p, k=1)

    def test_zero_based_index_rejected(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("+1 0:1\n")
        with pytest.raises(ParseError, match="1-based"):
            load_sparse(p)


class TestNormalizeAndSplit:
    def test_normalize_to_unit_interval(self):
        rng = np.random.default_rng(0)
        X = rng.normal(scale=5.0, size=(20, 3))
        ds = Dataset(np.clip(X, 0, 1), rng.choice([-1.0, 1.0], 20))
        scaled, scaler = normalize_unit_interval(ds)
        assert scaled.features.min() == 0.0 and scaled.features.max() == 1.0
        # scaler reuse maps the training extremes identically
        np.testing.assert_allclose(
            scaler.apply(ds).features, scaled.features, atol=1e-15
        )

    def test_constant_feature_maps_to_zero(self):
        X = np.column_stack([np.full(4, 0.5), np.linspace(0, 1, 4)])
        ds = Dataset(X, np.array([1.0, -1.0, 1.0, -1.0]))
        scaled, _ = normalize_unit_interval(ds)
        assert np.all(scaled.features[:, 0] == 0.0)

    def test_split_is_seeded_partition(self):
        ds = synth_2d(20, 0.4, 1)
        spec = SplitSpec(10, 10, 20, seed=3)
        a1 = split(ds, spec)
        a2 = split(ds, spec)
        for d1, d2 in zip(a1, a2):
            np.testing.assert_array_equal(d1.features, d2.features)
        assert sum(d.n for d in a1) == 40

    def test_chronological_split(self):
        ds = synth_2d(5, 0.4, 2)
        tr, va, te = split(ds, SplitSpec(4, 3, 3, chronological=True))
        np.testing.assert_array_equal(tr.features, ds.features[:4])

    def test_split_size_overflow_rejected(self):
        with pytest.raises(ValueError, match="exceed"):
            split(synth_2d(2, 0.4, 0), SplitSpec(3, 1, 1))


class TestSynth2d:
    def test_shapes_and_labels(self):
        ds = synth_2d(30, 0.4, 0)
        assert ds.n == 60 and ds.k == 2
        assert (ds.labels == -1).sum() == 30 and (ds.labels == 1).sum() == 30

    def test_classes_are_separated_blobs(self):
        ds = synth_2d(200, 0.4, 5)
        legit = ds.features[ds.labels == -1].mean(axis=0)
        mal = ds.features[ds.labels == 1].mean(axis=0)
        np.testing.assert_allclose(mal - legit, [0.4, 0.4], atol=0.03)

    def test_deterministic(self):
        np.testing.assert_array_equal(
            synth_2d(10, 0.4, 7).features, synth_2d(10, 0.4, 7).features
        )

    def test_grid_defaults_positive(self):
        for g in (DEFAULT_GRID.rho_l_grid, DEFAULT_GRID.rho_d_grid, DEFAULT_GRID.W_grid):
            assert all(v > 0 for v in g)


class TestCliPipeline:
    def _gen(self, tmp_path, n=8):
        data = tmp_path / "data.csv"
        assert main(["gen-synth", "--n", str(n), "--seed", "1", "--out", str(data)]) == 0
        return data

    def test_gen_synth_writes_loadable_csv(self, tmp_path):
        data = self._gen(tmp_path)
        ds = load_dense_csv(data)
        assert ds.n == 16 and ds.k == 2

    def test_train_and_attack_and_eval(self, tmp_path):
        data = self._gen(tmp_path)
        cfg = tmp_path / "game.cfg"
        cfg.write_text("rho_l=10\nrho_d=10\nW=1\nmax_iter=3000\n")
        params = tmp_path / "eq.csv"
        assert main(["train", "--data", str(data), "--game", str(cfg), "--out", str(params)]) == 0
        v = load_flat_csv(params)
        assert v.size == 2 * 3 + 2 * 16 * 2

        attacked = tmp_path / "attacked.csv"
        assert main([
            "attack", "--params", str(params), "--data", str(data),
            "--dmax", "0.3", "--out", str(attacked),
        ]) == 0
        adv = load_dense_csv(attacked)
        ds = load_dense_csv(data)
        moved = np.linalg.norm(adv.features - ds.features, axis=1)
        assert np.all(moved[ds.labels == -1] == 0.0)
        assert np.all(moved <= 0.3 + 1e-9)

        curve = tmp_path / "curve.csv"
        assert main([
            "secure-eval", "--params", str(params), "--data", str(data),
            "--dmax-list", "0,0.3", "--reps", "2", "--out", str(curve),
        ]) == 0
        assert curve.read_text().startswith("d_max,tp_mean")

    def test_train_baseline(self, tmp_path):
        data = self._gen(tmp_path)
        out = tmp_path / "base.csv"
        assert main(["train-baseline", "--data", str(data), "--C", "1.0", "--out", str(out)]) == 0
        v = load_flat_csv(out)
        assert v.size == 6 and np.all(v[3:] == 0.0)

    def test_train_reports_nonconvergence(self, tmp_path):
        data = self._gen(tmp_path)
        cfg = tmp_path / "game.cfg"
        cfg.write_text("max_iter=2\nepsilon=1e-30\n")
        assert main(["train", "--data", str(data), "--game", str(cfg), "--out", str(tmp_path / "p.csv")]) == 2

    def test_gen_synth_file_mode_follows_umask(self, tmp_path):
        old = os.umask(0o022)
        try:
            data = self._gen(tmp_path)
        finally:
            os.umask(old)
        assert stat.S_IMODE(data.stat().st_mode) == 0o644

    @pytest.mark.parametrize("command", ["train", "check-eq"])
    def test_unknown_game_config_key_is_a_usage_error(self, tmp_path, capsys, command):
        data = self._gen(tmp_path, n=3)
        cfg = tmp_path / "old.cfg"
        cfg.write_text("rho_l=10\nsigma=0.5\n")
        argv = [command, "--data", str(data), "--game", str(cfg)]
        if command == "train":
            argv += ["--out", str(tmp_path / "eq.csv")]
        assert main(argv) == EX_USAGE
        assert "error: unknown game config key 'sigma'" in capsys.readouterr().err
        assert not (tmp_path / "eq.csv").exists()

    @pytest.mark.parametrize("command", ["train", "check-eq"])
    @pytest.mark.parametrize(
        "line", ["max_iter=abc", "max_iter=2.5", "rho_l=-1", "rho_d=0", "W=0",
                 "bias_reg=-1", "epsilon=nan", "seed=-1", "rho_l=inf"]
    )
    def test_bad_game_config_value_is_a_usage_error(self, tmp_path, capsys, command, line):
        data = self._gen(tmp_path, n=3)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"rho_d=10\n{line}\n")
        argv = [command, "--data", str(data), "--game", str(cfg)]
        if command == "train":
            argv += ["--out", str(tmp_path / "eq.csv")]
        assert main(argv) == EX_USAGE
        err = capsys.readouterr().err.splitlines()
        key = line.partition("=")[0]
        assert len(err) == 1 and err[0].startswith(f"error: bad value for game config key {key!r}: ")
        assert not (tmp_path / "eq.csv").exists()

    @pytest.mark.parametrize(
        "flag",
        ["--dmax-list=1,0", "--dmax-list=0,0", "--dmax-list=0,abc", "--dmax-list=-1,0",
         "--dmax-list=0,inf", "--fp=2", "--fp=0", "--reps=0", "--reps=1.5"],
    )
    def test_bad_secure_eval_flag_is_a_usage_error(self, tmp_path, capsys, flag):
        argv = ["secure-eval", "--params", "eq.csv", "--data", "d.csv", "--dmax-list", "0,0.5"]
        curve = tmp_path / "curve.csv"
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, "--out", str(curve)])
        assert exc.value.code == EX_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len([e for e in err if e.startswith("error:")]) == 1
        assert err[-1].startswith(f"error: argument {flag.partition('=')[0]}: expected")
        assert not curve.exists()

    def test_runs_without_evidence_are_usage_errors(self, tmp_path):
        # zero profiles certified any game (margin inf); zero repetitions
        # wrote a NaN curve
        data = self._gen(tmp_path, n=3)
        with pytest.raises(SystemExit) as exc:
            main(["check-eq", "--data", str(data), "--profiles", "0"])
        assert exc.value.code == EX_USAGE
        params = tmp_path / "base.csv"
        assert main(["train-baseline", "--data", str(data), "--C", "1", "--out", str(params)]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["secure-eval", "--params", str(params), "--data", str(data),
                  "--dmax-list", "0,0.5", "--reps", "0", "--out", str(tmp_path / "c.csv")])
        assert exc.value.code == EX_USAGE
        assert not (tmp_path / "c.csv").exists()

    def test_fractional_flip_budget_is_a_usage_error(self, tmp_path, capsys):
        data = self._gen(tmp_path, n=3)
        params = tmp_path / "base.csv"
        assert main(["train-baseline", "--data", str(data), "--C", "1", "--out", str(params)]) == 0
        capsys.readouterr()
        for argv in (
            ["attack", "--dmax", "0.5", "--out", str(tmp_path / "adv.csv")],
            ["secure-eval", "--dmax-list", "0,0.5", "--out", str(tmp_path / "c.csv")],
        ):
            argv += ["--params", str(params), "--data", str(data), "--mode", "binary_flip"]
            assert main(argv) == EX_USAGE
            assert capsys.readouterr().err == "error: binary_flip budgets must be whole numbers\n"
        assert not (tmp_path / "adv.csv").exists() and not (tmp_path / "c.csv").exists()

    def test_check_eq_exit_codes(self, tmp_path):
        data = self._gen(tmp_path, n=3)
        good = tmp_path / "good.cfg"
        good.write_text("rho_l=100\nrho_d=100\nbias_reg=1\nW=0.5\n")
        assert main([
            "check-eq", "--data", str(data), "--game", str(good),
            "--profiles", "2", "--pairs", "20",
        ]) == 0
        # the default unregularized bias floors lambda_omega_l at zero, so the
        # product margin cannot be positive
        weak = tmp_path / "weak.cfg"
        weak.write_text("rho_l=0.01\nrho_d=0.01\nW=0.5\n")
        assert main([
            "check-eq", "--data", str(data), "--game", str(weak),
            "--profiles", "2", "--pairs", "20",
        ]) == 3

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["train", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o.csv")]) == EX_NOINPUT

    def test_bad_flags_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["train"])  # missing required arguments
        assert exc.value.code == EX_USAGE

    def test_grid_search_writes_best_row(self, tmp_path):
        data = self._gen(tmp_path, n=6)
        grids = tmp_path / "grids.cfg"
        grids.write_text("rho_l_grid=10\nrho_d_grid=5,10\nW_grid=1\n")
        out = tmp_path / "best.csv"
        assert main([
            "grid-search", "--data", str(data), "--grids", str(grids),
            "--dmax-list", "0,0.5", "--reps", "2", "--max-iter", "300",
            "--out", str(out),
        ]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "rho_l,rho_d,W,auc"
        rho_l, rho_d, W, auc = map(float, lines[1].split(","))
        assert rho_l == 10.0 and rho_d in (5.0, 10.0) and W == 1.0

    def test_entry_point_runs(self, tmp_path):
        out = tmp_path / "d.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "randgame.cli", "gen-synth", "--n", "3", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0 and out.exists()

    def test_pipeline_byte_identical_across_runs(self, tmp_path):
        outs = []
        for run in ("a", "b"):
            d = tmp_path / run
            d.mkdir()
            data = d / "data.csv"
            params = d / "eq.csv"
            curve = d / "curve.csv"
            cfg = d / "game.cfg"
            cfg.write_text("rho_l=10\nrho_d=10\nW=1\nseed=3\nmax_iter=2000\n")
            assert main(["gen-synth", "--n", "6", "--seed", "2", "--out", str(data)]) == 0
            assert main(["train", "--data", str(data), "--game", str(cfg), "--out", str(params)]) == 0
            assert main([
                "secure-eval", "--params", str(params), "--data", str(data),
                "--dmax-list", "0,0.5", "--reps", "2", "--seed", "5", "--out", str(curve),
            ]) == 0
            outs.append((data.read_bytes(), params.read_bytes(), curve.read_bytes()))
        assert outs[0] == outs[1]
