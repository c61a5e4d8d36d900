"""Dataset IO round trips, the synthetic generator, and the CLI pipeline
including exit codes and determinism."""

import hashlib
import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import load_dense_tokens, load_sparse_tokens, with_dense_newton
from randgame import attacks, cli, costs, solver
from randgame import data as data_io
from randgame.attacks import SecurityCurve
from randgame.cli import EX_NOINPUT, EX_USAGE, _grids_from_config, build_parser, main
from randgame.data import (
    ParseError,
    atomic_write,
    load_config,
    load_dataset,
    load_dense_csv,
    load_flat_csv,
    load_sparse,
    save_dense_csv,
    save_flat_csv,
    synth_2d,
)
from randgame.model import Dataset


# Runs the CLI on its arguments with every import of scipy refused.
NO_SCIPY = """
import sys


class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is refused")
        return None


sys.meta_path.insert(0, RefuseScipy())
from randgame.cli import main
sys.exit(main(sys.argv[1:]))
"""


def save_sparse(path, data: Dataset) -> None:
    """Write 'label idx:val ...' lines with 1-based indices of the nonzero
    features, the format load_sparse reads."""
    lines = []
    for y, row in zip(data.labels, data.features):
        pairs = " ".join(f"{j + 1}:{row[j]:.17g}" for j in np.flatnonzero(row))
        lines.append(f"{int(y):+d} {pairs}".strip() + "\n")
    atomic_write(path, "".join(lines))


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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_rejected(self, tmp_path, value):
        p = tmp_path / "d.csv"
        p.write_text(f"+1,0.1,0.2\n-1,{value},0.4\n")
        with pytest.raises(ParseError, match=f"{p}: continuous features must be finite"):
            load_dense_csv(p)

    def test_out_of_range_feature_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("+1,0.1,1.5\n")
        with pytest.raises(ParseError, match=r"\[0, 1\]"):
            load_dense_csv(p)

    # float takes digit separators and non-ASCII digits, numpy's reader does not
    @pytest.mark.parametrize("line, message", [
        ("+1,0_5", "malformed feature value"),
        ("+1,\u0660.\u0665", "malformed feature value"),  # Arabic-Indic 0.5
        ("+0_1,0.5", "bad label '+0_1'"),
    ])
    def test_value_numpy_refuses_names_its_line(self, tmp_path, line, message):
        p = tmp_path / "d.csv"
        p.write_text(f"-1,0.2\n{line}\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f"^{re.escape(f'{p}:2: {message}')}$"):
            load_dense_csv(p)

    def test_refused_file_without_a_bad_line_is_still_a_parse_error(self, tmp_path,
                                                                    monkeypatch):
        # should the line check ever pass every line numpy's reader refused
        monkeypatch.setattr(data_io, "_check_dense_line", lambda *args: None)
        p = tmp_path / "d.csv"
        p.write_text("+1,0.1\n-1,abc\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(p))}: malformed content"):
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

    def test_binary_values_load_as_written(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("+1 1:1 3:1\n-1 2:1\n")
        ds = load_sparse(p)
        np.testing.assert_array_equal(ds.features, [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        np.testing.assert_array_equal(ds.labels, [1.0, -1.0])

    @pytest.mark.parametrize("tokens, value", [("2:0.5 2:1", 1.0), ("2:1 2:0.5", 0.5)])
    def test_repeated_index_keeps_its_last_value(self, tmp_path, tokens, value):
        p = tmp_path / "s.txt"
        p.write_text(f"+1 {tokens}\n-1 1:1\n")
        ds = load_sparse(p)
        np.testing.assert_array_equal(ds.features, [[0.0, value], [1.0, 0.0]])

    def test_non_finite_value_rejected(self, tmp_path):
        p = tmp_path / "d.svm"
        p.write_text("+1 1:0.5\n-1 2:nan\n")
        with pytest.raises(ParseError, match="finite"):
            load_sparse(p)

    def test_zero_based_index_rejected(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("+1 0:1\n")
        with pytest.raises(ParseError, match="1-based"):
            load_sparse(p)

    # both matrices are refused before anything is allocated; an index that
    # fits (say 10**9) would allocate n x index floats, so none is tried here
    @pytest.mark.parametrize("text, n, k", [
        ("+1 9223372036854775807:1\n", 1, 2**63 - 1),
        (f"+1 1:1 {2**62}:1\n-1 2:1\n", 2, 2**62),
    ], ids=["int64 max", "2**62 on two lines"])
    def test_index_numpy_cannot_size_is_a_parse_error(self, tmp_path, text, n, k):
        p = tmp_path / "s.svm"
        p.write_text(text)
        message = f"{p}: largest index {k} gives a {n} x {k} matrix that numpy cannot build"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            load_sparse(p)

    def test_matrix_larger_than_memory_is_an_input_error(self, tmp_path, capsys, monkeypatch):
        # the memory figure is lowered to just under the 2 x 3 matrix's 48
        # bytes, so no large matrix is ever asked for
        p = tmp_path / "s.svm"
        p.write_text("+1 1:1\n-1 3:1\n")
        monkeypatch.setattr(data_io, "_memory_bytes", lambda: 47)
        out = tmp_path / "eq.csv"
        assert main(["train", "--data", str(p), "--out", str(out)]) == EX_NOINPUT
        assert capsys.readouterr().err.splitlines() == [
            f"error: {p}: largest index 3 gives a 2 x 3 matrix that numpy cannot build"]
        assert not out.exists()
        monkeypatch.setattr(data_io, "_memory_bytes", lambda: 48)
        assert load_sparse(p).features.shape == (2, 3)


class TestWriters:
    """Every writer renders its numbers with one % call of data's one number
    format, byte for byte as each value formatted on its own."""

    EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
             1e16, 1e17, -1e16, -1e17, 1.7976931348623157e308, np.inf, -np.inf, 0.1, 1 / 3]

    def test_number_helper_matches_per_value_format(self, tmp_path):
        bits = np.random.default_rng(0).integers(0, 2**64, size=200_000, dtype=np.uint64)
        v = bits.view(float)
        v = np.concatenate([v[~np.isnan(v)], self.EDGES])
        p = tmp_path / "params.csv"
        save_flat_csv(p, v)
        assert p.read_text() == ",".join(format(x, ".17g") for x in v.tolist()) + "\n"

    def test_each_writer_keeps_its_bytes(self, tmp_path):
        # the expected text is each file's spelling before the writers shared
        # the helper: one f-string per value
        edges = np.array(self.EDGES)
        p = tmp_path / "out.csv"
        save_flat_csv(p, edges)
        assert p.read_text() == ",".join([f"{x:.17g}" for x in edges.tolist()]) + "\n"

        X = np.vstack([edges[:5], edges[5:10], edges[10:]])
        y = np.array([1.0, -1.0, 1.0])
        save_dense_csv(p, X, y)
        assert p.read_text() == "".join(
            f"{int(t):+d}," + ",".join(f"{v:.17g}" for v in row) + "\n" for t, row in zip(y, X))

        curve = SecurityCurve(points=((0.0, 1.0, 0.0), (0.5, 2 / 3, 1e-17), (1.0, 0.1, 5e-324)),
                              fp_target=0.01, repetitions=3)
        data_io.save_curve_csv(p, curve, 7)
        assert p.read_text() == "d_max,tp_mean,tp_std,fp_target,repetitions,seed\n" + "".join(
            f"{d:.17g},{m:.17g},{s:.17g},{curve.fp_target:.17g},{curve.repetitions},7\n"
            for d, m, s in curve.points)

        rho_l, rho_d, W, auc = 0.01, 10.0, 1 / 3, 0.27
        data_io.save_grid_csv(p, rho_l, rho_d, W, auc)
        assert p.read_text() == (
            "rho_l,rho_d,W,auc\n" + f"{rho_l:.17g},{rho_d:.17g},{W:.17g},{auc:.17g}\n")


class TestNumberGrammar:
    """Every input file reads numbers as the dense reader does: Python's float
    (or int, for a sparse index) on ASCII text without digit separators, so
    '1_0' is not 10 and the Arabic-Indic '\u0661' is not 1."""

    @pytest.mark.parametrize("line, message", [
        ("+1 1_0:1", "malformed idx:value '1_0:1'"),
        ("+1 2:0_5", "malformed idx:value '2:0_5'"),
        ("+1 \u0661:1", "malformed idx:value '\u0661:1'"),
        ("+1 1:\u0661", "malformed idx:value '1:\u0661'"),
        ("\u0661 1:1", "bad label '\u0661'"),
        ("+0_1 1:1", "bad label '+0_1'"),
    ])
    def test_sparse_token_out_of_grammar_names_its_line(self, tmp_path, line, message):
        p = tmp_path / "s.svm"
        p.write_text(f"-1 1:1\n{line}\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f"^{re.escape(f'{p}:2: {message}')}$"):
            load_sparse(p)

    @pytest.mark.parametrize("text", ["1_0,1.5\n", "1.5,\u0661\n", "1,2_5\n"])
    def test_params_value_out_of_grammar_is_a_parse_error(self, tmp_path, text):
        p = tmp_path / "p.csv"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match="expected one line of comma-separated numbers"):
            load_flat_csv(p)

    def test_config_value_out_of_grammar_stays_text(self, tmp_path):
        p = tmp_path / "g.cfg"
        p.write_text("rho_l=1_0\nrho_d=\u0661\nW=0.5\n", encoding="utf-8")
        assert load_config(p) == {"rho_l": "1_0", "rho_d": "\u0661", "W": 0.5}

    @pytest.mark.parametrize("raw", ["1_0", "0.5,1_0", "\u0661"])
    def test_grid_value_out_of_grammar_is_a_usage_error(self, raw):
        with pytest.raises(ValueError, match="bad value for grid config key 'W_grid'"):
            _grids_from_config({"W_grid": raw})

    def test_cli_refuses_an_index_past_int64(self, tmp_path, capsys):
        sparse = tmp_path / "s.svm"
        sparse.write_text("-1 1:1\n+1 99999999999999999999:1\n-1 2:1\n")
        out = tmp_path / "out.csv"
        assert main(["train", "--data", str(sparse), "--out", str(out)]) == EX_NOINPUT
        assert capsys.readouterr().err.splitlines() == [
            f"error: {sparse}:2: malformed idx:value '99999999999999999999:1'"]
        assert not out.exists()

    def test_cli_refuses_an_index_numpy_cannot_size(self, tmp_path, capsys):
        sparse = tmp_path / "s.svm"
        sparse.write_text("+1 9223372036854775807:1\n")
        out = tmp_path / "out.csv"
        assert main(["train", "--data", str(sparse), "--out", str(out)]) == EX_NOINPUT
        k = 2**63 - 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {sparse}: largest index {k} gives a 1 x {k} matrix that numpy cannot build"]
        assert not out.exists()

    def test_cli_refuses_each_file_out_of_grammar(self, tmp_path, capsys):
        sparse = tmp_path / "s.svm"
        sparse.write_text("-1 1:1\n+1 1_0:1\n")
        out = tmp_path / "out.csv"
        assert main(["train", "--data", str(sparse), "--out", str(out)]) == EX_NOINPUT
        assert capsys.readouterr().err.splitlines() == [
            f"error: {sparse}:2: malformed idx:value '1_0:1'"]
        data = tmp_path / "d.csv"
        save_dense_csv(data, np.array([[0.2], [0.7]]), np.array([-1.0, 1.0]))
        params = tmp_path / "p.csv"
        params.write_text("1_0\n")
        assert main(["secure-eval", "--params", str(params), "--data", str(data),
                     "--dmax-list", "0,0.3", "--out", str(out)]) == EX_NOINPUT
        assert capsys.readouterr().err.splitlines() == [
            f"error: {params}: expected one line of comma-separated numbers"]
        game = tmp_path / "g.cfg"
        game.write_text("rho_l=1_0\n")
        argv = ["train", "--data", str(data), "--game", str(game), "--out", str(out)]
        assert main(argv) == EX_USAGE
        assert capsys.readouterr().err.splitlines() == [
            "error: bad value for game config key 'rho_l': '1_0'"]
        assert not out.exists()


def read_outcome(load, path, *args):
    """What a loader makes of a file: its error text, or the bytes of the
    Dataset's arrays."""
    try:
        ds = load(path, *args)
    except ParseError as exc:
        return "error", str(exc)
    return ds.features.shape, ds.features.tobytes(), ds.labels.tobytes()


class TestBulkParsers:
    """The bulk loaders against token-by-token readers: the same bits on
    every file that loads, the same error text and line on every file that
    does not, whichever of several bad lines comes first, with the lines in
    one block or cut into blocks of 1 and 3."""

    @pytest.fixture(autouse=True, params=[1, 3, None])
    def block_lines(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(data_io, "BLOCK_LINES", request.param)

    @pytest.mark.parametrize("text", [
        "+1,0.1,0.2\n-1,0.3,0.4\n",
        "# header\n\n+1,0.1,0.2\n   \n-1,0.3,0.4\n# tail",
        "+1,-0.0,5e-324\n-1, 0.5 ,1e-3\n",
        "+1,1\n-1.0,0\n",
        "+1\n-1\n",  # no values at all
        "+1,0.1,0.2\n0,0.3,0.4\n",  # label not +-1 on line 2
        "+1,0.1,0.2\nx,0.3,0.4\n",  # label not a number
        "+1,0.1,0.2\n-1,0.3,abc\n",  # malformed value
        "+1,0.1,0.2\n-1,,0.4\n",  # empty value
        "+1,\n",
        "+1,0.1,zz\n0,0.3,0.4\n",  # a malformed value before a bad label
        "+1,0.1,0.2\n2,0.3,0.4\n-1,q,0.4\n",  # a bad label before a malformed value
        "0,abc\n",  # label before values on one line
        "+1,0.1,0.2\n\n# c\n-1,0.3\n0,0.1,0.2\n",  # ragged on line 4, then a bad label
        "+1,0.1\n-1,0.3,0.4\n-1,0.3,0.4\n",
        "+1,0.1,0.2\n-1,nan,0.4\n",  # a value the Dataset rejects
        "+1,0.1,0.2\n-1,0.3,0.4 # note\n",  # a '#' after a value is no comment
        "",
        "# only a comment\n\n",
    ])
    def test_dense(self, tmp_path, text):
        p = tmp_path / "d.csv"
        p.write_text(text)
        assert read_outcome(load_dense_csv, p) == read_outcome(load_dense_tokens, p)

    # the ids end in "-None", the k override these cases were once read with
    @pytest.mark.parametrize("text", [
        "+1 1:0.5 3:1\n-1\n# c\n\n-1\t2:0.25  3:1\n",
        "+1 2:1 2:0.5 1:1\n-1 1:1\n",  # a repeated index keeps its last value
        "+1 1:1 2\n",  # a token without a colon
        "+1 1:2:3 4\n",  # two colons in one token, none in the next
        "+1 1:\n",
        "+1 :1\n",
        "+1 a:1\n",
        "+1 1:abc\n",
        "+1 0:1\n",
        "+1 1:1 0:1 x\n",  # the first bad token of a line decides
        "+1 1:1\nz 1:1\n",
        "+1 1:1 4\n0 1:1\n",  # a bad pair before a bad label
        "+1 1:1\n0 1:1\n-1 1:x\n",  # a bad label before a bad pair
        "0 1:1 4\n",  # label before pairs on one line
        "+1 1:1\n-1 0:1\nq 1:1\n",
        "+1 1:0.5\n-1 2:nan\n",
        "",
        "# only a comment\n",
        "+1 1:1\n-1 99999999999999999999:1\nx 1:1\n",  # an index past int64, then a bad label
        "+1 9223372036854775808:1\n",  # one past int64's maximum
        "+1 2:1 -9223372036854775808:1\n",  # int64's minimum, which wraps when made 0-based
        "+1 2:1 -9223372036854775809:1\n",  # one below it
    ], ids=lambda text: f"{text}-None")
    def test_sparse(self, tmp_path, text):
        p = tmp_path / "s.svm"
        p.write_text(text)
        assert read_outcome(load_sparse, p) == read_outcome(load_sparse_tokens, p)

    def test_sparse_on_random_files(self, tmp_path):
        """Seeded random small files, most of them valid: labels and
        idx:value tokens in and out of the grammar, tabs, trailing CR, blank
        lines and '#' lines."""
        labels = ["+1", "-1", "1", "-1.0", "+1e0"]
        bad_labels = ["0", "2", "x", "+0_1", "\u0661", "nan", "1:1"]
        pairs = ["1:1", "2:0.5", "3:1", "5:0", "12:0.25", "2:1e-3", "+2:1", "02:1", "4:.5"]
        bad_pairs = ["1:", ":1", "1:2:3", "x:1", "1_0:1", "1.0:1", "1:\u0661", "0:1", "7",
                     "1:nan", "1:x", "99999999999999999999:1", "1:1#"]
        p = tmp_path / "s.svm"
        for seed in range(300):
            rng = np.random.default_rng(seed)

            def pick(good, bad):
                return str(rng.choice(bad if rng.random() < 0.04 else good))

            lines = []
            for _ in range(rng.integers(1, 7)):
                kind = rng.random()
                if kind < 0.1:
                    lines.append(str(rng.choice(["", "  ", "\t", "# note 1:x", "#"])))
                    continue
                toks = [pick(labels, bad_labels)]
                toks += [pick(pairs, bad_pairs) for _ in range(rng.integers(0, 5))]
                seps = rng.choice([" ", "\t", "  ", " \t"], size=len(toks))
                line = "".join(sep + tok for sep, tok in zip(seps, toks))[1:]
                lines.append(line + ("\r" if rng.random() < 0.2 else ""))
            text = "\n".join(lines) + ("\n" if rng.random() < 0.5 else "")
            p.write_text(text, encoding="utf-8")
            assert read_outcome(load_sparse, p) == read_outcome(load_sparse_tokens, p), text


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

    @pytest.mark.parametrize("n_per_class", [0, -1])
    def test_rejects_an_empty_class(self, n_per_class):
        with pytest.raises(ValueError, match="n_per_class must be >= 1"):
            synth_2d(n_per_class, 0.4, 0)

    def test_deterministic(self):
        np.testing.assert_array_equal(
            synth_2d(10, 0.4, 7).features, synth_2d(10, 0.4, 7).features
        )

    def test_grid_defaults_positive(self):
        for g in _grids_from_config({}):
            assert g and all(v > 0 for v in g)


class TestCliPipeline:
    def _gen(self, tmp_path, n=8):
        data = tmp_path / "data.csv"
        assert main(["gen-synth", "--n", str(n), "--seed", "1", "--out", str(data)]) == 0
        return data

    def test_gen_synth_writes_loadable_csv(self, tmp_path):
        data = self._gen(tmp_path)
        ds = load_dense_csv(data)
        assert ds.n == 16 and ds.k == 2

    @pytest.mark.parametrize("sep", ["nan", "inf", "-inf"])
    def test_gen_synth_rejects_non_finite_separation(self, tmp_path, capsys, sep):
        out = tmp_path / "d.csv"
        with pytest.raises(SystemExit) as exc:
            main(["gen-synth", "--n", "3", f"--sep={sep}", "--out", str(out)])
        assert exc.value.code == EX_USAGE
        assert "finite separation" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "train-baseline"])
    def test_non_finite_features_are_an_input_error(self, tmp_path, capsys, command):
        data = tmp_path / "d.csv"
        data.write_text("+1,nan,nan\n-1,0.2,0.3\n")
        out = tmp_path / "p.csv"
        extra = ["--C", "1"] if command == "train-baseline" else []
        assert main([command, "--data", str(data), "--out", str(out), *extra]) == EX_NOINPUT
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {data}: continuous features must be finite and lie in [0, 1]"]
        assert not out.exists()

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

    def test_train_baseline_at_the_step_cap_writes_its_params_and_exits_2(self, tmp_path, capsys,
                                                                          monkeypatch):
        data = self._gen(tmp_path)
        out = tmp_path / "base.csv"
        monkeypatch.setattr(costs, "BASELINE_STEPS", 2)
        assert main(["train-baseline", "--data", str(data), "--C", "1.0", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and re.fullmatch(
            r"error: the baseline C-SVM stopped at the cap of 2 SMO steps with KKT gap "
            r"\d\.\d{3}e[+-]\d+ > 1e-09", err[0]), err
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
        key = line.partition("=")[0]
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{'rho_l' if key == 'rho_d' else 'rho_d'}=10\n{line}\n")  # each key once
        argv = [command, "--data", str(data), "--game", str(cfg)]
        if command == "train":
            argv += ["--out", str(tmp_path / "eq.csv")]
        assert main(argv) == EX_USAGE
        err = capsys.readouterr().err.splitlines()
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
            assert capsys.readouterr().err == "error: binary_flip requires an integer budget, got 0.5\n"
        assert not (tmp_path / "adv.csv").exists() and not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("command", ["attack", "secure-eval"])
    def test_flip_on_continuous_features_is_an_input_error(self, tmp_path, capsys, command):
        data = self._gen(tmp_path, n=3)
        params = tmp_path / "base.csv"
        assert main(["train-baseline", "--data", str(data), "--C", "1", "--out", str(params)]) == 0
        capsys.readouterr()
        out = tmp_path / "out.csv"
        budget = ["--dmax", "1"] if command == "attack" else ["--dmax-list", "0,1"]
        assert main([command, "--params", str(params), "--data", str(data), "--mode",
                     "binary_flip", *budget, "--out", str(out)]) == EX_NOINPUT
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {data}: binary_flip needs binary features, but a malicious "
                       "sample has a value other than 0 or 1"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["attack", "secure-eval"])
    def test_flip_with_zero_budgets_reads_any_features(self, tmp_path, command):
        # budgets that are all 0 flip nothing, so continuous features pass
        data = self._gen(tmp_path, n=3)
        params = tmp_path / "base.csv"
        assert main(["train-baseline", "--data", str(data), "--C", "1", "--out", str(params)]) == 0
        out = tmp_path / "out.csv"
        budget = ["--dmax", "0"] if command == "attack" else ["--dmax-list", "0"]
        assert main([command, "--params", str(params), "--data", str(data), "--mode",
                     "binary_flip", *budget, "--out", str(out)]) == 0
        if command == "attack":
            assert out.read_bytes() == data.read_bytes()

    def test_no_other_attack_error_is_an_input_error(self, tmp_path, monkeypatch):
        # only the binary refusal of attacks names the data file and exits 66
        data = self._gen(tmp_path, n=3)
        params = tmp_path / "base.csv"
        assert main(["train-baseline", "--data", str(data), "--C", "1", "--out", str(params)]) == 0

        def refuse(*args, **kwargs):
            raise ValueError("not an input error")

        monkeypatch.setattr(attacks, "security_curve", refuse)
        with pytest.raises(ValueError, match="not an input error"):
            main(["secure-eval", "--params", str(params), "--data", str(data), "--mode",
                  "binary_flip", "--dmax-list", "0,1", "--out", str(tmp_path / "c.csv")])

    def test_binary_rows_read_the_same_dense_or_sparse(self, tmp_path, capsys):
        # the 0/1 rows of flip.svm written as dense CSV load to the same
        # Dataset and draw the same binary_flip curve; a malicious 0.5 is
        # refused in either format, with one line
        sparse, dense = GOLDEN / "flip.svm", tmp_path / "flip.csv"
        ds = load_sparse(sparse)
        save_dense_csv(dense, ds.features, ds.labels)
        assert read_outcome(load_dataset, dense) == read_outcome(load_dataset, sparse)
        argv = ["secure-eval", "--params", str(GOLDEN / "flip_eq.csv"), "--mode", "binary_flip",
                "--dmax-list", "0,1,2,3,5", "--reps", "3", "--fp", "0.05", "--seed", "5"]
        curves = []
        for data in (sparse, dense):
            out = tmp_path / f"{data.name}.curve"
            assert main(argv + ["--data", str(data), "--out", str(out)]) == 0
            curves.append(out.read_bytes())
        assert curves[0] == curves[1] == (GOLDEN / "flip_curve.csv").read_bytes()
        X = ds.features.copy()
        row = np.flatnonzero((ds.labels == 1) & X.any(axis=1))[-1]
        X[row, np.flatnonzero(X[row])[0]] = 0.5
        half_dense, half_sparse = tmp_path / "half.csv", tmp_path / "half.svm"
        save_dense_csv(half_dense, X, ds.labels)
        save_sparse(half_sparse, Dataset(X, ds.labels))
        capsys.readouterr()
        for data in (half_dense, half_sparse):
            out = tmp_path / "half.curve"
            assert main(argv + ["--data", str(data), "--out", str(out)]) == EX_NOINPUT
            assert capsys.readouterr().err.splitlines() == [
                f"error: {data}: binary_flip needs binary features, but a malicious sample has "
                "a value other than 0 or 1"]
            assert not out.exists()

    @pytest.mark.parametrize("command", ["attack", "secure-eval"])
    def test_params_for_another_k_are_rejected(self, tmp_path, capsys, command):
        # a model trained on k=2 data, read on k=5 data: 2(k+1) + 2nk values
        # fit neither 2*6 nor 2*6 + a whole number of 2*5-value rows
        data = self._gen(tmp_path, n=3)
        cfg = tmp_path / "game.cfg"
        cfg.write_text("max_iter=5\n")
        params = tmp_path / "eq.csv"
        main(["train", "--data", str(data), "--game", str(cfg), "--out", str(params)])
        wide = tmp_path / "wide.csv"
        rows = np.random.default_rng(0).uniform(size=(6, 5))
        save_dense_csv(wide, rows, np.array([-1.0, 1.0] * 3))
        out = tmp_path / "out.csv"
        argv = [command, "--params", str(params), "--data", str(wide), "--out", str(out)]
        argv += ["--dmax", "0.3"] if command == "attack" else ["--dmax-list", "0,0.3"]
        capsys.readouterr()
        assert main(argv) == EX_NOINPUT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "k=5" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["attack", "secure-eval"])
    def test_baseline_params_of_another_k_that_fit_in_length_are_rejected(self, tmp_path, capsys,
                                                                           command):
        # a train-baseline file of a 4-feature set holds 2 * 5 = 10 values, as
        # many as a train file at k = 2 with one attacked sample; read that way
        # its learner deviations are [w_4, b, 0], off the default box
        wide = tmp_path / "wide.csv"
        rows = np.random.default_rng(3).uniform(size=(8, 4))
        save_dense_csv(wide, rows, np.array([-1.0, 1.0] * 4))
        params = tmp_path / "base.csv"
        assert main(["train-baseline", "--data", str(wide), "--C", "1", "--out", str(params)]) == 0
        assert load_flat_csv(params).size == 10
        sparse = tmp_path / "s.svm"
        sparse.write_text("+1 1:1 2:1\n-1 2:1\n+1 1:1\n-1 1:1\n")
        out = tmp_path / "out.csv"
        argv = [command, "--params", str(params), "--data", str(sparse), "--out", str(out)]
        argv += ["--dmax", "1"] if command == "attack" else ["--dmax-list", "0,1"]
        capsys.readouterr()
        assert main(argv) == EX_NOINPUT
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {params}: 10 values do not fit a model with k=2"]
        assert not out.exists()

    def test_train_params_with_deviations_off_the_default_box_are_rejected(self, tmp_path,
                                                                           capsys):
        data = self._gen(tmp_path, n=3)
        cfg = tmp_path / "game.cfg"
        cfg.write_text("max_iter=5\n")
        params = tmp_path / "eq.csv"
        main(["train", "--data", str(data), "--game", str(cfg), "--out", str(params)])
        v = load_flat_csv(params)
        out = tmp_path / "c.csv"
        argv = ["secure-eval", "--params", str(params), "--data", str(data),
                "--dmax-list", "0,0.3", "--reps", "1", "--out", str(out)]
        assert main(argv) == 0
        # a learner deviation (k + 1 = 3 onward), then an attacker row's (6 + 2 onward)
        for i, bad in ((3, 0.0), (5, 2e-3), (8, 0.6), (6 + 4 + 3, 1e-4)):
            edited = v.copy()
            edited[i] = bad
            save_flat_csv(params, edited)
            capsys.readouterr()
            assert main(argv) == EX_NOINPUT
            err = capsys.readouterr().err.splitlines()
            assert err == [f"error: {params}: {v.size} values do not fit a model with k=2"]

    @pytest.mark.parametrize("text", ["1,abc\n", "\n", "", "1,2,3,4,5,nan\n"])
    def test_malformed_params_file_is_an_input_error(self, tmp_path, capsys, text):
        data = self._gen(tmp_path, n=3)
        params = tmp_path / "bad.csv"
        params.write_text(text)
        out = tmp_path / "c.csv"
        capsys.readouterr()
        assert main(["secure-eval", "--params", str(params), "--data", str(data),
                     "--dmax-list", "0,0.3", "--out", str(out)]) == EX_NOINPUT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {params}: ")
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", [("train", "--game"), ("check-eq", "--game"),
                                               ("grid-search", "--grids")])
    def test_config_line_without_equals_is_an_input_error(self, tmp_path, capsys, command,
                                                          flag):
        data = self._gen(tmp_path, n=3)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("# comment\nrho_l 3\n")
        out = tmp_path / "out.csv"
        argv = [command, "--data", str(data), flag, str(cfg)]
        argv += [] if command == "check-eq" else ["--out", str(out)]
        capsys.readouterr()
        assert main(argv) == EX_NOINPUT
        assert capsys.readouterr().err.splitlines() == [f"error: {cfg}:2: expected key=value"]
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, text", [
        ("train", "--game", "rho_l=1\n# the last value used to win\nrho_l=100\n"),
        ("grid-search", "--grids", "W_grid=1\nrho_l_grid=10\nrho_l_grid=1,10\n"),
    ])
    def test_repeated_config_key_is_an_input_error(self, tmp_path, capsys, command, flag,
                                                   text):
        data = self._gen(tmp_path, n=3)
        cfg = tmp_path / "twice.cfg"
        cfg.write_text(text)
        out = tmp_path / "out.csv"
        key = text.splitlines()[-1].partition("=")[0]
        capsys.readouterr()
        argv = [command, "--data", str(data), flag, str(cfg), "--out", str(out)]
        assert main(argv) == EX_NOINPUT
        assert capsys.readouterr().err.splitlines() == [f"error: {cfg}:3: duplicate key {key!r}"]
        assert not out.exists()

    def test_secure_eval_on_one_class_is_an_input_error(self, tmp_path, capsys):
        data = self._gen(tmp_path, n=3)
        params = tmp_path / "p.csv"
        assert main(["train-baseline", "--data", str(data), "--C", "1",
                     "--out", str(params)]) == 0
        legit = tmp_path / "legit.csv"
        legit.write_text("".join(line for line in data.read_text().splitlines(keepends=True)
                                 if line.startswith("-1")))
        out = tmp_path / "c.csv"
        capsys.readouterr()
        assert main(["secure-eval", "--params", str(params), "--data", str(legit),
                     "--dmax-list", "0,0.3", "--out", str(out)]) == EX_NOINPUT
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {legit}: secure-eval needs samples of both classes"]
        assert not out.exists()

    @pytest.mark.parametrize("rows, message", [
        (3, "grid-search needs at least 4 samples, got 3"),
        # labels -1, +1, +1, +1: seed 0 permutes the rows to (2, 0 | 1, 3), so
        # the two rows that validate are both +1
        (4, "grid-search's validation split (2 of 4) needs samples of both classes"),
    ])
    def test_grid_search_on_too_few_samples_is_an_input_error(self, tmp_path, capsys, rows,
                                                              message):
        data = self._gen(tmp_path, n=3)
        small = tmp_path / "small.csv"
        small.write_text("".join(data.read_text().splitlines(keepends=True)[6 - rows :]))
        out = tmp_path / "best.csv"
        capsys.readouterr()
        assert main(["grid-search", "--data", str(small), "--max-iter", "5",
                     "--out", str(out)]) == EX_NOINPUT
        assert capsys.readouterr().err.splitlines() == [f"error: {small}: {message}"]
        assert not out.exists()

    def test_grid_search_needs_both_classes_in_training(self, tmp_path, capsys):
        # labels +1, -1, +1, +1: seed 0 permutes the rows to (2, 0 | 1, 3), so
        # the two rows that train are both +1 while validation holds both
        small = tmp_path / "small.csv"
        small.write_text("1,0.1,0.2\n-1,0.3,0.4\n1,0.5,0.6\n1,0.7,0.8\n")
        out = tmp_path / "best.csv"
        capsys.readouterr()
        assert main(["grid-search", "--data", str(small), "--max-iter", "5",
                     "--out", str(out)]) == EX_NOINPUT
        assert capsys.readouterr().err.splitlines() == [
            f"error: {small}: grid-search's training split (2 of 4) needs samples of both classes"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen-synth", "train-baseline", "secure-eval",
                                         "check-eq", "grid-search"])
    def test_negative_seed_is_a_usage_error(self, tmp_path, capsys, command):
        argv = {
            "gen-synth": ["--n", "3"],
            "train-baseline": ["--data", "d.csv", "--C", "1"],
            "secure-eval": ["--params", "p.csv", "--data", "d.csv", "--dmax-list", "0,1"],
            "check-eq": ["--data", "d.csv"],
            "grid-search": ["--data", "d.csv"],
        }[command]
        if command != "check-eq":
            argv += ["--out", str(tmp_path / "out.csv")]
        with pytest.raises(SystemExit) as exc:
            main([command, *argv, "--seed", "-1"])
        assert exc.value.code == EX_USAGE
        err = capsys.readouterr().err.splitlines()
        if command == "train-baseline":  # its solve is exact and takes no seed at all
            assert err[-1] == "error: unrecognized arguments: --seed -1"
        else:
            assert err[-1].startswith("error: argument --seed: expected")
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("pairs", ["-3", "0", "1.5"])
    def test_check_eq_needs_monotonicity_pairs(self, tmp_path, capsys, pairs):
        with pytest.raises(SystemExit) as exc:
            main(["check-eq", "--data", "d.csv", "--pairs", pairs])
        assert exc.value.code == EX_USAGE
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith("error: argument --pairs: expected")

    @pytest.mark.parametrize("line, message", [
        ("rho_l=5", "unknown grid config key 'rho_l'"),
        ("rho_l_grid=nan", "bad value for grid config key 'rho_l_grid': "),
        ("rho_d_grid=1,inf", "bad value for grid config key 'rho_d_grid': "),
        ("W_grid=0", "bad value for grid config key 'W_grid': "),
        ("W_grid=0.5,-1", "bad value for grid config key 'W_grid': "),
        ("rho_l_grid=1,abc", "bad value for grid config key 'rho_l_grid': "),
        ("rho_l_grid=", "bad value for grid config key 'rho_l_grid': "),
    ])
    def test_bad_grid_config_is_a_usage_error(self, tmp_path, capsys, line, message):
        data = self._gen(tmp_path, n=3)
        grids = tmp_path / "grids.cfg"
        key = line.partition("=")[0]
        small = [row for row in ("rho_d_grid=10", "W_grid=1") if row.partition("=")[0] != key]
        grids.write_text("".join(f"{row}\n" for row in [*small, line]))  # each key once
        out = tmp_path / "best.csv"
        capsys.readouterr()
        assert main(["grid-search", "--data", str(data), "--grids", str(grids),
                     "--max-iter", "5", "--out", str(out)]) == EX_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {message}")
        assert not out.exists()

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

    def test_unreadable_data_path_is_an_input_error(self, tmp_path, capsys):
        # a directory raises IsADirectoryError, an OSError but not a FileNotFoundError
        capsys.readouterr()
        argv = ["train", "--data", str(tmp_path), "--out", str(tmp_path / "o.csv")]
        assert main(argv) == EX_NOINPUT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize("body, loader, features", [
        ("+1,0.5,0.5\n-1,0.2,0.1\n+1,0.9,0.4\n-1,0.1,0.3\n", load_dense_csv,
         [[0.5, 0.5], [0.2, 0.1], [0.9, 0.4], [0.1, 0.3]]),
        ("+1 1:1 2:1\n-1 1:1\n+1 2:1\n-1 2:1\n", load_sparse,
         [[1.0, 1.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]),
    ])
    def test_data_format_is_read_from_the_first_content_line(self, tmp_path, body, loader,
                                                             features):
        # a header comment holding a colon, and a blank line, come before the rows
        data = tmp_path / "d.txt"
        data.write_text("# columns: label,x1,x2\n\n" + body)
        out = tmp_path / "p.csv"
        assert main(["train-baseline", "--data", str(data), "--C", "1", "--out", str(out)]) == 0
        assert load_flat_csv(out).size == 6  # w (2), b and three zero deviations
        ds = loader(data)
        np.testing.assert_array_equal(ds.features, features)
        np.testing.assert_array_equal(ds.labels, [1.0, -1.0, 1.0, -1.0])
        assert read_outcome(load_dataset, data) == read_outcome(loader, data)

    def test_sparse_file_whose_first_sample_has_no_features(self, tmp_path):
        # the first content line holds neither ':' nor ','; a dense line has
        # one ',' per feature
        data = tmp_path / "d.svm"
        data.write_text("-1\n-1 2:1\n+1 1:1\n+1 1:1 2:1\n")
        assert read_outcome(load_dataset, data) == read_outcome(load_sparse, data)
        assert load_dataset(data).features[0].tolist() == [0.0, 0.0]
        out = tmp_path / "eq.csv"
        assert main(["train", "--data", str(data), "--out", str(out)]) in (0, 2)
        assert load_flat_csv(out).size == 2 * 3 + 2 * 4 * 2

    @pytest.mark.parametrize("flag", ["--data", "--game", "--params"])
    def test_file_that_is_not_utf8_is_an_input_error(self, tmp_path, capsys, flag):
        data = self._gen(tmp_path, n=3)
        game = tmp_path / "game.cfg"
        game.write_text("rho_l=10\n")
        params = tmp_path / "eq.csv"
        assert main(["train", "--data", str(data), "--game", str(game),
                     "--out", str(params)]) in (0, 2)
        files = {"--data": data, "--game": game, "--params": params}
        bad = files[flag]
        # a Latin-1 byte after a valid first line
        bad.write_bytes(bad.read_bytes() + b"# caf\xe9\n")
        out = tmp_path / "out.csv"
        argv = (["secure-eval", "--params", str(params), "--data", str(data),
                 "--dmax-list", "0,0.3"] if flag == "--params" else
                ["train", "--data", str(data), "--game", str(game)]) + ["--out", str(out)]
        capsys.readouterr()
        assert main(argv) == EX_NOINPUT
        assert capsys.readouterr().err.splitlines() == [f"error: {bad}: not UTF-8 text"]
        assert not out.exists()

    @pytest.mark.parametrize("tail, message", [
        (b"1,2\n", "expected one line of comma-separated numbers"),
        # blank lines well past the reader's first chunk, then a Latin-1 byte
        (b"\n" * 20000 + b"# caf\xe9\n", "not UTF-8 text"),
    ], ids=["second_line", "latin1_after_blank_lines"])
    def test_params_file_is_read_to_its_end(self, tmp_path, capsys, tail, message):
        data = self._gen(tmp_path, n=3)
        params = tmp_path / "eq.csv"
        assert main(["train", "--data", str(data), "--out", str(params)]) in (0, 2)
        params.write_bytes(params.read_bytes() + tail)
        out = tmp_path / "curve.csv"
        capsys.readouterr()
        assert main(["secure-eval", "--params", str(params), "--data", str(data),
                     "--dmax-list", "0,0.3", "--out", str(out)]) == EX_NOINPUT
        assert capsys.readouterr().err.splitlines() == [f"error: {params}: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("load", [load_dense_csv, load_sparse, load_dataset])
    def test_loaders_name_a_file_that_is_not_utf8(self, tmp_path, load):
        # the decode error comes before the parse error of the same line
        data = tmp_path / "d.txt"
        data.write_bytes(b"+1,0.5\n-1,0.\xff\n")
        with pytest.raises(ParseError, match="not UTF-8 text"):
            load(data)

    @pytest.mark.parametrize("value", ["0_5", "\u0660.\u0665"])
    def test_dense_value_numpy_refuses_is_an_input_error(self, tmp_path, capsys, value):
        data = tmp_path / "d.csv"
        data.write_text(f"-1,0.2\n-1,0.3\n+1,0.6\n+1,{value}\n", encoding="utf-8")
        out = tmp_path / "eq.csv"
        capsys.readouterr()
        assert main(["train", "--data", str(data), "--out", str(out)]) == EX_NOINPUT
        assert capsys.readouterr().err.splitlines() == [
            f"error: {data}:4: malformed feature value"]
        assert not out.exists()

    def test_bad_flags_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["train"])  # missing required arguments
        assert exc.value.code == EX_USAGE

    def test_grid_search_refuses_one_budget_before_any_solve(self, tmp_path, capsys,
                                                             monkeypatch):
        # one budget gives every grid point a curve of area 0, and the first
        # point would win the tie
        data = self._gen(tmp_path, n=10)
        solves = []
        monkeypatch.setattr(solver, "extragradient_solve", lambda *a, **kw: solves.append(1))
        out = tmp_path / "best.csv"
        capsys.readouterr()
        assert main(["grid-search", "--data", str(data), "--dmax-list", "0.5",
                     "--out", str(out)]) == EX_USAGE
        assert capsys.readouterr().err.splitlines() == [
            "error: grid-search scores a curve by its area, which needs at least two "
            "--dmax-list budgets, got 1"]
        assert not solves and not out.exists()

    def test_grid_search_validates_on_every_sample_it_does_not_train_on(self, tmp_path,
                                                                       monkeypatch):
        data = self._gen(tmp_path, n=5)
        grids = tmp_path / "grids.cfg"
        grids.write_text("rho_l_grid=10\nrho_d_grid=10\nW_grid=1\n")
        sizes = []

        def curve(mu_w, test, *args, **kwargs):
            sizes.append(test.n)
            return SecurityCurve(((0.0, 1.0, 0.0), (1.0, 0.5, 0.0)), 0.01, 1)

        monkeypatch.setattr(attacks, "security_curve", curve)
        # 5 iterations leave the one grid point unconverged: exit 2
        assert main(["grid-search", "--data", str(data), "--grids", str(grids),
                     "--max-iter", "5", "--out", str(tmp_path / "best.csv")]) == 2
        assert sizes == [5]  # 10 samples: 5 train, the other 5 validate

    def test_grid_search_exit_code_follows_only_the_written_point(self, tmp_path, capsys,
                                                                 monkeypatch):
        # on the golden set at --max-iter 300, rho_d=5 stops at the cap and
        # rho_d=10 converges (test_grid_search_bytes); when rho_d=10 wins,
        # the unconverged loser does not enter the exit code
        grids = tmp_path / "grids.cfg"
        grids.write_text("rho_l_grid=10\nrho_d_grid=5,10\nW_grid=1\n")
        tps = iter([0.5, 1.0])

        def curve(*args, **kwargs):
            tp = next(tps)
            return SecurityCurve(((0.0, tp, 0.0), (1.0, tp, 0.0)), 0.01, 1)

        monkeypatch.setattr(attacks, "security_curve", curve)
        capsys.readouterr()
        assert main(["grid-search", "--data", str(GOLDEN / "train.csv"), "--grids", str(grids),
                     "--max-iter", "300", "--out", str(tmp_path / "best.csv")]) == 0
        assert capsys.readouterr() == ("best rho_l=10.0 rho_d=10.0 W=1.0 auc=1.0000\n", "")

    def test_grid_search_writes_best_row(self, tmp_path, capsys):
        data = self._gen(tmp_path, n=6)
        grids = tmp_path / "grids.cfg"
        grids.write_text("rho_l_grid=10\nrho_d_grid=5,10\nW_grid=1\n")
        out = tmp_path / "best.csv"
        capsys.readouterr()
        assert main([
            "grid-search", "--data", str(data), "--grids", str(grids),
            "--dmax-list", "0,0.5", "--reps", "2", "--max-iter", "300",
            "--out", str(out),
        ]) == 0
        assert capsys.readouterr().err == ""  # the written point converged
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

    def test_commands_run_without_scipy(self, tmp_path):
        # scipy is a test-only dependency: the CLI neither imports it nor needs it
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        probe = ("import sys, randgame.cli; "
                 "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, check=True)
        assert proc.stdout == "[]\n"

        def run(*argv):
            return subprocess.run([sys.executable, "-c", NO_SCIPY, *map(str, argv)], env=env,
                                  capture_output=True, text=True).returncode

        data, params, cfg = tmp_path / "d.csv", tmp_path / "eq.csv", tmp_path / "game.cfg"
        cfg.write_text("rho_l=100\nrho_d=100\nbias_reg=1\nW=0.5\n")
        assert run("gen-synth", "--n", 3, "--seed", 1, "--out", data) == 0
        assert run("train", "--data", data, "--game", cfg, "--out", params) == 0
        assert run("check-eq", "--data", data, "--game", cfg, "--profiles", 2, "--pairs", 20) == 0
        assert load_flat_csv(params).size == 2 * 3 + 2 * 6 * 2

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


def outcome(call, argv, capsys):
    """The exit code (None for a call that returns), stdout and stderr of
    call(argv)."""
    code = None
    try:
        call(argv)
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


# per command: a valid argv that sets every flag, and one with a bad value
VALID_ARGV = {
    "gen-synth": ["--n", "3", "--sep", "0.5", "--seed", "2", "--out", "o.csv"],
    "train": ["--game", "g.cfg", "--data", "d.csv", "--out", "o.csv"],
    "train-baseline": ["--data", "d.csv", "--C", "2.5", "--out", "o.csv"],
    "attack": ["--params", "p.csv", "--data", "d.csv", "--dmax", "0.5", "--mode", "binary_flip",
               "--monotone", "--out", "o.csv"],
    "secure-eval": ["--params", "p.csv", "--data", "d.csv", "--dmax-list", "0,1", "--mode",
                    "l2_closed_form", "--fp", "0.05", "--reps", "2", "--seed", "3",
                    "--out", "o.csv"],
    "check-eq": ["--game", "g.cfg", "--data", "d.csv", "--profiles", "2", "--pairs", "7",
                 "--seed", "1"],
    "grid-search": ["--grids", "g.cfg", "--data", "d.csv", "--dmax-list", "0,1", "--reps", "2",
                    "--seed", "1", "--max-iter", "9", "--out", "o.csv"],
}
BAD_VALUE_ARGV = {
    "gen-synth": ["--n", "0", "--out", "o.csv"],
    "train": ["--data", "d.csv", "--out"],  # train has no typed flag: a flag without its value
    "train-baseline": ["--data", "d.csv", "--C", "nan", "--out", "o.csv"],
    "attack": ["--params", "p.csv", "--data", "d.csv", "--dmax", "1", "--mode", "bad",
               "--out", "o.csv"],
    "secure-eval": ["--params", "p.csv", "--data", "d.csv", "--dmax-list", "1,0",
                    "--out", "o.csv"],
    "check-eq": ["--data", "d.csv", "--pairs", "0"],
    "grid-search": ["--data", "d.csv", "--max-iter", "x", "--out", "o.csv"],
}


class TestCommandParsers:
    """main builds only the parser of the command it runs, yet every argv
    gives what the full parser of build_parser gives: the same help, the
    same Namespace and the same error and exit code."""

    @pytest.fixture(autouse=True)
    def fixed_width(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    def test_every_command_has_cases(self):
        assert set(VALID_ARGV) == set(BAD_VALUE_ARGV) == set(cli._COMMANDS)

    @pytest.mark.parametrize("argv", [[], ["-h"], ["bogus"], ["-h", "train"],
                                      *([cmd, "-h"] for cmd in VALID_ARGV)])
    def test_same_help_and_errors_as_the_full_parser(self, capsys, argv):
        got = outcome(main, argv, capsys)
        assert got == outcome(build_parser().parse_args, argv, capsys)
        assert got[0] in (0, EX_USAGE)

    @pytest.mark.parametrize("cmd", sorted(VALID_ARGV))
    def test_valid_argv_gives_the_full_parser_namespace(self, monkeypatch, cmd):
        seen = []
        help_line, _, flags = cli._COMMANDS[cmd]
        monkeypatch.setitem(cli._COMMANDS, cmd, (help_line, lambda a: seen.append(a) or 0, flags))
        argv = [cmd, *VALID_ARGV[cmd]]
        assert main(argv) == 0
        full = build_parser().parse_args(argv)
        assert vars(full) == {**vars(seen[0]), "command": cmd}

    @pytest.mark.parametrize("cmd", sorted(VALID_ARGV))
    @pytest.mark.parametrize("case", ["missing", "bad value", "unknown flag", "extra positional"])
    def test_bad_argv_gives_the_full_parser_error(self, monkeypatch, capsys, cmd, case):
        help_line, _, flags = cli._COMMANDS[cmd]
        monkeypatch.setitem(cli._COMMANDS, cmd,
                            (help_line, lambda a: pytest.fail(f"{cmd} ran"), flags))
        argv = {"missing": [cmd],
                "bad value": [cmd, *BAD_VALUE_ARGV[cmd]],
                "unknown flag": [cmd, *VALID_ARGV[cmd], "--bogus"],
                "extra positional": [cmd, *VALID_ARGV[cmd], "extra"]}[case]
        got = outcome(main, argv, capsys)
        assert got == outcome(build_parser().parse_args, argv, capsys)
        assert got[0] == EX_USAGE and not got[1]
        assert got[2].splitlines()[-1].startswith("error: ")

    def test_one_command_builds_one_parser(self, monkeypatch, tmp_path):
        built = []
        init = cli._Parser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counted)
        assert main(["gen-synth", "--n", "2", "--out", str(tmp_path / "s.csv")]) == 0
        assert built == ["randgame gen-synth"]


GOLDEN = Path(__file__).parent / "data"


class TestGoldenOutputs:
    """Seeded `secure-eval` and `attack` runs on the small sets in tests/data
    against outputs written by the per-sample attack code these batched
    attacks replaced: curves, binary flips and closed-form L2 attacks must
    keep every byte, box-L2 attacks every value to 1e-12. Seeded `train` runs
    must keep every byte of their params and stdout."""

    BOX = ["--params", str(GOLDEN / "box_eq.csv"), "--data", str(GOLDEN / "box.csv")]
    FLIP = ["--params", str(GOLDEN / "flip_eq.csv"), "--data", str(GOLDEN / "flip.svm")]

    @pytest.mark.parametrize("name, argv", [
        ("box_curve.csv", ["secure-eval", *BOX, "--dmax-list", "0,0.1,0.3,0.6,1.5"]),
        ("flip_curve.csv", ["secure-eval", *FLIP, "--mode", "binary_flip",
                            "--dmax-list", "0,1,2,3,5"]),
    ])
    def test_secure_eval_curve_bytes(self, tmp_path, name, argv):
        out = tmp_path / name
        argv = argv + ["--reps", "3", "--fp", "0.05", "--seed", "5", "--out", str(out)]
        assert main(argv) == 0
        assert out.read_bytes() == (GOLDEN / name).read_bytes()

    @pytest.mark.parametrize("name, argv", [
        ("flip_attacked.csv", ["attack", *FLIP, "--mode", "binary_flip", "--dmax", "2"]),
        ("box_closed.csv", ["attack", *BOX, "--mode", "l2_closed_form", "--dmax", "0.3"]),
    ])
    def test_attack_bytes(self, tmp_path, name, argv):
        out = tmp_path / name
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / name).read_bytes()

    @pytest.mark.parametrize("bias_reg", [0, 1])
    def test_train_bytes(self, tmp_path, capsys, bias_reg):
        # train.csv is gen-synth --n 8 --seed 2. At bias_reg 0 the game has
        # many equilibria and the start decides which one train writes
        cfg = tmp_path / "game.cfg"
        cfg.write_text(f"rho_l=10\nrho_d=10\nW=1\nbias_reg={bias_reg}\nseed=0\n")
        out = tmp_path / "eq.csv"
        capsys.readouterr()
        assert main(["train", "--data", str(GOLDEN / "train.csv"), "--game", str(cfg),
                     "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / f"train_eq_bias{bias_reg}.csv").read_bytes()
        stdout = (GOLDEN / f"train_stdout_bias{bias_reg}.txt").read_text()
        assert capsys.readouterr().out == stdout

    @pytest.mark.parametrize("bias_reg, params_sha256, stdout_sha256", [
        (0, "4a390b16eca73f8627ba2ea4cd12c2c1f2ad88403f2d53e88c5a48410d44903b",
         "6a83ade1b11420758393bce2a86a60768dbd4a33f0094b46fd671d3a9e8003e8"),
        (1, "6457a2c0f3b18651dce40d1996488a1428d0ccf6dca5183537178c8563cdbc90",
         "e6ad05fe47d7c72aa3bca02493c9e1252bd964af488f320329904964a59ab029"),
    ])
    def test_train_digests_on_the_rational_path(self, tmp_path, capsys, bias_reg,
                                                params_sha256, stdout_sha256):
        # gen-synth --n 300 --seed 4 has 600 points, 1200 margins, so Phi takes
        # its rational path (train.csv's 32 margins take erfc), and the solves
        # attempt closed-form Newton steps: newton=0/3 at bias_reg 0, 2/4 at 1
        data, cfg, out = tmp_path / "d.csv", tmp_path / "game.cfg", tmp_path / "eq.csv"
        assert main(["gen-synth", "--n", "300", "--seed", "4", "--out", str(data)]) == 0
        cfg.write_text(f"rho_l=10\nrho_d=10\nW=1\nbias_reg={bias_reg}\nseed=0\n")
        capsys.readouterr()
        assert main(["train", "--data", str(data), "--game", str(cfg), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == params_sha256
        stdout = capsys.readouterr().out
        assert hashlib.sha256(stdout.encode()).hexdigest() == stdout_sha256, stdout

    def test_train_digests_of_kept_newton_steps_at_k5(self, tmp_path, capsys):
        # 800 points of the CI's k = 5 set (uniform in [0, 1]^5 from seed 5,
        # y = sign(x_1 + x_2 + x_3 - 1.5)) at rho 100: the solve keeps all
        # three of its closed-form Newton steps, so the digests pin the
        # Newton step's bits at k > 2, where score and sigma from other
        # products than the evaluation's would move 55 of the 8012 entries
        X = np.random.default_rng(5).uniform(size=(800, 5))
        data, cfg, out = tmp_path / "k5.csv", tmp_path / "game.cfg", tmp_path / "eq.csv"
        save_dense_csv(data, X, np.where(X[:, :3].sum(axis=1) > 1.5, 1.0, -1.0))
        cfg.write_text("rho_l=100\nrho_d=100\nW=1\nbias_reg=1\nseed=0\n")
        capsys.readouterr()
        assert main(["train", "--data", str(data), "--game", str(cfg), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "newton=3/3" in stdout, stdout
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "da1dc8f9041262a822a0db842f419528e9041a68b89ce44d014fe0dd2fbd5021")
        assert hashlib.sha256(stdout.encode()).hexdigest() == (
            "8da2ae7cd27e60d1431a48ae531ca91d0dee2fa6973f2b68698ce840cd415fd3"), stdout

    @pytest.mark.parametrize("bias_reg", [0, 1])
    def test_train_bytes_of_the_dense_step(self, tmp_path, capsys, monkeypatch, bias_reg):
        # the primal operator's Newton steps are closed-form; the dense
        # elimination of the Jacobian blocks writes the same bytes
        operator = costs.game_operator
        monkeypatch.setattr(costs, "game_operator", lambda game: with_dense_newton(operator(game)))
        self.test_train_bytes(tmp_path, capsys, bias_reg)

    @pytest.mark.parametrize("name, flags", [
        ("box_attacked.csv", []), ("box_attacked_monotone.csv", ["--monotone"]),
    ])
    def test_box_attack_values(self, tmp_path, name, flags):
        out = tmp_path / name
        argv = ["attack", *self.BOX, "--mode", "l2_box_pgd", "--dmax", "0.3", *flags]
        assert main(argv + ["--out", str(out)]) == 0
        got, want = load_dense_csv(out), load_dense_csv(GOLDEN / name)
        np.testing.assert_array_equal(got.labels, want.labels)
        np.testing.assert_allclose(got.features, want.features, rtol=0, atol=1e-12)

    def test_grid_search_bytes(self, tmp_path, capsys, monkeypatch):
        # grid_best.csv and grid_eq.csv (each grid point's solution, a row
        # each) were written when grid-search built its games by hand. The
        # two grid points score AUCs 0.21875 and 0.1875; the first solve
        # stops at --max-iter, the second at the default tolerance
        solve, rows = solver.extragradient_solve, []

        def recorded(*args, **kwargs):
            result = solve(*args, **kwargs)
            rows.append(",".join(f"{v:.17g}" for v in result.theta) + "\n")
            return result

        monkeypatch.setattr(solver, "extragradient_solve", recorded)
        grids = tmp_path / "grids.cfg"
        grids.write_text("rho_l_grid=10\nrho_d_grid=5,10\nW_grid=1\n")
        out = tmp_path / "best.csv"
        capsys.readouterr()
        # the winner is the unconverged first solve: the file is written, and
        # the exit code and one stderr line say so
        assert main(["grid-search", "--data", str(GOLDEN / "train.csv"), "--grids", str(grids),
                     "--dmax-list", "0,0.5", "--reps", "2", "--max-iter", "300",
                     "--out", str(out)]) == 2
        assert out.read_bytes() == (GOLDEN / "grid_best.csv").read_bytes()
        assert "".join(rows) == (GOLDEN / "grid_eq.csv").read_text()
        assert capsys.readouterr() == (
            "best rho_l=10.0 rho_d=5.0 W=1.0 auc=0.2188\n",
            "error: the best point rho_l=10.0 rho_d=5.0 W=1.0 stopped at --max-iter 300 "
            "with residual=3.256e-01\n")
