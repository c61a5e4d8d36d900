"""Data model: validation of datasets, games and flat profiles, boxes, serialization."""

import dataclasses
import itertools
import os
import re
import stat

import numpy as np
import pytest

from oracles import load_flat_tokens
from randgame.costs import game_operator
from randgame.data import ParseError, atomic_write, load_config, load_flat_csv, save_flat_csv
from randgame.model import (
    ATTACKER_DEV_BOUNDS,
    Dataset,
    GameSpec,
    LEARNER_DEV_BOUNDS,
    ShapeError,
    default_boxes,
)
from randgame.ops import VIGame


_ONE_POINT = Dataset(np.array([[0.5, 0.5]]), np.array([1.0]))


def _operator_and_profile(n=2, k=2, seed=0):
    """The operator of a small game and a flat profile inside its box."""
    rng = np.random.default_rng(seed)
    y = np.where(np.arange(n) % 2, 1.0, -1.0)
    ops = game_operator(GameSpec(Dataset(rng.uniform(size=(n, k)), y), 1.0, 1.0,
                                 *default_boxes(n, k, 1.0)))
    return ops, ops.lower + rng.uniform(0.2, 0.8, ops.dim) * (ops.upper - ops.lower)


def _rejected(ops, theta, error, match):
    for fn in (ops.costs, ops.pseudo_grad):
        with pytest.raises(error, match=match):
            fn(theta)


class TestValidation:
    def test_dataset_rejects_bad_labels(self):
        with pytest.raises(ValueError, match="labels"):
            Dataset(np.zeros((2, 2)), np.array([0.0, 1.0]))

    def test_dataset_rejects_labels_of_another_length(self):
        for labels in ([1.0], [1.0, -1.0, 1.0]):
            with pytest.raises(ShapeError, match="labels length does not match feature rows"):
                Dataset(np.zeros((2, 2)), np.array(labels))

    def test_dataset_rejects_out_of_range_features(self):
        with pytest.raises(ValueError, match="0, 1"):
            Dataset(np.array([[1.5, 0.0]]), np.array([1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_dataset_rejects_non_finite_features(self, bad):
        # nan < 0 and nan > 1 are both False, so a range check can let NaN in
        with pytest.raises(ValueError, match=r"^continuous features must be finite and lie in "
                                             r"\[0, 1\]$"):
            Dataset(np.array([[0.0, bad]]), np.array([1.0]))

    def test_dataset_is_its_features_and_labels(self):
        # binary and fractional values in [0, 1] alike, and no third field
        X, y = np.array([[0.5, 1.0], [0.0, 1.0]]), np.array([1.0, -1.0])
        ds = Dataset(X, y)
        assert [f.name for f in dataclasses.fields(ds)] == ["features", "labels"]
        assert ds.features.tobytes() == X.tobytes() and ds.labels.tobytes() == y.tobytes()
        with pytest.raises(TypeError):
            Dataset(X, y, "binary")

    def test_dataset_is_immutable(self):
        ds = Dataset(np.array([[0.5, 0.5]]), np.array([1.0]))
        with pytest.raises(ValueError):
            ds.features[0, 0] = 0.0

    def test_gamespec_box_is_immutable(self):
        game = GameSpec(_ONE_POINT, 1.0, 1.0, *default_boxes(1, 2, 1.0))
        for bound in (game.lower, game.upper):
            with pytest.raises(ValueError):
                bound[0] = 0.0

    def test_learner_rejects_nonpositive_sigma(self):
        # a flat profile's learner deviations sit at [k + 1, 2k + 2)
        ops, theta = _operator_and_profile()
        for bad, match in ((0.0, "positive"), (-0.1, "positive"), (np.nan, "finite")):
            for i in (4, 5):  # a weight's deviation, the bias's
                v = theta.copy()
                v[i] = bad
                _rejected(ops, v, ValueError, match)

    def test_attacker_rejects_nonpositive_sigma(self):
        # the deviations of attacker row i sit in the second half of its block
        ops, theta = _operator_and_profile()
        for bad, match in ((0.0, "positive"), (-0.1, "positive"), (np.nan, "finite")):
            v = theta.copy()
            v[ops.dim_l + 4 + 2] = bad  # the second row's first deviation
            _rejected(ops, v, ValueError, match)

    def test_attacker_rejects_shape_mismatch(self):
        # a profile for another n or k does not fit the game's attacker block
        ops, theta = _operator_and_profile(n=2, k=2)
        for other in (_operator_and_profile(n=3, k=2)[1], _operator_and_profile(n=2, k=3)[1],
                      theta[:-1], np.append(theta, 0.1)):
            _rejected(ops, other, ShapeError, "inconsistent")

    def test_box_rejects_inverted_bounds(self):
        # learner mean, learner deviation, attacker mean, attacker deviation
        for i in (0, 3, 6, 8):
            lower, upper = default_boxes(1, 2, 1.0)
            lower[i] = upper[i] + 0.5
            with pytest.raises(ValueError, match="lower"):
                GameSpec(_ONE_POINT, 1.0, 1.0, lower, upper)

    @pytest.mark.parametrize("lower, upper", [
        ([np.nan, 0.0], [1.0, 1.0]), ([0.0, 0.0], [1.0, np.nan]), ([np.nan], [np.nan]),
    ])
    def test_box_rejects_nan_bounds(self, lower, upper):
        # the listed bounds replace the first coordinates of a valid joint box
        lo, up = default_boxes(1, 2, 1.0)
        lo[: len(lower)], up[: len(upper)] = lower, upper
        with pytest.raises(ValueError, match="NaN"):
            GameSpec(_ONE_POINT, 1.0, 1.0, lo, up)

    @pytest.mark.parametrize("W", [np.nan, np.inf, 0.0, -1.0])
    def test_default_boxes_reject_bad_W(self, W):
        with pytest.raises(ValueError, match="W must be finite and positive"):
            default_boxes(1, 2, W)

    @pytest.mark.parametrize("n, k", [(0, 2), (2, 0), (-1, 2)])
    def test_default_boxes_reject_an_empty_layout(self, n, k):
        with pytest.raises(ShapeError, match="need n >= 1 and k >= 1"):
            default_boxes(n, k, 1.0)

    def test_gamespec_rejects_zero_deviation_floor(self):
        # the learner's first and last (bias) deviation, then the first
        # deviation of the only sample, which follows the learner's 6
        # coordinates and the sample's 2 means
        for i, player in ((3, "learner"), (5, "learner"), (8, "attacker")):
            lower, upper = default_boxes(1, 2, 1.0)
            lower[i] = 0.0
            with pytest.raises(ValueError, match=f"{player} deviation"):
                GameSpec(_ONE_POINT, 1.0, 1.0, lower, upper)

    @pytest.mark.parametrize("rho_l, rho_d, bias_reg", [
        (np.nan, 1.0, 0.0), (1.0, np.nan, 0.0), (np.inf, 1.0, 0.0), (0.0, 1.0, 0.0),
        (1.0, 1.0, np.inf), (1.0, 1.0, np.nan), (1.0, 1.0, -1.0),
    ])
    def test_gamespec_rejects_non_finite_weights(self, rho_l, rho_d, bias_reg):
        # nan <= 0 is False, so a comparison that rejects bad values lets NaN in
        ds = Dataset(np.array([[0.5, 0.5]]), np.array([1.0]))
        lb, ab = default_boxes(1, 2, 1.0)
        with pytest.raises(ValueError, match="finite"):
            GameSpec(ds, rho_l, rho_d, lb, ab, bias_reg)

    def test_gamespec_rejects_wrong_box_dims(self):
        lower, upper = default_boxes(2, 2, 1.0)  # the box for n=2, the dataset has n=1
        with pytest.raises(ShapeError):
            GameSpec(_ONE_POINT, 1.0, 1.0, lower, upper)
        lower, upper = default_boxes(1, 2, 1.0)
        # one bound, or both, a coordinate short; a 2-d bound of the right size
        for lo, up in ((lower[:-1], upper), (lower, upper[:-1]), (lower[:-1], upper[:-1]),
                       (lower[None, :], upper)):
            with pytest.raises(ShapeError):
                GameSpec(_ONE_POINT, 1.0, 1.0, lo, up)


def project_box(v, lower, upper, in_place=False):
    """The solver's projection onto a box: the clamp of a VIGame over it, into
    a new array or, with in_place, into a copy of v as project(t, out=t)."""
    ops = VIGame(lower.size, lower, upper, None, None, None)
    if not in_place:
        return ops.project(v)
    t = np.array(v, dtype=float)
    assert ops.project(t, out=t) is t
    return t


class TestBoxes:
    def test_default_box_dims(self):
        lower, upper = default_boxes(n=5, k=3, W=0.5)
        assert lower.shape == upper.shape == (2 * 4 + 2 * 5 * 3,)

    def test_default_box_values(self):
        lower, upper = default_boxes(n=2, k=2, W=0.5)
        # the learner's 3 means and 3 deviations, then 2 rows of 2 means and 2 deviations
        assert np.all(lower[:3] == -0.5) and np.all(upper[:3] == 0.5)
        assert np.all(lower[3:6] == LEARNER_DEV_BOUNDS[0])
        assert np.all(upper[3:6] == LEARNER_DEV_BOUNDS[1])
        blocks = lower[6:].reshape(2, 4)
        assert np.all(blocks[:, :2] == 0.0)
        assert np.all(blocks[:, 2:] == ATTACKER_DEV_BOUNDS[0])
        assert np.all(upper[6:].reshape(2, 4)[:, :2] == 1.0)
        assert np.all(upper[6:].reshape(2, 4)[:, 2:] == ATTACKER_DEV_BOUNDS[1])

    def test_projection_is_identity_inside(self):
        v = np.array([0.2, 0.5, 0.9])
        assert np.array_equal(project_box(v, np.zeros(3), np.ones(3)), v)

    def test_projection_clamps(self):
        p = project_box(np.array([-1.0, 2.0]), np.zeros(2), np.ones(2))
        assert np.array_equal(p, [0.0, 1.0])

    def test_projection_is_nearest_point(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            v = rng.normal(scale=2.0, size=4)
            p = project_box(v, -np.ones(4), np.ones(4))
            # no feasible point is closer (check random candidates)
            cands = rng.uniform(-1.0, 1.0, size=(100, 4))
            assert np.linalg.norm(v - p) <= np.linalg.norm(v - cands, axis=1).min() + 1e-12

    def test_projection_is_the_bits_of_clip(self):
        # signed zeros, NaN, infinities and points on either bound, against
        # bounds of both signs and a point box
        lower = np.array([-0.0, 0.0, -1.0, 0.0, 0.5, -2.0, 0.25, -0.0])
        upper = np.array([0.0, 0.0, 1.0, 1.0, 0.5, -1.0, 3.0, 1.0])
        rng = np.random.default_rng(5)
        specials = [-0.0, 0.0, np.nan, np.inf, -np.inf, 0.5, -1.0, 1.0, 3.0, -2.0]
        vs = [np.full(8, x) for x in specials] + list(rng.normal(scale=2.0, size=(20, 8)))
        for v, in_place in itertools.product(vs, (False, True)):
            got, want = project_box(v, lower, upper, in_place), np.clip(v, lower, upper)
            assert got.tobytes() == want.tobytes()


class TestSerialization:
    def test_flat_csv_roundtrip_exact(self, tmp_path):
        v = np.random.default_rng(7).normal(size=17)
        p = tmp_path / "params.csv"
        save_flat_csv(p, v)
        assert np.array_equal(load_flat_csv(p), v)

    def test_flat_csv_bytes_match_per_value_formatting(self, tmp_path):
        v = np.array([-0.0, 5e-324, 0.1, 1e308, -1.5e-300, 2.0 / 3.0])
        p = tmp_path / "params.csv"
        save_flat_csv(p, v)
        assert p.read_text() == ",".join(f"{x:.17g}" for x in v) + "\n"
        assert load_flat_csv(p).tobytes() == v.tobytes()

    @pytest.mark.parametrize("text", [
        "1,2\n", "-0.0,5e-324,0.1,1e308\n", "1, 2 ,3\nignored,second,line\n", "7",
        "1,2\n\n \t\n", "\n1,2\n", "1,abc\n", "1,,2\n", "1,inf\n", "nan\n", "\n",
        "1, 2\n", "1,2,\n", ",\n", "1e400\n", "-1e-400,5.,.5\n", "0x10\n", "1_0\n", "1,2_5\n",
        "\u0661\n", "1.5,\u0661\n", "1,\u30002\n", "1,2\r\n", "1,2\r\n3\r\n", "1,2\n3\n",
        "1 2\n", "1;2\n", "1,2#\n", "#1\n", "'1',2\n", "+inf,-Infinity\n", "1,1d0\n", "0b1\n",
    ])
    def test_flat_csv_reads_as_value_by_value(self, tmp_path, text):
        p = tmp_path / "params.csv"
        p.write_text(text, encoding="utf-8")
        outcomes = []
        for load in (load_flat_csv, load_flat_tokens):
            try:
                outcomes.append(load(p).tobytes())
            except ParseError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]

    def test_written_file_mode_follows_umask(self, tmp_path):
        p = tmp_path / "params.csv"
        old = os.umask(0o027)
        try:
            save_flat_csv(p, [1.0, 2.0])
        finally:
            os.umask(old)
        assert stat.S_IMODE(p.stat().st_mode) == 0o640

    def test_failed_write_keeps_the_old_file_and_no_temporary(self, tmp_path, monkeypatch):
        p = tmp_path / "params.csv"
        p.write_text("old\n")

        def fail(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="replace failed"):
            atomic_write(p, "new\n")
        assert p.read_text() == "old\n"
        assert sorted(f.name for f in tmp_path.iterdir()) == ["params.csv"]

    def test_flat_csv_rejects_empty(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("\n")
        with pytest.raises(ValueError, match="empty"):
            load_flat_csv(p)

    @pytest.mark.parametrize("text", ["1,abc\n", "1,,2\n", "1,inf\n", "nan\n"])
    def test_flat_csv_rejects_malformed(self, tmp_path, text):
        p = tmp_path / "bad.csv"
        p.write_text(text)
        with pytest.raises(ParseError, match=str(p)):
            load_flat_csv(p)

    def test_config_roundtrip(self, tmp_path):
        p = tmp_path / "game.cfg"
        p.write_text("rho_l=10.0\nmode=l2_box_pgd\n")
        cfg = load_config(p)
        assert cfg["rho_l"] == 10.0 and cfg["mode"] == "l2_box_pgd"

    def test_config_skips_comments_and_blanks(self, tmp_path):
        p = tmp_path / "game.cfg"
        p.write_text("# comment\n\nrho_d = 2.5\n")
        assert load_config(p) == {"rho_d": 2.5}

    def test_config_rejects_a_repeated_key(self, tmp_path):
        p = tmp_path / "game.cfg"
        p.write_text("rho_l=1\nrho_d=2\n rho_l = 100\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(p))}:3: duplicate key 'rho_l'$"):
            load_config(p)

    def test_config_rejects_garbage(self, tmp_path):
        p = tmp_path / "game.cfg"
        p.write_text("no_equals_sign\n")
        with pytest.raises(ValueError, match="key=value"):
            load_config(p)
