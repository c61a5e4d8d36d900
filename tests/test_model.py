"""Data model: validation, boxes, flatten/unflatten, serialization."""

import os
import stat

import numpy as np
import pytest

from randgame.model import (
    ATTACKER_DEV_BOUNDS,
    AttackerParams,
    Dataset,
    GameSpec,
    LEARNER_DEV_BOUNDS,
    LearnerParams,
    ParamBox,
    ShapeError,
    default_boxes,
    flatten,
    load_config,
    load_flat_csv,
    save_flat_csv,
    unflatten,
)
from randgame.ops import VIGame


def _learner(k=3, seed=0):
    rng = np.random.default_rng(seed)
    return LearnerParams(rng.normal(size=k + 1), rng.uniform(0.1, 0.5, size=k + 1))


def _attacker(n=4, k=3, seed=1):
    rng = np.random.default_rng(seed)
    return AttackerParams(rng.uniform(size=(n, k)), rng.uniform(0.1, 0.5, size=(n, k)))


class TestValidation:
    def test_dataset_rejects_bad_labels(self):
        with pytest.raises(ValueError, match="labels"):
            Dataset(np.zeros((2, 2)), np.array([0.0, 1.0]))

    def test_dataset_rejects_out_of_range_features(self):
        with pytest.raises(ValueError, match="0, 1"):
            Dataset(np.array([[1.5, 0.0]]), np.array([1.0]))

    def test_dataset_rejects_nonbinary_for_binary_kind(self):
        with pytest.raises(ValueError, match="binary"):
            Dataset(np.array([[0.5, 0.0]]), np.array([1.0]), "binary")

    def test_dataset_is_immutable(self):
        ds = Dataset(np.array([[0.5, 0.5]]), np.array([1.0]))
        with pytest.raises(ValueError):
            ds.features[0, 0] = 0.0

    def test_learner_rejects_nonpositive_sigma(self):
        for bad in (0.0, np.nan):
            with pytest.raises(ValueError, match="positive"):
                LearnerParams(np.zeros(3), np.array([0.1, bad, 0.1]))

    def test_attacker_rejects_nonpositive_sigma(self):
        for bad in (0.0, np.nan):
            with pytest.raises(ValueError, match="positive"):
                AttackerParams(np.zeros((2, 2)), np.array([[0.1, 0.1], [bad, 0.1]]))

    def test_attacker_rejects_shape_mismatch(self):
        with pytest.raises(ShapeError):
            AttackerParams(np.ones((2, 3)), np.ones((3, 2)))

    def test_box_rejects_inverted_bounds(self):
        with pytest.raises(ValueError, match="lower"):
            ParamBox(np.array([1.0]), np.array([0.0]))

    def test_gamespec_rejects_zero_deviation_floor(self):
        ds = Dataset(np.array([[0.5, 0.5]]), np.array([1.0]))
        lb, ab = default_boxes(1, 2, 1.0)
        bad_lo = ab.lower.copy()
        bad_lo[2] = 0.0  # first deviation coordinate of the only sample
        with pytest.raises(ValueError, match="deviation"):
            GameSpec(ds, 1.0, 1.0, lb, ParamBox(bad_lo, ab.upper))

    def test_gamespec_rejects_wrong_box_dims(self):
        ds = Dataset(np.array([[0.5, 0.5]]), np.array([1.0]))
        lb, ab = default_boxes(2, 2, 1.0)  # boxes for n=2, dataset has n=1
        with pytest.raises(ShapeError):
            GameSpec(ds, 1.0, 1.0, lb, ab)


def project_box(v, box: ParamBox):
    """The solver's projection onto a box: the clamp of a VIGame over it."""
    ops = VIGame(box.dim, 0, box.lower, box.upper, None, None, None)
    return ops.project(v)


class TestBoxes:
    def test_default_box_dims(self):
        lb, ab = default_boxes(n=5, k=3, W=0.5)
        assert lb.dim == 2 * 4 and ab.dim == 2 * 5 * 3

    def test_default_box_values(self):
        lb, ab = default_boxes(n=2, k=2, W=0.5)
        assert np.all(lb.lower[:3] == -0.5) and np.all(lb.upper[:3] == 0.5)
        assert np.all(lb.lower[3:] == LEARNER_DEV_BOUNDS[0])
        assert np.all(lb.upper[3:] == LEARNER_DEV_BOUNDS[1])
        blocks = ab.lower.reshape(2, 4)
        assert np.all(blocks[:, :2] == 0.0)
        assert np.all(blocks[:, 2:] == ATTACKER_DEV_BOUNDS[0])
        assert np.all(ab.upper.reshape(2, 4)[:, 2:] == ATTACKER_DEV_BOUNDS[1])

    def test_projection_is_identity_inside(self):
        box = ParamBox(np.zeros(3), np.ones(3))
        v = np.array([0.2, 0.5, 0.9])
        assert np.array_equal(project_box(v, box), v)

    def test_projection_clamps(self):
        box = ParamBox(np.zeros(2), np.ones(2))
        assert np.array_equal(project_box(np.array([-1.0, 2.0]), box), [0.0, 1.0])

    def test_projection_is_nearest_point(self):
        rng = np.random.default_rng(3)
        box = ParamBox(-np.ones(4), np.ones(4))
        for _ in range(20):
            v = rng.normal(scale=2.0, size=4)
            p = project_box(v, box)
            # no feasible point is closer (check random candidates)
            cands = rng.uniform(-1.0, 1.0, size=(100, 4))
            assert np.linalg.norm(v - p) <= np.linalg.norm(v - cands, axis=1).min() + 1e-12


class TestFlatten:
    def test_roundtrip(self):
        tl, td = _learner(), _attacker()
        v = flatten(tl, td)
        tl2, td2 = unflatten(v, td.n, td.k)
        assert np.array_equal(tl.mu_w, tl2.mu_w)
        assert np.array_equal(tl.sigma_w, tl2.sigma_w)
        assert np.array_equal(td.mu_x, td2.mu_x)
        assert np.array_equal(td.sigma_x, td2.sigma_x)

    def test_layout_order(self):
        tl, td = _learner(k=2), _attacker(n=2, k=2)
        v = flatten(tl, td)
        m = 3
        assert np.array_equal(v[:m], tl.mu_w)
        assert np.array_equal(v[m : 2 * m], tl.sigma_w)
        assert np.array_equal(v[2 * m : 2 * m + 2], td.mu_x[0])
        assert np.array_equal(v[2 * m + 2 : 2 * m + 4], td.sigma_x[0])

    def test_unflatten_rejects_wrong_length(self):
        with pytest.raises(ShapeError):
            unflatten(np.zeros(10), n=3, k=3)

    def test_flatten_rejects_dim_mismatch(self):
        with pytest.raises(ShapeError):
            flatten(_learner(k=3), _attacker(n=2, k=2))


class TestSerialization:
    def test_flat_csv_roundtrip_exact(self, tmp_path):
        v = np.random.default_rng(7).normal(size=17)
        p = tmp_path / "params.csv"
        save_flat_csv(p, v)
        assert np.array_equal(load_flat_csv(p), v)

    def test_written_file_mode_follows_umask(self, tmp_path):
        p = tmp_path / "params.csv"
        old = os.umask(0o027)
        try:
            save_flat_csv(p, [1.0, 2.0])
        finally:
            os.umask(old)
        assert stat.S_IMODE(p.stat().st_mode) == 0o640

    def test_flat_csv_rejects_empty(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("\n")
        with pytest.raises(ValueError, match="empty"):
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

    def test_config_rejects_garbage(self, tmp_path):
        p = tmp_path / "game.cfg"
        p.write_text("no_equals_sign\n")
        with pytest.raises(ValueError, match="key=value"):
            load_config(p)
