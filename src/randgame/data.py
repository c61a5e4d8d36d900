"""Dataset ingestion, seeded splits, and the 2-D synthetic generator used
for the qualitative desk-scale experiments."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Dataset, ParseError, atomic_write


def _parse_label(tok, path, lineno):
    try:
        val = float(tok)
    except ValueError:
        raise ParseError(f"{path}:{lineno}: bad label {tok!r}") from None
    if val not in (-1.0, 1.0):
        raise ParseError(f"{path}:{lineno}: label must be -1 or +1, got {tok!r}")
    return val


def _dataset(path, X, labels, feature_kind) -> Dataset:
    """The Dataset of a loaded file; a value Dataset rejects is a ParseError."""
    try:
        return Dataset(X, np.array(labels), feature_kind)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def load_dense_csv(path, feature_kind="continuous_unit_interval") -> Dataset:
    """Load 'label,f1,f2,...' lines; labels must be -1 or +1."""
    labels, rows = [], []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            toks = line.split(",")
            labels.append(_parse_label(toks[0], path, lineno))
            try:
                rows.append([float(t) for t in toks[1:]])
            except ValueError:
                raise ParseError(f"{path}:{lineno}: malformed feature value") from None
            if len(rows[-1]) != len(rows[0]):
                raise ParseError(f"{path}:{lineno}: inconsistent feature count")
    if not rows:
        raise ParseError(f"{path}: no samples")
    return _dataset(path, np.array(rows), labels, feature_kind)


def save_dense_csv(path, features, labels) -> None:
    """Write 'label,f1,f2,...' lines. Takes plain arrays, since attacked rows
    may leave the [0, 1] range a Dataset enforces."""
    lines = [
        f"{int(y):+d}," + ",".join(f"{v:.17g}" for v in row) + "\n"
        for y, row in zip(labels, features)
    ]
    atomic_write(path, "".join(lines))


def load_sparse(path, k: int | None = None) -> Dataset:
    """Load 'label idx:val ...' lines with 1-based indices; absent indices are
    zero and k defaults to the maximum index seen."""
    labels, rows, cols, vals = [], [], [], []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            toks = line.split()
            labels.append(_parse_label(toks[0], path, lineno))
            row = len(labels) - 1
            for tok in toks[1:]:
                if ":" not in tok:
                    raise ParseError(f"{path}:{lineno}: expected idx:value, got {tok!r}")
                idx_s, _, val_s = tok.partition(":")
                try:
                    idx, val = int(idx_s), float(val_s)
                except ValueError:
                    raise ParseError(f"{path}:{lineno}: malformed idx:value {tok!r}") from None
                if idx < 1:
                    raise ParseError(f"{path}:{lineno}: indices are 1-based")
                rows.append(row)
                cols.append(idx - 1)
                vals.append(val)
    if not labels:
        raise ParseError(f"{path}: no samples")
    max_idx = max(cols, default=-1) + 1
    k = k if k is not None else max_idx
    if max_idx > k:
        raise ParseError(f"{path}: index {max_idx} exceeds k override {k}")
    X = np.zeros((len(labels), k))
    X[rows, cols] = vals  # a repeated index keeps its last value
    # absent entries are 0, so the values X kept decide the kind
    kind = "binary" if np.isin(X[rows, cols], (0.0, 1.0)).all() else "continuous_unit_interval"
    return _dataset(path, X, labels, kind)


SYNTH_LEGIT_CENTER = (0.3, 0.3)
SYNTH_STD = 0.08


def synth_2d(n_per_class: int, separation: float, seed: int) -> Dataset:
    """Two isotropic Gaussian blobs in the unit square: legitimate (-1) at
    (0.3, 0.3), malicious (+1) shifted diagonally by the separation."""
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    rng = np.random.default_rng(seed)
    legit = rng.normal(SYNTH_LEGIT_CENTER, SYNTH_STD, size=(n_per_class, 2))
    mal_center = (SYNTH_LEGIT_CENTER[0] + separation, SYNTH_LEGIT_CENTER[1] + separation)
    mal = rng.normal(mal_center, SYNTH_STD, size=(n_per_class, 2))
    X = np.clip(np.vstack([legit, mal]), 0.0, 1.0)
    y = np.concatenate([-np.ones(n_per_class), np.ones(n_per_class)])
    return Dataset(X, y)


@dataclass(frozen=True)
class SplitSpec:
    train_n: int
    val_n: int
    test_n: int
    seed: int = 0

    def __post_init__(self):
        if min(self.train_n, self.val_n, self.test_n) < 1:
            raise ValueError("split sizes must be positive")


def split(data: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset, Dataset]:
    """Seeded random train/val/test split."""
    total = spec.train_n + spec.val_n + spec.test_n
    if total > data.n:
        raise ValueError("split sizes exceed dataset size")
    idx = np.random.default_rng(spec.seed).permutation(data.n)
    parts = (
        idx[: spec.train_n],
        idx[spec.train_n : spec.train_n + spec.val_n],
        idx[spec.train_n + spec.val_n : total],
    )
    return tuple(
        Dataset(data.features[p], data.labels[p], data.feature_kind) for p in parts
    )


@dataclass(frozen=True)
class GridSpec:
    rho_l_grid: tuple
    rho_d_grid: tuple
    W_grid: tuple

    def __post_init__(self):
        for g in (self.rho_l_grid, self.rho_d_grid, self.W_grid):
            if not g or not all(0.0 < v < np.inf for v in g):
                raise ValueError("grids must be non-empty with finite positive entries")


# Default search grids for model selection.
DEFAULT_GRID = GridSpec(
    rho_l_grid=(0.01, 0.1, 1.0, 10.0, 100.0),
    rho_d_grid=(0.01, 0.05, 0.1, 1.0, 10.0),
    W_grid=(0.01, 0.05, 0.1, 1.0),
)
