"""Dataset ingestion and the 2-D synthetic generator used for the qualitative
desk-scale experiments."""

from __future__ import annotations

import io
import itertools

import numpy as np

from .model import Dataset, ParseError, atomic_write, plain_number_text, read_lines, read_number


def _parse_label(tok, path, lineno):
    try:
        val = read_number(tok)
    except ValueError:
        raise ParseError(f"{path}:{lineno}: bad label {tok!r}") from None
    if val not in (-1.0, 1.0):
        raise ParseError(f"{path}:{lineno}: label must be -1 or +1, got {tok!r}")
    return val


# Content lines the sparse loader joins, splits and converts at once: enough
# to spread the calls' cost, few enough that a block's token strings stay
# small.
BLOCK_LINES = 64


def _content_blocks(path):
    """The stripped lines of a file that are not blank or a '#' comment, in
    lists of up to BLOCK_LINES."""
    lines = (line for line in map(str.strip, read_lines(path)) if line and not line.startswith("#"))
    while block := list(itertools.islice(lines, BLOCK_LINES)):
        yield block


def _raise_first_bad_line(path, check, *args):
    """After a bulk parse failed, raise the ParseError that check(path,
    lineno, line, *args) gives the file's first bad content line."""
    for lineno, raw in enumerate(read_lines(path), 1):
        line = raw.strip()
        if line and not line.startswith("#"):
            check(path, lineno, line, *args)
    raise ParseError(f"{path}: malformed content")


def _dataset(path, X, labels) -> Dataset:
    """The Dataset of a loaded file; a value Dataset rejects is a ParseError."""
    try:
        return Dataset(X, labels)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _check_dense_line(path, lineno, line, width):
    """Raise the ParseError of a bad 'label,f1,f2,...' line, in the order
    label, values, count; width is the first line's count of values."""
    toks = line.split(",")
    _parse_label(toks[0], path, lineno)
    try:
        list(map(read_number, toks[1:]))
    except ValueError:
        raise ParseError(f"{path}:{lineno}: malformed feature value") from None
    if len(toks) - 1 != width:
        raise ParseError(f"{path}:{lineno}: inconsistent feature count")


def load_dense_csv(path) -> Dataset:
    """Load 'label,f1,f2,...' lines; labels must be -1 or +1.

    numpy's reader converts the content lines as they stream from the file.
    Only a file it refuses is read line by line, for the first bad line's
    error."""
    lines = itertools.chain.from_iterable(_content_blocks(path))
    first = next(lines, None)
    if first is None:
        raise ParseError(f"{path}: no samples")
    try:
        # comments=None: a '#' after a value is malformed, not a comment
        flat = np.loadtxt(itertools.chain([first], lines), delimiter=",", comments=None, ndmin=2)
        if not np.isin(flat[:, 0], (-1.0, 1.0)).all():
            raise ValueError
    except ValueError:
        _raise_first_bad_line(path, _check_dense_line, first.count(","))
    return _dataset(path, np.ascontiguousarray(flat[:, 1:]), flat[:, 0].copy())


def save_dense_csv(path, features, labels) -> None:
    """Write 'label,f1,f2,...' lines. Takes plain arrays, since attacked rows
    may leave the [0, 1] range a Dataset enforces."""
    lines = [
        f"{int(y):+d}," + ",".join(f"{v:.17g}" for v in row) + "\n"
        for y, row in zip(labels, features)
    ]
    atomic_write(path, "".join(lines))


# an idx:value token in numpy's reader: one int64 and one float, cut by ':'
_PAIR = np.dtype([("col", np.int64), ("value", float)])


def _check_sparse_line(path, lineno, line):
    """Raise the ParseError of a bad 'label idx:val ...' line, token by token."""
    toks = line.split()
    _parse_label(toks[0], path, lineno)
    for tok in toks[1:]:
        if ":" not in tok:
            raise ParseError(f"{path}:{lineno}: expected idx:value, got {tok!r}")
        idx_s, _, val_s = tok.partition(":")
        try:  # an index outside int64's range is an OverflowError
            idx, _ = np.int64(read_number(idx_s, int)), read_number(val_s)
        except (ValueError, OverflowError):
            raise ParseError(f"{path}:{lineno}: malformed idx:value {tok!r}") from None
        if idx < 1:
            raise ParseError(f"{path}:{lineno}: indices are 1-based")


def _sparse_block(block):
    """The labels, each line's count of pairs, and the 0-based columns and
    values of the pairs of a block of 'label idx:val ...' lines, whose pairs
    numpy's reader converts in one call; ValueError when a line is bad. The
    reader takes only a token of one int64 and one float cut by one ':', in
    read_number's grammar, so a line's count of ':' is its count of pairs."""
    heads = [line.split(None, 1) for line in block]
    tails = [head[1] if len(head) > 1 else "" for head in heads]
    labels = [head[0] for head in heads]
    if not plain_number_text("".join(labels)):
        raise ValueError
    y = np.fromiter(map(float, labels), float, len(labels))
    tokens = "\n".join(tails).split()
    # numpy warns on input with no lines, so a block without pairs skips it
    pairs = np.loadtxt(io.StringIO("\n".join(tokens)), dtype=_PAIR, delimiter=":",
                       comments=None, ndmin=1) if tokens else np.empty(0, _PAIR)
    if not np.isin(y, (-1.0, 1.0)).all() or (pairs["col"] < 1).any():
        raise ValueError
    return y, [tail.count(":") for tail in tails], pairs["col"] - 1, pairs["value"]


def load_sparse(path) -> Dataset:
    """Load 'label idx:val ...' lines with 1-based indices; absent indices are
    zero and k is the maximum index seen.

    Each block of lines is cut once at the labels, and numpy's reader
    converts all of its idx:value pairs in one call; the pairs are scattered
    at once. Only a file that fails in bulk is read token by token, for the
    first bad line's error."""
    try:
        blocks = [_sparse_block(block) for block in _content_blocks(path)]
    except ValueError:
        _raise_first_bad_line(path, _check_sparse_line)
    if not blocks:
        raise ParseError(f"{path}: no samples")
    y, counts, cols, vals = (np.concatenate(part) for part in zip(*blocks))
    rows = np.repeat(np.arange(y.size), counts)
    k = int(cols.max(initial=-1)) + 1
    try:
        X = np.zeros((y.size, k))
    except (ValueError, MemoryError):  # numpy cannot size or allocate the matrix
        raise ParseError(f"{path}: largest index {k} gives a {y.size} x {k} matrix "
                         "that numpy cannot build") from None
    X[rows, cols] = vals  # a repeated index keeps its last value
    return _dataset(path, X, y)


def load_dataset(path) -> Dataset:
    """The dense or sparse dataset at path, told apart by its first content
    line (the first that is not blank or a '#' comment): a dense line has one
    ',' per feature, so a line with an idx:val token or with no ',' (a sample
    with no features) is sparse."""
    first = next(_content_blocks(path), [""])[0]
    return (load_sparse if ":" in first or "," not in first else load_dense_csv)(path)


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
