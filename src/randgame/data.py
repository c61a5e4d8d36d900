"""Every file randgame reads or writes: the dataset readers and the dense
writer, the parameter, config, curve and grid-search files, the atomic writer
every writer uses and the one grammar of numbers every reader reads; and the
2-D synthetic generator used for the qualitative desk-scale experiments."""

from __future__ import annotations

import io
import itertools
import os
import tempfile

import numpy as np

from .model import Dataset, _as_float_array


class ParseError(ValueError):
    """A data or parameter file that does not parse."""


def atomic_write(path, text: str) -> None:
    """Write text to path through a temporary file in the same directory, so
    readers see either the old file or the complete new one."""
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        umask = os.umask(0)  # mkstemp creates 0600 whatever the umask
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_rows(path, floats: int, rows, lead="", tail="\n", head="") -> None:
    """Write head, then each row as the format lead, floats comma-separated
    floats and tail: all rows with one % call, the bytes of formatting each
    value alone. '%.17g' is the one number format of every file written here,
    and every float64 reads back from it bit for bit."""
    rows = list(rows)
    line = lead + ",".join(["%.17g"] * floats) + tail
    atomic_write(path, head + line * len(rows) % tuple(itertools.chain.from_iterable(rows)))


def read_lines(path):
    """The lines of the UTF-8 text file at path; bytes that are not UTF-8 are
    a ParseError that names the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from fh
        except UnicodeDecodeError:
            raise ParseError(f"{path}: not UTF-8 text") from None


def plain_number_text(text) -> bool:
    """Whether text keeps to the one grammar of numbers in every input file,
    numpy's reader's: ASCII, without '_' digit separators."""
    return text.isascii() and "_" not in text


def read_number(tok, kind=float):
    """kind(tok), float or int, for a token in plain_number_text's grammar; else ValueError."""
    if not plain_number_text(tok.strip()):
        raise ValueError(tok)
    return kind(tok)


def save_flat_csv(path, v) -> None:
    """Write a parameter vector as one CSV line, in the order of its entries."""
    v = _as_float_array(v, 1)
    _write_rows(path, v.size, [v.tolist()])


def load_flat_csv(path) -> np.ndarray:
    """Read the finite parameter vector save_flat_csv wrote: one line, whose
    values numpy's reader converts in one call, in read_number's grammar, and
    blank lines after it; the whole file must be UTF-8."""
    lines = [line.strip() for line in read_lines(path)]
    if not lines or not lines[0]:
        raise ParseError(f"{path}: empty parameter file")
    try:
        if any(lines[1:]):
            raise ValueError("a second line")
        # comments=None: a '#' after a value is malformed, not a comment
        v = np.loadtxt(io.StringIO(lines[0]), delimiter=",", comments=None, ndmin=1)
    except ValueError:
        raise ParseError(f"{path}: expected one line of comma-separated numbers") from None
    if not np.isfinite(v).all():
        raise ParseError(f"{path}: non-finite parameter value")
    return v


def load_config(path) -> dict:
    """Read a key=value config file that sets each key once; values are floats when they parse."""
    cfg: dict = {}
    for lineno, line in _content_lines(path):
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected key=value")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key in cfg:
            raise ParseError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            cfg[key] = read_number(val)
        except ValueError:
            cfg[key] = val
    return cfg


def save_curve_csv(path, curve, seed) -> None:
    """Write a SecurityCurve, one line per budget, with the seed it was drawn from."""
    rows = ((*point, curve.fp_target, curve.repetitions, seed) for point in curve.points)
    _write_rows(path, 4, rows, tail=",%d,%d\n",
                head="d_max,tp_mean,tp_std,fp_target,repetitions,seed\n")


def save_grid_csv(path, rho_l, rho_d, W, auc) -> None:
    """Write grid-search's best grid point and its curve's area."""
    _write_rows(path, 4, [(rho_l, rho_d, W, auc)], head="rho_l,rho_d,W,auc\n")


def _parse_label(tok, path, lineno):
    try:
        val = read_number(tok)
    except ValueError:
        raise ParseError(f"{path}:{lineno}: bad label {tok!r}") from None
    if val not in (-1.0, 1.0):
        raise ParseError(f"{path}:{lineno}: label must be -1 or +1, got {tok!r}")
    return val


def _content_lines(path):
    """The line number and the stripped line of each line of a file that is
    not blank or a '#' comment."""
    lines = enumerate(map(str.strip, read_lines(path)), 1)
    return ((lineno, line) for lineno, line in lines if line and not line.startswith("#"))


def _raise_first_bad_line(path, check, *args):
    """After a bulk parse failed, raise the ParseError that check(path,
    lineno, line, *args) gives the file's first bad content line."""
    for lineno, line in _content_lines(path):
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
    lines = (line for _, line in _content_lines(path))
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
    rows = np.column_stack((labels, features))
    _write_rows(path, rows.shape[1] - 1, rows.tolist(), lead="%+d,")


# an idx:value token in numpy's reader: one int64 and one float, cut by ':'
_PAIR = np.dtype([("col", np.int64), ("value", float)])
# Content lines the sparse loader joins, splits and converts at once: enough
# to spread the calls' cost, few enough that a block's token strings stay
# small.
BLOCK_LINES = 64


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


def _memory_bytes() -> int:
    """The machine's physical memory, in bytes."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def load_sparse(path) -> Dataset:
    """Load 'label idx:val ...' lines with 1-based indices; absent indices are
    zero and k is the maximum index seen.

    The content lines are cut into blocks of BLOCK_LINES, each block once at
    its labels, and numpy's reader converts all of a block's idx:value pairs
    in one call; the pairs are scattered at once. Only a file that fails in
    bulk is read token by token, for the first bad line's error. A file whose
    dense matrix would not fit in the machine's memory is refused before any
    of it is built."""
    lines = (line for _, line in _content_lines(path))
    try:
        blocks = [_sparse_block(block)
                  for block in iter(lambda: list(itertools.islice(lines, BLOCK_LINES)), [])]
    except ValueError:
        _raise_first_bad_line(path, _check_sparse_line)
    if not blocks:
        raise ParseError(f"{path}: no samples")
    y, counts, cols, vals = (np.concatenate(part) for part in zip(*blocks))
    rows = np.repeat(np.arange(y.size), counts)
    k = int(cols.max(initial=-1)) + 1
    if y.size * k * 8 > _memory_bytes():  # 8 bytes a float; numpy's largest size is less
        raise ParseError(f"{path}: largest index {k} gives a {y.size} x {k} matrix "
                         "that numpy cannot build")
    X = np.zeros((y.size, k))
    X[rows, cols] = vals  # a repeated index keeps its last value
    return _dataset(path, X, y)


def load_dataset(path) -> Dataset:
    """The dense or sparse dataset at path, told apart by its first content
    line (the first that is not blank or a '#' comment): a dense line has one
    ',' per feature, so a line with an idx:val token or with no ',' (a sample
    with no features) is sparse."""
    _, first = next(_content_lines(path), (0, ""))
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
