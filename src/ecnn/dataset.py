"""Binary-classification datasets: CSV ingestion, normalization, stratified
splitting, and a synthetic generator for feature-selection benchmarks.

All operations are pure given their inputs and seed, so they are safe to
call from parallel workers.
"""

from __future__ import annotations

import codecs
import csv
import hashlib
import io
import math
import re
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
import orjson

from .errors import ConfigError, DataError
from .model import json_array
from .util import atomic_write_text, atomic_writer, csv_text, json_text, read_file

CONSTANT_STD_EPS = 1e-12

# CSV text is read and written about this many bytes at a time
_CHUNK_BYTES = 1 << 17


@dataclass
class Dataset:
    """A feature matrix with binary targets.

    Parameters
    ----------
    x : ndarray, shape (n, m)
        Rows are examples, columns are features. All values finite.
    y : ndarray, shape (n,)
        Targets, each 0 or 1.
    feature_names : list of str
        One name per column.
    """

    x: np.ndarray
    y: np.ndarray
    feature_names: list[str]

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.x.ndim != 2:
            raise DataError(f"feature matrix must be 2-D, got shape {self.x.shape}")
        if self.y.shape != (self.x.shape[0],):
            raise DataError(
                f"target vector length {self.y.shape} does not match {self.x.shape[0]} rows"
            )
        if not np.all(np.isfinite(self.x)):
            bad = np.argwhere(~np.isfinite(self.x))[0]
            raise DataError(f"non-finite feature value at row {bad[0]}, column {bad[1]}")
        bad_targets = ~np.isin(self.y, (0, 1))
        if np.any(bad_targets):
            row = int(np.flatnonzero(bad_targets)[0])
            raise DataError(f"target value outside {{0,1}} at row {row}")
        if len(self.feature_names) != self.x.shape[1]:
            raise DataError(
                f"{len(self.feature_names)} feature names for {self.x.shape[1]} columns"
            )

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def m(self) -> int:
        return self.x.shape[1]

    def subset(self, indices: np.ndarray) -> "Dataset":
        """New dataset holding the given rows, in the given order."""
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.x[idx], self.y[idx], list(self.feature_names))

    def require_both_classes(self, what: str) -> None:
        """Raise a ``DataError`` naming ``what`` unless both classes occur."""
        if np.bincount(self.y, minlength=2).min() == 0:
            raise DataError(f"{what} contains a single class")


@dataclass
class NormParams:
    """Per-column affine normalization fitted by :func:`fit_normalize`.

    ``std`` is strictly positive; columns whose sample deviation fell below
    ``CONSTANT_STD_EPS`` are flagged constant and map to all-zeros.
    """

    mean: np.ndarray
    std: np.ndarray
    constant: np.ndarray

    def __post_init__(self) -> None:
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.std = np.asarray(self.std, dtype=np.float64)
        self.constant = np.asarray(self.constant, dtype=bool)

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        out = (x - self.mean) / self.std
        if np.any(self.constant):
            out[..., self.constant] = 0.0
        return out

    def to_dict(self) -> dict:
        return {
            "mean": self.mean.tolist(),
            "std": self.std.tolist(),
            "constant_flags": [bool(c) for c in self.constant],
        }

    @classmethod
    def from_dict(cls, d: dict, m: int) -> "NormParams":
        """Parameters for ``m`` columns; anything else is a DataError."""
        params = cls(json_array(d["mean"], float, "norm mean"), json_array(d["std"], float, "norm std"),
                     json_array(d["constant_flags"], bool, "constant_flags"))
        if any(a.shape != (m,) for a in (params.mean, params.std, params.constant)):
            raise DataError(f"normalization parameters do not match {m} features")
        if not (np.all(np.isfinite(params.mean)) and np.all(np.isfinite(params.std) & (params.std > 0))):
            raise DataError("normalization needs a finite mean and a finite positive std")
        return params


@dataclass
class SynthTruth:
    """Ground truth behind a synthetic dataset: which features matter and
    the linear score that generated the labels."""

    relevant: list[int]
    coefficients: list[float]
    seed: int
    flip_count: int

    def save(self, path: str | Path) -> None:
        atomic_write_text(path, json_text(asdict(self)))


def _is_number(cell: str) -> bool:
    """Header detection by Python's ``float``, so that a first row holding
    a cell like ``1_000`` is read as data, and then rejected, and never
    taken for a header."""
    try:
        float(cell.strip())
        return True
    except ValueError:
        return False


def _parse_cell(cell: str) -> float:
    """A cell as a float, taking only what numpy's reader also takes:
    Python's ``float`` alone accepts underscore grouping and non-ASCII
    digits."""
    text = cell.strip()
    if not text.isascii() or "_" in text:
        raise ValueError(f"not a plain decimal number: {cell!r}")
    return float(text)


def _header(first_row: list[str]) -> list[str] | None:
    """The header names, or None when every cell of the first row is a number."""
    if len(first_row) < 3:
        raise DataError(f"need at least 2 feature columns plus a target, got {len(first_row)} columns")
    if all(_is_number(c) for c in first_row):
        return None
    return [c.strip() for c in first_row]


def _target_index(target_column: str | int, header: list[str] | None, width: int, path: str | Path) -> int:
    if isinstance(target_column, int):
        if not 0 <= target_column < width:
            raise DataError(f"target column index {target_column} out of range for {width} columns")
        return target_column
    if header is None:
        raise DataError(
            f"target column {target_column!r} requested by name but {path} has no header"
        )
    count = header.count(target_column)
    if count > 1:
        raise DataError(f"target column {target_column!r} names {count} columns of header {header}")
    try:
        return header.index(target_column)
    except ValueError:
        raise DataError(f"target column {target_column!r} not found in header {header}")


def _feature_names(header: list[str] | None, width: int, target_idx: int) -> list[str]:
    if header is not None:
        return [name for c, name in enumerate(header) if c != target_idx]
    return [f"f{k}" for k in range(width - 1)]


def load_csv(path: str | Path, target_column: str | int, hashes: dict[str, str] | None = None) -> Dataset:
    """Load a comma-separated, UTF-8 dataset.

    The header row is optional and detected by attempting to parse the
    first non-blank row as numbers. ``target_column`` selects the target
    either by header name or by 0-based column index. Blank lines are
    skipped, cells may be double-quoted and a leading byte-order mark is
    dropped. A file whose cells are not all plain JSON numbers, or that is
    not a clean table, is read again row by row, which reads what Python's
    ``float`` reads and names the first bad line and column. ``hashes``
    gets the sha256 of the bytes parsed, as ``read_file`` stores it: the
    table path reads the file once, and the row loop reads it again.
    """
    digest = hashlib.sha256()
    try:
        d = _load_table(path, target_column, digest)
    except (OSError, ValueError, csv.Error, DataError):
        # whatever went wrong, the row loop finds the first fault and reports it
        return _load_rows(read_file(path, "dataset file", hashes), path, target_column)
    if hashes is not None:
        hashes[str(path)] = digest.hexdigest()
    return d


def _load_table(path: str | Path, target_column: str | int, digest) -> Dataset:
    """The dataset parsed as rows of JSON numbers, a chunk of lines at a
    time, from one forward read that adds every byte to ``digest``. Raises
    if anything in the file is off, without saying where."""
    with open(path, "rb") as fh:
        if fh.peek(3).startswith(codecs.BOM_UTF8):
            digest.update(fh.read(3))
        head: list[bytes] = []

        def head_lines():
            for line in fh:
                head.append(line)
                yield line.decode()

        # csv.reader reads only the lines the first row spans
        first_row = next((row for row in csv.reader(head_lines()) if row), [])
        digest.update(b"".join(head))
        header = _header(first_row)
        width = len(first_row)
        target_idx = _target_index(target_column, header, width, path)
        # without a header, the lines read so far are data
        blocks = [np.empty((0, width)) if header is not None else _number_rows(b"".join(head), width, target_idx)]
        while chunk := fh.read(_CHUNK_BYTES):
            chunk += fh.readline()  # the chunk runs on to the end of the line it stops in
            digest.update(chunk)
            blocks.append(_number_rows(chunk, width, target_idx))
    table = np.concatenate(blocks)
    if len(table) == 0 or not np.all(np.isin(table[:, target_idx], (0.0, 1.0))):
        raise ValueError("no body, or a target outside {0,1}")
    x = np.delete(table, target_idx, axis=1)
    y = table[:, target_idx].astype(np.int64)
    return Dataset(x, y, _feature_names(header, width, target_idx))


def _number_rows(chunk: bytes, width: int, target_idx: int) -> np.ndarray:
    """Whole lines of ``width`` comma-separated JSON numbers as a float64
    block, blank lines skipped. Raises ValueError for anything else, which
    the row loop may still read: a quoted cell, ``+1``, ``.5``, ``1.``, white
    space other than spaces and tabs, a lone ``\\r``, or a feature ``-0``."""
    chunk = chunk.replace(b"\r\n", b"\n") if b"\r" in chunk else chunk
    # checked before the brackets go in: a line "1,2,0],[3,4,1" is not two
    # rows, JSON would take a lone \r for white space, and with no bracket
    # in the data orjson never parses an array deeper than two (orjson
    # 3.8.3 crashes the process on a 1,000,000-deep one)
    if chunk.translate(None, b"0123456789+-.eE, \t\n"):
        raise ValueError("cells that are not plain JSON numbers")
    rows = orjson.loads(b"[[%s]]" % chunk.strip(b"\n").replace(b"\n", b"],["))
    # an empty row is a blank line, or a line of spaces and tabs: one cell to csv
    if not all(rows) and not re.search(rb"^[ \t]+$", chunk, re.MULTILINE):
        rows = [row for row in rows if row]
    block = np.array(rows or np.empty((0, width)), dtype=np.float64)
    if block.shape[1] != width:
        raise ValueError(f"rows of {block.shape[1]} cells, expected {width}")
    # JSON reads an integer -0 as 0, so only a feature parsed to 0 can have lost its sign
    if (block == 0).sum() > (block[:, target_idx] == 0).sum() and re.search(rb"-0(?![0-9.eE])", chunk):
        raise ValueError("a feature cell -0")
    return block


def _load_rows(data: bytes, path: str | Path, target_column: str | int) -> Dataset:
    """The dataset read row by row and cell by cell, raising a DataError
    that names the first bad line and column."""
    try:
        reader = csv.reader(io.StringIO(data.decode("utf-8-sig"), newline=""))
        # (physical line the row ends on, row), blank lines skipped
        rows = [(reader.line_num, row) for row in reader if row]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read dataset file {path}: {exc}") from None
    if not rows:
        raise DataError(f"dataset file is empty: {path}")

    header = _header(rows[0][1])
    width = len(rows[0][1])
    data_rows = rows[1:] if header is not None else rows
    if not data_rows:
        raise DataError(f"no data rows in {path}")
    target_idx = _target_index(target_column, header, width, path)
    feature_idx = [c for c in range(width) if c != target_idx]

    x = np.empty((len(data_rows), len(feature_idx)), dtype=np.float64)
    y = np.empty(len(data_rows), dtype=np.int64)
    for r, (line_no, row) in enumerate(data_rows):
        if len(row) != width:
            raise DataError(f"row at line {line_no} has {len(row)} cells, expected {width}")
        for k, c in enumerate(feature_idx):
            name = header[c] if header else f"column {c}"
            try:
                x[r, k] = _parse_cell(row[c])
            except ValueError:
                raise DataError(f"unparseable value {row[c]!r} at line {line_no}, {name}")
            if not math.isfinite(x[r, k]):
                raise DataError(f"non-finite value {row[c]!r} at line {line_no}, {name}")
        try:
            tv = _parse_cell(row[target_idx])
        except ValueError:
            raise DataError(f"unparseable target {row[target_idx]!r} at line {line_no}")
        if tv not in (0.0, 1.0):
            raise DataError(f"target value {row[target_idx]!r} outside {{0,1}} at line {line_no}")
        y[r] = int(tv)

    return Dataset(x, y, _feature_names(header, width, target_idx))


def save_csv(d: Dataset, path: str | Path) -> None:
    """Write a dataset as headered CSV, the label last in a column named
    ``target``; floats keep full round-trip precision.

    Raises DataError, before writing anything, for a header that
    ``load_csv`` would not read back as written: a feature named
    ``target``, or a name with leading or trailing white space (header
    cells are stripped).
    """
    header = [*d.feature_names, "target"]
    if "target" in d.feature_names:
        raise DataError("feature name 'target' is also the target column's name")
    for name in header:
        if name != name.strip():
            raise DataError(f"column name {name!r} has leading or trailing white space")
    x = np.ascontiguousarray(d.x, dtype=np.float64)
    step = max(1, _CHUNK_BYTES // (25 * d.m + 3))  # repr takes at most 24 bytes
    with atomic_writer(path) as fh:
        fh.write(csv_text([header]).encode("utf-8"))
        for start in range(0, d.n, step):
            block = x[start : start + step]
            rows = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2].split(b"],[")
            # orjson writes repr's text for 0 and 1e-4 <= |v| < 1e16 only
            # (0.00001 for 1e-05, 1e16 for 1e+16); NaN fails the test too
            a = np.abs(block)
            plain = ((a >= 1e-4) & (a < 1e16)) | (a == 0)
            for r in np.flatnonzero(~plain.all(axis=1)):
                rows[r] = ",".join(map(repr, block[r].tolist())).encode("ascii")
            targets = d.y[start : start + step].tolist()
            fh.write(b"".join(b"%s,%d\n" % pair for pair in zip(rows, targets)))


def fit_normalize(d: Dataset) -> tuple[Dataset, NormParams]:
    """Shift and scale each column to zero mean and unit variance.

    Uses the population (1/n) variance so the fitted set itself comes out
    with variance exactly 1. Columns with sample deviation below
    ``CONSTANT_STD_EPS`` are mapped to zeros and flagged constant instead
    of being dropped, so feature indices stay stable. A column whose mean
    or deviation overflows (values near the float limit) gets them again
    from the column divided by its largest absolute value; one whose
    normalized values still overflow is a DataError.
    """
    if d.n < 2:
        raise DataError(f"need at least 2 rows to normalize, got {d.n}")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = d.x.mean(axis=0)
        std = d.x.std(axis=0)
        wide = ~(np.isfinite(mean) & np.isfinite(std))
        if wide.any():
            scale = np.abs(d.x[:, wide]).max(axis=0)
            mean[wide] = (d.x[:, wide] / scale).mean(axis=0) * scale
            std[wide] = (d.x[:, wide] / scale).std(axis=0) * scale
        constant = std < CONSTANT_STD_EPS
        params = NormParams(mean, np.where(constant, 1.0, std), constant)
        xn = params.apply(d.x)
    bad = np.flatnonzero(wide & ~np.isfinite(xn).all(axis=0))
    if bad.size:
        raise DataError(f"feature {d.feature_names[bad[0]]!r} spans too wide a range to normalize")
    return Dataset(xn, d.y, list(d.feature_names)), params


def split(d: Dataset, fraction_a: float, seed: int) -> tuple[Dataset, Dataset]:
    """Stratified random partition into parts A and B, in ``d``'s row order.

    Each class is shuffled and divided so both parts keep at least one
    member of every class that has two or more examples; a singleton class
    goes to part A. Deterministic for a given seed.
    """
    if not 0.0 < fraction_a < 1.0:
        raise ConfigError(f"fraction_a must be in (0,1), got {fraction_a}")
    if d.n < 2:
        raise DataError("cannot split fewer than 2 rows")
    rng = np.random.default_rng(seed)
    a_parts: list[np.ndarray] = []
    b_parts: list[np.ndarray] = []
    for cls in np.unique(d.y):
        idx = np.flatnonzero(d.y == cls)
        idx = rng.permutation(idx)
        n_c = len(idx)
        if n_c == 1:
            quota = 1
        else:
            quota = min(max(round(fraction_a * n_c), 1), n_c - 1)
        a_parts.append(idx[:quota])
        b_parts.append(idx[quota:])
    a = np.sort(np.concatenate(a_parts))
    b = np.sort(np.concatenate(b_parts))
    if len(a) == 0 or len(b) == 0:
        raise DataError(f"fraction_a={fraction_a} leaves an empty part for n={d.n}")
    return d.subset(a), d.subset(b)


def synth_generate(
    n: int,
    m: int,
    relevant: list[int],
    noise_std: float,
    label_flip: float,
    seed: int,
) -> tuple[Dataset, SynthTruth]:
    """Generate a feature-selection benchmark task.

    Features are i.i.d. standard normal. The label of each row is 1 iff a
    fixed random linear score over the ``relevant`` columns lands at or
    above the sigmoid midpoint (score >= 0). Gaussian noise of deviation
    ``noise_std`` is then added to every feature, and each label is flipped
    independently with probability ``label_flip``.

    Returns the dataset together with a :class:`SynthTruth` descriptor
    recording the relevant columns, coefficients, and realized flip count.
    """
    relevant = sorted(set(int(j) for j in relevant))
    if m < 2:
        raise ConfigError(f"need at least 2 features to train on, got m={m} (--m)")
    if not relevant:
        raise ConfigError("relevant feature set must not be empty")
    if relevant[0] < 0 or relevant[-1] >= m:
        raise ConfigError(f"relevant indices {relevant} out of range for m={m}")
    if n < 10 * len(relevant):
        raise ConfigError(f"need n >= {10 * len(relevant)} rows for {len(relevant)} relevant features")
    if not (math.isfinite(noise_std) and noise_std >= 0) or not 0.0 <= label_flip <= 1.0:
        raise ConfigError("noise_std must be finite and >= 0, and label_flip in [0,1]")

    rng = np.random.default_rng(seed)
    k = len(relevant)
    signs = rng.choice(np.array([-1.0, 1.0]), size=k)
    magnitudes = rng.uniform(0.5, 2.0, size=k)
    coeffs = signs * magnitudes

    try:
        x = rng.standard_normal((n, m))
        score = x[:, relevant] @ coeffs
        # sigmoid(score) >= 0.5 exactly when score >= 0
        y = (score >= 0.0).astype(np.int64)

        if noise_std > 0:
            with np.errstate(over="ignore"):
                x = x + rng.normal(0.0, noise_std, size=(n, m))
            if not np.isfinite(x).all():
                raise ConfigError(f"noise_std={noise_std} overflows the features (--noise-std)")
        flips = rng.random(n) < label_flip
        y = np.where(flips, 1 - y, y)
    except MemoryError:
        raise ConfigError(f"{n} rows by {m} features do not fit in memory (--n, --m)") from None

    names = [f"f{j}" for j in range(m)]
    truth = SynthTruth(relevant, coeffs.tolist(), seed, int(flips.sum()))
    return Dataset(x, y, names), truth
