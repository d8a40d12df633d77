"""Binary-classification datasets: CSV ingestion, normalization, stratified
splitting, and a synthetic generator for feature-selection benchmarks.

All operations are pure given their inputs and seed, so they are safe to
call from parallel workers.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .util import atomic_write_text

CONSTANT_STD_EPS = 1e-12


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

    def class_counts(self) -> tuple[int, int]:
        counts = np.bincount(self.y, minlength=2)
        return int(counts[0]), int(counts[1])


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

    @classmethod
    def identity(cls, m: int) -> "NormParams":
        return cls(np.zeros(m), np.ones(m), np.zeros(m, dtype=bool))

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        out = (x - self.mean) / self.std
        if np.any(self.constant):
            out[..., self.constant] = 0.0
        return out

    def invert(self, xn: np.ndarray) -> np.ndarray:
        return np.asarray(xn, dtype=np.float64) * self.std + self.mean

    def to_dict(self) -> dict:
        return {
            "mean": self.mean.tolist(),
            "std": self.std.tolist(),
            "constant_flags": [bool(c) for c in self.constant],
        }

    @classmethod
    def from_dict(cls, d: dict, m: int) -> "NormParams":
        """Parameters for ``m`` columns; anything else is a DataError."""
        params = cls(d["mean"], d["std"], d["constant_flags"])
        if any(a.shape != (m,) for a in (params.mean, params.std, params.constant)):
            raise DataError(f"normalization parameters do not match {m} features")
        if not (np.all(np.isfinite(params.mean)) and np.all(np.isfinite(params.std) & (params.std > 0))):
            raise DataError("normalization needs a finite mean and a finite positive std")
        return params


@dataclass
class SplitPair:
    """Disjoint row-index partition of a dataset into a fitting part A and
    a validation part B."""

    a_indices: np.ndarray
    b_indices: np.ndarray
    fraction_a: float


@dataclass
class SynthTruth:
    """Ground truth behind a synthetic dataset: which features matter and
    the linear score that generated the labels."""

    relevant: list[int]
    coefficients: list[float]
    seed: int
    flip_count: int

    def score(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return x[:, self.relevant] @ np.asarray(self.coefficients)

    def labels_for(self, x: np.ndarray) -> np.ndarray:
        """Labels the generating rule itself assigns: 1 iff the linear score
        puts the sigmoid at or above 0.5, i.e. iff the score is >= 0."""
        return (self.score(x) >= 0.0).astype(np.int64)

    def to_json(self) -> str:
        return json.dumps(
            {
                "relevant": list(self.relevant),
                "coefficients": list(self.coefficients),
                "seed": self.seed,
                "flip_count": self.flip_count,
            },
            indent=2,
        ) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "SynthTruth":
        d = json.loads(text)
        return cls(
            [int(j) for j in d["relevant"]],
            [float(c) for c in d["coefficients"]],
            int(d["seed"]),
            int(d["flip_count"]),
        )

    def save(self, path: str | Path) -> None:
        atomic_write_text(path, self.to_json())

    @classmethod
    def load(cls, path: str | Path) -> "SynthTruth":
        return cls.from_json(Path(path).read_text())


def _parse_cell(cell: str) -> float:
    return float(cell.strip())


def load_csv(path: str | Path, target_column: str | int) -> Dataset:
    """Load a comma-separated dataset.

    The header row is optional and detected by attempting to parse the
    first row as numbers. ``target_column`` selects the target either by
    header name or by 0-based column index.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"dataset file not found: {path}")
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise DataError(f"dataset file is empty: {path}")

    width = len(rows[0])
    if width < 3:
        raise DataError(f"need at least 2 feature columns plus a target, got {width} columns")

    def _is_number(cell: str) -> bool:
        try:
            _parse_cell(cell)
            return True
        except ValueError:
            return False

    has_header = not all(_is_number(c) for c in rows[0])
    header = [c.strip() for c in rows[0]] if has_header else None
    data_rows = rows[1:] if has_header else rows
    if not data_rows:
        raise DataError(f"no data rows in {path}")

    if isinstance(target_column, int):
        target_idx = target_column
        if not 0 <= target_idx < width:
            raise DataError(f"target column index {target_idx} out of range for {width} columns")
    else:
        if header is None:
            raise DataError(
                f"target column {target_column!r} requested by name but {path} has no header"
            )
        try:
            target_idx = header.index(target_column)
        except ValueError:
            raise DataError(f"target column {target_column!r} not found in header {header}")

    feature_idx = [c for c in range(width) if c != target_idx]
    if header is not None:
        feature_names = [header[c] for c in feature_idx]
    else:
        feature_names = [f"f{k}" for k in range(len(feature_idx))]

    x = np.empty((len(data_rows), len(feature_idx)), dtype=np.float64)
    y = np.empty(len(data_rows), dtype=np.int64)
    for r, row in enumerate(data_rows):
        line_no = r + 2 if has_header else r + 1
        if len(row) != width:
            raise DataError(f"row at line {line_no} has {len(row)} cells, expected {width}")
        for k, c in enumerate(feature_idx):
            try:
                x[r, k] = _parse_cell(row[c])
            except ValueError:
                name = header[c] if header else f"column {c}"
                raise DataError(
                    f"unparseable value {row[c]!r} at line {line_no}, {name}"
                )
        try:
            tv = _parse_cell(row[target_idx])
        except ValueError:
            raise DataError(f"unparseable target {row[target_idx]!r} at line {line_no}")
        if tv not in (0.0, 1.0):
            raise DataError(f"target value {row[target_idx]!r} outside {{0,1}} at line {line_no}")
        y[r] = int(tv)

    return Dataset(x, y, feature_names)


def save_csv(d: Dataset, path: str | Path, target_name: str = "target") -> None:
    """Write a dataset as headered CSV; floats keep full round-trip precision."""
    lines = [",".join([*d.feature_names, target_name])]
    for i in range(d.n):
        cells = [repr(float(v)) for v in d.x[i]]
        cells.append(str(int(d.y[i])))
        lines.append(",".join(cells))
    atomic_write_text(path, "\n".join(lines) + "\n")


def fit_normalize(d: Dataset) -> tuple[Dataset, NormParams]:
    """Shift and scale each column to zero mean and unit variance.

    Uses the population (1/n) variance so the fitted set itself comes out
    with variance exactly 1. Columns with sample deviation below
    ``CONSTANT_STD_EPS`` are mapped to zeros and flagged constant instead
    of being dropped, so feature indices stay stable.
    """
    if d.n < 2:
        raise DataError(f"need at least 2 rows to normalize, got {d.n}")
    mean = d.x.mean(axis=0)
    std = d.x.std(axis=0)
    constant = std < CONSTANT_STD_EPS
    safe_std = np.where(constant, 1.0, std)
    xn = (d.x - mean) / safe_std
    xn[:, constant] = 0.0
    params = NormParams(mean, safe_std, constant)
    return Dataset(xn, d.y, list(d.feature_names)), params


def split(d: Dataset, fraction_a: float, seed: int) -> SplitPair:
    """Stratified random partition into parts A and B.

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
    return SplitPair(a, b, fraction_a)


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
    if not relevant:
        raise ConfigError("relevant feature set must not be empty")
    if relevant[0] < 0 or relevant[-1] >= m:
        raise ConfigError(f"relevant indices {relevant} out of range for m={m}")
    if n < 10 * len(relevant):
        raise ConfigError(f"need n >= {10 * len(relevant)} rows for {len(relevant)} relevant features")
    if noise_std < 0 or not 0.0 <= label_flip <= 1.0:
        raise ConfigError("noise_std must be >= 0 and label_flip in [0,1]")

    rng = np.random.default_rng(seed)
    k = len(relevant)
    signs = rng.choice(np.array([-1.0, 1.0]), size=k)
    magnitudes = rng.uniform(0.5, 2.0, size=k)
    coeffs = signs * magnitudes

    x = rng.standard_normal((n, m))
    score = x[:, relevant] @ coeffs
    # sigmoid(score) >= 0.5 exactly when score >= 0
    y = (score >= 0.0).astype(np.int64)

    if noise_std > 0:
        x = x + rng.normal(0.0, noise_std, size=(n, m))
    flips = rng.random(n) < label_flip
    y = np.where(flips, 1 - y, y)

    names = [f"f{j}" for j in range(m)]
    truth = SynthTruth(relevant, coeffs.tolist(), seed, int(flips.sum()))
    return Dataset(x, y, names), truth
