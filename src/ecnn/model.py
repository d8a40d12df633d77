"""The interface the three classifier families share.

``CascadeModel``, ``GmdhModel`` and ``DtModel`` each define ``size()``,
``used_features()``, ``to_json_dict()`` and ``_decode(doc)``. This base
adds what is the same for all of them: the check of input rows, the error
rate, and the JSON file I/O with its validation, so that a malformed
model file is a ``DataError`` and never a traceback. It also holds
``predict_batch(x, threshold=Model.threshold) -> (score, cls)`` for the
families that normalize their rows and score them, the cascade and GMDH,
each of which defines ``forward`` and ``norm``; the tree overrides it.
``Model.threshold``, 0.5, is the one class threshold of every family: a
score at or above it is class 1.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import DataError, NumericError
from .util import atomic_write_text, json_text, read_file

FORMAT_VERSION = 1


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"number {text} is out of range")
    return value


def _no_constant(name: str) -> float:
    raise ValueError(f"{name} is not a finite number")


def read_json_doc(path: str | Path, kind: str = "model file", hashes: dict[str, str] | None = None) -> dict:
    """The JSON object stored in a file; a missing or unreadable file, one
    holding anything else, one nested too deeply to parse, or one with a
    number that is not finite (``NaN``, ``Infinity`` or a literal like
    ``1e999``) is a DataError that names the ``kind`` of file. ``hashes``
    gets the sha256 of the bytes parsed, as ``read_file`` stores it."""
    data = read_file(path, kind, hashes)
    try:
        doc = json.loads(data.decode("utf-8"), parse_float=_finite_float, parse_constant=_no_constant)
    except (ValueError, RecursionError) as exc:
        raise DataError(f"cannot read {kind} {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise DataError(f"{path} does not hold a JSON object")
    return doc


def is_format_version(version) -> bool:
    """Whether a document's version is this program's: the JSON integer,
    not ``true`` or ``1.0``, which compare equal to it."""
    return type(version) is int and version == FORMAT_VERSION


def require(ok: bool, message: str) -> None:
    if not ok:
        raise DataError(f"malformed model file: {message}")


# the JSON types each kind of field accepts, and what the error calls them
_JSON_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number"), bool: ((bool,), "true or false"),
               str: ((str,), "a string")}


def json_value(value, kind: type, what: str):
    """``value`` as ``kind`` (``int``, ``float``, ``bool`` or ``str``),
    refused unless it is of the JSON type that ``kind`` stands for: an
    integer is not ``true`` or ``1.5``, a number is not ``true`` or
    ``"0.5"``, and a flag is not ``0``, though ``int``, ``float`` and numpy
    read them all."""
    types, name = _JSON_TYPES[kind]
    require(type(value) in types, f"{what} must be {name}, got {type(value).__name__}")
    return kind(value)


def json_list(values, kind: type, what: str) -> list:
    """A JSON list whose every item is ``json_value``'s ``kind``."""
    require(type(values) is list, f"{what} must be a list, got {type(values).__name__}")
    return [json_value(v, kind, what) for v in values]


def json_array(values, kind: type, what: str) -> np.ndarray:
    """``json_list`` of ``int``, ``float`` or ``bool`` as a 1-D array."""
    return np.array(json_list(values, kind, what), dtype=kind)


class Model:
    """Base of the model classes; a subclass sets ``n_features``."""

    threshold = 0.5  # the class threshold of every family

    def check_rows(self, x: np.ndarray) -> np.ndarray:
        """``x`` as a 2-D float array of finite rows of the model's width."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.ndim != 2 or x.shape[1] != self.n_features:
            raise DataError(f"expected rows of {self.n_features} features, got shape {x.shape}")
        if not np.all(np.isfinite(x)):
            raise DataError("inputs must be finite")
        return x

    def predict_batch(self, x: np.ndarray, threshold: float = threshold) -> tuple[np.ndarray, np.ndarray]:
        """Scores of ``forward`` on raw rows ``x`` (normalized by ``norm``),
        and classes: score at or above ``threshold``. A NaN score is a
        NumericError; an infinite one still orders."""
        with np.errstate(over="ignore", invalid="ignore"):
            score = self.forward(self.norm.apply(self.check_rows(x)))
        if np.isnan(score).any():
            raise NumericError(f"the model's score is NaN on {int(np.isnan(score).sum())} of {len(score)} rows: "
                               "not finite, and no threshold orders it")
        return score, (score >= threshold).astype(np.int64)

    def error_rate(self, d) -> float:
        """Fraction of rows of dataset ``d`` the model misclassifies at the
        class threshold."""
        if d.n == 0:
            raise DataError("cannot evaluate on an empty dataset")
        _, cls = self.predict_batch(d.x)
        return float(np.mean(cls != d.y))

    def to_json(self) -> str:
        """The model document, its ``format_version`` first; a number that is
        not finite is a NumericError, and a model nested too deeply to write
        (a tree some hundreds of splits deep) a DataError."""
        try:
            return json_text({"format_version": FORMAT_VERSION, **self.to_json_dict()})
        except RecursionError:
            raise DataError("the model is nested too deeply to write") from None

    def save(self, path: str | Path) -> None:
        atomic_write_text(path, self.to_json())

    @classmethod
    def load(cls, path: str | Path):
        return cls.from_json_dict(read_json_doc(path))

    @classmethod
    def from_json_dict(cls, doc: dict):
        """Decode a model document; a missing key, a wrong type, a value
        out of range or nesting too deep to decode raises ``DataError``."""
        require(isinstance(doc, dict), "not a JSON object")
        try:
            version = doc["format_version"]
            require(is_format_version(version), f"format_version {version!r} is not {FORMAT_VERSION}")
            return cls._decode(doc)
        except (KeyError, TypeError, ValueError, IndexError, AttributeError, OverflowError,
                RecursionError) as exc:
            raise DataError(f"malformed model file: {type(exc).__name__}: {exc}") from None
