"""The interface the three classifier families share.

``CascadeModel``, ``GmdhModel`` and ``DtModel`` each define
``predict_batch(x, threshold=None) -> (score, cls)``, ``size()``,
``used_features()``, ``to_json_dict()`` and ``_decode(doc)``. This base
adds what is the same for all of them: the check of input rows, the error
rate, and the JSON file I/O with its validation, so that a malformed
model file is a ``DataError`` and never a traceback.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import DataError
from .util import atomic_write_text

FORMAT_VERSION = 1


def read_model_doc(path: str | Path) -> dict:
    """The JSON object stored in a model file."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"model file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read model file {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise DataError(f"{path} does not hold a JSON object")
    return doc


def require(ok: bool, message: str) -> None:
    if not ok:
        raise DataError(f"malformed model file: {message}")


class Model:
    """Base of the model classes; a subclass sets ``n_features``."""

    def check_rows(self, x: np.ndarray) -> np.ndarray:
        """``x`` as a 2-D float array of finite rows of the model's width."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.ndim != 2 or x.shape[1] != self.n_features:
            raise DataError(f"expected rows of {self.n_features} features, got shape {x.shape}")
        if not np.all(np.isfinite(x)):
            raise DataError("inputs must be finite")
        return x

    def error_rate(self, d, threshold: float | None = None) -> float:
        """Fraction of rows of dataset ``d`` the model misclassifies."""
        if d.n == 0:
            raise DataError("cannot evaluate on an empty dataset")
        _, cls = self.predict_batch(d.x, threshold)
        return float(np.mean(cls != d.y))

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    def save(self, path: str | Path) -> None:
        atomic_write_text(path, self.to_json())

    @classmethod
    def load(cls, path: str | Path):
        return cls.from_json_dict(read_model_doc(path))

    @classmethod
    def from_json_dict(cls, doc: dict):
        """Decode a model document; a missing key, a wrong type or a value
        out of range raises ``DataError``."""
        require(isinstance(doc, dict), "not a JSON object")
        try:
            version = doc["format_version"]
            require(version == FORMAT_VERSION, f"format_version {version!r} is not {FORMAT_VERSION}")
            return cls._decode(doc)
        except (KeyError, TypeError, ValueError, IndexError, AttributeError, OverflowError) as exc:
            raise DataError(f"malformed model file: {type(exc).__name__}: {exc}") from None
