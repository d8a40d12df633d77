"""Seed derivation and small file helpers.

All randomness in the package flows from one base seed through named
streams, so a change in one subsystem (say, the number of candidates
tried) never shifts the draws of an unrelated one (say, the data split).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import os
import tempfile
from pathlib import Path
from types import SimpleNamespace
from typing import BinaryIO, Iterable, Iterator

import numpy as np

from .errors import DataError, NumericError


def derive_seed(base: int, *names: object) -> int:
    """Derive a 64-bit stream seed from a base seed and a name path.

    The same (base, names) pair always yields the same seed, on every
    platform and Python version.
    """
    h = hashlib.sha256()
    h.update(str(int(base)).encode())
    for name in names:
        h.update(b"/")
        h.update(str(name).encode())
    return int.from_bytes(h.digest()[:8], "big")


def derive_rng(base: int, *names: object) -> np.random.Generator:
    """Named random stream: a fresh generator seeded by ``derive_seed``."""
    return np.random.default_rng(derive_seed(base, *names))


def read_file(path: str | Path, kind: str, hashes: dict[str, str] | None = None) -> bytes:
    """The bytes of an input file; a missing or unreadable file is a
    DataError that names the ``kind`` of file. If ``hashes`` is given, the
    sha256 of the bytes returned is stored in it under ``str(path)``."""
    if not os.path.exists(path):
        raise DataError(f"{kind} not found: {path}")
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {kind} {path}: {exc}") from None
    if hashes is not None:
        hashes[str(path)] = hashlib.sha256(data).hexdigest()
    return data


def json_text(doc: dict) -> str:
    """The text of every JSON file the program writes: ``doc`` indented by
    2, and a final newline. A number that is not finite, which the readers
    of these files refuse, is a NumericError."""
    try:
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericError(f"cannot write a number that is not finite: {exc}") from None


@contextlib.contextmanager
def atomic_writer(path: str | Path) -> Iterator[BinaryIO]:
    """A binary handle on a temp file that replaces ``path`` by a rename if
    the block ends without an error, and is removed if not. Missing parent
    directories are created. The temp file's name is short,
    ``.<random>.tmp``, whatever the length of ``path``'s."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write text to ``path`` as UTF-8 through :func:`atomic_writer`."""
    with atomic_writer(path) as fh:
        fh.write(text.encode("utf-8"))


def csv_text(rows: Iterable[Iterable]) -> str:
    """CSV lines, each ending in ``\\n``. A float cell (``np.float64`` too)
    is written as ``repr(float(v))``, or empty if it is NaN; any other cell
    as ``str(v)``. Cells holding a comma, a double quote or a line break
    are quoted, and every other cell is written as is."""
    lines: list[str] = []
    # the writer quotes the characters of its line end, so with "\r\n" it
    # quotes a lone "\r" too; it writes each row in one call
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n")
    writer.writerows(
        [("" if math.isnan(v) else repr(float(v))) if isinstance(v, float) else str(v) for v in row]
        for row in rows
    )
    return "".join(line[:-2] + "\n" for line in lines)


def write_table(path: str | Path, header: str, rows: Iterable[Iterable]) -> None:
    """Write a CSV report: the line ``header``, then ``csv_text(rows)``."""
    atomic_write_text(path, header + "\n" + csv_text(rows))
