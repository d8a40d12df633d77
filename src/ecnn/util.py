"""Seed derivation and small file helpers.

All randomness in the package flows from one base seed through named
streams, so a change in one subsystem (say, the number of candidates
tried) never shifts the draws of an unrelated one (say, the data split).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import tempfile
from pathlib import Path
from types import SimpleNamespace
from typing import BinaryIO, Iterable, Iterator

import numpy as np


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


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def csv_line(cells: list) -> str:
    """One CSV line, without its line end: cells holding a comma, a double
    quote or a line break are quoted, and every other cell is written as is.
    The writer quotes the characters of its line end, so that end is
    ``\\r\\n``: a cell holding a lone ``\\r`` is quoted too."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\r\n").writerow(cells)
    return out.getvalue()[:-2]


@contextlib.contextmanager
def atomic_writer(path: str | Path) -> Iterator[BinaryIO]:
    """A binary handle on a temp file that replaces ``path`` by a rename if
    the block ends without an error, and is removed if not. Missing parent
    directories are created."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
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


def write_table(path: str | Path, header: str, rows: Iterable[Iterable]) -> None:
    """Write a CSV report: ``header``, then each row as :func:`csv_line`
    writes it. A float cell (``np.float64`` too) is written as
    ``repr(float(v))``, or empty if it is NaN; any other cell as ``str(v)``."""
    lines = [header + "\r\n"]
    # one writer for every row, with csv_line's "\r\n" end (so a lone "\r"
    # is quoted); it writes each row in one call, and each end becomes "\n"
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n")
    writer.writerows(
        [("" if math.isnan(v) else repr(float(v))) if isinstance(v, float) else str(v) for v in row]
        for row in rows
    )
    atomic_write_text(path, "".join(line[:-2] + "\n" for line in lines))
