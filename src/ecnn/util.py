"""Seed derivation and small file helpers.

All randomness in the package flows from one base seed through named
streams, so a change in one subsystem (say, the number of candidates
tried) never shifts the draws of an unrelated one (say, the data split).
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path

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


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write text to ``path`` via a temp file and rename, never leaving a
    partial file. Missing parent directories are created."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
