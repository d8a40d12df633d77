"""Seeded task generation and CSV writing, done by the benchmark itself.

The program under test only ever sees the matrices and files made here.
The generator follows the recipe documented in ``ecnn.dataset.synth_generate``
(i.i.d. standard normal features, labels from the sign of a random linear
score over the relevant columns, then Gaussian feature noise and random
label flips), drawing from one ``numpy`` generator in the same order, so a
program that keeps its "same seed, same bytes" promise writes exactly these
matrices from ``ecnn synth``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class TaskShape:
    n: int
    m: int
    relevant: tuple[int, ...]
    noise_std: float
    flip: float


@dataclass
class Task:
    x: np.ndarray  # (n, m) noisy features
    y: np.ndarray  # (n,) observed labels, after flips
    y_clean: np.ndarray  # (n,) labels of the generating rule, before flips
    coefficients: np.ndarray
    seed: int

    def rule_labels(self, x: np.ndarray, relevant: tuple[int, ...]) -> np.ndarray:
        """Labels the generating rule assigns to (noisy) rows ``x``."""
        return (x[:, list(relevant)] @ self.coefficients >= 0.0).astype(np.int64)


def make_task(shape: TaskShape, seed: int) -> Task:
    rng = np.random.default_rng(seed)
    k = len(shape.relevant)
    signs = rng.choice(np.array([-1.0, 1.0]), size=k)
    coefficients = signs * rng.uniform(0.5, 2.0, size=k)
    x = rng.standard_normal((shape.n, shape.m))
    y_clean = (x[:, list(shape.relevant)] @ coefficients >= 0.0).astype(np.int64)
    if shape.noise_std > 0:
        x = x + rng.normal(0.0, shape.noise_std, size=(shape.n, shape.m))
    flips = rng.random(shape.n) < shape.flip
    y = np.where(flips, 1 - y_clean, y_clean)
    return Task(x, y, y_clean, coefficients, seed)


def write_csv(path: Path, x: np.ndarray, y: np.ndarray) -> None:
    """Headered CSV (``f0..f{m-1},target``) with round-trip float text."""
    header = ",".join([*(f"f{j}" for j in range(x.shape[1])), "target"])
    lines = [header]
    for row, label in zip(x.tolist(), y.tolist()):
        lines.append(",".join([*map(repr, row), str(int(label))]))
    Path(path).write_text("\n".join(lines) + "\n")
