"""Reference computations the benchmark checks the program against.

Each oracle works from the program's documented file formats (model JSON
and CSV text) with plain numpy and the standard library. None of them
calls into ``ecnn``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


def normalize(norm: dict, x: np.ndarray) -> np.ndarray:
    """Apply a saved ``norm`` block: ``(x - mean) / std``, constant columns zeroed."""
    xn = (np.asarray(x, dtype=np.float64) - np.asarray(norm["mean"])) / np.asarray(norm["std"])
    xn[:, np.asarray(norm["constant_flags"], dtype=bool)] = 0.0
    return xn


def _sigmoid(a: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-a))


def cascade_probabilities(doc: dict, x: np.ndarray) -> np.ndarray:
    """Output-neuron probability of a cascade model JSON for raw rows ``x``."""
    xn = normalize(doc["norm"], x)
    hidden: list[np.ndarray] = []
    for neuron in doc["neurons"]:
        a = np.full(xn.shape[0], float(neuron["bias"]))
        for w, src in zip(neuron["weights"], neuron["inputs"], strict=True):
            col = xn[:, src["index"]] if src["kind"] == "feature" else hidden[src["index"]]
            a = a + float(w) * col
        hidden.append(_sigmoid(a))
    return hidden[-1]


def cascade_classes(doc: dict, x: np.ndarray) -> np.ndarray:
    return (cascade_probabilities(doc, x) >= float(doc["threshold"])).astype(np.int64)


def gmdh_scores(doc: dict, x: np.ndarray) -> np.ndarray:
    """Raw polynomial score ``c0 + c1*u1 + c2*u2 + c3*u1*u2`` of a GMDH
    model JSON's output neuron for raw rows ``x``."""
    xn = normalize(doc["norm"], x)
    values: dict[int, np.ndarray] = {}

    def source(src: dict) -> np.ndarray:
        return xn[:, src["index"]] if src["kind"] == "feature" else values[int(src["index"])]

    for neuron in doc["neurons"]:
        c0, c1, c2, c3 = (float(c) for c in neuron["coeffs"])
        u1 = source(neuron["parent_a"])
        if neuron["parent_b"] is None:
            values[int(neuron["id"])] = c0 + c1 * u1
        else:
            u2 = source(neuron["parent_b"])
            values[int(neuron["id"])] = c0 + c1 * u1 + c2 * u2 + c3 * u1 * u2
    return values[int(doc["output_id"])]


def gmdh_classes(doc: dict, x: np.ndarray, threshold: float = 0.5) -> np.ndarray:
    return (gmdh_scores(doc, x) >= threshold).astype(np.int64)


def tree_classes(doc: dict, x: np.ndarray) -> np.ndarray:
    """Walk a tree model JSON for raw rows ``x``; a value equal to a
    threshold goes left."""
    x = np.asarray(x, dtype=np.float64)
    out = np.full(x.shape[0], -1, dtype=np.int64)

    def route(node: dict, rows: np.ndarray) -> None:
        if "leaf" in node:
            out[rows] = int(node["leaf"]["class"])
            return
        split = node["split"]
        left = x[rows, int(split["feature"])] <= float(split["threshold"])
        route(split["left"], rows[left])
        route(split["right"], rows[~left])

    route(doc["root"], np.arange(x.shape[0]))
    return out


def classes_for(doc: dict, x: np.ndarray) -> np.ndarray:
    """Classes from any of the three model JSON layouts."""
    if "base_feature" in doc:
        return cascade_classes(doc, x)
    if "output_id" in doc:
        return gmdh_classes(doc, x)
    return tree_classes(doc, x)


def confusion(pred: np.ndarray, y: np.ndarray) -> dict[str, int]:
    return {
        "tp": int(np.sum((pred == 1) & (y == 1))),
        "tn": int(np.sum((pred == 0) & (y == 0))),
        "fp": int(np.sum((pred == 1) & (y == 0))),
        "fn": int(np.sum((pred == 0) & (y == 1))),
    }


def read_csv(path: Path, target: str = "target") -> tuple[list[str], np.ndarray, np.ndarray]:
    """Parse a headered numeric CSV into (feature names, x, y) by plain
    string splitting. Raises ``ValueError`` on a ragged row or a label
    other than 0 or 1."""
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    col = header.index(target)
    rows = [line.split(",") for line in lines[1:] if line]
    if any(len(row) != len(header) for row in rows):
        raise ValueError(f"{path}: ragged row")
    values = np.array([[float(cell) for cell in row] for row in rows], dtype=np.float64)
    y = values[:, col]
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError(f"{path}: label outside {{0, 1}}")
    names = header[:col] + header[col + 1:]
    return names, np.delete(values, col, axis=1), y.astype(np.int64)
