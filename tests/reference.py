"""Plain reference forms that only the tests use: a neuron's output and
residuals written from their definitions, the parts of a fitted weight
vector, the inverse of a normalization, one threshold draw of the tree,
and the cross-validation summary recomputed from its folds."""

from __future__ import annotations

import numpy as np

from ecnn.errors import DataError
from ecnn.projection import sigmoid


def neuron_forward(u, w, bias: float = 0.0):
    """Sigmoid of the weighted input sum.

    ``u`` is either a single input vector of length p or a (p, q) matrix
    whose columns are examples; ``w`` has length p.
    """
    u = np.asarray(u, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 1 or u.shape[0] != w.shape[0]:
        raise ValueError(f"shape mismatch: inputs {u.shape} vs weights {w.shape}")
    return sigmoid(bias + w @ u)


def error_vector(inputs: np.ndarray, w: np.ndarray, bias: float, targets: np.ndarray) -> np.ndarray:
    """Per-example residual: neuron output minus target, over matrix columns."""
    inputs = np.asarray(inputs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if inputs.ndim != 2:
        raise ValueError(f"inputs must be a (p, q) matrix, got shape {inputs.shape}")
    if targets.shape != (inputs.shape[1],):
        raise ValueError(
            f"targets length {targets.shape} does not match {inputs.shape[1]} columns"
        )
    return neuron_forward(inputs, w, bias) - targets


def rse(eta) -> float:
    """Residual square error: the Euclidean norm of a residual vector."""
    return float(np.linalg.norm(np.asarray(eta, dtype=np.float64)))


def input_weights(fit) -> np.ndarray:
    """The input weights of a ``FitResult``: all but the last component."""
    return fit.weights[:-1]


def bias(fit) -> float:
    """The bias of a ``FitResult``: the last weight component."""
    return float(fit.weights[-1])


def invert(params, xn: np.ndarray) -> np.ndarray:
    """Raw values back from values normalized by ``NormParams`` ``params``."""
    return np.asarray(xn, dtype=np.float64) * params.std + params.mean


def sample_threshold(values, rng: np.random.Generator) -> float:
    """One uniform draw over the node-local [min, max] of a variable."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise DataError("cannot sample a threshold from no values")
    lo, hi = float(values.min()), float(values.max())
    return float(rng.uniform(lo, hi))


def recompute(report) -> tuple[float, float]:
    """Mean and population variance of a ``CvReport``'s fold performances."""
    perfs = np.asarray([f.performance for f in report.folds])
    return float(perfs.mean()), float(perfs.var())
