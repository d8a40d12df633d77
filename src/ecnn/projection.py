"""Single-neuron weight fitting by an iterative projection rule.

The weights are adjusted on a fitting part of the data while a residual
square error is monitored on a held-out validation part; training stops
once the validation error stalls.
The final validation error is the neuron's regularity criterion, used by
the cascade builder to accept or reject the neuron.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericError


@dataclass
class TrainConfig:
    """Knobs for fitting a single neuron.

    Attributes
    ----------
    chi : float
        Learning rate of the projection update. Values in (1, 2] are the
        intended range; anything else positive triggers a warning, and
        non-positive values are rejected.
    delta : float
        Minimal decrease of the validation error between consecutive
        steps; training stops once the decrease falls below it (this also
        covers the case of the error going back up).
    max_steps : int
        Safety cap on update steps.
    init_std : float
        Standard deviation of the zero-mean Gaussian weight init.
    split_fraction : float
        Fraction of the training data used for fitting (part A); the rest
        validates (part B).
    """

    chi: float = 1.9
    delta: float = 0.0015
    max_steps: int = 200
    init_std: float = 0.1
    split_fraction: float = 0.5

    def __post_init__(self) -> None:
        for name in ("chi", "delta", "init_std"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.chi <= 0:
            raise ConfigError(f"chi must be positive, got {self.chi}")
        if not 1.0 < self.chi <= 2.0:
            warnings.warn(
                f"chi={self.chi} is outside the intended range (1, 2]", stacklevel=3
            )
        if self.delta <= 0:
            raise ConfigError(f"delta must be positive, got {self.delta}")
        if self.max_steps < 1:
            raise ConfigError(f"max_steps must be >= 1, got {self.max_steps}")
        if self.init_std <= 0:
            raise ConfigError(f"init_std must be positive, got {self.init_std}")
        if not 0.0 < self.split_fraction < 1.0:
            raise ConfigError(f"split_fraction must be in (0,1), got {self.split_fraction}")


@dataclass
class FitResult:
    """Outcome of :func:`fit_neuron`.

    ``weights`` holds the input weights with the bias appended as the last
    component. ``criterion`` is the validation error at the stopping step,
    which is always the last entry of ``rse_trace_b`` (whose first entry
    is the pre-training error of the random init).
    """

    weights: np.ndarray
    criterion: float
    steps_taken: int
    rse_trace_b: np.ndarray = field(repr=False)


def sigmoid(a):
    """Logistic function 1/(1 + exp(-a)), elementwise, computed as
    ``0.5 + 0.5 * tanh(a / 2)``.

    Monotone, symmetric about 0 (``sigmoid(a) + sigmoid(-a) == 1``
    exactly), and saturating to exactly 0.0 / 1.0 in float for large
    ``|a|``. ``tanh`` cannot overflow, so no input raises a warning.
    """
    return 0.5 + 0.5 * np.tanh(0.5 * np.asarray(a, dtype=np.float64))


def fit_neuron(
    inputs_a: np.ndarray,
    targets_a: np.ndarray,
    inputs_b: np.ndarray,
    targets_b: np.ndarray,
    cfg: TrainConfig,
    rng: np.random.Generator,
) -> FitResult:
    """Fit one sigmoid neuron on part A while validating on part B.

    Parameters
    ----------
    inputs_a, inputs_b : ndarray, shape (p, n_a) and (p, n_b)
        Input matrices with examples as columns (no bias row; it is
        appended internally).
    targets_a, targets_b : ndarray
        Target values per column.
    cfg : TrainConfig
    rng : Generator
        Source for the weight init.

    Returns
    -------
    FitResult
        Weights at the stopping step and the validation-error trace. Stops
        at the first step whose decrease of the validation error falls
        under ``cfg.delta``, or at ``cfg.max_steps``.
    """
    inputs_a = np.asarray(inputs_a, dtype=np.float64)
    inputs_b = np.asarray(inputs_b, dtype=np.float64)
    targets_a = np.asarray(targets_a, dtype=np.float64)
    targets_b = np.asarray(targets_b, dtype=np.float64)
    if inputs_a.ndim != 2 or inputs_b.ndim != 2:
        raise ValueError("input matrices must be 2-D (features x examples)")
    if inputs_a.shape[0] != inputs_b.shape[0]:
        raise ValueError(
            f"part A has {inputs_a.shape[0]} input rows but part B has {inputs_b.shape[0]}"
        )
    if inputs_a.shape[1] == 0 or inputs_b.shape[1] == 0:
        raise ValueError("both data parts must be non-empty")
    if targets_a.shape != (inputs_a.shape[1],) or targets_b.shape != (inputs_b.shape[1],):
        raise ValueError("target lengths do not match input columns")
    if not inputs_a.any():
        raise NumericError("cannot fit a neuron on an all-zero input matrix")

    # a constant-1 row lets the bias train like any other weight
    u_a = np.vstack([inputs_a, np.ones((1, inputs_a.shape[1]))])
    u_b = np.vstack([inputs_b, np.ones((1, inputs_b.shape[1]))])
    w = rng.normal(0.0, cfg.init_std, size=u_a.shape[0])
    s = np.concatenate([2.0 * targets_a - 1.0, 2.0 * targets_b - 1.0])
    return fit_augmented(u_a, u_b, s, w, cfg)


def fit_augmented(u_a: np.ndarray, u_b: np.ndarray, s: np.ndarray, w: np.ndarray,
                  cfg: TrainConfig) -> FitResult:
    """The step loop of :func:`fit_neuron`, from its init ``w``, which it
    updates in place.

    ``u_a`` and ``u_b`` are the input matrices of parts A and B with the
    constant-1 bias row last, and ``s`` holds ``2t - 1`` of part A's
    targets followed by part B's. Only ``cfg.chi``, ``cfg.delta`` and
    ``cfg.max_steps`` are read.
    """
    with np.errstate(over="ignore"):
        norm_sq = float(np.sum(u_a * u_a))
    if not math.isfinite(norm_sq):
        raise NumericError("the squared norm of the fitting inputs overflows")
    step = cfg.chi / norm_sq
    # The loop works on the doubled residual 2 * (sigmoid(z) - t), which
    # is tanh(z / 2) - (2t - 1). Halving the inputs is exact, so
    # ``w @ h_a`` is ``z / 2`` and ``h_a @ eta_a`` is ``u_a @ (eta_a / 2)``
    # bit for bit: the update is the projection rule
    # ``w - chi * u_a @ (sigmoid(w @ u_a) - t_a) / ||u_a||_F^2``.
    h_a = 0.5 * u_a
    h_b = 0.5 * u_b
    # Both parts' doubled residuals share one buffer, so one tanh and one
    # subtraction refresh them together: part B gives the criterion, part A
    # the next update. The two gemvs stay separate, because one gemv over
    # [h_a | h_b] rounds differently.
    n_a = u_a.shape[1]
    eta = np.empty(s.shape[0])
    eta_a, eta_b = eta[:n_a], eta[n_a:]
    delta_w = np.empty(w.shape[0])

    def validation_error() -> float:
        w.dot(h_a, out=eta_a)
        w.dot(h_b, out=eta_b)
        np.tanh(eta, out=eta)
        np.subtract(eta, s, out=eta)
        return 0.5 * math.sqrt(eta_b.dot(eta_b))

    delta = cfg.delta
    e_b = validation_error()
    trace = [e_b]
    for k in range(1, cfg.max_steps + 1):
        h_a.dot(eta_a, out=delta_w)
        delta_w *= step
        w -= delta_w
        # A float sum is finite only if every weight is, and adding Python
        # floats never warns; the exact test runs only when the sum is not.
        if not math.isfinite(sum(w.tolist())) and not np.isfinite(w).all():
            raise NumericError(f"non-finite weights at step {k}")
        prev, e_b = e_b, validation_error()
        trace.append(e_b)
        if prev - e_b < delta:
            break

    return FitResult(w, e_b, len(trace) - 1, np.asarray(trace))
