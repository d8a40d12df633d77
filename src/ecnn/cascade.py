"""Cascade classifier grown one neuron at a time with embedded feature
selection.

The network starts from the single best feature, then repeatedly proposes
a neuron that sees every earlier hidden output, the base feature, and one
fresh feature drawn from a ranked list. A proposal is kept only if its
validation criterion beats the previous layer's, so the criterion sequence
of an accepted chain is strictly decreasing and the last accepted neuron
is the output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset, NormParams, fit_normalize, split
from .errors import ConfigError, DataError
from .model import Model, require
from .projection import TrainConfig, fit_neuron, sigmoid
from .util import derive_rng, derive_seed


@dataclass
class CascadeNeuron:
    """An accepted neuron: the fresh feature it adds, its weights (bias
    last) and the validation criterion it achieved. The neuron at layer r
    reads the r - 1 earlier hidden outputs, the base feature and then
    ``feature``, so it has r + 2 weights."""

    feature: int
    weights: np.ndarray
    criterion: float

    @property
    def bias(self) -> float:
        return float(self.weights[-1])

    def output(self, u: np.ndarray) -> np.ndarray:
        """Output on input rows ``u`` (one row per input, examples as
        columns); training and prediction both compute it here."""
        return sigmoid(self.weights[:-1] @ u + self.bias)


def _wiring(layer: int, base_feature: int, feature: int) -> list[dict]:
    """The inputs of the neuron at ``layer`` as a model file lists them:
    every earlier hidden output, the base feature, then its fresh feature."""
    return [
        *({"kind": "hidden", "index": k} for k in range(layer - 1)),
        {"kind": "feature", "index": base_feature},
        {"kind": "feature", "index": feature},
    ]


@dataclass
class GrowthConfig:
    """Growth policy wrapped around the single-neuron trainer config."""

    trainer: TrainConfig = field(default_factory=TrainConfig)
    max_failed_attempts: int | None = None
    restarts_per_candidate: int = 1

    def __post_init__(self) -> None:
        if self.restarts_per_candidate < 1:
            raise ConfigError(
                f"restarts_per_candidate must be >= 1, got {self.restarts_per_candidate}"
            )
        if self.max_failed_attempts is not None and self.max_failed_attempts < 1:
            raise ConfigError(
                f"max_failed_attempts must be >= 1 when set, got {self.max_failed_attempts}"
            )


@dataclass
class CascadeModel(Model):
    """A trained cascade: the base feature, the accepted neurons in layer
    order, and the normalization fitted on the training data."""

    base_feature: int
    neurons: list[CascadeNeuron]
    c0: float
    norm: NormParams
    feature_names: list[str]
    threshold: float = 0.5

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    def size(self) -> int:
        return len(self.neurons)

    def used_features(self) -> frozenset[int]:
        return frozenset({self.base_feature, *(n.feature for n in self.neurons)})

    def criterion_trace(self) -> tuple[float, ...]:
        return (self.c0, *(n.criterion for n in self.neurons))

    def hidden_outputs(self, xn: np.ndarray) -> np.ndarray:
        """Outputs of every neuron on normalized rows ``xn``, each neuron
        reading the rows ``assemble_candidate_inputs`` stacks for it, as in
        growth; column r is the output of the neuron at layer r+1."""
        xn = np.atleast_2d(np.asarray(xn, dtype=np.float64))
        z = np.empty((xn.shape[0], len(self.neurons)))
        for r, neuron in enumerate(self.neurons):
            u = assemble_candidate_inputs([*z[:, :r].T], xn, self.base_feature, neuron.feature)
            z[:, r] = neuron.output(u)
        return z

    def forward(self, xn: np.ndarray) -> np.ndarray:
        """Output-neuron probability for each normalized row."""
        if not self.neurons:
            raise DataError("model has no neurons")
        return self.hidden_outputs(xn)[:, -1]

    def predict_batch(self, x: np.ndarray, threshold: float | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Probabilities and classes for raw rows ``x`` (normalized internally)."""
        prob = self.forward(self.norm.apply(self.check_rows(x)))
        thr = self.threshold if threshold is None else threshold
        return prob, (prob >= thr).astype(np.int64)

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "base_feature": self.base_feature,
            "feature_names": list(self.feature_names),
            "norm": self.norm.to_dict(),
            "c0": float(self.c0),
            "neurons": [
                {
                    "layer": r,
                    "inputs": _wiring(r, self.base_feature, n.feature),
                    "bias": n.bias,
                    "weights": n.weights[:-1].tolist(),
                    "criterion": float(n.criterion),
                }
                for r, n in enumerate(self.neurons, start=1)
            ],
            "threshold": self.threshold,
        }

    @classmethod
    def _decode(cls, d: dict) -> "CascadeModel":
        names = list(d["feature_names"])
        base_feature = int(d["base_feature"])
        require(0 <= base_feature < len(names), f"base feature {base_feature} out of range")
        # the neuron at layer r is wired in the cascade pattern to a
        # feature in range, and has a weight for each of its r + 1 inputs
        neurons = []
        for r, nd in enumerate(d["neurons"], start=1):
            feature = int(nd["inputs"][-1]["index"])
            wired = nd["layer"] == r and nd["inputs"] == _wiring(r, base_feature, feature)
            require(wired and 0 <= feature < len(names), f"neuron {r} is not wired as cascade layer {r}")
            weights = np.asarray([*nd["weights"], nd["bias"]], dtype=np.float64)
            require(weights.shape == (r + 2,), f"neuron {r} needs {r + 1} weights and a bias")
            neurons.append(CascadeNeuron(feature, weights, float(nd["criterion"])))
        return cls(
            base_feature=base_feature,
            neurons=neurons,
            c0=float(d["c0"]),
            norm=NormParams.from_dict(d["norm"], len(names)),
            feature_names=names,
            threshold=float(d["threshold"]),
        )


def rank_features(d_a: Dataset, d_b: Dataset, cfg: GrowthConfig, seed: int) -> list[tuple[int, float]]:
    """Score every feature with a single-input neuron and order them.

    Each feature is fitted on part A and scored by its validation
    criterion on part B, every fit starting from an identical random init
    so the ranking is equivariant under column permutations. Returns
    (feature index, criterion) pairs sorted ascending by criterion, ties
    to the lower index. Features that carry no signal at all (all-zero
    columns, e.g. flagged constants) rank last with an infinite score.
    """
    ya = d_a.y.astype(np.float64)
    yb = d_b.y.astype(np.float64)
    scores: list[tuple[int, float]] = []
    for j in range(d_a.m):
        col_a = d_a.x[:, j][None, :]
        if not np.any(col_a):
            scores.append((j, math.inf))
            continue
        res = fit_neuron(
            col_a,
            ya,
            d_b.x[:, j][None, :],
            yb,
            cfg.trainer,
            derive_rng(seed, "rank"),
        )
        scores.append((j, res.criterion))
    return sorted(scores, key=lambda t: (t[1], t[0]))


def assemble_candidate_inputs(
    hidden: list[np.ndarray], xn: np.ndarray, base_feature: int, feature_j: int
) -> np.ndarray:
    """Input rows of the next layer's neuron, in growth and in prediction:
    ``hidden`` (the earlier neurons' outputs on ``xn``, in layer order),
    then the base feature, then feature ``feature_j``.

    ``xn`` holds normalized rows; the result has examples as columns, with
    no bias row (the trainer appends it).
    """
    return np.vstack([*hidden, xn[:, base_feature], xn[:, feature_j]])


def train(d: Dataset, cfg: GrowthConfig, seed: int) -> CascadeModel:
    """Grow a cascade classifier on dataset ``d``.

    The data is normalized, split once into fitting/validation parts, and
    features are ranked by single-input criterion. Starting from the
    second-ranked feature, candidates are fitted layer by layer; one is
    accepted only if its criterion strictly beats the previous layer's.
    Growth ends when the ranked list is exhausted (or after
    ``cfg.max_failed_attempts`` consecutive rejections, when configured).
    If nothing is ever accepted, the best rejected two-input candidate is
    kept so the model can still predict.
    """
    if d.m < 2:
        raise DataError(f"need at least 2 features, got {d.m}")

    dn, norm = fit_normalize(d)
    d_a, d_b = split(dn, cfg.trainer.split_fraction, derive_seed(seed, "split"))
    d_a.require_both_classes("fitting part")
    d_b.require_both_classes("validation part")

    ranking = rank_features(d_a, d_b, cfg, seed)
    base_feature, c0 = ranking[0]
    if not math.isfinite(c0):
        raise DataError("every feature is degenerate; nothing to train on")

    xa, ya = d_a.x, d_a.y.astype(np.float64)
    xb, yb = d_b.x, d_b.y.astype(np.float64)

    # an accepted neuron is frozen, so its outputs on parts A and B are
    # kept instead of recomputed for every later candidate
    neurons: list[CascadeNeuron] = []
    hidden_a: list[np.ndarray] = []
    hidden_b: list[np.ndarray] = []
    failures = 0
    fallback: CascadeNeuron | None = None
    for feature_j, score_j in ranking[1:]:
        if not math.isfinite(score_j):
            break  # degenerate features sort last; nothing usable remains
        layer = len(neurons) + 1
        u_a = assemble_candidate_inputs(hidden_a, xa, base_feature, feature_j)
        u_b = assemble_candidate_inputs(hidden_b, xb, base_feature, feature_j)
        fits = (
            fit_neuron(u_a, ya, u_b, yb, cfg.trainer, derive_rng(seed, "candidate", layer, feature_j, attempt))
            for attempt in range(cfg.restarts_per_candidate)
        )
        best = min(fits, key=lambda res: res.criterion)  # the first of equal criteria wins
        neuron = CascadeNeuron(feature_j, best.weights, best.criterion)
        if best.criterion < (neurons[-1].criterion if neurons else c0):
            neurons.append(neuron)
            hidden_a.append(neuron.output(u_a))
            hidden_b.append(neuron.output(u_b))
            failures = 0
        else:
            if not neurons and (fallback is None or best.criterion < fallback.criterion):
                fallback = neuron
            failures += 1
            if cfg.max_failed_attempts is not None and failures >= cfg.max_failed_attempts:
                break

    if not neurons:
        if fallback is None:
            raise DataError("no candidate neuron could be formed")
        neurons = [fallback]
    return CascadeModel(base_feature, neurons, c0, norm, list(d.feature_names))


def fit(d: Dataset, cfg: GrowthConfig, seed: int) -> tuple[CascadeModel, float, tuple[float, ...]]:
    """``train``'s model, its output neuron's validation criterion and the criterion trace."""
    model = train(d, cfg, seed)
    return model, model.neurons[-1].criterion, model.criterion_trace()
