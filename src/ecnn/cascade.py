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
from .model import FORMAT_VERSION, Model, require
from .projection import FitResult, TrainConfig, fit_neuron, sigmoid
from .util import derive_rng, derive_seed


@dataclass(frozen=True)
class InputSource:
    """One input of a cascade neuron: a raw feature column or the output
    of an earlier hidden neuron."""

    kind: str  # "feature" or "hidden"
    index: int

    def __post_init__(self) -> None:
        if self.kind not in ("feature", "hidden"):
            raise ValueError(f"unknown input kind {self.kind!r}")

    @classmethod
    def feature(cls, j: int) -> "InputSource":
        return cls("feature", int(j))

    @classmethod
    def hidden(cls, layer_index: int) -> "InputSource":
        return cls("hidden", int(layer_index))

    def to_dict(self) -> dict:
        return {"kind": self.kind, "index": self.index}

    @classmethod
    def from_dict(cls, d: dict) -> "InputSource":
        return cls(d["kind"], int(d["index"]))


@dataclass
class CascadeNeuron:
    """An accepted neuron: its layer, input wiring, weights (bias last),
    and the validation criterion it achieved."""

    layer: int
    inputs: tuple[InputSource, ...]
    weights: np.ndarray
    criterion: float

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.shape != (len(self.inputs) + 1,):
            raise ValueError(
                f"{len(self.inputs)} inputs need {len(self.inputs) + 1} weights "
                f"(bias last), got {self.weights.shape}"
            )

    @property
    def bias(self) -> float:
        return float(self.weights[-1])


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

    def to_dict(self) -> dict:
        return {
            "trainer": self.trainer.to_dict(),
            "max_failed_attempts": self.max_failed_attempts,
            "restarts_per_candidate": self.restarts_per_candidate,
        }


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
        used = set()
        for neuron in self.neurons:
            for src in neuron.inputs:
                if src.kind == "feature":
                    used.add(src.index)
        return frozenset(used)

    def criterion_trace(self) -> tuple[float, ...]:
        return (self.c0, *(n.criterion for n in self.neurons))

    def hidden_outputs(self, xn: np.ndarray) -> np.ndarray:
        """Outputs of every neuron on normalized rows ``xn``; column r is
        the output of the neuron at layer r+1."""
        xn = np.atleast_2d(np.asarray(xn, dtype=np.float64))
        z = np.empty((xn.shape[0], len(self.neurons)))
        for r, neuron in enumerate(self.neurons):
            rows = []
            for src in neuron.inputs:
                if src.kind == "feature":
                    rows.append(xn[:, src.index])
                else:
                    rows.append(z[:, src.index])
            u = np.vstack(rows) if rows else np.zeros((0, xn.shape[0]))
            z[:, r] = sigmoid(neuron.weights[:-1] @ u + neuron.bias)
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
            "format_version": FORMAT_VERSION,
            "base_feature": self.base_feature,
            "feature_names": list(self.feature_names),
            "norm": self.norm.to_dict(),
            "c0": float(self.c0),
            "neurons": [
                {
                    "layer": n.layer,
                    "inputs": [s.to_dict() for s in n.inputs],
                    "bias": n.bias,
                    "weights": n.weights[:-1].tolist(),
                    "criterion": float(n.criterion),
                }
                for n in self.neurons
            ],
            "threshold": self.threshold,
        }

    @classmethod
    def _decode(cls, d: dict) -> "CascadeModel":
        names = list(d["feature_names"])
        neurons = [
            CascadeNeuron(
                layer=int(nd["layer"]),
                inputs=tuple(InputSource.from_dict(sd) for sd in nd["inputs"]),
                weights=np.asarray([*nd["weights"], nd["bias"]], dtype=np.float64),
                criterion=float(nd["criterion"]),
            )
            for nd in d["neurons"]
        ]
        # a neuron reads features in range and only the neurons before it
        for r, neuron in enumerate(neurons):
            for src in neuron.inputs:
                limit = len(names) if src.kind == "feature" else r
                require(0 <= src.index < limit, f"neuron {r + 1} reads {src.kind} {src.index}")
        base_feature = int(d["base_feature"])
        require(0 <= base_feature < len(names), f"base feature {base_feature} out of range")
        return cls(
            base_feature=base_feature,
            neurons=neurons,
            c0=float(d["c0"]),
            norm=NormParams.from_dict(d["norm"], len(names)),
            feature_names=names,
            threshold=float(d["threshold"]),
        )


def rank_features(
    d_a: Dataset, d_b: Dataset, cfg: GrowthConfig, seed: int | None = None
) -> list[tuple[int, float]]:
    """Score every feature with a single-input neuron and order them.

    Each feature is fitted on part A and scored by its validation
    criterion on part B, every fit starting from an identical random init
    so the ranking is equivariant under column permutations. Returns
    (feature index, criterion) pairs sorted ascending by criterion, ties
    to the lower index. Features that carry no signal at all (all-zero
    columns, e.g. flagged constants) rank last with an infinite score.
    """
    if d_a.n == 0 or d_b.n == 0:
        raise DataError("both split parts must be non-empty")
    base_seed = cfg.trainer.seed if seed is None else seed
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
            derive_rng(base_seed, "rank"),
        )
        scores.append((j, res.criterion))
    return sorted(scores, key=lambda t: (t[1], t[0]))


def assemble_candidate_inputs(model: CascadeModel, feature_j: int, xn: np.ndarray) -> np.ndarray:
    """Input matrix for a candidate at the next layer: one row per earlier
    hidden output, then the base feature, then feature ``feature_j``.

    ``xn`` holds normalized rows; the result has examples as columns, with
    no bias row (the trainer appends it).
    """
    xn = np.atleast_2d(np.asarray(xn, dtype=np.float64))
    if feature_j == model.base_feature or feature_j in model.used_features():
        raise ValueError(f"feature {feature_j} is already wired into the model")
    z = model.hidden_outputs(xn) if model.neurons else np.zeros((xn.shape[0], 0))
    rows = [z[:, r] for r in range(z.shape[1])]
    rows.append(xn[:, model.base_feature])
    rows.append(xn[:, feature_j])
    return np.vstack(rows)


def _candidate_wiring(n_hidden: int, base_feature: int, feature_j: int) -> tuple[InputSource, ...]:
    return (
        *(InputSource.hidden(r) for r in range(n_hidden)),
        InputSource.feature(base_feature),
        InputSource.feature(feature_j),
    )


def train(d: Dataset, cfg: GrowthConfig, seed: int | None = None) -> CascadeModel:
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
    base_seed = cfg.trainer.seed if seed is None else seed

    dn, norm = fit_normalize(d)
    pair = split(dn, cfg.trainer.split_fraction, derive_seed(base_seed, "split"))
    d_a = dn.subset(pair.a_indices)
    d_b = dn.subset(pair.b_indices)
    for part, label in ((d_a, "fitting"), (d_b, "validation")):
        c0_count, c1_count = part.class_counts()
        if c0_count == 0 or c1_count == 0:
            raise DataError(f"{label} part contains a single class; cannot train")

    ranking = rank_features(d_a, d_b, cfg, base_seed)
    base_feature, c0 = ranking[0]
    if not math.isfinite(c0):
        raise DataError("every feature is degenerate; nothing to train on")

    model = CascadeModel(
        base_feature=base_feature,
        neurons=[],
        c0=c0,
        norm=norm,
        feature_names=list(d.feature_names),
    )
    xa, ya = d_a.x, d_a.y.astype(np.float64)
    xb, yb = d_b.x, d_b.y.astype(np.float64)

    prev_criterion = c0
    failures = 0
    fallback: tuple[float, CascadeNeuron] | None = None
    for feature_j, score_j in ranking[1:]:
        if not math.isfinite(score_j):
            break  # degenerate features sort last; nothing usable remains
        layer = len(model.neurons) + 1
        u_a = assemble_candidate_inputs(model, feature_j, xa)
        u_b = assemble_candidate_inputs(model, feature_j, xb)
        best: FitResult | None = None
        for attempt in range(cfg.restarts_per_candidate):
            rng = derive_rng(base_seed, "candidate", layer, feature_j, attempt)
            res = fit_neuron(u_a, ya, u_b, yb, cfg.trainer, rng)
            if best is None or res.criterion < best.criterion:
                best = res
        neuron = CascadeNeuron(
            layer=layer,
            inputs=_candidate_wiring(layer - 1, base_feature, feature_j),
            weights=best.weights,
            criterion=best.criterion,
        )
        if best.criterion < prev_criterion:
            model.neurons.append(neuron)
            prev_criterion = best.criterion
            failures = 0
        else:
            if not model.neurons and (fallback is None or best.criterion < fallback[0]):
                fallback = (best.criterion, neuron)
            failures += 1
            if cfg.max_failed_attempts is not None and failures >= cfg.max_failed_attempts:
                break

    if not model.neurons:
        if fallback is None:
            raise DataError("no candidate neuron could be formed")
        model.neurons.append(fallback[1])
    return model
