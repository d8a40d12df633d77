"""Polynomial network evolved by elitist offspring selection.

The population starts with one linear single-input neuron per feature.
Each generation mates random pairs of population members into two-input
neurons with an interaction term, fitted by least squares on a random
subsample of the fitting data; an offspring survives only if its
validation accuracy strictly beats both parents. Evolution stops after a
run of generations that fail to improve the population's best, and the
best neuron (smallest ancestor subgraph on ties) becomes the output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, NormParams
from .errors import ConfigError, DataError, NumericError
from .model import FORMAT_VERSION, Model, require
from .util import derive_rng


@dataclass(frozen=True)
class Source:
    """Input of a polynomial neuron: a raw feature or an earlier neuron."""

    kind: str  # "feature" or "neuron"
    index: int

    def __post_init__(self) -> None:
        if self.kind not in ("feature", "neuron"):
            raise ValueError(f"unknown source kind {self.kind!r}")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "index": self.index}

    @classmethod
    def from_dict(cls, d: dict) -> "Source":
        return cls(d["kind"], int(d["index"]))


@dataclass
class PolyNeuron:
    """Two-input polynomial unit ``w0 + w1*u1 + w2*u2 + w3*u1*u2``.

    Seed neurons have ``parent_b`` of None and reduce to ``w0 + w1*u1``.
    Parents always precede the neuron in creation order, so id order is a
    topological order.
    """

    id: int
    parent_a: Source
    parent_b: Source | None
    coeffs: np.ndarray
    performance: float

    def __post_init__(self) -> None:
        self.coeffs = np.asarray(self.coeffs, dtype=np.float64)
        if self.coeffs.shape != (4,):
            raise ValueError(f"coeffs must be a 4-vector, got {self.coeffs.shape}")


@dataclass
class GmdhConfig:
    offspring_per_generation: int = 500
    max_serial_failures: int = 5
    fit_subsample: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.offspring_per_generation < 1:
            raise ConfigError("offspring_per_generation must be >= 1")
        if self.max_serial_failures < 1:
            raise ConfigError("max_serial_failures must be >= 1")
        if not 0.0 < self.fit_subsample <= 1.0:
            raise ConfigError(f"fit_subsample must be in (0,1], got {self.fit_subsample}")

    def to_dict(self) -> dict:
        return {
            "offspring_per_generation": self.offspring_per_generation,
            "max_serial_failures": self.max_serial_failures,
            "fit_subsample": self.fit_subsample,
            "seed": self.seed,
        }


@dataclass
class GmdhModel(Model):
    """Evolved network: full creation log plus the minimal subgraph that
    feeds the output neuron."""

    neurons: list[PolyNeuron]
    output_id: int
    selected_ids: list[int]
    generation_log: list[tuple[int, float, int]]  # (generation, best_performance, population_size)
    norm: NormParams
    n_features: int

    @property
    def validation_performance(self) -> float:
        return self._by_id(self.output_id).performance

    def _by_id(self, neuron_id: int) -> PolyNeuron:
        for n in self.neurons:
            if n.id == neuron_id:
                return n
        raise KeyError(f"no neuron with id {neuron_id}")

    def size(self) -> int:
        return len(self.selected_ids)

    def used_features(self) -> frozenset[int]:
        feats = set()
        for nid in self.selected_ids:
            n = self._by_id(nid)
            for src in (n.parent_a, n.parent_b):
                if src is not None and src.kind == "feature":
                    feats.add(src.index)
        return frozenset(feats)

    def forward(self, xn: np.ndarray) -> np.ndarray:
        """Raw polynomial score of the output neuron for normalized rows."""
        xn = np.atleast_2d(np.asarray(xn, dtype=np.float64))
        values: dict[int, np.ndarray] = {}

        def resolve(src: Source) -> np.ndarray:
            if src.kind == "feature":
                return xn[:, src.index]
            return values[src.index]

        for nid in self.selected_ids:
            n = self._by_id(nid)
            u1 = resolve(n.parent_a)
            u2 = resolve(n.parent_b) if n.parent_b is not None else None
            values[nid] = poly_forward(n.coeffs, u1, u2)
        return values[self.output_id]

    def predict_batch(self, x: np.ndarray, threshold: float | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Raw scores and classes (score at or above ``threshold``, default
        0.5) for raw rows ``x``."""
        score = self.forward(self.norm.apply(self.check_rows(x)))
        return score, (score >= (0.5 if threshold is None else threshold)).astype(np.int64)

    # -- serialization: the selected subgraph is the model -----------------

    def to_json_dict(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "neurons": [
                {
                    "id": n.id,
                    "parent_a": n.parent_a.to_dict(),
                    "parent_b": None if n.parent_b is None else n.parent_b.to_dict(),
                    "coeffs": n.coeffs.tolist(),
                    "performance": float(n.performance),
                }
                for n in (self._by_id(nid) for nid in self.selected_ids)
            ],
            "output_id": self.output_id,
            "norm": self.norm.to_dict(),
            "n_features": self.n_features,
        }

    @classmethod
    def _decode(cls, d: dict) -> "GmdhModel":
        n_features = int(d["n_features"])
        neurons = [
            PolyNeuron(
                id=int(nd["id"]),
                parent_a=Source.from_dict(nd["parent_a"]),
                parent_b=None if nd["parent_b"] is None else Source.from_dict(nd["parent_b"]),
                coeffs=np.asarray(nd["coeffs"], dtype=np.float64),
                performance=float(nd["performance"]),
            )
            for nd in d["neurons"]
        ]
        # a neuron reads features in range and only the neurons before it
        ids: set[int] = set()
        for n in neurons:
            for src in (n.parent_a, n.parent_b):
                if src is not None:
                    ok = 0 <= src.index < n_features if src.kind == "feature" else src.index in ids
                    require(ok, f"neuron {n.id} reads {src.kind} {src.index}")
            ids.add(n.id)
        output_id = int(d["output_id"])
        require(output_id in ids, f"output_id {output_id} names no neuron")
        return cls(
            neurons=neurons,
            output_id=output_id,
            selected_ids=[n.id for n in neurons],
            generation_log=[],
            norm=NormParams.from_dict(d["norm"], n_features),
            n_features=n_features,
        )


def poly_forward(coeffs: np.ndarray, u1, u2=None):
    """Evaluate ``w0 + w1*u1 + w2*u2 + w3*u1*u2`` (terms with u2 dropped
    when it is None)."""
    w0, w1, w2, w3 = np.asarray(coeffs, dtype=np.float64)
    u1 = np.asarray(u1, dtype=np.float64)
    out = w0 + w1 * u1
    if u2 is not None:
        u2 = np.asarray(u2, dtype=np.float64)
        out = out + w2 * u2 + w3 * u1 * u2
    if np.ndim(out) == 0:
        return float(out)
    return out


def fit_ls(
    u1: np.ndarray,
    u2: np.ndarray | None,
    targets: np.ndarray,
    subsample: float,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Least-squares coefficients over the basis (1, u1, u2, u1*u2).

    A random subsample of the stated fraction of rows is used for the fit
    (all rows when ``subsample`` is 1, consuming no randomness). Collinear
    or otherwise rank-deficient systems get the minimum-norm solution.
    With ``u2`` None only (1, u1) is fitted and the other coefficients are
    zero.
    """
    if not 0.0 < subsample <= 1.0:
        raise ConfigError(f"subsample must be in (0,1], got {subsample}")
    u1 = np.asarray(u1, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    q = len(targets)
    if u1.shape != (q,):
        raise ValueError("u1 length does not match targets")
    if u2 is not None:
        u2 = np.asarray(u2, dtype=np.float64)
        if u2.shape != (q,):
            raise ValueError("u2 length does not match targets")

    count = q if subsample >= 1.0 else int(round(subsample * q))
    if count < 4:
        raise DataError(f"subsample of {count} rows is too small; need at least 4")
    if count < q:
        if rng is None:
            raise ValueError("rng is required when subsampling")
        idx = rng.choice(q, size=count, replace=False)
        u1s, ts = u1[idx], targets[idx]
        u2s = None if u2 is None else u2[idx]
    else:
        u1s, u2s, ts = u1, u2, targets

    if u2s is None:
        basis = np.column_stack([np.ones(count), u1s])
    else:
        basis = np.column_stack([np.ones(count), u1s, u2s, u1s * u2s])
    sol, *_ = np.linalg.lstsq(basis, ts, rcond=None)
    if not np.all(np.isfinite(sol)):
        raise NumericError("least-squares fit produced non-finite coefficients")
    coeffs = np.zeros(4)
    coeffs[: len(sol)] = sol
    return coeffs


def _accuracy(scores: np.ndarray, y: np.ndarray, threshold: float = 0.5) -> float:
    return float(np.mean((scores >= threshold).astype(np.int64) == y))


def _ancestor_ids(neurons: list[PolyNeuron], root_id: int) -> list[int]:
    by_id = {n.id: n for n in neurons}
    seen: set[int] = set()
    stack = [root_id]
    while stack:
        nid = stack.pop()
        if nid in seen:
            continue
        seen.add(nid)
        n = by_id[nid]
        for src in (n.parent_a, n.parent_b):
            if src is not None and src.kind == "neuron":
                stack.append(src.index)
    return sorted(seen)


def evolve(
    d_train: Dataset,
    d_valid: Dataset,
    cfg: GmdhConfig,
    seed: int | None = None,
    norm: NormParams | None = None,
) -> GmdhModel:
    """Run the evolutionary construction.

    ``d_train`` fits coefficients (through the configured subsampling);
    ``d_valid`` scores each neuron's classification performance at
    threshold 0.5 on the raw polynomial output. A generation is a batch of
    ``offspring_per_generation`` matings of distinct population members;
    offspring join the population only when they beat both parents, and
    the run ends after ``max_serial_failures`` consecutive generations
    that leave the population best unchanged.
    """
    base_seed = cfg.seed if seed is None else seed
    if d_train.m != d_valid.m:
        raise ValueError("train and validation parts disagree on feature count")
    for part, label in ((d_train, "fitting"), (d_valid, "validation")):
        c0_count, c1_count = part.class_counts()
        if c0_count == 0 or c1_count == 0:
            raise DataError(f"{label} part contains a single class")

    m = d_train.m
    yt = d_train.y.astype(np.float64)
    yv = d_valid.y

    neurons: list[PolyNeuron] = []
    out_train: list[np.ndarray] = []
    out_valid: list[np.ndarray] = []
    for j in range(m):
        coeffs = fit_ls(
            d_train.x[:, j], None, yt, cfg.fit_subsample, derive_rng(base_seed, "seed-fit", j)
        )
        ot = poly_forward(coeffs, d_train.x[:, j])
        ov = poly_forward(coeffs, d_valid.x[:, j])
        perf = _accuracy(ov, yv)
        neurons.append(PolyNeuron(j, Source("feature", j), None, coeffs, perf))
        out_train.append(ot)
        out_valid.append(ov)

    best_perf = max(n.performance for n in neurons)
    log: list[tuple[int, float, int]] = [(0, best_perf, len(neurons))]
    failures = 0
    generation = 0
    while failures < cfg.max_serial_failures:
        generation += 1
        pair_rng = derive_rng(base_seed, "pairs", generation)
        pool_size = len(neurons)
        pairs = [
            pair_rng.choice(pool_size, size=2, replace=False)
            for _ in range(cfg.offspring_per_generation)
        ]
        accepted: list[tuple[np.ndarray, int, int, float, np.ndarray, np.ndarray]] = []
        for t, (i, j) in enumerate(pairs):
            i, j = int(i), int(j)
            coeffs = fit_ls(
                out_train[i],
                out_train[j],
                yt,
                cfg.fit_subsample,
                derive_rng(base_seed, "offspring", generation, t),
            )
            ov = poly_forward(coeffs, out_valid[i], out_valid[j])
            perf = _accuracy(ov, yv)
            if perf > max(neurons[i].performance, neurons[j].performance):
                ot = poly_forward(coeffs, out_train[i], out_train[j])
                accepted.append((coeffs, i, j, perf, ot, ov))
        for coeffs, i, j, perf, ot, ov in accepted:
            nid = len(neurons)
            neurons.append(
                PolyNeuron(nid, Source("neuron", neurons[i].id), Source("neuron", neurons[j].id), coeffs, perf)
            )
            out_train.append(ot)
            out_valid.append(ov)
        generation_best = max((a[3] for a in accepted), default=-np.inf)
        if generation_best > best_perf:
            best_perf = generation_best
            failures = 0
        else:
            failures += 1
        log.append((generation, best_perf, len(neurons)))

    # best performance wins; ties go to the smallest ancestor subgraph,
    # then to the earliest-created neuron
    def selection_key(n: PolyNeuron) -> tuple[float, int, int]:
        return (-n.performance, len(_ancestor_ids(neurons, n.id)), n.id)

    output = min(neurons, key=selection_key)
    selected = _ancestor_ids(neurons, output.id)
    return GmdhModel(
        neurons=neurons,
        output_id=output.id,
        selected_ids=selected,
        generation_log=log,
        norm=norm if norm is not None else NormParams.identity(m),
        n_features=m,
    )
