"""Polynomial network evolved by elitist offspring selection.

The population starts with one linear single-input neuron per feature.
Each generation mates random pairs of population members into two-input
neurons with an interaction term, fitted by least squares on a random
subsample of the fitting data; an offspring survives only if its
validation accuracy strictly beats both parents. Evolution stops after a
run of generations that fail to improve the population's best, and the
best neuron (smallest ancestor subgraph on ties) becomes the output. The
population grows as arrays; the model is the output's ancestor subgraph.

A generation draws its pairs and subsamples from one random stream and
fits its offspring in blocks sized by its rows, each block in batched
4x4 normal-equation solves built from row sums (``fit_ls_batch``);
``fit_ls`` fits the seed neurons and every offspring whose system is too
close to singular for the normal equations. Neuron outputs are kept in
one array, a row per neuron: offspring read their parents' outputs on
their fitting subsample straight from it, are scored on the validation
rows first, and only the accepted ones are run on all the fitting rows.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dataset import Dataset, NormParams, fit_normalize, split
from .errors import ConfigError, DataError, NumericError
from .model import Model, json_array, json_value, require
from .util import derive_rng, derive_seed

# offspring per generation at most: a generation holds a few arrays of
# its offspring count, about 24 MB at this bound
_MAX_OFFSPRING = 10**6
# a generation draws a random key per offspring and fitting row, in
# equal blocks of offspring of about this many keys; no draw depends on it
_BLOCK_KEYS = 1 << 17
# bytes reserved for the output array; no byte of a model depends on it.
# It is above glibc's largest dynamic mmap threshold (32 MiB), so the
# array is mapped on its own and unmapped when freed, and freeing it does
# not raise the threshold that keeps later large temporaries off the heap
# (arrays of 31.5 MB left compare12's peak memory 1-5% higher). Pages are
# committed only as rows are written; 256 MiB holds the 5,349 neurons of
# 2,000 outputs that the largest measured population reached
_RESERVE_BYTES = 256 << 20
# a fit whose column-scaled normal equations have a smaller determinant
# goes to ``lstsq``: above it, the condition number of that 4x4 system,
# whose diagonal is all ones, is at most 4 * (4/3)**3 / 1e-8, about 1e9
_MIN_SCALED_DET = 1e-8


@dataclass
class GmdhConfig:
    offspring_per_generation: int | None = None  # None: ``offspring(m)``'s rule
    max_serial_failures: int = 3  # flat generations that end a run; 5 ran 45% longer, no better
    fit_subsample: float = 0.5

    def __post_init__(self) -> None:
        k = self.offspring_per_generation
        if k is not None and not 1 <= k <= _MAX_OFFSPRING:
            raise ConfigError(f"offspring_per_generation must be >= 1 and <= {_MAX_OFFSPRING}, got {k}")
        if self.max_serial_failures < 1:
            raise ConfigError("max_serial_failures must be >= 1")
        if not 0.0 < self.fit_subsample <= 1.0:
            raise ConfigError(f"fit_subsample must be in (0,1], got {self.fit_subsample}")

    def offspring(self, m: int) -> int:
        """Offspring per generation on ``m`` features: by default twice the
        number of ordered pairs of seed neurons, up to 500."""
        k = self.offspring_per_generation
        return min(500, 2 * m * (m - 1)) if k is None else k


@dataclass
class GmdhModel(Model):
    """Evolved network: the subgraph that feeds the output neuron, as
    parallel arrays with a row per neuron, each after those it reads, and
    the generation log of its run.

    Row s holds the neuron with id ``neurons[s]``: its inputs ``inputs[s]``,
    its polynomial ``coeffs[s]`` (``w0 + w1*u1 + w2*u2 + w3*u1*u2``) and its
    validation ``performance[s]``. An input below ``n_features`` is that
    feature, ``n_features + t`` is the neuron in row t, and -1 marks a
    missing second input: such a neuron, as every seed neuron is, reduces
    to ``w0 + w1*u1``. The last row is the output neuron.
    """

    neurons: np.ndarray  # (k,) ids
    inputs: np.ndarray  # (k, 2)
    coeffs: np.ndarray  # (k, 4)
    performance: np.ndarray  # (k,)
    generation_log: list[tuple[int, float, int]]  # (generation, best_performance, population_size)
    norm: NormParams
    n_features: int

    @property
    def output_id(self) -> int:
        return int(self.neurons[-1])

    @property
    def validation_performance(self) -> float:
        return float(self.performance[-1])

    def size(self) -> int:
        return len(self.neurons)

    def used_features(self) -> frozenset[int]:
        return frozenset(i for i in self.inputs.ravel().tolist() if 0 <= i < self.n_features)

    def forward(self, xn: np.ndarray) -> np.ndarray:
        """Raw polynomial score of the output neuron for normalized rows."""
        xn = np.atleast_2d(np.asarray(xn, dtype=np.float64))
        values = list(xn.T)
        for (a, b), coeffs in zip(self.inputs.tolist(), self.coeffs):
            values.append(poly_forward(coeffs, values[a], values[b] if b >= 0 else None))
        return values[-1]

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        ids = self.neurons.tolist()

        def source(i: int) -> dict | None:
            if i < 0:
                return None
            if i < self.n_features:
                return {"kind": "feature", "index": i}
            return {"kind": "neuron", "index": ids[i - self.n_features]}

        return {
            "neurons": [
                {
                    "id": nid,
                    "parent_a": source(a),
                    "parent_b": source(b),
                    "coeffs": coeffs,
                    "performance": perf,
                }
                for nid, (a, b), coeffs, perf in zip(
                    ids, self.inputs.tolist(), self.coeffs.tolist(), self.performance.tolist()
                )
            ],
            "output_id": self.output_id,
            "norm": self.norm.to_dict(),
            "n_features": self.n_features,
        }

    @classmethod
    def _decode(cls, d: dict) -> "GmdhModel":
        n_features = json_value(d["n_features"], int, "n_features")
        docs = d["neurons"]
        # ids are unique, and a neuron reads features in range and only the
        # neurons before it
        rows: dict[int, int] = {}
        inputs = []

        def source(nid: int, src: dict) -> int:
            index = json_value(src["index"], int, "parent index")
            if src["kind"] == "feature":
                require(0 <= index < n_features, f"neuron {nid} reads feature {index}")
                return index
            require(src["kind"] == "neuron" and index in rows, f"neuron {nid} reads {src['kind']} {index}")
            return n_features + rows[index]

        for nd in docs:
            nid = json_value(nd["id"], int, "neuron id")
            require(nid not in rows, f"neuron id {nid} repeats")
            b = nd["parent_b"]
            inputs.append((source(nid, nd["parent_a"]), -1 if b is None else source(nid, b)))
            rows[nid] = len(rows)
        coeffs = [json_array(nd["coeffs"], float, "coeffs") for nd in docs]
        require(all(c.shape == (4,) for c in coeffs), "coeffs must be 4-vectors")
        ids = list(rows)
        output_id = json_value(d["output_id"], int, "output_id")
        require(ids[-1:] == [output_id], f"output_id {output_id} is not the last neuron's id")
        return cls(
            neurons=np.array(ids, dtype=np.int64),
            inputs=np.array(inputs, dtype=np.int64).reshape(-1, 2),
            coeffs=np.array(coeffs),
            performance=np.array([json_value(nd["performance"], float, "performance") for nd in docs]),
            generation_log=[],
            norm=NormParams.from_dict(d["norm"], n_features),
            n_features=n_features,
        )


def poly_forward(coeffs: np.ndarray, u1, u2=None):
    """Evaluate ``w0 + w1*u1 + w2*u2 + w3*u1*u2`` (terms with u2 dropped
    when it is None). With (k, 4) ``coeffs``, the inputs' last axis has
    length k, and column r is scored by ``coeffs[r]``."""
    w0, w1, w2, w3 = np.asarray(coeffs, dtype=np.float64).T
    u1 = np.asarray(u1, dtype=np.float64)
    out = w0 + w1 * u1
    if u2 is not None:
        u2 = np.asarray(u2, dtype=np.float64)
        out = out + w2 * u2 + w3 * u1 * u2
    return out


def fit_ls(u1: np.ndarray, u2: np.ndarray | None, targets: np.ndarray) -> np.ndarray:
    """Least-squares coefficients over the basis (1, u1, u2, u1*u2), fitted
    on all the rows given. Collinear or otherwise rank-deficient systems
    get the minimum-norm solution. With ``u2`` None only (1, u1) is fitted
    and the other coefficients are zero.
    """
    basis = np.empty((len(targets), 2 if u2 is None else 4))
    basis[:, 0] = 1.0
    basis[:, 1] = u1
    if u2 is not None:
        basis[:, 2] = u2
        np.multiply(u1, u2, out=basis[:, 3])
    sol, *_ = np.linalg.lstsq(basis, targets, rcond=None)
    if not np.isfinite(sol).all():
        raise NumericError("least-squares fit produced non-finite coefficients")
    coeffs = np.zeros(4)
    coeffs[: len(sol)] = sol
    return coeffs


def _ancestor_ids(parents: np.ndarray, nid: int) -> list[int]:
    """Ids of neuron ``nid`` and of every neuron it reads, ascending, from
    the (N, 2) parent ids of a population (-1 for a seed neuron)."""
    seen, stack = {nid}, [nid]
    while stack:
        new = set(parents[stack.pop()].tolist()) - seen - {-1}
        seen |= new
        stack.extend(new)
    return sorted(seen)


def _forward_rows(w: np.ndarray, u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """``poly_forward`` of k two-input neurons at once, written over
    ``u1``: row r becomes the output of coefficients ``w[r]`` on inputs
    ``u1[r]`` and ``u2[r]``; ``u2`` is overwritten too. Every value comes
    from the operations ``poly_forward`` makes (``w0 + w1*u1``, then
    ``+ w2*u2 + w3*u1*u2``), so it has the same bits."""
    tmp = w[:, 3:4] * u1
    tmp *= u2
    u1 *= w[:, 1:2]
    u1 += w[:, 0:1]
    u2 *= w[:, 2:3]
    u1 += u2
    u1 += tmp
    return u1


def evolve(
    d_train: Dataset,
    d_valid: Dataset,
    cfg: GmdhConfig,
    seed: int,
    norm: NormParams,
) -> GmdhModel:
    """Run the evolutionary construction.

    ``d_train`` fits coefficients (through the configured subsampling);
    ``d_valid`` scores each neuron's classification performance at
    ``Model.threshold``, every family's class threshold, on the raw
    polynomial output. A generation is ``cfg.offspring(m)`` matings of
    distinct population members; offspring join the population only when
    they beat both parents, and the run ends after ``max_serial_failures``
    consecutive generations that leave the population best unchanged.
    ``norm`` is the normalization both parts were made with; the model
    applies it to the raw rows it scores.
    """
    d_train.require_both_classes("fitting part")
    d_valid.require_both_classes("validation part")
    coeffs, parents, performance, log = _grow_population(d_train, d_valid, cfg, seed)

    # best performance wins; ties go to the smallest ancestor subgraph,
    # then to the earliest-created neuron, which ends its own subgraph
    tied = np.flatnonzero(performance == performance.max()).tolist()
    selected = np.array(min((_ancestor_ids(parents, nid) for nid in tied), key=len))
    # an offspring reads the rows of its parents; seed neuron j reads feature j
    inputs = d_train.m + np.searchsorted(selected, parents[selected])
    seed = selected < d_train.m
    inputs[seed] = np.column_stack([selected[seed], np.full(seed.sum(), -1)])
    return GmdhModel(
        neurons=selected,
        inputs=inputs,
        coeffs=coeffs[selected],
        performance=performance[selected],
        generation_log=log,
        norm=norm,
        n_features=d_train.m,
    )


def fit(d: Dataset, cfg: GmdhConfig, seed: int) -> tuple[GmdhModel, float, tuple[float, ...]]:
    """``evolve`` on normalized ``d``, half fitting and half validating, with
    the offspring count resolved for d's width (a tracer of ``evolve`` reads
    it): the model, its validation error and each generation's best."""
    if d.m < 2:
        raise DataError(f"need at least 2 features, got {d.m}")
    dn, norm = fit_normalize(d)
    d_fit, d_valid = split(dn, 0.5, derive_seed(seed, "gmdh-split"))
    cfg = replace(cfg, offspring_per_generation=cfg.offspring(d.m))
    model = evolve(d_fit, d_valid, cfg, seed=seed, norm=norm)
    return model, 1.0 - model.validation_performance, tuple(best for _, best, _ in model.generation_log)


def fit_ls_batch(u1: np.ndarray, u2: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """``fit_ls`` of k two-input neurons at once, on all the rows given.

    Row r of the (k, 4) result fits the basis (1, u1[r], u2[r],
    u1[r]*u2[r]) to ``targets[r]`` (or to ``targets``, when it is one
    vector for all k). Each fit solves the 4x4 normal equations of the
    same basis over the centred inputs, which spans the same functions,
    built from row sums (``_normal_equations``), with its columns scaled
    to unit length, and maps the answer back. A fit whose scaled system
    is singular or nearly so (determinant below ``_MIN_SCALED_DET``) is
    left to ``fit_ls``, whose ``lstsq`` gives the minimum-norm answer.
    """
    k = len(u1)
    m1 = u1.mean(axis=1)
    m2 = u2.mean(axis=1)
    gram, rhs = _normal_equations(u1 - m1[:, None], u2 - m2[:, None], targets)
    if not (np.isfinite(gram).all() and np.isfinite(rhs).all()):
        raise NumericError("least-squares fit produced non-finite coefficients")
    scale = np.sqrt(np.diagonal(gram, axis1=1, axis2=2))
    with np.errstate(divide="ignore", invalid="ignore"):
        gram /= scale[:, :, None]
        gram /= scale[:, None, :]
        # NaN where a column is all zeros, which fails the test as well
        direct = np.linalg.det(gram) >= _MIN_SCALED_DET
    w = np.linalg.solve(gram[direct], (rhs[direct] / scale[direct])[..., None])[..., 0] / scale[direct]
    w0, w1, w2, w3 = w.T
    m1, m2 = m1[direct], m2[direct]
    coeffs = np.empty((k, 4))
    coeffs[direct] = np.stack([w0 - w1 * m1 - w2 * m2 + w3 * m1 * m2, w1 - w3 * m2, w2 - w3 * m1, w3], axis=1)
    for r in np.flatnonzero(~direct).tolist():
        coeffs[r] = fit_ls(u1[r], u2[r], targets if targets.ndim == 1 else targets[r])
    return coeffs


def _normal_equations(c1: np.ndarray, c2: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (k, 4, 4) matrices ``basis @ basis.T`` and (k, 4) vectors
    ``basis @ targets`` of the k bases (1, c1[r], c2[r], c1[r]*c2[r]), from
    batched row sums: one per distinct entry, with no (k, 4, rows) basis."""
    k, count = c1.shape
    c12 = c1 * c2
    t = np.broadcast_to(targets, c1.shape)

    def dot(a, b):
        return np.einsum("kr,kr->k", a, b)

    s1, s2, s12 = c1.sum(axis=1), c2.sum(axis=1), c12.sum(axis=1)
    s112, s122 = dot(c12, c1), dot(c12, c2)
    gram = np.stack([
        np.full(k, float(count)), s1, s2, s12,
        s1, dot(c1, c1), s12, s112,
        s2, s12, dot(c2, c2), s122,
        s12, s112, s122, dot(c12, c12),
    ], axis=1).reshape(k, 4, 4)
    rhs = np.stack([t.sum(axis=1), dot(c1, t), dot(c2, t), dot(c12, t)], axis=1)
    return gram, rhs


def _block_size(k: int, q: int) -> int:
    """Offspring per block of a generation of ``k`` offspring on ``q``
    fitting rows: its k·q random keys make ceil(k·q / ``_BLOCK_KEYS``)
    blocks of equal size, the last one smaller if they do not divide k."""
    blocks = -(-k * q // _BLOCK_KEYS)
    return -(-k // blocks)


def _with_room(a: np.ndarray, used: int, extra: int) -> np.ndarray:
    """``a`` if it has room for ``extra`` rows after its first ``used``,
    else a copy of those rows in an array at least twice as tall."""
    if used + extra <= len(a):
        return a
    grown = np.empty((max(used + extra, 2 * len(a)), *a.shape[1:]), a.dtype)
    grown[:used] = a[:used]
    return grown


def _grow_population(
    d_train: Dataset, d_valid: Dataset, cfg: GmdhConfig, base_seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[tuple[int, float, int]]]:
    """Every neuron the run creates, in creation order (ids are row
    numbers): its (N, 4) coefficients, its (N, 2) parent ids (-1 for the
    seed neurons; seed neuron j reads feature j), its (N,) validation
    performance, and the generation log.

    Every fit sees ``count`` fitting rows, gathered by row number: the
    ``fit_subsample`` share, drawn afresh per fit, or all of them in order,
    drawing nothing, at 1. Seed neuron j draws its rows from
    ``derive_rng(base, "seed-fit", j)``.
    Generation g draws from one stream, ``derive_rng(base, "generation",
    g)``: first the K ordered pairs of distinct parents, ``i`` uniform and
    ``(i + U{1..P-1}) mod P``, then one row of random keys per offspring,
    whose ``count`` smallest pick its rows. The offspring are fitted
    (``fit_ls_batch``), scored and accepted a block at a time. A block
    holds about ``_BLOCK_KEYS`` keys (``_block_size``), which bounds the
    working memory: a narrow generation is one block, and a wide one on
    many rows is cut into equal blocks. The keys are drawn block by block
    in offspring order, so the block size does not change any draw.

    The population is four arrays with a row per id: the outputs on the
    fitting rows and then on the validation rows, the coefficients, the
    parent ids and the performance. A block writes its accepted offspring
    into their next rows, and an array out of rows is copied into one at
    least twice as tall; only the outputs' array is reserved, at
    ``_RESERVE_BYTES``. A block gathers only its parents' outputs on the
    fitting rows it fits on and on the validation rows, and runs an
    offspring on all the fitting rows only once it is accepted. Every value
    is computed as ``poly_forward`` would, so no growth changes any byte.
    """
    yt = d_train.y.astype(np.float64)
    yv_true = d_valid.y == 1
    q, size = d_train.n, d_train.m
    count = q if cfg.fit_subsample >= 1.0 else int(round(cfg.fit_subsample * q))
    if count < 4:
        raise DataError(f"subsample of {count} rows is too small; need at least 4")
    every_row = np.arange(q)
    x = np.concatenate([d_train.x, d_valid.x])
    fit_cols, valid_cols = slice(0, q), slice(q, None)
    width = len(x)
    coeffs = np.empty((size, 4))
    for j in range(size):
        rows = every_row if count == q else derive_rng(base_seed, "seed-fit", j).choice(q, count, replace=False)
        coeffs[j] = fit_ls(d_train.x[rows, j], None, yt[rows])
    parents = np.full((size, 2), -1)
    outs = np.empty((max(size, _RESERVE_BYTES // (8 * width)), width))
    outs[:size] = poly_forward(coeffs, x).T
    performance = np.count_nonzero((outs[:size, valid_cols] >= Model.threshold) == yv_true, axis=1) / len(yv_true)

    k = cfg.offspring(d_train.m)
    block = _block_size(k, q)
    best_perf = float(performance.max())
    log = [(0, best_perf, size)]
    failures = 0
    generation = 0
    while failures < cfg.max_serial_failures:
        generation += 1
        rng = derive_rng(base_seed, "generation", generation)
        first = rng.integers(size, size=k)
        second = (first + rng.integers(1, size, size=k)) % size
        beaten = np.maximum(performance[first], performance[second])
        born = size
        for start in range(0, k, block):
            pairs = np.stack([first[start : start + block], second[start : start + block]])
            if count == q:
                rows = every_row
            else:
                rows = np.argpartition(rng.random((pairs.shape[1], q)), count - 1, axis=1)[:, :count]
            u1, u2 = outs.take((pairs * width)[..., None] + rows)
            w = fit_ls_batch(u1, u2, yt.take(rows))
            out_valid = _forward_rows(w, *outs[pairs, valid_cols])
            perf = np.count_nonzero((out_valid >= Model.threshold) == yv_true, axis=1) / len(yv_true)
            t = np.flatnonzero(perf > beaten[start : start + block])
            if t.size:
                new = slice(size, size + t.size)
                outs, coeffs, parents, performance = (
                    _with_room(a, size, t.size) for a in (outs, coeffs, parents, performance)
                )
                outs[new, fit_cols] = _forward_rows(w[t], *outs[pairs[:, t], fit_cols])
                outs[new, valid_cols] = out_valid[t]
                coeffs[new] = w[t]
                parents[new] = pairs[:, t].T
                performance[new] = perf[t]
                size += t.size

        generation_best = float(performance[born:size].max(initial=-np.inf))
        failures = 0 if generation_best > best_perf else failures + 1
        best_perf = max(best_perf, generation_best)
        log.append((generation, best_perf, size))
    return coeffs[:size], parents[:size], performance[:size], log
