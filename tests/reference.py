"""Plain reference forms that only the tests use: a neuron's output and
residuals written from their definitions, one projection update as its
formula reads, the bias row a fit appends, the parts of a fitted weight
vector, the identity normalization and the inverse of a normalization,
the labels of a synthetic task's generating rule and its ``truth.json``
read back, the cascade's feature ranking with one ``fit_neuron`` per
feature, a cascade candidate's inputs found by running the whole
cascade, a GMDH neuron's ancestors found by walking its parent links, the
information gain of one split, one threshold draw of the tree, the tree's
split search one feature at a time, the tree grown by recursion, one row
routed down the tree node by node, the cross-validation summary
recomputed from its folds, and the report tables joined by hand, with a
CSV line writer of their own."""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np

from ecnn.dataset import NormParams, SynthTruth
from ecnn.dtree import Leaf, Split, _entropy_per_split, entropy
from ecnn.errors import DataError, NumericError
from ecnn.projection import fit_neuron, sigmoid
from ecnn.util import derive_rng


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


def projection_step(w: np.ndarray, inputs: np.ndarray, errors: np.ndarray, chi: float) -> np.ndarray:
    """One weight update: ``w - chi * inputs @ errors / ||inputs||_F^2``.

    ``inputs`` is the (p, q) matrix of fitting examples as columns (with a
    constant-1 row already appended if a bias is being fit). The Frobenius
    norm of the whole matrix scales the step.
    """
    w = np.asarray(w, dtype=np.float64)
    inputs = np.asarray(inputs, dtype=np.float64)
    errors = np.asarray(errors, dtype=np.float64)
    if inputs.ndim != 2 or w.shape != (inputs.shape[0],) or errors.shape != (inputs.shape[1],):
        raise ValueError(
            f"shape mismatch: weights {w.shape}, inputs {inputs.shape}, errors {errors.shape}"
        )
    norm_sq = float(np.sum(inputs * inputs))
    if norm_sq == 0.0:
        raise NumericError("projection step undefined for an all-zero input matrix")
    return w - (chi / norm_sq) * (inputs @ errors)


def naive_projection_step(w, inputs, errors, chi) -> np.ndarray:
    """``projection_step`` element by element, as a double loop over the
    update formula."""
    p, q = inputs.shape
    fro = 0.0
    for i in range(p):
        for t in range(q):
            fro += inputs[i][t] * inputs[i][t]
    out = [float(v) for v in w]
    for i in range(p):
        acc = 0.0
        for t in range(q):
            acc += inputs[i][t] * errors[t]
        out[i] -= chi * acc / fro
    return np.asarray(out)


def augment_bias(inputs: np.ndarray) -> np.ndarray:
    """Append a constant-1 row so the bias trains like any other weight."""
    inputs = np.asarray(inputs, dtype=np.float64)
    return np.vstack([inputs, np.ones((1, inputs.shape[1]))])


def input_weights(fit) -> np.ndarray:
    """The input weights of a ``FitResult``: all but the last component."""
    return fit.weights[:-1]


def bias(fit) -> float:
    """The bias of a ``FitResult``: the last weight component."""
    return float(fit.weights[-1])


def identity_norm(m: int) -> NormParams:
    """The normalization of ``m`` columns that changes no value."""
    return NormParams(np.zeros(m), np.ones(m), np.zeros(m, dtype=bool))


def invert(params, xn: np.ndarray) -> np.ndarray:
    """Raw values back from values normalized by ``NormParams`` ``params``."""
    return np.asarray(xn, dtype=np.float64) * params.std + params.mean


def truth_labels(truth: SynthTruth, x: np.ndarray) -> np.ndarray:
    """Labels the generating rule of ``truth`` itself assigns to the rows
    ``x``: 1 iff the linear score puts the sigmoid at or above 0.5, i.e.
    iff the score is >= 0."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    return (x[:, truth.relevant] @ np.asarray(truth.coefficients) >= 0.0).astype(np.int64)


def read_truth(path: str | Path) -> SynthTruth:
    """The ``SynthTruth`` a ``truth.json`` file holds."""
    d = json.loads(Path(path).read_text(encoding="utf-8"))
    return SynthTruth(
        [int(j) for j in d["relevant"]],
        [float(c) for c in d["coefficients"]],
        int(d["seed"]),
        int(d["flip_count"]),
    )


def ranking_by_fit_neuron(d_a, d_b, cfg, seed: int) -> list[tuple[int, float]]:
    """``cascade.rank_features`` one ``fit_neuron`` per feature: each
    nonzero column of part A is fitted alone from a fresh
    ``derive_rng(seed, "rank")``, an all-zero one scores infinity, and
    the (feature, criterion) pairs are sorted by criterion, then index."""
    ya, yb = d_a.y.astype(np.float64), d_b.y.astype(np.float64)
    scores = []
    for j in range(d_a.m):
        col_a = d_a.x[:, j][None, :]
        if not np.any(col_a):
            scores.append((j, math.inf))
            continue
        res = fit_neuron(col_a, ya, d_b.x[:, j][None, :], yb, cfg.trainer, derive_rng(seed, "rank"))
        scores.append((j, res.criterion))
    return sorted(scores, key=lambda t: (t[1], t[0]))


def candidate_inputs(model, feature_j: int, xn: np.ndarray) -> np.ndarray:
    """Input matrix for a candidate at the next layer of the cascade
    ``model``, found by running every neuron of the model on the normalized
    rows ``xn``: one row per hidden output, then the base feature, then
    feature ``feature_j``. A feature the model already reads is refused."""
    xn = np.atleast_2d(np.asarray(xn, dtype=np.float64))
    if feature_j == model.base_feature or feature_j in model.used_features():
        raise ValueError(f"feature {feature_j} is already wired into the model")
    z = model.hidden_outputs(xn) if model.neurons else np.zeros((xn.shape[0], 0))
    rows = [z[:, r] for r in range(z.shape[1])]
    rows.append(xn[:, model.base_feature])
    rows.append(xn[:, feature_j])
    return np.vstack(rows)


def ancestor_ids(neurons, root_id: int) -> list[int]:
    """Ids of the GMDH neuron ``root_id`` and of every neuron it reads
    through its parent links, ascending; ``neurons`` are listed as a model
    file lists them."""
    by_id = {n["id"]: n for n in neurons}
    seen: set[int] = set()
    stack = [root_id]
    while stack:
        nid = stack.pop()
        if nid in seen:
            continue
        seen.add(nid)
        n = by_id[nid]
        for src in (n["parent_a"], n["parent_b"]):
            if src is not None and src["kind"] == "neuron":
                stack.append(src["index"])
    return sorted(seen)


def info_gain(parent_labels, left_labels, right_labels) -> float:
    """Entropy drop achieved by partitioning parent into left/right."""
    parent = np.asarray(parent_labels, dtype=np.int64)
    left = np.asarray(left_labels, dtype=np.int64)
    right = np.asarray(right_labels, dtype=np.int64)
    if len(parent) == 0:
        raise DataError("information gain of an empty parent is undefined")
    if len(left) + len(right) != len(parent):
        raise ValueError("left and right must partition the parent")
    h_parent = entropy(np.bincount(parent, minlength=2))
    weighted = 0.0
    for side in (left, right):
        if len(side):
            weighted += len(side) / len(parent) * entropy(np.bincount(side, minlength=2))
    return h_parent - weighted


def sample_threshold(values, rng: np.random.Generator) -> float:
    """One uniform draw over the node-local [min, max] of a variable."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise DataError("cannot sample a threshold from no values")
    lo, hi = float(values.min()), float(values.max())
    return float(rng.uniform(lo, hi))


def best_partition(x: np.ndarray, y: np.ndarray, cfg, rng: np.random.Generator) -> tuple[int, float, float]:
    """``dtree.best_partition`` one feature at a time: draw the feature's
    ``n_s`` thresholds, score them, keep its best (smallest threshold on
    ties) and replace the best so far only on a strictly larger gain."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n = len(y)
    if n < 2 or len(np.unique(y)) < 2:
        raise ValueError("best_partition needs at least 2 rows and 2 classes")
    h_parent = entropy(np.bincount(y, minlength=2))
    total_pos = int(y.sum())

    best_feature, best_threshold, best_gain = -1, 0.0, -np.inf
    is_pos = y == 1
    for i in range(x.shape[1]):
        col = x[:, i]
        lo, hi = float(col.min()), float(col.max())
        thresholds = rng.uniform(lo, hi, size=cfg.n_s)
        left_mask = col[:, None] <= thresholds[None, :]
        left_total = left_mask.sum(axis=0)
        left_pos = (left_mask & is_pos[:, None]).sum(axis=0)
        right_total = n - left_total
        right_pos = total_pos - left_pos
        weighted = (left_total / n) * _entropy_per_split(left_pos, left_total) + (
            right_total / n
        ) * _entropy_per_split(right_pos, right_total)
        gains = h_parent - weighted
        top = float(gains.max())
        candidates = thresholds[gains == top]
        thr = float(candidates.min())
        if top > best_gain:
            best_feature, best_threshold, best_gain = i, thr, top
    return best_feature, best_threshold, max(best_gain, 0.0)


def grow_tree(d, cfg, seed: int) -> list:
    """The preorder node list of ``dtree.build``'s tree on ``d``, grown by
    recursion with the split search above: each node draws its thresholds,
    then grows its left subtree, then its right one. As deep as the
    recursion limit allows."""
    rng = derive_rng(seed, "tree")
    nodes = []

    def grow(idx):
        ys = d.y[idx]
        counts = np.bincount(ys, minlength=2)
        leaf = Leaf(0 if counts[0] >= counts[1] else 1, (int(counts[0]), int(counts[1])))
        if len(idx) <= cfg.p_min * d.n or len(np.unique(ys)) < 2:
            nodes.append(leaf)
            return
        feature, threshold, gain = best_partition(d.x[idx], ys, cfg, rng)
        go_left = d.x[idx, feature] <= threshold
        if gain <= 0.0 or go_left.all() or not go_left.any():
            nodes.append(leaf)
            return
        nodes.append(Split(feature, threshold))
        grow(idx[go_left])
        grow(idx[~go_left])

    grow(np.arange(d.n))
    return nodes


def tree_walk(model, x) -> int:
    """The leaf class of one raw input vector, found by following the
    splits of the model's JSON document from its root; a value equal to a
    threshold goes left."""
    x = np.asarray(x, dtype=np.float64)
    node = model.to_json_dict()["root"]
    while "split" in node:
        split = node["split"]
        node = split["left"] if x[split["feature"]] <= split["threshold"] else split["right"]
    return node["leaf"]["class"]


def recompute(report) -> tuple[float, float]:
    """Mean and population variance of a ``CvReport``'s fold performances,
    each 1 - the test error of that fold's best run."""
    perfs = np.asarray([1.0 - f.test_error for f in report.folds])
    return float(perfs.mean()), float(perfs.var())


def _fmt(v: float) -> str:
    return "" if (isinstance(v, float) and math.isnan(v)) else repr(float(v))


def csv_line(cells: list) -> str:
    """One CSV line, without its line end: cells holding a comma, a double
    quote or a line break are quoted, and every other cell is written as is.
    The writer quotes the characters of its line end, so that end is
    ``\\r\\n``: a cell holding a lone ``\\r`` is quoted too."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\r\n").writerow(cells)
    return out.getvalue()[:-2]


def restart_report_texts(report, feature_names: list[str]) -> dict[str, str]:
    """The four restart tables, by table name, as a hand-joined writer
    formats them: the byte reference for ``write_restart_reports``."""
    rows = ["run,seed,status,criterion,train_error,test_error,model_size,features,criterion_trace"]
    for r in report.records:
        feats = ";".join(str(j) for j in sorted(r.feature_set))
        trace = ";".join(repr(float(v)) for v in r.criterion_trace)
        rows.append(
            f"{r.run},{r.seed},{r.status},{_fmt(r.criterion)},{_fmt(r.train_error)},"
            f"{_fmt(r.test_error)},{r.model_size},{feats},{trace}"
        )
    texts = {"restart_report": rows}

    ok = [r for r in report.records if r.status == "ok"]
    freq = Counter(j for r in ok for j in r.feature_set)
    texts["feature_freq"] = ["feature,name,count"] + [
        csv_line([j, feature_names[j], freq[j]]) for j in sorted(freq)
    ]
    sizes = Counter(r.model_size for r in ok)
    texts["size_hist"] = ["model_size,count"] + [f"{s},{sizes[s]}" for s in sorted(sizes)]
    rows = ["run,train_error,test_error"]
    for r in ok:
        rows.append(f"{r.run},{_fmt(r.train_error)},{_fmt(r.test_error)}")
    texts["error_hist"] = rows
    return {name: "\n".join(rows) + "\n" for name, rows in texts.items()}


def cv_report_text(reports) -> str:
    """``cv_report.csv`` as a hand-joined writer formats it: one row per
    method per fold, performance = 1 - that fold's test error, the summary
    repeated on each row, then the best run's size and its features,
    ascending and ``;``-joined; the byte reference for ``write_cv_report``."""
    rows = ["method,fold,performance,test_error,best_seed,mean_performance,variance_performance,"
            "model_size,features"]
    for rep in reports:
        mean, var = recompute(rep)
        for fold, best in enumerate(rep.folds):
            feats = ";".join(str(j) for j in sorted(best.feature_set))
            rows.append(
                f"{rep.method},{fold},{repr(1.0 - best.test_error)},{repr(best.test_error)},"
                f"{best.seed},{repr(mean)},{repr(var)},{best.model_size},{feats}"
            )
    return "\n".join(rows) + "\n"


def chi_traces_text(results) -> str:
    """``chi_traces.csv`` as a hand-joined writer formats it: the byte
    reference for ``write_chi_traces``."""
    rows = ["chi,step,rse_b"]
    for chi in results:
        for step, value in enumerate(results[chi].rse_trace_b):
            rows.append(f"{repr(float(chi))},{step},{repr(float(value))}")
    return "\n".join(rows) + "\n"
