"""Decision tree with randomized split thresholds.

Candidate thresholds are drawn uniformly over each variable's node-local
range rather than enumerated, which regularizes the tree; a node stops
splitting once it holds at most a fixed fraction of the training rows, is
pure, or no sampled split yields any information gain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataset import Dataset, split
from .errors import ConfigError, DataError
from .model import Model, json_value, require
from .util import derive_rng, derive_seed

# features whose thresholds ``best_partition`` scores together; a node of
# n rows holds an (n, _FEATURE_BLOCK, n_s) comparison mask, about 2 MB at
# 5000 rows and 25 draws
_FEATURE_BLOCK = 16
# threshold draws per variable at most; the mask above is then 160 KB a row
_MAX_DRAWS = 10**4


@dataclass
class DtConfig:
    n_s: int = 25  # threshold draws per variable
    p_min: float = 0.06  # minimal node fraction still worth splitting

    def __post_init__(self) -> None:
        if not 1 <= self.n_s <= _MAX_DRAWS:
            raise ConfigError(f"n_s must be >= 1 and <= {_MAX_DRAWS}, got {self.n_s}")
        if not 0.0 < self.p_min < 1.0:
            raise ConfigError(f"p_min must be in (0,1), got {self.p_min}")


@dataclass
class Leaf:
    label: int
    counts: tuple[int, int]


class Split(NamedTuple):
    feature: int
    threshold: float


DtNode = Leaf | Split


@dataclass
class DtModel(Model):
    # the tree in preorder: each split, then its left subtree, then its
    # right one; a flat list, so that routing and pickling take any depth
    nodes: list[DtNode]
    n_features: int

    def size(self) -> int:
        """Number of splits."""
        return sum(isinstance(node, Split) for node in self.nodes)

    def used_features(self) -> frozenset[int]:
        return frozenset(node.feature for node in self.nodes if isinstance(node, Split))

    def predict_batch(self, x: np.ndarray, threshold: float = Model.threshold) -> tuple[np.ndarray, np.ndarray]:
        """Leaf classes for raw rows ``x``, as scores and as classes.

        All rows are routed in one pass over the nodes; a value equal to a
        split threshold goes left. ``threshold`` is accepted for the shared
        interface and does not apply to trees.
        """
        x = self.check_rows(x)
        cls = np.empty(len(x), dtype=np.int64)
        # the rows of each node still to reach, the next node's on top: a
        # split pushes its right rows, then its left ones
        stack = [np.arange(len(x))]
        for node in self.nodes:
            rows = stack.pop()
            if isinstance(node, Leaf):
                cls[rows] = node.label
            else:
                left = x[rows, node.feature] <= node.threshold
                stack += [rows[~left], rows[left]]
        return cls.astype(np.float64), cls

    def to_json_dict(self) -> dict:
        # from the last node back, each split takes the two subtrees above
        # it on the stack, its left one on top
        stack: list[dict] = []
        for node in reversed(self.nodes):
            if isinstance(node, Leaf):
                stack.append({"leaf": {"class": node.label, "counts": list(node.counts)}})
            else:
                stack.append({"split": {"feature": node.feature, "threshold": node.threshold,
                                        "left": stack.pop(), "right": stack.pop()}})
        return {
            "n_features": self.n_features,
            "root": stack.pop(),
        }

    @classmethod
    def _decode(cls, d: dict) -> "DtModel":
        n_features = json_value(d["n_features"], int, "n_features")
        nodes: list[DtNode] = []

        def decode(nd: dict) -> None:
            if "leaf" in nd:
                leaf = nd["leaf"]
                label = json_value(leaf["class"], int, "leaf class")
                require(label in (0, 1), f"leaf class {label} is not 0 or 1")
                counts = leaf["counts"]
                nodes.append(Leaf(label, (json_value(counts[0], int, "leaf count"),
                                          json_value(counts[1], int, "leaf count"))))
                return
            sp = nd["split"]
            feature = json_value(sp["feature"], int, "split feature")
            require(0 <= feature < n_features, f"split on feature {feature} of {n_features}")
            nodes.append(Split(feature, json_value(sp["threshold"], float, "split threshold")))
            decode(sp["left"])
            decode(sp["right"])

        decode(d["root"])
        return cls(nodes, n_features)


def entropy(counts) -> float:
    """Shannon entropy (base 2) of a class-count vector; zero counts
    contribute nothing."""
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum()
    if total <= 0:
        raise DataError("entropy of an empty count vector is undefined")
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


def _entropy_per_split(pos: np.ndarray, total: np.ndarray) -> np.ndarray:
    # vectorized binary entropy for arrays of (positive, total) counts
    with np.errstate(divide="ignore", invalid="ignore"):
        p1 = np.where(total > 0, pos / np.maximum(total, 1), 0.0)
        p0 = 1.0 - p1
        h = np.zeros_like(p1)
        for p in (p0, p1):
            mask = p > 0
            h[mask] -= p[mask] * np.log2(p[mask])
    return h


def best_partition(
    x: np.ndarray, y: np.ndarray, cfg: DtConfig, rng: np.random.Generator
) -> tuple[int, float, float]:
    """Best of ``n_s`` random thresholds per variable, then best variable.

    All thresholds come from one draw, feature after feature, the same
    stream values in the same order as ``n_s`` draws per feature. Their
    left counts are taken ``_FEATURE_BLOCK`` features at a time, which
    bounds the node's (rows, features, n_s) comparison mask, and then
    every feature is scored at once. Ties break to the lower feature
    index, then the smaller threshold. Returns (feature, threshold,
    gain); a gain of 0 means no sampled split separates anything (the
    caller should make a leaf).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n, m = x.shape
    if n < 2 or len(np.unique(y)) < 2:
        raise ValueError("best_partition needs at least 2 rows and 2 classes")
    if m == 0:
        return -1, 0.0, 0.0
    h_parent = entropy(np.bincount(y, minlength=2))
    total_pos = int(y.sum())
    lo, hi = x.min(axis=0)[:, None], x.max(axis=0)[:, None]
    u = rng.random((m, cfg.n_s))
    with np.errstate(over="ignore", invalid="ignore"):
        # Generator.uniform's map where hi - lo is finite; it overflows only
        # where lo < 0 < hi, and there the weighted form stays in [lo, hi]
        width = hi - lo
        thresholds = np.where(np.isinf(width), lo * (1 - u) + hi * u, lo + width * u)

    left_total, left_pos = np.empty((2, m, cfg.n_s), dtype=np.int64)
    is_pos = y == 1
    for start in range(0, m, _FEATURE_BLOCK):
        block = slice(start, start + _FEATURE_BLOCK)
        left_mask = x[:, block, None] <= thresholds[block]
        left_total[block] = left_mask.sum(axis=0)
        left_pos[block] = left_mask[is_pos].sum(axis=0)
    right_total = n - left_total
    right_pos = total_pos - left_pos
    weighted = (left_total / n) * _entropy_per_split(left_pos, left_total) + (
        right_total / n
    ) * _entropy_per_split(right_pos, right_total)
    gains = h_parent - weighted
    tops = gains.max(axis=1)
    i = int(tops.argmax())
    return i, float(thresholds[i][gains[i] == tops[i]].min()), max(float(tops[i]), 0.0)


def build(d: Dataset, cfg: DtConfig, seed: int) -> DtModel:
    """Grow a tree on dataset ``d``.

    A node becomes a leaf when it holds at most ``p_min`` of the training
    rows, is pure, or the best sampled split has zero gain. Rows with the
    split variable equal to the threshold go left. Leaf label is the
    majority class, ties to class 0. A split search too large for memory
    is a config error: its size is ``n_s`` times the node's rows.
    """
    if d.n < 2:
        raise DataError(f"need at least 2 rows to build a tree, got {d.n}")
    rng = derive_rng(seed, "tree")
    floor = cfg.p_min * d.n

    def leaf_for(ys: np.ndarray) -> Leaf:
        counts = np.bincount(ys, minlength=2)
        label = 0 if counts[0] >= counts[1] else 1
        return Leaf(label, (int(counts[0]), int(counts[1])))

    def grow(idx: np.ndarray) -> Leaf | tuple[Split, np.ndarray]:
        """The leaf rows ``idx`` make, or the split to make of them and the
        mask of the rows that go left."""
        ys = d.y[idx]
        if len(idx) <= floor or len(np.unique(ys)) < 2:
            return leaf_for(ys)
        try:
            feature, threshold, gain = best_partition(d.x[idx], ys, cfg, rng)
        except MemoryError:
            raise ConfigError(f"{cfg.n_s} threshold draws on {len(idx)} rows by {d.m} features "
                              "do not fit in memory (--ns)") from None
        if gain <= 0.0:
            return leaf_for(ys)
        go_left = d.x[idx, feature] <= threshold
        if not go_left.any() or go_left.all():  # roundoff can report a hair of gain
            return leaf_for(ys)
        return Split(feature, threshold), go_left

    # the nodes in preorder, grown from a stack of the rows of each node
    # still to grow: each split, then its left subtree, then its right
    # one, which is a recursion's order of draws, to any depth
    nodes: list[DtNode] = []
    stack = [np.arange(d.n)]
    while stack:
        idx = stack.pop()
        node = grow(idx)
        if not isinstance(node, Leaf):
            node, go_left = node
            stack += [idx[~go_left], idx[go_left]]
        nodes.append(node)
    return DtModel(nodes, d.m)


def fit(d: Dataset, cfg: DtConfig, seed: int) -> tuple[DtModel, float, tuple[float, ...]]:
    """``build`` on half of ``d``: the tree, its error on the other half and no trace."""
    d_fit, d_valid = split(d, 0.5, derive_seed(seed, "dt-split"))
    model = build(d_fit, cfg, seed=seed)
    return model, model.error_rate(d_valid), ()


def dt_predict(model: DtModel, x: np.ndarray) -> int:
    """The leaf class of one raw input vector: a one-row ``predict_batch``.
    Kept under this name because the acceptance suite calls it and
    perfbench's tracer wraps it."""
    if np.shape(x) != (model.n_features,):
        raise DataError(f"expected {model.n_features} features, got shape {np.shape(x)}")
    return int(model.predict_batch(np.reshape(x, (1, -1)))[1][0])


def evaluate(model: DtModel, d: Dataset) -> float:
    """Fraction of rows of ``d`` the tree misclassifies: ``model.error_rate(d)``.
    Kept under this name because the acceptance suite calls it and
    perfbench's tracer wraps it."""
    return model.error_rate(d)
