"""Decision tree with randomized split thresholds.

Candidate thresholds are drawn uniformly over each variable's node-local
range rather than enumerated, which regularizes the tree; a node stops
splitting once it holds at most a fixed fraction of the training rows, is
pure, or no sampled split yields any information gain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, split
from .errors import ConfigError, DataError
from .model import Model, require
from .util import derive_rng, derive_seed

# features whose thresholds ``best_partition`` scores together; a node of
# n rows holds an (n, _FEATURE_BLOCK, n_s) comparison mask, about 2 MB at
# 5000 rows and 25 draws
_FEATURE_BLOCK = 16


@dataclass
class DtConfig:
    n_s: int = 25  # threshold draws per variable
    p_min: float = 0.06  # minimal node fraction still worth splitting

    def __post_init__(self) -> None:
        if self.n_s < 1:
            raise ConfigError(f"n_s must be >= 1, got {self.n_s}")
        if not 0.0 < self.p_min < 1.0:
            raise ConfigError(f"p_min must be in (0,1), got {self.p_min}")


@dataclass
class Leaf:
    label: int
    counts: tuple[int, int]


@dataclass
class Split:
    feature: int
    threshold: float
    left: "Leaf | Split"
    right: "Leaf | Split"


DtNode = Leaf | Split


@dataclass
class DtModel(Model):
    root: DtNode
    n_features: int

    def nodes(self) -> list[DtNode]:
        """Every node, each parent before its children, left before right."""
        out: list[DtNode] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            out.append(node)
            if isinstance(node, Split):
                stack += [node.right, node.left]
        return out

    def size(self) -> int:
        """Number of splits."""
        return sum(isinstance(node, Split) for node in self.nodes())

    def used_features(self) -> frozenset[int]:
        return frozenset(node.feature for node in self.nodes() if isinstance(node, Split))

    def predict_batch(self, x: np.ndarray, threshold: float | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Leaf classes for raw rows ``x``, as scores and as classes.

        All rows are routed at once, node by node; a value equal to a
        split threshold goes left. ``threshold`` is accepted for the shared
        interface and does not apply to trees.
        """
        x = self.check_rows(x)
        cls = np.empty(len(x), dtype=np.int64)
        stack = [(self.root, np.arange(len(x)))]
        while stack:
            node, rows = stack.pop()
            if isinstance(node, Leaf):
                cls[rows] = node.label
            else:
                left = x[rows, node.feature] <= node.threshold
                stack += [(node.left, rows[left]), (node.right, rows[~left])]
        return cls.astype(np.float64), cls

    def to_json_dict(self) -> dict:
        def encode(node: DtNode) -> dict:
            if isinstance(node, Leaf):
                return {"leaf": {"class": node.label, "counts": list(node.counts)}}
            return {
                "split": {
                    "feature": node.feature,
                    "threshold": node.threshold,
                    "left": encode(node.left),
                    "right": encode(node.right),
                }
            }

        return {
            "n_features": self.n_features,
            "root": encode(self.root),
        }

    @classmethod
    def _decode(cls, d: dict) -> "DtModel":
        n_features = int(d["n_features"])

        def decode(nd: dict) -> DtNode:
            if "leaf" in nd:
                leaf = nd["leaf"]
                label = int(leaf["class"])
                require(label in (0, 1), f"leaf class {label} is not 0 or 1")
                return Leaf(label, (int(leaf["counts"][0]), int(leaf["counts"][1])))
            sp = nd["split"]
            feature = int(sp["feature"])
            require(0 <= feature < n_features, f"split on feature {feature} of {n_features}")
            return Split(feature, float(sp["threshold"]), decode(sp["left"]), decode(sp["right"]))

        return cls(decode(d["root"]), n_features)


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
    left counts, entropies and gains are then scored as one (features,
    n_s) block, ``_FEATURE_BLOCK`` features at a time, which bounds the
    node's (rows, features, n_s) comparison mask. Ties break to the lower
    feature index, then the smaller threshold. Returns (feature,
    threshold, gain); a gain of 0 means no sampled split separates
    anything (the caller should make a leaf).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n, m = x.shape
    if n < 2 or len(np.unique(y)) < 2:
        raise ValueError("best_partition needs at least 2 rows and 2 classes")
    h_parent = entropy(np.bincount(y, minlength=2))
    total_pos = int(y.sum())
    thresholds = rng.uniform(x.min(axis=0)[:, None], x.max(axis=0)[:, None], size=(m, cfg.n_s))

    best_feature, best_threshold, best_gain = -1, 0.0, -np.inf
    is_pos = y == 1
    for start in range(0, m, _FEATURE_BLOCK):
        thr = thresholds[start : start + _FEATURE_BLOCK]
        left_mask = x[:, start : start + _FEATURE_BLOCK, None] <= thr
        left_total = left_mask.sum(axis=0)
        left_pos = left_mask[is_pos].sum(axis=0)
        right_total = n - left_total
        right_pos = total_pos - left_pos
        weighted = (left_total / n) * _entropy_per_split(left_pos, left_total) + (
            right_total / n
        ) * _entropy_per_split(right_pos, right_total)
        gains = h_parent - weighted
        tops = gains.max(axis=1)
        i = int(tops.argmax())
        if tops[i] > best_gain:
            best_feature, best_gain = start + i, float(tops[i])
            best_threshold = float(thr[i][gains[i] == tops[i]].min())
    return best_feature, best_threshold, max(best_gain, 0.0)


def build(d: Dataset, cfg: DtConfig, seed: int) -> DtModel:
    """Grow a tree on dataset ``d``.

    A node becomes a leaf when it holds at most ``p_min`` of the training
    rows, is pure, or the best sampled split has zero gain. Rows with the
    split variable equal to the threshold go left. Leaf label is the
    majority class, ties to class 0.
    """
    if d.n < 2:
        raise DataError(f"need at least 2 rows to build a tree, got {d.n}")
    rng = derive_rng(seed, "tree")
    floor = cfg.p_min * d.n

    def leaf_for(ys: np.ndarray) -> Leaf:
        counts = np.bincount(ys, minlength=2)
        label = 0 if counts[0] >= counts[1] else 1
        return Leaf(label, (int(counts[0]), int(counts[1])))

    def grow(idx: np.ndarray) -> DtNode:
        ys = d.y[idx]
        if len(idx) <= floor or len(np.unique(ys)) < 2:
            return leaf_for(ys)
        feature, threshold, gain = best_partition(d.x[idx], ys, cfg, rng)
        if gain <= 0.0:
            return leaf_for(ys)
        go_left = d.x[idx, feature] <= threshold
        if not go_left.any() or go_left.all():  # roundoff can report a hair of gain
            return leaf_for(ys)
        return Split(feature, threshold, grow(idx[go_left]), grow(idx[~go_left]))

    return DtModel(grow(np.arange(d.n)), d.m)


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
