"""Tests of the benchmark's own oracles on small hand-computed models.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import tracer  # noqa: E402
from inputs import TaskShape, make_task, write_csv  # noqa: E402

# Three features; feature 0 is scaled by mean 1 and std 2. For the row
# x = (3, 1, 2) the normalized row is (1, 1, 2), so
#   layer 1: a = 0.5 + 1*1 - 2*1 = -0.5,     z1 = 1/(1+e^0.5) = 0.3775406687981454
#   layer 2: a = -0.1 + 2*z1 + 0.5*1 - 0.25*2 = 0.655081337596291,
#            p = 1/(1+e^-a) = 0.6581546151947691
CASCADE = {
    "format_version": 1,
    "base_feature": 0,
    "feature_names": ["f0", "f1", "f2"],
    "norm": {"mean": [1.0, 0.0, 0.0], "std": [2.0, 1.0, 1.0],
             "constant_flags": [False, False, False]},
    "c0": 3.0,
    "neurons": [
        {"layer": 1, "inputs": [{"kind": "feature", "index": 0}, {"kind": "feature", "index": 1}],
         "bias": 0.5, "weights": [1.0, -2.0], "criterion": 2.0},
        {"layer": 2, "inputs": [{"kind": "hidden", "index": 0}, {"kind": "feature", "index": 0},
                                {"kind": "feature", "index": 2}],
         "bias": -0.1, "weights": [2.0, 0.5, -0.25], "criterion": 1.0},
    ],
    "threshold": 0.5,
}

# v0 = 0.1 + 2*x0; v1 = x1; out = 0.5 + v0 - v1 + 0.5*v0*v1
GMDH = {
    "format_version": 1,
    "neurons": [
        {"id": 0, "parent_a": {"kind": "feature", "index": 0}, "parent_b": None,
         "coeffs": [0.1, 2.0, 0.0, 0.0], "performance": 0.6},
        {"id": 1, "parent_a": {"kind": "feature", "index": 1}, "parent_b": None,
         "coeffs": [0.0, 1.0, 0.0, 0.0], "performance": 0.6},
        {"id": 7, "parent_a": {"kind": "neuron", "index": 0}, "parent_b": {"kind": "neuron", "index": 1},
         "coeffs": [0.5, 1.0, -1.0, 0.5], "performance": 0.7},
    ],
    "output_id": 7,
    "norm": {"mean": [0.0, 0.0], "std": [1.0, 1.0], "constant_flags": [False, False]},
    "n_features": 2,
}

# x1 <= 0 -> class 0; else x0 <= 2.5 -> class 1; else class 0
TREE = {
    "format_version": 1,
    "n_features": 2,
    "root": {"split": {"feature": 1, "threshold": 0.0,
                       "left": {"leaf": {"class": 0, "counts": [5, 1]}},
                       "right": {"split": {"feature": 0, "threshold": 2.5,
                                           "left": {"leaf": {"class": 1, "counts": [1, 4]}},
                                           "right": {"leaf": {"class": 0, "counts": [3, 0]}}}}}},
}


def test_cascade_forward_matches_hand_computation():
    x = np.array([[3.0, 1.0, 2.0]])
    assert oracles.cascade_probabilities(CASCADE, x)[0] == pytest.approx(0.6581546151947691, abs=1e-15)
    assert oracles.cascade_classes(CASCADE, x).tolist() == [1]


def test_cascade_single_layer_and_constant_column():
    doc = json.loads(json.dumps(CASCADE))
    doc["neurons"] = doc["neurons"][:1]
    doc["norm"]["constant_flags"] = [False, True, False]  # feature 1 reads as 0
    x = np.array([[3.0, 1.0, 2.0], [-1.0, 9.0, 0.0]])
    # a = 0.5 + 1*1 = 1.5 and 0.5 + 1*(-1) = -0.5
    want = [1 / (1 + np.exp(-1.5)), 1 / (1 + np.exp(0.5))]
    assert oracles.cascade_probabilities(doc, x) == pytest.approx(want, abs=1e-15)
    assert oracles.classes_for(doc, x).tolist() == [1, 0]


def test_gmdh_forward_matches_hand_computation():
    x = np.array([[1.0, 2.0], [0.0, 0.0], [-1.0, 1.0]])
    # (0.5 + 2.1 - 2 + 2.1), (0.5 + 0.1), (0.5 - 1.9 - 1 - 0.95)
    assert oracles.gmdh_scores(GMDH, x) == pytest.approx([2.7, 0.6, -3.35], abs=1e-14)
    assert oracles.classes_for(GMDH, x).tolist() == [1, 1, 0]


def test_gmdh_threshold_is_inclusive():
    doc = json.loads(json.dumps(GMDH))
    doc["neurons"] = doc["neurons"][:1]
    doc["output_id"] = 0
    x = np.array([[0.2, 0.0], [0.19, 0.0]])  # 0.1 + 2*0.2 = 0.5 exactly
    assert oracles.gmdh_classes(doc, x).tolist() == [1, 0]


def test_tree_walk_sends_ties_left():
    x = np.array([[0.0, 0.0], [3.0, 1.0], [2.5, 1.0], [9.0, -4.0]])
    assert oracles.classes_for(TREE, x).tolist() == [0, 0, 1, 0]


def test_confusion_counts():
    pred = np.array([1, 1, 0, 0, 1])
    y = np.array([1, 0, 0, 1, 1])
    assert oracles.confusion(pred, y) == {"tp": 2, "tn": 1, "fp": 1, "fn": 1}


def test_read_csv_parses_text(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("a,target,b\n1.5,1,-2\n0.1,0,3e-3\n")
    names, x, y = oracles.read_csv(path)
    assert names == ["a", "b"]
    assert x.tolist() == [[1.5, -2.0], [0.1, 0.003]]
    assert y.tolist() == [1, 0]


@pytest.mark.parametrize("text", ["f0,target\n1,1\n2\n", "f0,target\n1,2\n"])
def test_read_csv_rejects_ragged_rows_and_bad_labels(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError):
        oracles.read_csv(path)


def test_written_csv_reads_back_bit_for_bit(tmp_path):
    task = make_task(TaskShape(50, 4, (1, 3), 0.3, 0.2), seed=5)
    x = task.x.copy()
    x[0, 0], x[1, 1], x[2, 2] = 1e-300, -123456789.123456789, 5e-324
    write_csv(tmp_path / "t.csv", x, task.y)
    names, x_back, y_back = oracles.read_csv(tmp_path / "t.csv")
    assert names == ["f0", "f1", "f2", "f3"]
    assert np.array_equal(x_back, x) and np.array_equal(y_back, task.y)


def test_task_rule_labels_reproduce_clean_labels():
    shape = TaskShape(200, 6, (0, 4), 0.0, 0.3)
    task = make_task(shape, seed=9)
    assert np.array_equal(task.rule_labels(task.x, shape.relevant), task.y_clean)
    assert 0 < np.sum(task.y != task.y_clean) < 200


def test_layer_self_time_subtracts_child_spans_and_leaves():
    t = tracer.Tracer()
    t.spans = [[0, "cascade.train", 0.0, 10.0, None], [1, "projection.fit_neuron", 2.0, 5.0, 0]]
    t.leaves[(0, "util.derive_rng")] = [3, 1.5]
    m = t.layer_metrics()
    assert m["cascade.self_s"] == pytest.approx(10.0 - 3.0 - 1.5)
    assert m["projection.self_s"] == pytest.approx(3.0)
    assert m["util.self_s"] == pytest.approx(1.5)
    assert m["util.derive_rng.calls"] == 3


def test_benchmark_json_lists_every_per_layer_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracer.PER_LAYER
