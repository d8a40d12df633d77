"""The interface the three model families share: input checks, batch
tree routing against the per-row reference walk, size and features."""

import dataclasses
import inspect
import warnings

import numpy as np
import pytest

from ecnn import cascade, dtree, gmdh
from ecnn.dataset import Dataset, synth_generate
from ecnn.dtree import DtConfig, build
from ecnn.errors import DataError, NumericError
from ecnn.model import Model
from reference import tree_walk


def _train(family, seed=0):
    d, _ = synth_generate(200, 5, [0, 2], 0.1, 0.05, seed=seed)
    if family == "ecnn":
        return d, cascade.train(d, cascade.GrowthConfig(), seed=seed)
    if family == "gmdh":
        cfg = gmdh.GmdhConfig(offspring_per_generation=30, max_serial_failures=2, fit_subsample=1.0)
        return d, gmdh.fit(d, cfg, seed)[0]
    return d, build(d, DtConfig(), seed=seed)


@pytest.mark.parametrize("family", ["ecnn", "gmdh", "dt"])
class TestInputCheck:
    def test_non_finite_row_rejected(self, family):
        d, model = _train(family)
        for bad in (np.nan, np.inf, -np.inf):
            x = d.x[:4].copy()
            x[2, 1] = bad
            with pytest.raises(DataError, match="finite"):
                model.predict_batch(x)

    def test_wrong_width_rejected(self, family):
        d, model = _train(family)
        for x in (d.x[:3, :4], np.zeros((2, 6)), np.zeros(4)):
            with pytest.raises(DataError, match="features"):
                model.predict_batch(x)

    def test_interface(self, family):
        d, model = _train(family)
        score, cls = model.predict_batch(d.x)
        assert score.shape == cls.shape == (d.n,)
        assert set(np.unique(cls)) <= {0, 1}
        assert model.error_rate(d) == float(np.mean(cls != d.y))
        assert model.size() >= 1
        assert model.used_features() <= set(range(d.m))


@pytest.mark.parametrize("family", ["ecnn", "gmdh"])
def test_nan_score_is_a_numeric_error(family):
    # a std of 5e-324 sends the normalized rows to +-inf, and the scores to NaN
    d, model = _train(family)
    model.norm = dataclasses.replace(model.norm, std=np.full(d.m, 5e-324))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match=r"^the model's score is NaN on \d+ of 200 rows: not finite"):
            model.predict_batch(d.x)


def test_infinite_gmdh_score_still_orders(monkeypatch):
    d, model = _train("gmdh")
    monkeypatch.setattr(model, "forward", lambda xn: np.where(np.arange(len(xn)) % 2, np.inf, -np.inf))
    assert model.predict_batch(d.x)[1].tolist() == (np.arange(d.n) % 2).tolist()


class TestDefaultThreshold:
    """The base's ``predict_batch`` classifies at ``Model.threshold``, the
    one class threshold, when none is given, and at the given one
    otherwise."""

    def test_gmdh_classifies_at_one_half(self):
        d, model = _train("gmdh")
        score, cls = model.predict_batch(d.x)
        assert ((0.5 <= score) & (score < 0.8)).any() and ((0.3 <= score) & (score < 0.5)).any()
        np.testing.assert_array_equal(cls, (score >= 0.5).astype(np.int64))
        np.testing.assert_array_equal(model.predict_batch(d.x, 0.3)[1], (score >= 0.3).astype(np.int64))

    def test_no_model_stores_a_threshold(self):
        # the threshold is a class attribute of the base, and the default of every predict_batch
        assert Model.threshold == 0.5
        for cls in (cascade.CascadeModel, gmdh.GmdhModel, dtree.DtModel):
            assert "threshold" not in {f.name for f in dataclasses.fields(cls)}
            assert inspect.signature(cls.predict_batch).parameters["threshold"].default is Model.threshold


def _thresholds(node):
    """(feature, threshold) of every split below a node of a tree's JSON
    document, the node's own first."""
    if "split" in node:
        split = node["split"]
        yield split["feature"], split["threshold"]
        yield from _thresholds(split["left"])
        yield from _thresholds(split["right"])


class TestTreeBatchRouting:
    def test_matches_per_row_walk(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            d = Dataset(rng.normal(size=(300, 3)), rng.integers(0, 2, 300), ["a", "b", "c"])
            model = build(d, DtConfig(), seed=seed)
            # probe rows on every split threshold, and either side of it
            probes = [rng.normal(size=(200, 3))]
            for feature, threshold in _thresholds(model.to_json_dict()["root"]):
                for value in (threshold, np.nextafter(threshold, -np.inf), np.nextafter(threshold, np.inf)):
                    rows = rng.normal(size=(20, 3))
                    rows[:, feature] = value
                    probes.append(rows)
            x = np.vstack(probes)
            score, cls = model.predict_batch(x)
            want = np.array([tree_walk(model, row) for row in x])
            np.testing.assert_array_equal(cls, want)
            np.testing.assert_array_equal(score, want.astype(np.float64))

    def test_threshold_does_not_apply(self):
        d, model = _train("dt")
        _, cls = model.predict_batch(d.x)
        for threshold in (0.0, 0.5, 2.0):
            np.testing.assert_array_equal(model.predict_batch(d.x, threshold)[1], cls)

    def test_size_and_features_count_splits(self):
        d, model = _train("dt", seed=3)
        splits = list(_thresholds(model.to_json_dict()["root"]))
        assert model.size() == len(splits) == len(model.nodes) - len(splits) - 1
        assert model.used_features() == {feature for feature, _ in splits}
        assert dtree.evaluate(model, d) == model.error_rate(d)


def test_too_deep_document_is_a_data_error():
    # a tree nested deeper than the recursion limit, as a decoded document
    node = {"leaf": {"class": 0, "counts": [1, 1]}}
    for _ in range(3000):
        node = {"split": {"feature": 0, "threshold": 0.5, "left": node, "right": node}}
    with pytest.raises(DataError, match="RecursionError"):
        dtree.DtModel.from_json_dict({"format_version": 1, "n_features": 2, "root": node})
