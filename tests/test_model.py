"""The interface the three model families share: input checks, batch
tree routing against the per-row reference walk, size and features."""

import numpy as np
import pytest

from ecnn import cascade, dtree, gmdh
from ecnn.dataset import Dataset, synth_generate
from ecnn.dtree import DtConfig, Split, build
from ecnn.errors import DataError
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


def _thresholds(node):
    if isinstance(node, Split):
        yield node.feature, node.threshold
        yield from _thresholds(node.left)
        yield from _thresholds(node.right)


class TestTreeBatchRouting:
    def test_matches_per_row_walk(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            d = Dataset(rng.normal(size=(300, 3)), rng.integers(0, 2, 300), ["a", "b", "c"])
            model = build(d, DtConfig(), seed=seed)
            # probe rows on every split threshold, and either side of it
            probes = [rng.normal(size=(200, 3))]
            for feature, threshold in _thresholds(model.root):
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
        splits = list(_thresholds(model.root))
        assert model.size() == len(splits) == len(model.nodes()) - len(splits) - 1
        assert model.used_features() == {feature for feature, _ in splits}
        assert dtree.evaluate(model, d) == model.error_rate(d)


def test_too_deep_document_is_a_data_error():
    # a tree nested deeper than the recursion limit, as a decoded document
    node = {"leaf": {"class": 0, "counts": [1, 1]}}
    for _ in range(3000):
        node = {"split": {"feature": 0, "threshold": 0.5, "left": node, "right": node}}
    with pytest.raises(DataError, match="RecursionError"):
        dtree.DtModel.from_json_dict({"format_version": 1, "n_features": 2, "root": node})
