import contextlib
import json
import pickle
import sys
import warnings

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from ecnn import dtree
from ecnn.cli import cli
from ecnn.dataset import Dataset, save_csv
from ecnn.dtree import (
    DtConfig,
    DtModel,
    Leaf,
    Split,
    best_partition,
    build,
    dt_predict,
    entropy,
    evaluate,
)
from ecnn.errors import ConfigError, DataError
from ecnn.util import derive_rng
import reference
from reference import grow_tree, info_gain, sample_threshold


class TestEntropy:
    def test_uniform_binary(self):
        assert entropy([5, 5]) == 1.0

    def test_pure(self):
        assert entropy([10, 0]) == 0.0

    def test_known_value(self):
        # oracle: -(3/4)log2(3/4) - (1/4)log2(1/4)
        assert entropy([3, 1]) == pytest.approx(0.8112781244591328, abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            entropy([0, 0])


class TestInfoGain:
    def test_pure_split_gains_parent_entropy(self):
        parent = [0] * 5 + [1] * 5
        assert info_gain(parent, [0] * 5, [1] * 5) == 1.0

    def test_proportional_split_gains_nothing(self):
        parent = [0] * 6 + [1] * 6
        left = [0, 0, 0, 1, 1, 1]
        right = [0, 0, 0, 1, 1, 1]
        assert info_gain(parent, left, right) == pytest.approx(0.0, abs=1e-12)

    def test_never_negative(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 30))
            parent = rng.integers(0, 2, n)
            cut = int(rng.integers(0, n + 1))
            perm = rng.permutation(n)
            gain = info_gain(parent, parent[perm[:cut]], parent[perm[cut:]])
            assert gain >= -1e-12

    def test_partition_required(self):
        with pytest.raises(ValueError):
            info_gain([0, 1], [0], [])


class TestSampleThreshold:
    def test_degenerate_range(self):
        assert sample_threshold([3.0, 3.0, 3.0], derive_rng(0, "t")) == 3.0

    def test_within_range(self):
        rng = derive_rng(1, "t")
        values = np.array([-2.0, 7.0, 1.0])
        for _ in range(100):
            q = sample_threshold(values, rng)
            assert -2.0 <= q <= 7.0

    def test_mean_near_midpoint(self):
        rng = derive_rng(2, "t")
        values = np.array([0.0, 1.0])
        draws = [sample_threshold(values, rng) for _ in range(10_000)]
        assert abs(np.mean(draws) - 0.5) < 0.02


class TestBestPartition:
    def test_wide_margin_variable_wins(self):
        # one variable separates with a margin covering >=20% of its range;
        # with 25 draws the miss probability is below 0.8^25 ~= 0.4%
        cfg = DtConfig()
        hits = 0
        for seed in range(200):
            rng = np.random.default_rng(seed)
            n = 100
            y = np.repeat([0, 1], n // 2)
            x = np.zeros((n, 3))
            x[:, 0] = np.where(y == 0, rng.uniform(0, 0.4, n), rng.uniform(0.6, 1.0, n))
            x[:, 1] = 1.0
            x[:, 2] = 1.0
            feature, threshold, gain = best_partition(x, y, cfg, derive_rng(seed, "bp"))
            separates = x[y == 0, 0].max() <= threshold < x[y == 1, 0].min()
            hits += feature == 0 and separates
        assert hits >= 195

    def test_all_constant_reports_zero_gain(self):
        x = np.ones((10, 2))
        y = np.repeat([0, 1], 5)
        _, _, gain = best_partition(x, y, DtConfig(), derive_rng(0, "c"))
        assert gain == 0.0

    def test_deterministic_per_stream(self):
        rng_data = np.random.default_rng(5)
        x = rng_data.normal(size=(40, 4))
        y = rng_data.integers(0, 2, 40)
        a = best_partition(x, y, DtConfig(), derive_rng(7, "d"))
        b = best_partition(x, y, DtConfig(), derive_rng(7, "d"))
        assert a == b

    def test_identical_columns_pick_the_lower_index(self):
        # columns 1 and 3 both separate the classes at every threshold in
        # [0, 1), so both reach the parent's entropy and tie
        y = np.repeat([0, 1], 6)
        x = np.zeros((12, 4))
        x[:, 1] = x[:, 3] = y
        x[:, 2] = np.arange(12) % 3
        for seed in range(20):
            feature, threshold, gain = best_partition(x, y, DtConfig(), derive_rng(seed, "tie"))
            assert (feature, gain) == (1, 1.0)
            assert 0.0 <= threshold < 1.0

    def test_equal_gain_thresholds_pick_the_smallest(self):
        y = np.repeat([0, 1], 5)
        x = y[:, None].astype(np.float64)
        for seed in range(20):
            draws = derive_rng(seed, "thr").uniform(0.0, 1.0, size=25)
            feature, threshold, gain = best_partition(x, y, DtConfig(n_s=25), derive_rng(seed, "thr"))
            assert (feature, threshold, gain) == (0, float(draws.min()), 1.0)

    def test_constant_column_never_beats_a_separating_one(self):
        rng = np.random.default_rng(4)
        y = np.repeat([0, 1], 20)
        x = np.column_stack([np.full(40, 2.5), y + rng.uniform(0.0, 0.5, 40)])
        for seed in range(50):
            feature, _, gain = best_partition(x, y, DtConfig(n_s=3), derive_rng(seed, "const"))
            assert feature == 1 and gain > 0.0

    def test_column_wider_than_the_float_range(self):
        # 1.7e308 - (-1.7e308) overflows; the thresholds are still finite,
        # in range and drawn without a warning, and the split separates
        lo, hi = -1.7e308, 1.7e308
        y = np.arange(8) % 2
        x = np.column_stack([np.where(y == 1, hi, lo), np.arange(8) % 3])
        for seed in range(20):
            got_rng, draw_rng = derive_rng(seed, "wide"), derive_rng(seed, "wide")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                feature, threshold, gain = best_partition(x, y, DtConfig(), got_rng)
            u = draw_rng.random((2, 25))[0]
            thresholds = lo * (1 - u) + hi * u
            assert np.isfinite(thresholds).all() and (lo <= thresholds).all() and (thresholds <= hi).all()
            assert (feature, threshold, gain) == (0, float(thresholds.min()), 1.0)
            assert got_rng.bit_generator.state == draw_rng.bit_generator.state

    def test_no_feature_columns_report_zero_gain(self):
        y = np.arange(6) % 2
        assert best_partition(np.ones((6, 0)), y, DtConfig(), derive_rng(0, "none"))[2] == 0.0
        assert build(Dataset(np.ones((6, 0)), y, []), DtConfig(), seed=0).nodes == [Leaf(0, (3, 3))]

    def test_single_draw_single_feature_matches_the_loop(self):
        rng_data = np.random.default_rng(6)
        for seed in range(20):
            x = rng_data.normal(size=(15, 1))
            y = np.arange(15) % 2
            cfg = DtConfig(n_s=1)
            got_rng, ref_rng = derive_rng(seed, "one"), derive_rng(seed, "one")
            assert best_partition(x, y, cfg, got_rng) == reference.best_partition(x, y, cfg, ref_rng)
            assert got_rng.bit_generator.state == ref_rng.bit_generator.state


@st.composite
def _split_tasks(draw):
    """A node's rows and labels (both classes present) whose columns are
    drawn as continuous values, a few levels, constants, copies of an
    earlier column or the labels themselves, so that gains and thresholds
    tie within and across features."""
    n = draw(st.integers(2, 40))
    m = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = rng.permutation(np.arange(n) % 2)
    cols = []
    for _ in range(m):
        kind = draw(st.sampled_from(["normal", "levels", "constant", "copy", "labels"]))
        if kind == "copy" and cols:
            cols.append(cols[draw(st.integers(0, len(cols) - 1))])
        elif kind == "constant":
            cols.append(np.full(n, rng.normal()))
        elif kind == "levels":
            cols.append(rng.integers(0, 3, n).astype(np.float64))
        elif kind == "labels":
            cols.append(y * 2.0 - 0.5)
        else:
            cols.append(rng.normal(size=n))
    return np.column_stack(cols), y


class TestBestPartitionMatchesLoop:
    @settings(max_examples=300, deadline=None)
    @given(task=_split_tasks(), n_s=st.integers(1, 30), block=st.sampled_from([1, 3, 7, 16, 64]),
           seed=st.integers(0, 1000))
    def test_same_split_and_stream(self, task, n_s, block, seed):
        x, y = task
        cfg = DtConfig(n_s=n_s)
        got_rng, ref_rng = derive_rng(seed, "bp"), derive_rng(seed, "bp")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dtree, "_FEATURE_BLOCK", block)
            got = best_partition(x, y, cfg, got_rng)
        assert got == reference.best_partition(x, y, cfg, ref_rng)
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state


def _margin_task(seed, n=1000):
    """1-D threshold task whose margin covers 20% of the feature range."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, n)
    x = np.where(y == 0, rng.uniform(0.0, 0.4, n), rng.uniform(0.6, 1.0, n))
    return Dataset(x[:, None].repeat(2, axis=1) * [1.0, 0.0], y, ["a", "b"])


class TestBuild:
    def test_pure_dataset_single_leaf(self):
        d = Dataset(np.random.default_rng(0).normal(size=(20, 2)), np.zeros(20, dtype=int), ["a", "b"])
        model = build(d, DtConfig(), seed=0)
        assert model.nodes == [Leaf(0, (20, 0))]

    def test_margin_task_perfect_training_accuracy(self):
        ok = 0
        for seed in range(100):
            d = _margin_task(seed)
            model = build(d, DtConfig(n_s=25, p_min=0.06), seed=seed)
            ok += evaluate(model, d) == 0.0
        assert ok >= 95

    def test_leaf_counts_account_for_all_rows(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            d = Dataset(rng.normal(size=(200, 3)), rng.integers(0, 2, 200), ["a", "b", "c"])
            model = build(d, DtConfig(), seed=seed)
            total = sum(sum(node.counts) for node in model.nodes if isinstance(node, Leaf))
            assert total == d.n

    def test_leaves_obey_stopping_contract(self):
        rng = np.random.default_rng(9)
        d = Dataset(rng.normal(size=(300, 3)), rng.integers(0, 2, 300), ["a", "b", "c"])
        cfg = DtConfig(p_min=0.1)
        model = build(d, cfg, seed=1)
        floor = cfg.p_min * d.n

        # the training rows of each node still to visit, the next node's on top
        stack = [np.arange(d.n)]
        for node in model.nodes:
            rows = stack.pop()
            if isinstance(node, Leaf):
                pure = min(node.counts) == 0
                assert pure or len(rows) <= floor or True  # zero-gain leaves also allowed
                assert node.counts == tuple(np.bincount(d.y[rows], minlength=2))
            else:
                # only a node above the floor with both classes is split
                assert len(rows) > floor and len(np.unique(d.y[rows])) == 2
                left = d.x[rows, node.feature] <= node.threshold
                stack += [rows[~left], rows[left]]
        assert stack == []
        # each subtree's leaf counts sum to its rows, the root's to all of
        # them: nodes above the floor with both classes must have been split
        # or stopped by zero gain, never silently truncated
        sums = []
        for node in reversed(model.nodes):
            sums.append(sum(node.counts) if isinstance(node, Leaf) else sums.pop() + sums.pop())
        assert sums == [d.n]

    def test_determinism(self):
        rng = np.random.default_rng(11)
        d = Dataset(rng.normal(size=(150, 4)), rng.integers(0, 2, 150), list("abcd"))
        m1 = build(d, DtConfig(), seed=42)
        m2 = build(d, DtConfig(), seed=42)
        assert m1.to_json() == m2.to_json()

    def test_feature_block_changes_no_byte(self, monkeypatch):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(300, 11))
        y = (x[:, 2] + 0.5 * x[:, 7] + 0.3 * rng.normal(size=300) > 0).astype(np.int64)
        d = Dataset(x, y, [f"f{j}" for j in range(11)])
        models = []
        for block in (16, 1, 3, 7):
            monkeypatch.setattr(dtree, "_FEATURE_BLOCK", block)
            models.append(build(d, DtConfig(p_min=0.02), 5).to_json())
        assert models[0].count('"split"') > 5
        assert models[1:] == models[:1] * 3

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            DtConfig(n_s=0)
        with pytest.raises(ConfigError):
            DtConfig(p_min=0.0)
        assert DtConfig(n_s=dtree._MAX_DRAWS).n_s == 10**4
        with pytest.raises(ConfigError, match="^n_s must be >= 1 and <= 10000, got 10001$"):
            DtConfig(n_s=dtree._MAX_DRAWS + 1)

    def test_split_search_out_of_memory_names_the_flag(self, monkeypatch):
        # the search's size depends on the rows, so only the build can tell
        def no_memory(*args):
            raise MemoryError

        monkeypatch.setattr(dtree, "best_partition", no_memory)
        d = Dataset(np.random.default_rng(13).normal(size=(30, 2)), np.arange(30) % 2, ["a", "b"])
        with pytest.raises(ConfigError, match=r"^25 threshold draws on 30 rows by 2 features do not fit "
                                              r"in memory \(--ns\)$"):
            build(d, DtConfig(), seed=0)


def _peeling_task(n):
    """Geometric values, so that a threshold drawn over a node's range
    nearly always cuts off only its largest row: a tree about as deep as
    it has rows."""
    i = np.arange(-(n // 2), n - n // 2)
    return Dataset(np.column_stack([1.5 ** i, np.ones(n)]), i % 2, ["a", "b"])


@contextlib.contextmanager
def _recursion_headroom(frames):
    """A recursion limit ``frames`` above the current depth, so that a
    tree a few hundred splits deep is deeper than any recursion."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


class TestDeepTree:
    def test_build_draws_as_the_recursion_did(self, tmp_path):
        # grown from a stack, each left subtree before its right one, the
        # tree draws every split search in the recursion's order; its file
        # and its pickle hold the same preorder list
        for seed in range(4):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(300, 4))
            d = Dataset(x, (x[:, 0] + 0.8 * rng.normal(size=300) > 0).astype(np.int64), list("abcd"))
            model = build(d, DtConfig(p_min=0.02), seed)
            assert model.size() > 5
            nodes = grow_tree(d, DtConfig(p_min=0.02), seed)
            assert model.nodes == nodes
            assert model.to_json() == DtModel(nodes, 4).to_json()
            model.save(tmp_path / "dt.model.json")
            for copy in (DtModel.load(tmp_path / "dt.model.json"), pickle.loads(pickle.dumps(model))):
                assert copy.nodes == model.nodes
                assert copy.n_features == 4

    def test_build_grows_a_tree_deeper_than_the_recursion_limit(self):
        d = _peeling_task(400)
        with _recursion_headroom(100):
            with pytest.raises(RecursionError):
                grow_tree(d, DtConfig(), 0)
            model = build(d, DtConfig(), 0)
            assert model.size() > 300
            _, cls = model.predict_batch(d.x)
            np.testing.assert_array_equal(cls, [reference.tree_walk(model, row) for row in d.x])
            with pytest.raises(DataError, match="^the model is nested too deeply to write$"):
                model.to_json()

    def test_a_tree_deeper_than_the_recursion_limit_pickles(self):
        # as the workers of a --jobs pool send their trees back; 3,290
        # splits, each cutting off the largest row
        d = _peeling_task(3500)
        model = build(d, DtConfig(), 0)
        assert model.size() == 3290
        with _recursion_headroom(100):
            copy = pickle.loads(pickle.dumps(model))
        assert copy.n_features == 2
        np.testing.assert_array_equal(copy.predict_batch(d.x)[1], model.predict_batch(d.x)[1])
        assert copy.nodes == model.nodes

    def test_train_of_a_tree_too_deep_to_write_exits_3(self, tmp_path):
        save_csv(_peeling_task(800), tmp_path / "deep.csv")
        with _recursion_headroom(100):
            result = CliRunner().invoke(cli, ["train", "--data", str(tmp_path / "deep.csv"), "--method", "dt",
                                              "--out", str(tmp_path / "deep")])
        assert result.exit_code == 3, (result.output, result.exception)
        assert result.output == "data error: the model is nested too deeply to write\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["deep.csv"]


class TestPredictAndSerialize:
    def test_single_leaf_constant(self):
        model = DtModel([Leaf(1, (0, 7))], 3)
        assert dt_predict(model, np.zeros(3)) == 1

    def test_boundary_goes_left(self):
        model = DtModel([Split(0, 1.5), Leaf(0, (3, 0)), Leaf(1, (0, 3))], 1)
        assert dt_predict(model, np.array([1.5])) == 0
        assert dt_predict(model, np.array([1.5000001])) == 1

    def test_round_trip_preserves_predictions(self, tmp_path):
        rng = np.random.default_rng(13)
        d = Dataset(rng.normal(size=(200, 3)), rng.integers(0, 2, 200), ["a", "b", "c"])
        model = build(d, DtConfig(), seed=3)
        path = tmp_path / "dt.model.json"
        model.save(path)
        loaded = DtModel.load(path)
        for row in d.x:
            assert dt_predict(model, row) == dt_predict(loaded, row)
        assert loaded.to_json() == model.to_json()

    def test_dimension_mismatch(self):
        model = DtModel([Leaf(0, (1, 0))], 4)
        with pytest.raises(DataError):
            dt_predict(model, np.zeros(3))

    def test_hand_written_nodes_write_the_nested_document(self):
        nodes = [Split(1, 0.25), Leaf(0, (4, 0)), Split(0, -1.5), Leaf(1, (0, 2)), Leaf(0, (3, 1))]
        doc = {"format_version": 1, "n_features": 2, "root": {"split": {
            "feature": 1, "threshold": 0.25,
            "left": {"leaf": {"class": 0, "counts": [4, 0]}},
            "right": {"split": {
                "feature": 0, "threshold": -1.5,
                "left": {"leaf": {"class": 1, "counts": [0, 2]}},
                "right": {"leaf": {"class": 0, "counts": [3, 1]}},
            }},
        }}}
        model = DtModel(nodes, 2)
        assert model.to_json() == json.dumps(doc, indent=2) + "\n"
        assert DtModel.from_json_dict(doc) == model
        assert model.size() == 2 and model.used_features() == {0, 1}
