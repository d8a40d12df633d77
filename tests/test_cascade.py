import math

import numpy as np
import pytest

from ecnn.cascade import (
    CascadeModel,
    CascadeNeuron,
    GrowthConfig,
    InputSource,
    assemble_candidate_inputs,
    rank_features,
    train,
)
from ecnn.dataset import Dataset, NormParams, fit_normalize, split, synth_generate
from ecnn.errors import ConfigError, DataError
from ecnn.projection import error_vector, rse
from ecnn.util import derive_seed


def _normalized_halves(d, fraction=0.5, seed=0):
    dn, _ = fit_normalize(d)
    pair = split(dn, fraction, seed)
    return dn.subset(pair.a_indices), dn.subset(pair.b_indices)


def _toy_model(m=4, base=1, layers=2, fill=0.0):
    neurons = []
    for r in range(1, layers + 1):
        inputs = (
            *(InputSource.hidden(k) for k in range(r - 1)),
            InputSource.feature(base),
            InputSource.feature(base + r),
        )
        weights = np.full(r + 2, fill)
        neurons.append(CascadeNeuron(r, inputs, weights, criterion=1.0 / r))
    return CascadeModel(base, neurons, c0=2.0, norm=NormParams.identity(m),
                        feature_names=[f"f{j}" for j in range(m)])


class TestRankFeatures:
    def test_informative_feature_ranked_first(self):
        d, truth = synth_generate(400, 10, [0], 0.0, 0.0, seed=0)
        d_a, d_b = _normalized_halves(d)
        ranking = rank_features(d_a, d_b, GrowthConfig(), seed=0)
        assert ranking[0][0] == 0

    def test_full_sorted_output(self):
        d, _ = synth_generate(200, 6, [2, 4], 0.1, 0.0, seed=1)
        d_a, d_b = _normalized_halves(d)
        ranking = rank_features(d_a, d_b, GrowthConfig(), seed=1)
        assert len(ranking) == 6
        scores = [s for _, s in ranking]
        assert scores == sorted(scores)
        assert {j for j, _ in ranking} == set(range(6))

    def test_permutation_equivariance(self):
        d, _ = synth_generate(200, 5, [1], 0.05, 0.0, seed=2)
        d_a, d_b = _normalized_halves(d)
        ranking = rank_features(d_a, d_b, GrowthConfig(), seed=3)
        perm = [3, 0, 4, 1, 2]  # column k of permuted data is column perm[k]
        d_a_p = Dataset(d_a.x[:, perm], d_a.y, [f"p{k}" for k in range(5)])
        d_b_p = Dataset(d_b.x[:, perm], d_b.y, [f"p{k}" for k in range(5)])
        ranking_p = rank_features(d_a_p, d_b_p, GrowthConfig(), seed=3)
        remapped = [(perm.index(j), s) for j, s in ranking]
        assert [(j, pytest.approx(s)) for j, s in ranking_p] == [
            (j, pytest.approx(s)) for j, s in sorted(remapped, key=lambda t: (t[1], t[0]))
        ]

    def test_constant_feature_ranks_last(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(100, 3))
        y = (x[:, 0] > 0).astype(np.int64)
        x[:, 2] = 0.0  # already-normalized constant column
        d = Dataset(x, y, ["a", "b", "c"])
        d_a, d_b = d.subset(np.arange(50)), d.subset(np.arange(50, 100))
        ranking = rank_features(d_a, d_b, GrowthConfig(), seed=5)
        assert ranking[-1][0] == 2
        assert math.isinf(ranking[-1][1])


class TestAssembleCandidateInputs:
    def test_first_layer_two_rows(self):
        model = _toy_model(layers=0)
        xn = np.random.default_rng(0).normal(size=(7, 4))
        u = assemble_candidate_inputs(model, 3, xn)
        assert u.shape == (2, 7)
        np.testing.assert_array_equal(u[0], xn[:, 1])
        np.testing.assert_array_equal(u[1], xn[:, 3])

    def test_deeper_layer_stacks_hidden_outputs(self):
        model = _toy_model(m=6, layers=3)
        xn = np.random.default_rng(1).normal(size=(5, 6))
        u = assemble_candidate_inputs(model, 5, xn)
        assert u.shape == (5, 5)  # z1, z2, z3, base, fresh
        z = model.hidden_outputs(xn)
        np.testing.assert_allclose(u[0], z[:, 0])
        np.testing.assert_allclose(u[2], z[:, 2])
        np.testing.assert_array_equal(u[3], xn[:, 1])
        np.testing.assert_array_equal(u[4], xn[:, 5])

    def test_zero_weights_give_half_outputs(self):
        model = _toy_model(m=5, layers=2, fill=0.0)
        xn = np.random.default_rng(2).normal(size=(4, 5))
        u = assemble_candidate_inputs(model, 4, xn)
        np.testing.assert_array_equal(u[0], np.full(4, 0.5))
        np.testing.assert_array_equal(u[1], np.full(4, 0.5))

    def test_used_feature_rejected(self):
        model = _toy_model(m=4, layers=1)
        xn = np.zeros((3, 4))
        with pytest.raises(ValueError):
            assemble_candidate_inputs(model, model.base_feature, xn)


class TestTrain:
    def test_two_informative_features_recovered(self):
        d, truth = synth_generate(800, 10, [2, 7], 0.05, 0.02, seed=0)
        model = train(d, GrowthConfig(), seed=0)
        trace = model.criterion_trace()
        assert all(b < a for a, b in zip(trace, trace[1:]))
        assert model.used_features() & {2, 7}

    def test_perfect_single_feature_task(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(300, 4))
        y = (x[:, 1] > 0).astype(np.int64)
        x[:, 1] = np.where(y == 1, x[:, 1] + 5.0, x[:, 1] - 5.0)
        d = Dataset(x, y, list("abcd"))
        model = train(d, GrowthConfig(), seed=1)
        assert model.error_rate(d) == 0.0

    def test_wiring_shape_invariant(self):
        d, _ = synth_generate(400, 8, [0, 5], 0.1, 0.05, seed=4)
        model = train(d, GrowthConfig(), seed=4)
        for idx, neuron in enumerate(model.neurons):
            r = idx + 1
            assert neuron.layer == r
            assert len(neuron.inputs) == r + 1
            hidden = neuron.inputs[: r - 1]
            assert all(s.kind == "hidden" and s.index == k for k, s in enumerate(hidden))
            assert neuron.inputs[-2] == InputSource.feature(model.base_feature)
            assert neuron.inputs[-1].kind == "feature"

    def test_distinct_fresh_features(self):
        d, _ = synth_generate(400, 8, [1, 3], 0.1, 0.05, seed=5)
        model = train(d, GrowthConfig(), seed=5)
        fresh = [n.inputs[-1].index for n in model.neurons]
        assert len(fresh) == len(set(fresh))
        assert model.base_feature not in fresh

    def test_criteria_recompute_from_weights(self):
        d, _ = synth_generate(300, 6, [0, 4], 0.1, 0.02, seed=6)
        cfg = GrowthConfig()
        model = train(d, cfg, seed=6)
        dn, _ = fit_normalize(d)
        pair = split(dn, cfg.trainer.split_fraction, derive_seed(6, "split"))
        d_b = dn.subset(pair.b_indices)
        z = model.hidden_outputs(d_b.x)
        for idx, neuron in enumerate(model.neurons):
            rows = []
            for src in neuron.inputs:
                rows.append(d_b.x[:, src.index] if src.kind == "feature" else z[:, src.index])
            recomputed = rse(
                error_vector(np.vstack(rows), neuron.weights[:-1], neuron.bias, d_b.y.astype(float))
            )
            assert neuron.criterion == pytest.approx(recomputed, abs=1e-12)

    def test_deterministic_serialization(self):
        d, _ = synth_generate(300, 6, [2], 0.1, 0.05, seed=7)
        m1 = train(d, GrowthConfig(), seed=7)
        m2 = train(d, GrowthConfig(), seed=7)
        assert m1.to_json() == m2.to_json()

    def test_single_class_rejected(self):
        d = Dataset(np.random.default_rng(8).normal(size=(40, 3)), np.zeros(40, dtype=int), list("abc"))
        with pytest.raises(DataError):
            train(d, GrowthConfig(), seed=8)

    def test_max_failed_attempts_limits_growth(self):
        d, _ = synth_generate(600, 20, [0, 1], 0.2, 0.1, seed=9)
        unlimited = train(d, GrowthConfig(), seed=9)
        limited = train(d, GrowthConfig(max_failed_attempts=2), seed=9)
        assert len(limited.neurons) <= len(unlimited.neurons)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            GrowthConfig(restarts_per_candidate=0)


class TestPredictEvaluate:
    def test_zero_weights_give_half(self):
        model = _toy_model()
        prob, cls = model.predict_batch(np.random.default_rng(0).normal(size=4))
        assert prob[0] == 0.5
        assert cls[0] == 1  # threshold 0.5 is inclusive

    def test_unreferenced_features_ignored(self):
        d, _ = synth_generate(300, 8, [1], 0.0, 0.0, seed=10)
        model = train(d, GrowthConfig(), seed=10)
        free = [j for j in range(8) if j not in model.used_features()]
        assert free
        x = d.x[0].copy()
        p0, _ = model.predict_batch(x)
        x[free[0]] += 50.0
        p1, _ = model.predict_batch(x)
        assert p0 == p1

    def test_batch_matches_training_outputs(self):
        d, _ = synth_generate(200, 5, [0], 0.05, 0.0, seed=11)
        model = train(d, GrowthConfig(), seed=11)
        dn = model.norm.apply(d.x)
        direct = model.forward(dn)
        batch, _ = model.predict_batch(d.x)
        np.testing.assert_allclose(batch, direct, atol=1e-12)

    def test_evaluate_extremes(self):
        d, _ = synth_generate(100, 4, [0], 0.0, 0.0, seed=12)
        model = train(d, GrowthConfig(), seed=12)
        _, cls = model.predict_batch(d.x)
        agree = Dataset(d.x, cls, d.feature_names)
        flipped = Dataset(d.x, 1 - cls, d.feature_names)
        assert model.error_rate(agree) == 0.0
        assert model.error_rate(flipped) == 1.0

    def test_coin_flip_labels_near_half(self):
        model = _toy_model(m=4, layers=2, fill=0.3)
        rng = np.random.default_rng(13)
        d = Dataset(rng.normal(size=(10_000, 4)), rng.integers(0, 2, 10_000), list("abcd"))
        assert abs(model.error_rate(d) - 0.5) < 0.02

    def test_dimension_mismatch(self):
        model = _toy_model()
        with pytest.raises(DataError):
            model.predict_batch(np.zeros(7))


class TestSerialization:
    def test_round_trip_prediction_exact(self, tmp_path):
        d, _ = synth_generate(250, 6, [1, 4], 0.1, 0.02, seed=14)
        model = train(d, GrowthConfig(), seed=14)
        path = tmp_path / "cascade.model.json"
        model.save(path)
        loaded = CascadeModel.load(path)
        p1, _ = model.predict_batch(d.x)
        p2, _ = loaded.predict_batch(d.x)
        np.testing.assert_array_equal(p1, p2)
        assert loaded.to_json() == model.to_json()

    def test_schema_fields(self, tmp_path):
        import json

        d, _ = synth_generate(250, 6, [1], 0.1, 0.02, seed=15)
        model = train(d, GrowthConfig(), seed=15)
        doc = json.loads(model.to_json())
        assert set(doc) == {
            "format_version", "base_feature", "feature_names", "norm", "c0", "neurons", "threshold",
        }
        assert set(doc["norm"]) == {"mean", "std", "constant_flags"}
        first = doc["neurons"][0]
        assert set(first) == {"layer", "inputs", "bias", "weights", "criterion"}
        assert len(first["weights"]) == len(first["inputs"])

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            CascadeModel.load(tmp_path / "absent.json")
