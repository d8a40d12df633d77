import dataclasses
import math

import numpy as np
import pytest

from ecnn import cascade, harness
from ecnn.cascade import (
    CascadeModel,
    GrowthConfig,
    assemble_candidate_inputs,
    rank_features,
    train,
)
from ecnn.dataset import Dataset, fit_normalize, split, synth_generate
from ecnn.errors import ConfigError, DataError
from ecnn.projection import TrainConfig
from ecnn.util import derive_seed
from reference import candidate_inputs, error_vector, identity_norm, rse


def _normalized_halves(d, fraction=0.5, seed=0):
    dn, _ = fit_normalize(d)
    return split(dn, fraction, seed)


def _toy_model(m=4, base=1, layers=2, fill=0.0):
    """A cascade whose neuron at layer r adds feature ``base + r`` and has
    every weight ``fill``, decoded from the neurons a model file lists."""
    neurons = []
    for r in range(1, layers + 1):
        inputs = [
            *({"kind": "hidden", "index": k} for k in range(r - 1)),
            {"kind": "feature", "index": base},
            {"kind": "feature", "index": base + r},
        ]
        neurons.append({"layer": r, "inputs": inputs, "bias": fill, "weights": [fill] * (r + 1),
                        "criterion": 1.0 / r})
    return CascadeModel.from_json_dict({
        "format_version": 1, "base_feature": base, "feature_names": [f"f{j}" for j in range(m)],
        "norm": identity_norm(m).to_dict(), "c0": 2.0, "neurons": neurons, "threshold": 0.5,
    })


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


def _perfect_single_feature_task():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(300, 4))
    y = (x[:, 1] > 0).astype(np.int64)
    x[:, 1] = np.where(y == 1, x[:, 1] + 5.0, x[:, 1] - 5.0)
    return Dataset(x, y, list("abcd"))


def _kept_rows(model, xn):
    """Hidden rows built the way ``train`` builds them: each neuron's
    output on its own assembled inputs, appended as it is accepted."""
    hidden = []
    for neuron, listed in zip(model.neurons, model.to_json_dict()["neurons"]):
        u = assemble_candidate_inputs(hidden, xn, model.base_feature, listed["inputs"][-1]["index"])
        hidden.append(neuron.output(u))
    return hidden


def _recorded_calls(monkeypatch, d, cfg, seed):
    """Train with ``assemble_candidate_inputs`` wrapped; returns the model
    and every call's (hidden row count, xn, base, feature, result)."""
    calls = []
    assemble = cascade.assemble_candidate_inputs

    def wrapped(hidden, xn, base_feature, feature_j):
        u = assemble(hidden, xn, base_feature, feature_j)
        calls.append((len(hidden), xn, base_feature, feature_j, u))
        return u

    monkeypatch.setattr(cascade, "assemble_candidate_inputs", wrapped)
    return train(d, cfg, seed), calls


class TestAssembleCandidateInputs:
    def test_first_layer_two_rows(self):
        model = _toy_model(layers=0)
        xn = np.random.default_rng(0).normal(size=(7, 4))
        u = assemble_candidate_inputs([], xn, 1, 3)
        assert u.shape == (2, 7)
        np.testing.assert_array_equal(u[0], xn[:, 1])
        np.testing.assert_array_equal(u[1], xn[:, 3])
        np.testing.assert_array_equal(u, candidate_inputs(model, 3, xn))

    def test_deeper_layer_stacks_hidden_outputs(self):
        model = _toy_model(m=6, layers=3, fill=0.2)
        xn = np.random.default_rng(1).normal(size=(5, 6))
        z = model.hidden_outputs(xn)
        u = assemble_candidate_inputs([z[:, 0], z[:, 1], z[:, 2]], xn, 1, 5)
        assert u.shape == (5, 5)  # z1, z2, z3, base, fresh
        np.testing.assert_array_equal(u[0], z[:, 0])
        np.testing.assert_array_equal(u[2], z[:, 2])
        np.testing.assert_array_equal(u[3], xn[:, 1])
        np.testing.assert_array_equal(u[4], xn[:, 5])
        # rows kept neuron by neuron equal a run of the whole cascade
        hidden = _kept_rows(model, xn)
        np.testing.assert_array_equal(
            assemble_candidate_inputs(hidden, xn, 1, 5), candidate_inputs(model, 5, xn)
        )

    def test_zero_weights_give_half_outputs(self):
        model = _toy_model(m=5, layers=2, fill=0.0)
        xn = np.random.default_rng(2).normal(size=(4, 5))
        u = assemble_candidate_inputs(_kept_rows(model, xn), xn, 1, 4)
        np.testing.assert_array_equal(u[0], np.full(4, 0.5))
        np.testing.assert_array_equal(u[1], np.full(4, 0.5))

    def test_used_feature_rejected(self, monkeypatch):
        # the assembly no longer checks: the ranking offers each feature
        # once, so no call in training names a feature already wired in
        model = _toy_model(m=4, layers=1)
        with pytest.raises(ValueError):
            candidate_inputs(model, model.base_feature, np.zeros((3, 4)))
        d, _ = synth_generate(300, 8, [1, 3], 0.1, 0.05, seed=5)
        model, calls = _recorded_calls(monkeypatch, d, GrowthConfig(), 5)
        for n_hidden, _, base, feature_j, _ in calls:
            wired = {n.feature for n in model.neurons[:n_hidden]}
            assert base == model.base_feature
            assert feature_j != base and feature_j not in wired


class TestKeptOutputs:
    """``train`` keeps each accepted neuron's outputs on parts A and B; every
    candidate's inputs must equal, bit for bit, those found by running the
    cascade of the neurons accepted before it."""

    @pytest.mark.parametrize("case", ["default", "restarts", "max_failed", "fallback"])
    def test_every_call_matches_a_run_of_the_cascade(self, monkeypatch, case):
        if case == "fallback":
            d, cfg, seed = _perfect_single_feature_task(), GrowthConfig(), 1
        else:
            d, _ = synth_generate(400, 12, [0, 4, 7, 9], 0.2, 0.05, seed=0)
            cfg = {"default": GrowthConfig(), "restarts": GrowthConfig(restarts_per_candidate=2),
                   "max_failed": GrowthConfig(max_failed_attempts=2)}[case]
            seed = 0
        model, calls = _recorded_calls(monkeypatch, d, cfg, seed)
        accepted = model.criterion_trace()[-1] < model.c0
        assert accepted == (case != "fallback")
        assert len(calls) % 2 == 0  # parts A and B, once per candidate
        # every ranked feature is tried unless the rejection limit stops growth
        assert (len(calls) // 2 < d.m - 1) == (case == "max_failed")
        for (n_a, xa, _, j_a, u_a), (n_b, xb, _, j_b, u_b) in zip(calls[::2], calls[1::2]):
            assert (n_a, j_a) == (n_b, j_b)
            assert xa.shape[0] + xb.shape[0] == d.n
            so_far = dataclasses.replace(model, neurons=model.neurons[:n_a] if accepted else [])
            np.testing.assert_array_equal(u_a, candidate_inputs(so_far, j_a, xa))
            np.testing.assert_array_equal(u_b, candidate_inputs(so_far, j_b, xb))
        if accepted:
            assert calls[-1][0] in (len(model.neurons), len(model.neurons) - 1)
        else:
            assert {n for n, *_ in calls} == {0}
            assert len(model.neurons) == 1 and model.neurons[0].criterion >= model.c0


class TestTrain:
    def test_two_informative_features_recovered(self):
        d, truth = synth_generate(800, 10, [2, 7], 0.05, 0.02, seed=0)
        model = train(d, GrowthConfig(), seed=0)
        trace = model.criterion_trace()
        assert all(b < a for a, b in zip(trace, trace[1:]))
        assert model.used_features() & {2, 7}

    def test_perfect_single_feature_task(self):
        d = _perfect_single_feature_task()
        model = train(d, GrowthConfig(), seed=1)
        assert model.error_rate(d) == 0.0

    def test_wiring_shape_invariant(self):
        d, _ = synth_generate(400, 8, [0, 5], 0.1, 0.05, seed=4)
        model = train(d, GrowthConfig(), seed=4)
        for idx, neuron in enumerate(model.to_json_dict()["neurons"]):
            r = idx + 1
            assert neuron["layer"] == r
            assert len(neuron["inputs"]) == r + 1
            hidden = neuron["inputs"][: r - 1]
            assert all(s == {"kind": "hidden", "index": k} for k, s in enumerate(hidden))
            assert neuron["inputs"][-2] == {"kind": "feature", "index": model.base_feature}
            assert neuron["inputs"][-1] == {"kind": "feature", "index": model.neurons[idx].feature}

    def test_distinct_fresh_features(self):
        d, _ = synth_generate(400, 8, [1, 3], 0.1, 0.05, seed=5)
        model = train(d, GrowthConfig(), seed=5)
        fresh = [n.feature for n in model.neurons]
        assert len(fresh) == len(set(fresh))
        assert model.base_feature not in fresh

    def test_criteria_recompute_from_weights(self):
        d, _ = synth_generate(300, 6, [0, 4], 0.1, 0.02, seed=6)
        cfg = GrowthConfig()
        model = train(d, cfg, seed=6)
        dn, _ = fit_normalize(d)
        _, d_b = split(dn, cfg.trainer.split_fraction, derive_seed(6, "split"))
        z = model.hidden_outputs(d_b.x)
        for neuron, listed in zip(model.neurons, model.to_json_dict()["neurons"]):
            rows = []
            for src in listed["inputs"]:
                rows.append(d_b.x[:, src["index"]] if src["kind"] == "feature" else z[:, src["index"]])
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
        with pytest.raises(DataError, match="^fitting part contains a single class$"):
            train(d, GrowthConfig(), seed=8)

    def test_max_failed_attempts_limits_growth(self):
        d, _ = synth_generate(600, 20, [0, 1], 0.2, 0.1, seed=9)
        unlimited = train(d, GrowthConfig(), seed=9)
        limited = train(d, GrowthConfig(max_failed_attempts=2), seed=9)
        assert len(limited.neurons) <= len(unlimited.neurons)

    # Criterion-5 protocol (4 relevant of 72 features, best of 2 restarts):
    # (data seed, test error, features, layers). The numerics of the
    # sigmoid may move the models' last bits, never these decisions.
    @pytest.mark.parametrize("seed, error, features, layers", [
        (0, 0.110, [9, 22, 35, 59], 3),
        (1, 0.104, [7, 9, 22, 23, 35, 59], 5),
        (2, 0.085, [5, 9, 18, 22, 35, 49, 54, 59, 63, 67], 9),
        (3, 0.091, [1, 2, 5, 9, 22, 30, 35, 58, 59], 8),
    ])
    def test_selection_decisions_pinned(self, seed, error, features, layers):
        d, _ = synth_generate(3000, 72, [9, 22, 35, 59], 0.1, 0.05, seed)
        trainer = TrainConfig(split_fraction=0.33, max_steps=400)
        method = harness.Method("ecnn", GrowthConfig(trainer=trainer, max_failed_attempts=6))
        best = harness.multi_restart(
            method, d.subset(np.arange(2000)), d.subset(np.arange(2000, 3000)), runs=2, base_seed=seed
        ).best
        assert best.test_error == error
        assert sorted(best.feature_set) == features
        assert best.model.size() == layers

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
