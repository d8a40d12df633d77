import numpy as np
import pytest

from ecnn.dataset import Dataset, fit_normalize, split, synth_generate
from ecnn.errors import ConfigError, DataError
from ecnn.gmdh import (
    GmdhConfig,
    GmdhModel,
    evolve,
    fit_ls,
    poly_forward,
)
from ecnn.util import derive_rng, derive_seed


class TestPolyForward:
    def test_linear_case(self):
        assert poly_forward(np.array([0.0, 1.0, 1.0, 0.0]), 2.0, 3.0) == 5.0

    def test_hand_arithmetic(self):
        # 1 + 2*1 + 3*2 + 4*1*2 = 17
        assert poly_forward(np.array([1.0, 2.0, 3.0, 4.0]), 1.0, 2.0) == 17.0

    def test_constant_case(self):
        for u in ((0.0, 0.0), (5.0, -3.0)):
            assert poly_forward(np.array([4.5, 0, 0, 0]), *u) == 4.5

    def test_single_input_drops_interaction(self):
        assert poly_forward(np.array([1.0, 2.0, 99.0, 99.0]), 3.0) == 7.0

    def test_vectorized(self):
        u1 = np.array([1.0, 2.0])
        u2 = np.array([0.0, 1.0])
        np.testing.assert_allclose(poly_forward(np.array([0, 1, 1, 1.0]), u1, u2), [1.0, 5.0])


class TestFitLs:
    def test_exact_recovery(self):
        rng = np.random.default_rng(0)
        u1 = rng.normal(size=200)
        u2 = rng.normal(size=200)
        true = np.array([0.7, -1.2, 2.5, 0.4])
        targets = poly_forward(true, u1, u2)
        coeffs = fit_ls(u1, u2, targets, subsample=1.0)
        np.testing.assert_allclose(coeffs, true, atol=1e-8)
        residual = poly_forward(coeffs, u1, u2) - targets
        assert np.linalg.norm(residual) < 1e-8

    def test_constant_targets(self):
        rng = np.random.default_rng(1)
        u1 = rng.normal(size=100)
        u2 = rng.normal(size=100)
        coeffs = fit_ls(u1, u2, np.full(100, 3.25), subsample=1.0)
        np.testing.assert_allclose(coeffs, [3.25, 0, 0, 0], atol=1e-10)

    def test_collinear_inputs_min_norm(self):
        rng = np.random.default_rng(2)
        u1 = rng.normal(size=50)
        targets = 1.0 + 2.0 * u1
        coeffs = fit_ls(u1, u1.copy(), targets, subsample=1.0)
        assert np.all(np.isfinite(coeffs))
        np.testing.assert_allclose(poly_forward(coeffs, u1, u1), targets, atol=1e-8)

    def test_normal_equations_hold(self):
        rng = np.random.default_rng(3)
        u1 = rng.normal(size=80)
        u2 = rng.normal(size=80)
        targets = rng.normal(size=80)
        coeffs = fit_ls(u1, u2, targets, subsample=1.0)
        basis = np.column_stack([np.ones(80), u1, u2, u1 * u2])
        residual = basis @ coeffs - targets
        scale = np.linalg.norm(basis) * max(np.linalg.norm(targets), 1.0)
        assert np.linalg.norm(basis.T @ residual) < 1e-8 * scale

    def test_subsampling_uses_fraction(self):
        rng = np.random.default_rng(4)
        u1 = rng.normal(size=100)
        targets = u1 * 2.0
        c1 = fit_ls(u1, None, targets, subsample=0.5, rng=derive_rng(0, "a"))
        c2 = fit_ls(u1, None, targets, subsample=0.5, rng=derive_rng(0, "a"))
        np.testing.assert_array_equal(c1, c2)  # deterministic per stream

    def test_too_few_rows(self):
        with pytest.raises(DataError, match="at least 4"):
            fit_ls(np.ones(3), np.ones(3), np.ones(3), subsample=1.0)

    def test_seed_fit_is_linear(self):
        rng = np.random.default_rng(5)
        u1 = rng.normal(size=60)
        targets = 0.5 - 1.5 * u1
        coeffs = fit_ls(u1, None, targets, subsample=1.0)
        np.testing.assert_allclose(coeffs, [0.5, -1.5, 0, 0], atol=1e-10)


def _xor_like(n, seed):
    """Labels depend on the sign of a product of two coordinates kept away
    from zero: no single input separates, one interaction neuron does."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 4))
    for j in (0, 1):
        x[:, j] = rng.choice([-1.0, 1.0], size=n) * rng.uniform(0.5, 1.5, size=n)
    y = (x[:, 0] * x[:, 1] > 0).astype(np.int64)
    return Dataset(x, y, [f"f{j}" for j in range(4)])


class TestEvolve:
    def test_interaction_task_oracle_first(self):
        # direct-fit oracle: one polynomial neuron over (x0, x1) separates,
        # while the best single-input neuron stays near chance
        d = _xor_like(400, seed=0)
        coeffs = fit_ls(d.x[:, 0], d.x[:, 1], d.y.astype(float), subsample=1.0)
        acc = np.mean((poly_forward(coeffs, d.x[:, 0], d.x[:, 1]) >= 0.5) == d.y)
        assert acc >= 0.98
        single_best = 0.0
        for j in range(d.m):
            c = fit_ls(d.x[:, j], None, d.y.astype(float), subsample=1.0)
            single_best = max(single_best, np.mean((poly_forward(c, d.x[:, j]) >= 0.5) == d.y))
        assert single_best < 0.7

    def test_interaction_task_evolves(self):
        d_train = _xor_like(400, seed=1)
        d_valid = _xor_like(400, seed=2)
        cfg = GmdhConfig(offspring_per_generation=60, max_serial_failures=3, fit_subsample=1.0, seed=0)
        model = evolve(d_train, d_valid, cfg)
        assert model.validation_performance >= 0.98

    def test_single_feature_task_gives_one_neuron(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(300, 5))
        y = (x[:, 2] > 0).astype(np.int64)
        x[:, 2] = np.where(y == 1, x[:, 2] + 3.0, x[:, 2] - 3.0)  # wide margin
        d = Dataset(x, y, [f"f{j}" for j in range(5)])
        cfg = GmdhConfig(offspring_per_generation=40, max_serial_failures=2, fit_subsample=1.0, seed=1)
        model = evolve(d.subset(np.arange(150)), d.subset(np.arange(150, 300)), cfg)
        assert model.validation_performance == 1.0
        assert len(model.selected_ids) == 1

    def test_acceptance_beats_both_parents(self):
        d_train = _xor_like(300, seed=4)
        d_valid = _xor_like(300, seed=5)
        cfg = GmdhConfig(offspring_per_generation=50, max_serial_failures=2, fit_subsample=0.5, seed=2)
        model = evolve(d_train, d_valid, cfg)
        by_id = {n.id: n for n in model.neurons}
        for n in model.neurons:
            if n.parent_b is None:
                continue
            pa = by_id[n.parent_a.index].performance
            pb = by_id[n.parent_b.index].performance
            assert n.performance > max(pa, pb)

    def test_best_performance_non_decreasing(self):
        d_train = _xor_like(300, seed=6)
        d_valid = _xor_like(300, seed=7)
        cfg = GmdhConfig(offspring_per_generation=50, max_serial_failures=3, fit_subsample=0.5, seed=3)
        model = evolve(d_train, d_valid, cfg)
        bests = [b for _, b, _ in model.generation_log]
        assert all(b2 >= b1 for b1, b2 in zip(bests, bests[1:]))

    def test_selected_subgraph_is_ancestors_only(self):
        d_train = _xor_like(300, seed=8)
        d_valid = _xor_like(300, seed=9)
        cfg = GmdhConfig(offspring_per_generation=50, max_serial_failures=2, fit_subsample=1.0, seed=4)
        model = evolve(d_train, d_valid, cfg)
        selected = set(model.selected_ids)
        assert model.output_id in selected
        by_id = {n.id: n for n in model.neurons}
        for nid in selected:
            n = by_id[nid]
            for src in (n.parent_a, n.parent_b):
                if src is not None and src.kind == "neuron":
                    assert src.index in selected
                    assert src.index < nid  # acyclic by creation order

    def test_single_class_part_rejected(self):
        x = np.random.default_rng(10).normal(size=(30, 3))
        d_bad = Dataset(x, np.zeros(30, dtype=np.int64), ["a", "b", "c"])
        d_ok = Dataset(x, np.arange(30) % 2, ["a", "b", "c"])
        with pytest.raises(DataError):
            evolve(d_bad, d_ok, GmdhConfig(seed=0))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            GmdhConfig(fit_subsample=0.0)
        with pytest.raises(ConfigError):
            GmdhConfig(fit_subsample=1.5)


class TestPredictAndSerialize:
    def _small_model(self, seed=0):
        d, _ = synth_generate(240, 5, [0, 3], 0.1, 0.02, seed=seed)
        dn, norm = fit_normalize(d)
        pair = split(dn, 0.5, derive_seed(seed, "s"))
        cfg = GmdhConfig(offspring_per_generation=40, max_serial_failures=2, fit_subsample=1.0, seed=seed)
        model = evolve(dn.subset(pair.a_indices), dn.subset(pair.b_indices), cfg, norm=norm)
        return d, model

    def test_constant_neuron_always_one_class(self):
        from ecnn.dataset import NormParams
        from ecnn.gmdh import PolyNeuron, Source

        neuron = PolyNeuron(0, Source("feature", 0), None, np.array([0.6, 0, 0, 0]), 1.0)
        model = GmdhModel([neuron], 0, [0], [], NormParams.identity(3), 3)
        for x in (np.zeros(3), np.array([5.0, -2.0, 1.0])):
            score, cls = model.predict_batch(x)
            assert cls[0] == 1 and score[0] == 0.6

    def test_prediction_ignores_unreferenced_features(self):
        d, model = self._small_model()
        used = model.used_features()
        free = [j for j in range(d.m) if j not in used]
        assert free, "test needs an unreferenced feature"
        x = d.x[0].copy()
        base_score, _ = model.predict_batch(x)
        x[free[0]] += 100.0
        bumped_score, _ = model.predict_batch(x)
        assert bumped_score == base_score

    def test_round_trip_bit_exact(self, tmp_path):
        d, model = self._small_model(seed=1)
        path = tmp_path / "gmdh.model.json"
        model.save(path)
        loaded = GmdhModel.load(path)
        s1, _ = model.predict_batch(d.x)
        s2, _ = loaded.predict_batch(d.x)
        np.testing.assert_array_equal(s1, s2)

    def test_evaluate_matches_manual(self):
        d, model = self._small_model(seed=2)
        _, cls = model.predict_batch(d.x)
        assert model.error_rate(d) == pytest.approx(np.mean(cls != d.y))
