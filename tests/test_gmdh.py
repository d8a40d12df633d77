import json

import numpy as np
import pytest
from click.testing import CliRunner

from ecnn.cli import cli
from ecnn.dataset import Dataset, fit_normalize, save_csv, split, synth_generate
from ecnn.errors import ConfigError, DataError, NumericError
from ecnn import gmdh
from ecnn.gmdh import (
    GmdhConfig,
    GmdhModel,
    _ancestor_ids,
    evolve,
    fit_ls,
    poly_forward,
)
from ecnn.util import derive_rng, derive_seed
from reference import ancestor_ids, identity_norm


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

    def test_coefficient_rows_score_their_columns_bit_for_bit(self):
        rng = np.random.default_rng(3)
        coeffs = rng.normal(size=(6, 4))
        u1, u2 = rng.normal(size=(2, 50, 6))
        for args in ((u1,), (u1, u2)):
            out = poly_forward(coeffs, *args)
            assert out.shape == (50, 6)
            for r in range(6):
                single = poly_forward(coeffs[r], *(u[:, r] for u in args))
                assert out[:, r].tobytes() == single.tobytes()


class TestFitLs:
    def test_exact_recovery(self):
        rng = np.random.default_rng(0)
        u1 = rng.normal(size=200)
        u2 = rng.normal(size=200)
        true = np.array([0.7, -1.2, 2.5, 0.4])
        targets = poly_forward(true, u1, u2)
        coeffs = fit_ls(u1, u2, targets)
        np.testing.assert_allclose(coeffs, true, atol=1e-8)
        residual = poly_forward(coeffs, u1, u2) - targets
        assert np.linalg.norm(residual) < 1e-8

    def test_constant_targets(self):
        rng = np.random.default_rng(1)
        u1 = rng.normal(size=100)
        u2 = rng.normal(size=100)
        coeffs = fit_ls(u1, u2, np.full(100, 3.25))
        np.testing.assert_allclose(coeffs, [3.25, 0, 0, 0], atol=1e-10)

    def test_collinear_inputs_min_norm(self):
        rng = np.random.default_rng(2)
        u1 = rng.normal(size=50)
        targets = 1.0 + 2.0 * u1
        coeffs = fit_ls(u1, u1.copy(), targets)
        assert np.all(np.isfinite(coeffs))
        np.testing.assert_allclose(poly_forward(coeffs, u1, u1), targets, atol=1e-8)

    def test_normal_equations_hold(self):
        rng = np.random.default_rng(3)
        u1 = rng.normal(size=80)
        u2 = rng.normal(size=80)
        targets = rng.normal(size=80)
        coeffs = fit_ls(u1, u2, targets)
        basis = np.column_stack([np.ones(80), u1, u2, u1 * u2])
        residual = basis @ coeffs - targets
        scale = np.linalg.norm(basis) * max(np.linalg.norm(targets), 1.0)
        assert np.linalg.norm(basis.T @ residual) < 1e-8 * scale

    @pytest.mark.parametrize("subsample", [0.5, 1.0])
    @pytest.mark.parametrize("two_inputs", [True, False])
    def test_same_bytes_as_column_stack_basis(self, subsample, two_inputs):
        # on gathered rows, as a seed neuron's, and on whole arrays
        rng = np.random.default_rng(6)
        u1, u2, targets = rng.normal(size=(3, 90))
        rows = derive_rng(0, "b").choice(90, size=45, replace=False) if subsample < 1 else slice(None)
        u1, u2, targets = u1[rows], u2[rows], targets[rows]
        columns = [np.ones(len(targets)), u1]
        if two_inputs:
            columns += [u2, u1 * u2]
        ref, *_ = np.linalg.lstsq(np.column_stack(columns), targets, rcond=None)
        got = fit_ls(u1, u2 if two_inputs else None, targets)
        assert got[: len(ref)].tobytes() == ref.tobytes()
        assert not got[len(ref):].any()

    def test_seed_fit_is_linear(self):
        rng = np.random.default_rng(5)
        u1 = rng.normal(size=60)
        targets = 0.5 - 1.5 * u1
        coeffs = fit_ls(u1, None, targets)
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
        coeffs = fit_ls(d.x[:, 0], d.x[:, 1], d.y.astype(float))
        acc = np.mean((poly_forward(coeffs, d.x[:, 0], d.x[:, 1]) >= 0.5) == d.y)
        assert acc >= 0.98
        single_best = 0.0
        for j in range(d.m):
            c = fit_ls(d.x[:, j], None, d.y.astype(float))
            single_best = max(single_best, np.mean((poly_forward(c, d.x[:, j]) >= 0.5) == d.y))
        assert single_best < 0.7

    def test_interaction_task_evolves(self):
        d_train = _xor_like(400, seed=1)
        d_valid = _xor_like(400, seed=2)
        cfg = GmdhConfig(offspring_per_generation=60, max_serial_failures=3, fit_subsample=1.0)
        model = evolve(d_train, d_valid, cfg, seed=0, norm=identity_norm(d_train.m))
        assert model.validation_performance >= 0.98

    def test_single_feature_task_gives_one_neuron(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(300, 5))
        y = (x[:, 2] > 0).astype(np.int64)
        x[:, 2] = np.where(y == 1, x[:, 2] + 3.0, x[:, 2] - 3.0)  # wide margin
        d = Dataset(x, y, [f"f{j}" for j in range(5)])
        cfg = GmdhConfig(offspring_per_generation=40, max_serial_failures=2, fit_subsample=1.0)
        model = evolve(d.subset(np.arange(150)), d.subset(np.arange(150, 300)), cfg, seed=1, norm=identity_norm(5))
        assert model.validation_performance == 1.0
        assert model.size() == 1

    def test_acceptance_beats_both_parents(self):
        d_train = _xor_like(300, seed=4)
        d_valid = _xor_like(300, seed=5)
        cfg = GmdhConfig(offspring_per_generation=50, max_serial_failures=2, fit_subsample=0.5)
        neurons, _ = _population(d_train, d_valid, cfg, seed=2)
        assert len(neurons) > d_train.m
        by_id = {n["id"]: n for n in neurons}
        for n in neurons:
            if n["parent_b"] is None:
                continue
            pa = by_id[n["parent_a"]["index"]]["performance"]
            pb = by_id[n["parent_b"]["index"]]["performance"]
            assert n["performance"] > max(pa, pb)

    def test_best_performance_non_decreasing(self):
        d_train = _xor_like(300, seed=6)
        d_valid = _xor_like(300, seed=7)
        cfg = GmdhConfig(offspring_per_generation=50, max_serial_failures=3, fit_subsample=0.5)
        model = evolve(d_train, d_valid, cfg, seed=3, norm=identity_norm(d_train.m))
        bests = [b for _, b, _ in model.generation_log]
        assert all(b2 >= b1 for b1, b2 in zip(bests, bests[1:]))

    def test_selected_subgraph_is_ancestors_only(self):
        d_train = _xor_like(300, seed=8)
        d_valid = _xor_like(300, seed=9)
        cfg = GmdhConfig(offspring_per_generation=50, max_serial_failures=2, fit_subsample=1.0)
        model = evolve(d_train, d_valid, cfg, seed=4, norm=identity_norm(d_train.m))
        neurons, _ = _population(d_train, d_valid, cfg, seed=4)
        selected = set(model.neurons.tolist())
        assert model.output_id in selected
        assert sorted(selected) == ancestor_ids(neurons, model.output_id)
        by_id = {n["id"]: n for n in neurons}
        for nid in selected:
            n = by_id[nid]
            for src in (n["parent_a"], n["parent_b"]):
                if src is not None and src["kind"] == "neuron":
                    assert src["index"] in selected
                    assert src["index"] < nid  # acyclic by creation order

    def test_single_class_part_rejected(self):
        x = np.random.default_rng(10).normal(size=(30, 3))
        d_bad = Dataset(x, np.zeros(30, dtype=np.int64), ["a", "b", "c"])
        d_ok = Dataset(x, np.arange(30) % 2, ["a", "b", "c"])
        with pytest.raises(DataError, match="^fitting part contains a single class$"):
            evolve(d_bad, d_ok, GmdhConfig(), seed=0, norm=identity_norm(3))
        with pytest.raises(DataError, match="^validation part contains a single class$"):
            evolve(d_ok, d_bad, GmdhConfig(), seed=0, norm=identity_norm(3))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            GmdhConfig(fit_subsample=0.0)
        with pytest.raises(ConfigError):
            GmdhConfig(fit_subsample=1.5)

    def test_too_few_rows(self):
        # half of a 6-row fitting part is 3 rows, too few for a 4-term fit
        d_train, d_valid = _small_task(0)
        d_train = d_train.subset(np.arange(6))
        assert np.bincount(d_train.y, minlength=2).min() > 0
        with pytest.raises(DataError, match="subsample of 3 rows is too small; need at least 4"):
            evolve(d_train, d_valid, GmdhConfig(fit_subsample=0.5), seed=0, norm=identity_norm(d_train.m))


class TestSeedFits:
    @pytest.mark.parametrize("subsample", [0.5, 1.0])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_lstsq_on_drawn_rows(self, seed, subsample):
        # seed neuron j is the minimum-norm lstsq fit of (1, x_j) on the
        # rows its own stream draws, or on all the rows at subsample 1
        d_train, d_valid = _small_task(seed)
        cfg = GmdhConfig(offspring_per_generation=20, max_serial_failures=1, fit_subsample=subsample)
        coeffs, parents, _, _ = gmdh._grow_population(d_train, d_valid, cfg, seed)
        q, count = d_train.n, round(subsample * d_train.n)
        assert (parents[: d_train.m] == -1).all()
        for j in range(d_train.m):
            rows = np.arange(q)
            if count < q:
                rows = derive_rng(seed, "seed-fit", j).choice(q, size=count, replace=False)
            basis = np.column_stack([np.ones(count), d_train.x[rows, j]])
            ref, *_ = np.linalg.lstsq(basis, d_train.y[rows].astype(np.float64), rcond=None)
            assert coeffs[j].tobytes() == np.concatenate([ref, [0.0, 0.0]]).tobytes()


def _neuron(nid, parent_a, parent_b, coeffs, performance):
    """A GMDH neuron as a model file lists it; a parent is ``("feature", j)``,
    ``("neuron", id)`` or None."""
    def source(parent):
        return None if parent is None else {"kind": parent[0], "index": parent[1]}

    return {"id": nid, "parent_a": source(parent_a), "parent_b": source(parent_b),
            "coeffs": np.asarray(coeffs, dtype=np.float64).tolist(), "performance": float(performance)}


def _coeff_bytes(neuron):
    return np.asarray(neuron["coeffs"], dtype=np.float64).tobytes()


def _links(neuron):
    return neuron["parent_a"], neuron["parent_b"], neuron["performance"]


def _as_neurons(coeffs, parents, performance):
    """The neurons, in id order and as a model file lists them, that
    population arrays describe: row i holds neuron i's coefficients,
    parent ids (-1 for a seed neuron, which reads feature i) and
    performance."""
    assert coeffs.shape == (len(parents), 4) and parents.shape[1] == 2 and performance.shape == (len(parents),)
    neurons = []
    for nid, (a, b) in enumerate(parents.tolist()):
        if a < 0:
            assert b < 0
            sources = (("feature", nid), None)
        else:
            sources = (("neuron", a), ("neuron", b))
        neurons.append(_neuron(nid, *sources, coeffs[nid], performance[nid]))
    return neurons


def _population(d_train, d_valid, cfg, seed):
    """Every neuron ``evolve`` creates, read from ``_grow_population``'s
    arrays, and the generation log."""
    coeffs, parents, performance, log = gmdh._grow_population(d_train, d_valid, cfg, seed)
    return _as_neurons(coeffs, parents, performance), log


def _reference_evolve(d_train, d_valid, cfg, base_seed):
    """The generation loop one offspring at a time, on the draws ``evolve``
    makes: each offspring takes its pair, then its own row of keys, from
    the generation's stream, is fitted by ``fit_ls`` (``lstsq``) on the
    rows its keys pick, scored and accepted in turn; the output is picked
    by recomputing every neuron's ancestor subgraph. Returns every neuron
    created, the generation log, the output id and its subgraph's ids."""
    yt = d_train.y.astype(np.float64)
    yv = d_valid.y
    q = d_train.n
    count = q if cfg.fit_subsample >= 1.0 else int(round(cfg.fit_subsample * q))

    def accuracy(scores):
        return float(np.mean((scores >= 0.5).astype(np.int64) == yv))

    neurons, out_train, out_valid = [], [], []
    for j in range(d_train.m):
        rows = np.arange(q)
        if count < q:
            rows = derive_rng(base_seed, "seed-fit", j).choice(q, size=count, replace=False)
        coeffs = fit_ls(d_train.x[rows, j], None, yt[rows])
        ov = poly_forward(coeffs, d_valid.x[:, j])
        neurons.append(_neuron(j, ("feature", j), None, coeffs, accuracy(ov)))
        out_train.append(poly_forward(coeffs, d_train.x[:, j]))
        out_valid.append(ov)
    best_perf = max(n["performance"] for n in neurons)
    log = [(0, best_perf, len(neurons))]
    failures = generation = 0
    while failures < cfg.max_serial_failures:
        generation += 1
        rng = derive_rng(base_seed, "generation", generation)
        pool, k = len(neurons), cfg.offspring(d_train.m)
        first = rng.integers(pool, size=k)
        second = (first + rng.integers(1, pool, size=k)) % pool
        accepted = []
        for i, j in zip(first.tolist(), second.tolist()):
            assert i != j
            rows = np.arange(q)
            if count < q:
                rows = np.argpartition(rng.random(q), count - 1)[:count]
            coeffs = fit_ls(out_train[i][rows], out_train[j][rows], yt[rows])
            ov = poly_forward(coeffs, out_valid[i], out_valid[j])
            perf = accuracy(ov)
            if perf > max(neurons[i]["performance"], neurons[j]["performance"]):
                accepted.append((coeffs, i, j, perf, poly_forward(coeffs, out_train[i], out_train[j]), ov))
        for coeffs, i, j, perf, ot, ov in accepted:
            neurons.append(_neuron(len(neurons), ("neuron", i), ("neuron", j), coeffs, perf))
            out_train.append(ot)
            out_valid.append(ov)
        generation_best = max((a[3] for a in accepted), default=-np.inf)
        if generation_best > best_perf:
            best_perf, failures = generation_best, 0
        else:
            failures += 1
        log.append((generation, best_perf, len(neurons)))

    output = min(neurons, key=lambda n: (-n["performance"], len(ancestor_ids(neurons, n["id"])), n["id"]))
    return neurons, log, output["id"], ancestor_ids(neurons, output["id"])


def _assert_close_fit(got, ref):
    """The stated tolerance of the batched solve: every coefficient within
    1e-8 of the largest coefficient of the ``lstsq`` answer."""
    got, ref = np.asarray(got, dtype=np.float64), np.asarray(ref, dtype=np.float64)
    assert np.abs(got - ref).max() <= 1e-8 * np.abs(ref).max(), (got, ref)


def _small_task(seed):
    d, _ = synth_generate(160, 5, [0, 3], 0.3, 0.1, seed=seed)
    return split(d, 0.5, derive_seed(seed, "s"))


class TestFitLsBatch:
    @pytest.mark.parametrize("offset, spread", [(0.0, 1.0), (0.5, 0.1), (-3.0, 2.0)])
    def test_matches_lstsq_on_full_rank_bases(self, offset, spread):
        # offset and small spread give the uncentred, nearly collinear
        # columns that neuron outputs have
        rng = np.random.default_rng(7)
        u1 = offset + spread * rng.normal(size=(40, 60))
        u2 = offset + spread * (0.9 * (u1 - offset) / spread + 0.3 * rng.normal(size=(40, 60)))
        targets = rng.integers(0, 2, size=(40, 60)).astype(np.float64)
        got = gmdh.fit_ls_batch(u1, u2, targets)
        for r in range(40):
            basis = np.column_stack([np.ones(60), u1[r], u2[r], u1[r] * u2[r]])
            assert np.linalg.matrix_rank(basis) == 4
            _assert_close_fit(got[r], fit_ls(u1[r], u2[r], targets[r]))

    @pytest.mark.parametrize("offset, spread", [(0.0, 1.0), (0.5, 0.1), (-3.0, 2.0)])
    def test_row_sums_give_the_basis_gram(self, offset, spread):
        # the same nearly collinear inputs as above, centred: the normal
        # equations from row sums are the explicit basis @ basis.T and
        # basis @ targets, to roundoff relative to the column norms
        rng = np.random.default_rng(7)
        u1 = offset + spread * rng.normal(size=(40, 60))
        u2 = offset + spread * (0.9 * (u1 - offset) / spread + 0.3 * rng.normal(size=(40, 60)))
        targets = rng.integers(0, 2, size=(40, 60)).astype(np.float64)
        c1, c2 = u1 - u1.mean(axis=1, keepdims=True), u2 - u2.mean(axis=1, keepdims=True)
        gram, rhs = gmdh._normal_equations(c1, c2, targets)
        for r in range(40):
            basis = np.stack([np.ones(60), c1[r], c2[r], c1[r] * c2[r]])
            norms = np.linalg.norm(basis, axis=1)
            assert (np.abs(gram[r] - basis @ basis.T) <= 1e-12 * np.outer(norms, norms)).all()
            assert (np.abs(rhs[r] - basis @ targets[r]) <= 1e-12 * norms * np.linalg.norm(targets[r])).all()

    def test_one_target_vector_for_all_rows(self):
        rng = np.random.default_rng(8)
        u1, u2 = rng.normal(size=(2, 5, 30))
        targets = rng.normal(size=30)
        got = gmdh.fit_ls_batch(u1, u2, targets)
        assert got.tobytes() == gmdh.fit_ls_batch(u1, u2, np.tile(targets, (5, 1))).tobytes()

    def test_recovers_exact_polynomial(self):
        rng = np.random.default_rng(9)
        u1, u2 = 0.5 + 0.2 * rng.normal(size=(2, 6, 50))
        true = np.array([0.7, -1.2, 2.5, 0.4])
        targets = poly_forward(true, u1, u2)
        np.testing.assert_allclose(gmdh.fit_ls_batch(u1, u2, targets), np.tile(true, (6, 1)), rtol=1e-8)

    def test_rank_deficient_bases_get_lstsq_minimum_norm(self):
        # two parents with identical outputs, a parent constant on the rows
        # and one that is an affine image of the other: each basis has rank
        # below 4, and the batch must give fit_ls's lstsq answer bit for bit
        rng = np.random.default_rng(10)
        u1, u2 = rng.normal(size=(2, 6, 40))
        targets = rng.integers(0, 2, size=(6, 40)).astype(np.float64)
        u2[1] = u1[1]
        u1[3] = 0.25
        u2[4] = 2.0 * u1[4] - 1.0
        got = gmdh.fit_ls_batch(u1, u2, targets)
        for r in range(6):
            ref = fit_ls(u1[r], u2[r], targets[r])
            if r in (1, 3, 4):
                basis = np.column_stack([np.ones(40), u1[r], u2[r], u1[r] * u2[r]])
                assert np.linalg.matrix_rank(basis) < 4
                assert got[r].tobytes() == ref.tobytes()
                ls, *_ = np.linalg.lstsq(basis, targets[r], rcond=None)
                assert got[r].tobytes() == ls.tobytes()
            else:
                _assert_close_fit(got[r], ref)
        # a batch with no well-conditioned system at all
        only = gmdh.fit_ls_batch(u1[[1, 3]], u2[[1, 3]], targets[[1, 3]])
        assert only.tobytes() == got[[1, 3]].tobytes()
        # one target vector for every row takes the same fall-back
        shared = gmdh.fit_ls_batch(u1, u2, targets[1])
        assert shared.tobytes() == gmdh.fit_ls_batch(u1, u2, np.tile(targets[1], (6, 1))).tobytes()

    def test_non_finite_system_raises(self):
        # the product column of one basis overflows
        u1 = np.random.default_rng(11).normal(size=(2, 10))
        u1[1, 3] = 1e200
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError, match="non-finite"):
            gmdh.fit_ls_batch(u1, -u1, np.ones(10))


class TestOutputChoice:
    # seeds 0-2 (parents -1), then offspring 3-8 with these parent pairs;
    # 4, 7 and 8 tie at the best performance, with subgraphs of 5, 3 and 3
    PARENTS = np.array([[-1, -1], [-1, -1], [-1, -1], [0, 1], [3, 2], [0, 2], [5, 1], [1, 2], [0, 1]])
    PERFORMANCE = np.array([0.5, 0.55, 0.6, 0.7, 0.9, 0.8, 0.85, 0.9, 0.9])

    def test_smallest_subgraph_then_lowest_id(self, monkeypatch):
        coeffs = np.arange(36, dtype=np.float64).reshape(9, 4)
        log = [(0, 0.6, 3), (1, 0.9, 9)]
        monkeypatch.setattr(gmdh, "_grow_population", lambda *args: (coeffs, self.PARENTS, self.PERFORMANCE, log))
        d = Dataset(np.zeros((4, 3)), np.array([0, 1, 0, 1]), ["a", "b", "c"])
        model = evolve(d, d, GmdhConfig(), seed=0, norm=identity_norm(3))

        neurons = _as_neurons(coeffs, self.PARENTS, self.PERFORMANCE)
        for n in neurons:
            assert _ancestor_ids(self.PARENTS, n["id"]) == ancestor_ids(neurons, n["id"])
        tied = [n["id"] for n in neurons if n["performance"] == 0.9]
        assert tied == [4, 7, 8]
        assert [len(ancestor_ids(neurons, i)) for i in tied] == [5, 3, 3]
        ref = min(neurons, key=lambda n: (-n["performance"], len(ancestor_ids(neurons, n["id"])), n["id"]))
        assert model.output_id == ref["id"] == 7
        assert model.neurons.tolist() == ancestor_ids(neurons, 7) == [1, 2, 7]
        # seeds 1 and 2 read features 1 and 2; neuron 7 reads the neurons
        # in rows 0 and 1, which come after the 3 features
        assert model.inputs.tolist() == [[1, -1], [2, -1], [3, 4]]
        assert model.coeffs.tobytes() == coeffs[[1, 2, 7]].tobytes()
        for n in model.to_json_dict()["neurons"]:
            r = neurons[n["id"]]
            assert _links(n) == _links(r)
            assert _coeff_bytes(n) == _coeff_bytes(r)
        assert model.generation_log == log
        assert model.used_features() == {1, 2}


def _assert_same_population(got, ref):
    """Two ``_grow_population`` results hold the same bytes."""
    for a, b in zip(got[:3], ref[:3]):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    assert got[3] == ref[3]


class TestBatchedGenerations:
    @pytest.mark.parametrize("offspring", [1, 40])
    @pytest.mark.parametrize("subsample", [0.5, 1.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_sequential_reference(self, seed, subsample, offspring):
        d_train, d_valid = _small_task(seed)
        cfg = GmdhConfig(offspring_per_generation=offspring, max_serial_failures=3,
                         fit_subsample=subsample)
        model = evolve(d_train, d_valid, cfg, seed, identity_norm(d_train.m))
        neurons, log = _population(d_train, d_valid, cfg, seed)
        ref_neurons, ref_log, ref_output, ref_selected = _reference_evolve(d_train, d_valid, cfg, seed)
        assert model.generation_log == log == ref_log
        assert (model.output_id, model.neurons.tolist()) == (ref_output, ref_selected)
        assert len(neurons) == len(ref_neurons)
        for n, r in zip(neurons, ref_neurons):
            assert (n["id"], n["parent_a"], n["parent_b"]) == (r["id"], r["parent_a"], r["parent_b"])
            assert n["performance"] == r["performance"]
            if n["parent_b"] is None:
                assert _coeff_bytes(n) == _coeff_bytes(r)
            else:
                _assert_close_fit(n["coeffs"], r["coeffs"])
        for n in model.to_json_dict()["neurons"]:
            p = neurons[n["id"]]
            assert _links(n) == _links(p)
            assert _coeff_bytes(n) == _coeff_bytes(p)
        if offspring == 1:
            # the path where a generation accepts no offspring ran
            sizes = [size for _, _, size in model.generation_log]
            assert any(b == a for a, b in zip(sizes, sizes[1:]))

        _, parents, _, _ = gmdh._grow_population(d_train, d_valid, cfg, seed)
        for n in neurons:
            assert _ancestor_ids(parents, n["id"]) == ancestor_ids(neurons, n["id"])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_offspring_fits_need_no_lstsq(self, monkeypatch, seed):
        # neuron outputs are uncentred and strongly correlated; centring
        # keeps their normal equations well enough conditioned that only
        # the seed neurons go through fit_ls
        calls = []
        real_fit = gmdh.fit_ls

        def counting_fit(*args, **kwargs):
            calls.append(args[1] is None)
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(gmdh, "fit_ls", counting_fit)
        d_train, d_valid = _small_task(seed)
        cfg = GmdhConfig(offspring_per_generation=200, max_serial_failures=3)
        coeffs, *_ = gmdh._grow_population(d_train, d_valid, cfg, seed)
        assert len(coeffs) > 2 * d_train.m
        assert calls == [True] * d_train.m

    @pytest.mark.parametrize("subsample", [0.5, 1.0])
    def test_block_size_changes_no_byte(self, monkeypatch, subsample):
        d_train, d_valid = _small_task(3)
        q = d_train.n
        cfg = GmdhConfig(offspring_per_generation=90, max_serial_failures=3, fit_subsample=subsample)
        models, populations = [], []
        # key budgets that give blocks of 1 offspring, 7 (the last one 6),
        # 45, and the whole generation
        for budget, block in ((1, 1), (7 * q, 7), (64 * q, 45), (90 * q, 90), (10**9, 90)):
            monkeypatch.setattr(gmdh, "_BLOCK_KEYS", budget)
            assert gmdh._block_size(90, q) == block
            models.append(evolve(d_train, d_valid, cfg, 3, identity_norm(d_train.m)))
            populations.append(gmdh._grow_population(d_train, d_valid, cfg, 3))
        for model, population in zip(models[1:], populations[1:]):
            assert model.to_json() == models[0].to_json()
            assert model.generation_log == models[0].generation_log
            _assert_same_population(population, populations[0])

    @pytest.mark.parametrize("k, q, block", [(264, 240, 264), (500, 240, 500), (500, 1000, 125)])
    def test_block_split(self, k, q, block):
        # a 12-column compare fold and a 20-column one are one block each;
        # 72 columns on 1,000 fitting rows make four blocks of 125
        assert gmdh._block_size(k, q) == block

    @pytest.mark.parametrize("subsample", [0.5, 1.0])
    def test_growth_changes_no_byte(self, monkeypatch, subsample):
        # the outputs' array starts at no fewer than the 5 seed rows, so
        # reservations of 1, 16 and 37 rows each grow only while a block of
        # accepted offspring is written (1 row at the first such block).
        # The coefficients, parent ids and accuracies start at the seed
        # rows and grow at every reservation
        d_train, d_valid = _small_task(4)
        row_bytes = 8 * (d_train.n + d_valid.n)
        cfg = GmdhConfig(offspring_per_generation=90, max_serial_failures=3, fit_subsample=subsample)
        models = [evolve(d_train, d_valid, cfg, 4, identity_norm(d_train.m))]
        populations = [gmdh._grow_population(d_train, d_valid, cfg, 4)]
        for rows in (1, 16, 37):
            monkeypatch.setattr(gmdh, "_RESERVE_BYTES", rows * row_bytes)
            models.append(evolve(d_train, d_valid, cfg, 4, identity_norm(d_train.m)))
            populations.append(gmdh._grow_population(d_train, d_valid, cfg, 4))
        assert len(populations[0][0]) > 37
        for model, population in zip(models[1:], populations[1:]):
            assert model.to_json() == models[0].to_json()
            assert model.generation_log == models[0].generation_log
            _assert_same_population(population, populations[0])


class TestOffspringRule:
    def test_count_per_width(self):
        rule = GmdhConfig()
        assert [rule.offspring(m) for m in (2, 3, 12, 16, 17, 24, 72)] == [4, 12, 264, 480, 500, 500, 500]
        assert [GmdhConfig(7).offspring(m) for m in (2, 72)] == [7, 7]
        with pytest.raises(ConfigError, match="offspring_per_generation must be >= 1"):
            GmdhConfig(0)
        assert GmdhConfig(gmdh._MAX_OFFSPRING).offspring(72) == 10**6
        with pytest.raises(ConfigError, match="^offspring_per_generation must be >= 1 and <= 1000000, got 1000001$"):
            GmdhConfig(gmdh._MAX_OFFSPRING + 1)

    @pytest.mark.parametrize("m, count", [(12, 264), (24, 500)])
    def test_default_writes_the_bytes_of_its_count(self, tmp_path, m, count):
        # the loop reads only the count, so the default at m features is
        # `--offspring 2*m*(m-1)` below 17 features and the former 500 above
        d, _ = synth_generate(200, m, [0, m - 1], 0.2, 0.05, seed=m)
        save_csv(d, tmp_path / "task.csv")
        args = ["train", "--data", str(tmp_path / "task.csv"), "--method", "gmdh", "--seed", "3"]
        runner = CliRunner()
        for out, flags in (("default", []), ("explicit", ["--offspring", str(count)])):
            result = runner.invoke(cli, args + flags + ["--out", str(tmp_path / out)])
            assert result.exit_code == 0, result.output
        assert (tmp_path / "default.model.json").read_bytes() == (tmp_path / "explicit.model.json").read_bytes()
        manifest = json.loads((tmp_path / "default.manifest.json").read_text())
        assert manifest["config"]["offspring_per_generation"] is None
        assert "--offspring" not in manifest["argv"]


class TestStoppingRule:
    @pytest.mark.parametrize("subsample", [0.5, 1.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_run_ends_after_patience_flat_generations(self, seed, subsample):
        d_train, d_valid = _small_task(seed)
        cfg = GmdhConfig(offspring_per_generation=60, fit_subsample=subsample)
        patience = cfg.max_serial_failures
        log = evolve(d_train, d_valid, cfg, seed, identity_norm(d_train.m)).generation_log
        assert [g for g, _, _ in log] == list(range(len(log)))
        # the last raise of the best, or generation 0, then `patience` flat
        # generations, and no earlier stretch as long
        raised = [g for g, (_, best, _) in enumerate(log) if g == 0 or best > log[g - 1][1]]
        assert raised[-1] == len(log) - 1 - patience
        assert all(best == log[raised[-1]][1] for _, best, _ in log[-patience:])
        assert all(b - a <= patience for a, b in zip(raised, raised[1:]))

    def test_patience_5_is_the_sequential_reference_at_5(self, tmp_path):
        # 5 was the default before 3, and 500 offspring before the rule:
        # `--offspring 500 --max-failures 5` still runs the same loop, so
        # the CLI's model is the reference's at those settings
        d, _ = synth_generate(160, 5, [0, 3], 0.3, 0.1, seed=5)
        save_csv(d, tmp_path / "task.csv")
        out = tmp_path / "g"
        result = CliRunner().invoke(cli, ["train", "--data", str(tmp_path / "task.csv"), "--method", "gmdh",
                                          "--offspring", "500", "--max-failures", "5", "--seed", "5",
                                          "--out", str(out)])
        assert result.exit_code == 0, result.output
        doc = json.loads((tmp_path / "g.model.json").read_text())
        seed = derive_seed(5, "restart", 0)
        d_fit, d_valid = split(fit_normalize(d)[0], 0.5, derive_seed(seed, "gmdh-split"))
        ref_neurons, ref_log, ref_output, ref_selected = _reference_evolve(
            d_fit, d_valid, GmdhConfig(500, 5), seed)
        assert len({best for _, best, _ in ref_log[-6:]}) == 1
        assert (doc["output_id"], [n["id"] for n in doc["neurons"]]) == (ref_output, ref_selected)
        for n in doc["neurons"]:
            r = ref_neurons[n["id"]]
            assert _links(n) == _links(r)
            if n["parent_b"] is None:
                assert _coeff_bytes(n) == _coeff_bytes(r)
            else:
                _assert_close_fit(n["coeffs"], r["coeffs"])


class TestPredictAndSerialize:
    def _small_model(self, seed=0):
        d, _ = synth_generate(240, 5, [0, 3], 0.1, 0.02, seed=seed)
        dn, norm = fit_normalize(d)
        d_fit, d_valid = split(dn, 0.5, derive_seed(seed, "s"))
        cfg = GmdhConfig(offspring_per_generation=40, max_serial_failures=2, fit_subsample=1.0)
        model = evolve(d_fit, d_valid, cfg, seed, norm=norm)
        return d, model

    def test_constant_neuron_always_one_class(self):
        model = GmdhModel(np.array([0]), np.array([[0, -1]]), np.array([[0.6, 0, 0, 0]]), np.array([1.0]),
                          [], identity_norm(3), 3)
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

    def test_renumbered_ids_load_and_save_unchanged(self, tmp_path):
        # ids are names, not list positions: a file whose ids are
        # renumbered consistently, in no ascending order, is the same model
        d, model = self._small_model(seed=7)
        doc = json.loads(model.to_json())
        assert len(doc["neurons"]) > 5
        new_ids = np.random.default_rng(5).permutation(np.arange(100, 100 + 3 * len(doc["neurons"])))
        renumber = {nd["id"]: int(i) for nd, i in zip(doc["neurons"], new_ids)}
        assert sorted(renumber.values()) != list(renumber.values())
        for nd in doc["neurons"]:
            nd["id"] = renumber[nd["id"]]
            for src in (nd["parent_a"], nd["parent_b"]):
                if src is not None and src["kind"] == "neuron":
                    src["index"] = renumber[src["index"]]
        doc["output_id"] = renumber[doc["output_id"]]
        path = tmp_path / "renumbered.model.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
        loaded = GmdhModel.load(path)
        assert loaded.predict_batch(d.x)[0].tobytes() == model.predict_batch(d.x)[0].tobytes()
        assert loaded.used_features() == model.used_features()
        assert loaded.to_json() == path.read_text()

    def test_trained_model_equals_its_reload(self, tmp_path):
        # a trained model holds exactly its selected subgraph, as a loaded
        # one does
        d, model = self._small_model(seed=7)
        assert model.size() > 5
        path = tmp_path / "gmdh.model.json"
        model.save(path)
        loaded = GmdhModel.load(path)
        assert loaded.output_id == model.output_id
        assert len(loaded.neurons) == len(model.neurons)
        for name in ("neurons", "inputs", "coeffs", "performance"):
            n, r = getattr(model, name), getattr(loaded, name)
            assert (n.dtype, n.shape, n.tobytes()) == (r.dtype, r.shape, r.tobytes())
        assert loaded.size() == model.size()
        assert loaded.used_features() == model.used_features()
        assert loaded.to_json() == model.to_json() == path.read_text()

    def test_non_finite_coefficient_is_not_written(self, tmp_path):
        # a model that read_json_doc would refuse is never written
        _, model = self._small_model(seed=4)
        model.coeffs[-1, 0] = np.nan
        path = tmp_path / "nan.model.json"
        with pytest.raises(NumericError, match="not finite"):
            model.save(path)
        assert not path.exists()

    def test_evaluate_matches_manual(self):
        d, model = self._small_model(seed=2)
        _, cls = model.predict_batch(d.x)
        assert model.error_rate(d) == pytest.approx(np.mean(cls != d.y))
