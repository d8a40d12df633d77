"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Tolerances and task shapes are frozen; every protocol is
fully seeded, so results are reproducible bit-for-bit.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import csv
import time
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

from ecnn import cascade, dtree, gmdh, harness
from ecnn.cli import cli
from ecnn.dataset import Dataset, save_csv, synth_generate
from ecnn.dtree import DtConfig, build, entropy, evaluate as dt_evaluate
from ecnn.gmdh import GmdhConfig, evolve, fit_ls, poly_forward
from ecnn.harness import chi_sweep, multi_restart
from ecnn.projection import TrainConfig, fit_neuron
from ecnn.util import derive_rng
from reference import identity_norm, info_gain, naive_projection_step, truth_labels


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"[acceptance {number}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def _separable_1d(seed: int, n: int = 8):
    """Frozen convergence-calibration task: one feature at magnitudes in
    [10, 11] (margin 10), other half of the rows on each side."""
    rng = np.random.default_rng(seed)
    signs = rng.choice([-1.0, 1.0], size=n)
    x = signs * rng.uniform(10.0, 11.0, size=n)
    y = (x > 0).astype(float)
    half = n // 2
    return x[:half][None, :], y[:half], x[half:][None, :], y[half:]


def test_criterion_1_projection_rule_oracle():
    """1000 random instances of the first step ``fit_neuron`` takes match
    an independent naive reference of the update rule."""
    started = time.time()
    rng = np.random.default_rng(1)
    worst = 0.0
    for k in range(1000):
        p = int(rng.integers(1, 8))
        q = int(rng.integers(1, 12))
        x = rng.normal(size=(p, q))
        t = rng.integers(0, 2, size=q).astype(float)
        chi = float(rng.uniform(0.1, 2.0))
        s = float(rng.uniform(0.1, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a chi outside (1, 2] warns
            cfg = TrainConfig(chi=chi, max_steps=1, init_std=s)
        w = fit_neuron(x, t, x, t, cfg, np.random.default_rng(k)).weights
        w0 = np.random.default_rng(k).normal(0.0, s, p + 1)
        u = np.vstack([x, np.ones(q)])
        eta = 1.0 / (1.0 + np.exp(-(w0 @ u))) - t
        worst = max(worst, np.max(np.abs(w - naive_projection_step(w0, u, eta, chi))))
    elapsed = time.time() - started
    _report(1, worst < 1e-12 and elapsed < 5.0,
            f"max deviation {worst:.2e} over 1000 instances in {elapsed:.2f}s")


def test_criterion_2_convergence_envelope():
    """Separable 1-D data: at most 30 steps in >=95% of 100 seeds, final
    validation error below the initial one in all of them."""
    started = time.time()
    fast, improved = 0, 0
    for seed in range(100):
        xa, ya, xb, yb = _separable_1d(seed)
        cfg = TrainConfig(chi=1.9, delta=0.0015)
        res = fit_neuron(xa, ya, xb, yb, cfg, derive_rng(seed, "init"))
        fast += res.steps_taken <= 30
        improved += res.criterion < res.rse_trace_b[0]
    elapsed = time.time() - started
    _report(2, fast >= 95 and improved == 100 and elapsed < 10.0,
            f"{fast}/100 within 30 steps, {improved}/100 improved, {elapsed:.2f}s")


def test_criterion_3_chi_sweep_ordering():
    """Identical init across rates: the 2.0 rate ends at least as low as 1.25."""
    started = time.time()
    rng = np.random.default_rng(202)
    n = 8
    signs = rng.choice([-1.0, 1.0], size=n)
    x = signs * rng.uniform(10.0, 11.0, size=n)
    y = (x > 0).astype(np.int64)
    d = Dataset(np.column_stack([x, rng.normal(size=n)]), y, ["signal", "noise"])
    results = chi_sweep(d, [1.25, 1.5, 1.75, 2.0], TrainConfig(), seed=202)
    inits = {results[chi].rse_trace_b[0] for chi in results}
    final_low = results[2.0].criterion
    final_slow = results[1.25].criterion
    elapsed = time.time() - started
    ok = len(inits) == 1 and final_low <= final_slow + 1e-6 and elapsed < 5.0
    _report(3, ok, f"final rse chi=2.0 {final_low:.6f} vs chi=1.25 {final_slow:.6f}, shared init, {elapsed:.2f}s")


def test_criterion_4_acceptance_rule_structure():
    """100 seeded trainings: criterion chains strictly decrease and every
    neuron at layer r has exactly r+1 inputs wired to the cascade pattern."""
    started = time.time()
    d, _ = synth_generate(400, 12, [1, 7], 0.15, 0.03, seed=100)
    rep = multi_restart(harness.Method("ecnn", cascade.GrowthConfig()), d, None, runs=100, base_seed=100)
    chains_ok = True
    wiring_ok = True
    for record in rep.records:
        model = record.model
        trace = model.criterion_trace()
        chains_ok &= all(b < a for a, b in zip(trace, trace[1:]))
        for idx, neuron in enumerate(model.to_json_dict()["neurons"]):
            r = idx + 1
            hidden = neuron["inputs"][: r - 1]
            wiring_ok &= len(neuron["inputs"]) == r + 1
            wiring_ok &= all(s["kind"] == "hidden" and s["index"] == k for k, s in enumerate(hidden))
            wiring_ok &= neuron["inputs"][-2]["kind"] == "feature"
            wiring_ok &= neuron["inputs"][-2]["index"] == model.base_feature
            wiring_ok &= neuron["inputs"][-1]["kind"] == "feature"
    sizes = {record.model_size for record in rep.records}
    elapsed = time.time() - started
    ok = chains_ok and wiring_ok and len(sizes) >= 2 and elapsed < 120.0
    _report(4, ok, f"100 models, chains strict {chains_ok}, wiring {wiring_ok}, "
                   f"{len(sizes)} distinct sizes, {elapsed:.1f}s")


def test_criterion_5_feature_recovery():
    """Desk-scale selection analog: 4 relevant of 72 noisy features.

    The generator's own rule is scored first (noise degradation only,
    measured against its pre-flip labels); the trained models are then
    held to: error <= 15% against the observed labels on every seed,
    >= 2 truly relevant features in >= 80% of seeds, and <= 10 distinct
    features in >= 80% of seeds.
    """
    started = time.time()
    relevant = [9, 22, 35, 59]
    seeds = list(range(20))

    # oracle first: the generating rule on held-out noisy features
    oracle_errors = []
    for seed in seeds:
        d, truth = synth_generate(3000, 72, relevant, 0.1, 0.05, seed)
        d_clean, _ = synth_generate(3000, 72, relevant, 0.1, 0.0, seed)
        pred = truth_labels(truth, d.x[2000:])
        oracle_errors.append(float(np.mean(pred != d_clean.y[2000:])))
    oracle_ok = max(oracle_errors) <= 0.07

    few_features = 0
    enough_relevant = 0
    errors = []
    trainer = TrainConfig(split_fraction=0.33, max_steps=400)
    cfg = cascade.GrowthConfig(trainer=trainer, max_failed_attempts=6)
    for seed in seeds:
        d, truth = synth_generate(3000, 72, relevant, 0.1, 0.05, seed)
        d_train = d.subset(np.arange(2000))
        d_test = d.subset(np.arange(2000, 3000))
        rep = multi_restart(harness.Method("ecnn", cfg), d_train, d_test, runs=2, base_seed=seed)
        best = rep.best
        few_features += len(best.feature_set) <= 10
        enough_relevant += len(best.feature_set & set(relevant)) >= 2
        errors.append(best.test_error)
    elapsed = time.time() - started
    ok = (
        oracle_ok
        and max(errors) <= 0.15
        and enough_relevant >= 16
        and few_features >= 16
        and elapsed < 300.0
    )
    _report(5, ok, f"oracle max {max(oracle_errors):.3f} (<=0.07), model err max {max(errors):.3f} "
                   f"(<=0.15), >=2 relevant {enough_relevant}/20, <=10 features {few_features}/20, "
                   f"{elapsed:.0f}s")


def test_criterion_6_gmdh_recovery():
    """Exact polynomial recovery plus the interaction task via evolution."""
    started = time.time()
    rng = np.random.default_rng(66)
    u1 = rng.normal(size=300)
    u2 = rng.normal(size=300)
    true = np.array([0.4, -1.1, 2.2, 0.9])
    targets = poly_forward(true, u1, u2)
    coeffs = fit_ls(u1, u2, targets)
    residual = float(np.linalg.norm(poly_forward(coeffs, u1, u2) - targets))

    def xor_corners(n, seed):
        gen = np.random.default_rng(seed)
        x = gen.normal(size=(n, 4))
        for j in (0, 1):
            x[:, j] = gen.choice([-1.0, 1.0], size=n) * gen.uniform(0.5, 1.5, size=n)
        y = (x[:, 0] * x[:, 1] > 0).astype(np.int64)
        return Dataset(x, y, [f"f{j}" for j in range(4)])

    cfg = GmdhConfig(offspring_per_generation=60, max_serial_failures=3, fit_subsample=1.0)
    model = evolve(xor_corners(400, 61), xor_corners(400, 62), cfg, seed=6, norm=identity_norm(4))
    perf = model.validation_performance
    elapsed = time.time() - started
    ok = residual < 1e-8 and perf >= 0.98 and elapsed < 60.0
    _report(6, ok, f"ls residual {residual:.2e}, interaction validation performance {perf:.3f}, {elapsed:.1f}s")


def test_criterion_7_dt_contract():
    """Pure-split gain equals parent entropy exactly; the margin task
    trains to perfect accuracy in >=95 of 100 seeds at n_s=25, p_min=0.06."""
    started = time.time()
    parent = [0] * 8 + [1] * 8
    gain = info_gain(parent, [0] * 8, [1] * 8)
    exact = gain == entropy([8, 8]) == 1.0

    perfect = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = 1000
        y = rng.integers(0, 2, n)
        x0 = np.where(y == 0, rng.uniform(0.0, 0.4, n), rng.uniform(0.6, 1.0, n))
        d = Dataset(np.column_stack([x0, rng.normal(size=n)]), y, ["a", "b"])
        model = build(d, DtConfig(n_s=25, p_min=0.06), seed=seed)
        perfect += dt_evaluate(model, d) == 0.0
    elapsed = time.time() - started
    ok = exact and perfect >= 95 and elapsed < 60.0
    _report(7, ok, f"pure-split gain exact {exact}, perfect training {perfect}/100, {elapsed:.1f}s")


def test_criterion_8_determinism_and_round_trip(tmp_path):
    """Same seed gives byte-identical artifacts; serialized models agree
    with in-memory predictions on 1000 random inputs within 1e-12."""
    started = time.time()
    d, _ = synth_generate(240, 6, [0, 3], 0.1, 0.05, seed=88)
    rng = np.random.default_rng(880)
    probes = rng.normal(size=(1000, 6))

    byte_ok = True
    round_trip_ok = True

    ecnn_model = cascade.train(d, cascade.GrowthConfig(), seed=88)
    byte_ok &= ecnn_model.to_json() == cascade.train(d, cascade.GrowthConfig(), seed=88).to_json()
    path = tmp_path / "m1.json"
    ecnn_model.save(path)
    loaded = cascade.CascadeModel.load(path)
    p1, _ = ecnn_model.predict_batch(probes)
    p2, _ = loaded.predict_batch(probes)
    round_trip_ok &= bool(np.max(np.abs(p1 - p2)) <= 1e-12)

    gm_cfg = GmdhConfig(offspring_per_generation=30, max_serial_failures=2, fit_subsample=1.0)
    gm = gmdh.fit(d, gm_cfg, 88)[0]
    byte_ok &= gm.to_json() == gmdh.fit(d, gm_cfg, 88)[0].to_json()
    path = tmp_path / "m2.json"
    gm.save(path)
    gm_loaded = gmdh.GmdhModel.load(path)
    s1, _ = gm.predict_batch(probes)
    s2, _ = gm_loaded.predict_batch(probes)
    round_trip_ok &= bool(np.max(np.abs(s1 - s2)) <= 1e-12)

    dt_model = build(d, DtConfig(), seed=88)
    byte_ok &= dt_model.to_json() == build(d, DtConfig(), seed=88).to_json()
    path = tmp_path / "m3.json"
    dt_model.save(path)
    dt_loaded = dtree.DtModel.load(path)
    same = all(
        dtree.dt_predict(dt_model, row) == dtree.dt_predict(dt_loaded, row) for row in probes
    )
    round_trip_ok &= same

    # report CSV determinism
    rep1 = multi_restart(harness.Method("dt", DtConfig()), d, d, runs=3, base_seed=88)
    rep2 = multi_restart(harness.Method("dt", DtConfig()), d, d, runs=3, base_seed=88)
    out1 = harness.write_restart_reports(rep1, tmp_path / "r1", d.feature_names)
    out2 = harness.write_restart_reports(rep2, tmp_path / "r2", d.feature_names)
    for key in out1:
        byte_ok &= out1[key].read_bytes() == out2[key].read_bytes()

    elapsed = time.time() - started
    _report(8, byte_ok and round_trip_ok,
            f"byte-identical artifacts {byte_ok}, prediction round-trip {round_trip_ok}, {elapsed:.1f}s")


def test_criterion_9_comparative_harness(tmp_path):
    """Full compare command, 5 folds x 30 inner runs, all three methods;
    the cascade's cross-validated error stays within 2 points of the tree's."""
    started = time.time()
    d, _ = synth_generate(600, 12, [0, 4, 9], 0.2, 0.05, seed=50)
    data_path = tmp_path / "bench.csv"
    save_csv(d, data_path)
    out = tmp_path / "bench"
    runner = CliRunner()
    result = runner.invoke(cli, [
        "compare", "--data", str(data_path), "--folds", "5", "--inner-runs", "30",
        "--seed", "50", "--out", str(out),
    ], catch_exceptions=False)
    with open(f"{out}.cv_report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    elapsed = time.time() - started
    mean_perf = {r["method"]: float(r["mean_performance"]) for r in rows}
    ecnn_err = 1.0 - mean_perf["ecnn"]
    dt_err = 1.0 - mean_perf["dt"]
    ok = (
        result.exit_code == 0
        and len(rows) == 15
        and ecnn_err <= dt_err + 0.02
        and elapsed < 900.0
    )
    _report(9, ok, f"exit {result.exit_code}, 15 rows, ecnn err {ecnn_err:.4f} vs dt err {dt_err:.4f} "
                   f"(+2pp bound), {elapsed:.0f}s")
