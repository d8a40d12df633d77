import csv

import numpy as np
import pytest

from ecnn import dtree, gmdh
from ecnn.dataset import Dataset, synth_generate
from ecnn.errors import ConfigError, DataError
from ecnn.harness import (
    DEFAULT_CHI_LIST,
    chi_sweep,
    dt_adapter,
    ecnn_adapter,
    gmdh_adapter,
    kfold,
    multi_restart,
    stratified_folds,
    write_chi_traces,
    write_cv_report,
    write_restart_reports,
)
from ecnn.projection import TrainConfig


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _task(seed=0, n=240, m=5):
    d, _ = synth_generate(n, m, [0, 2], 0.1, 0.05, seed=seed)
    return d


def _fast_gmdh_cfg(seed=0):
    return gmdh.GmdhConfig(offspring_per_generation=30, max_serial_failures=2,
                           fit_subsample=1.0, seed=seed)


class TestMultiRestart:
    def test_single_run_is_best(self):
        rep = multi_restart(ecnn_adapter(), _task(), None, runs=1, base_seed=0)
        assert rep.best_run == 0
        assert len(rep.records) == 1
        assert np.isnan(rep.best.test_error)

    def test_best_minimizes_criterion(self):
        rep = multi_restart(ecnn_adapter(), _task(1), _task(2), runs=6, base_seed=1)
        crits = [r.criterion for r in rep.records]
        assert rep.best.criterion == min(crits)
        assert rep.best_run == int(np.argmin(crits))

    def test_derived_seeds_distinct(self):
        rep = multi_restart(ecnn_adapter(), _task(3), None, runs=8, base_seed=2)
        seeds = [r.seed for r in rep.records]
        assert len(set(seeds)) == 8

    def test_parallel_jobs_match_serial(self):
        d_train, d_test = _task(4), _task(5)
        serial = multi_restart(dt_adapter(), d_train, d_test, runs=4, base_seed=3, jobs=1)
        parallel = multi_restart(dt_adapter(), d_train, d_test, runs=4, base_seed=3, jobs=2)
        assert [r.criterion for r in serial.records] == [r.criterion for r in parallel.records]
        assert [r.test_error for r in serial.records] == [r.test_error for r in parallel.records]
        assert serial.best_run == parallel.best_run

    def test_zero_runs_rejected(self):
        with pytest.raises(ConfigError):
            multi_restart(ecnn_adapter(), _task(), None, runs=0, base_seed=0)

    def test_all_failed_reraises_error_class(self):
        # a subsample of 10% of 15 fitting rows is too small: a data error
        adapter = gmdh_adapter(gmdh.GmdhConfig(fit_subsample=0.1))
        for jobs in (1, 2):
            with pytest.raises(DataError, match="all 2 restarts failed"):
                multi_restart(adapter, _task(18, n=30), None, runs=2, base_seed=0, jobs=jobs)

    def test_report_files_account_for_runs(self, tmp_path):
        rep = multi_restart(dt_adapter(), _task(6), _task(7), runs=5, base_seed=4)
        paths = write_restart_reports(rep, tmp_path, feature_names=[f"f{j}" for j in range(5)])
        table = _read_rows(paths["restart_report"])
        assert len(table) == 5
        sizes = _read_rows(paths["size_hist"])
        assert sum(int(r["count"]) for r in sizes) == 5
        errors = _read_rows(paths["error_hist"])
        assert len(errors) == 5
        for row in errors:
            assert row["train_error"] != ""
        freq = _read_rows(paths["feature_freq"])
        assert all(int(r["count"]) >= 1 for r in freq)

    def test_gmdh_adapter_runs(self):
        rep = multi_restart(gmdh_adapter(_fast_gmdh_cfg()), _task(8), _task(9), runs=2, base_seed=5)
        assert all(r.status == "ok" for r in rep.records)
        assert all(0.0 <= r.criterion <= 1.0 for r in rep.records)

    def test_best_test_error_survives_serialization(self, tmp_path):
        d_train, d_test = _task(16), _task(17)
        for adapter in (ecnn_adapter(), dt_adapter(), gmdh_adapter(_fast_gmdh_cfg())):
            rep = multi_restart(adapter, d_train, d_test, runs=2, base_seed=6)
            path = tmp_path / f"{adapter.name}.model.json"
            rep.best.model.save(path)
            reloaded = type(rep.best.model).load(path)
            assert reloaded.error_rate(d_test) == pytest.approx(rep.best.test_error, abs=1e-12)


class TestKfold:
    def test_fold_cover_disjoint(self):
        d = _task(10, n=97)
        folds = stratified_folds(d, 5, seed=0)
        merged = np.sort(np.concatenate(folds))
        np.testing.assert_array_equal(merged, np.arange(97))

    def test_stratification(self):
        d = _task(11, n=100)
        folds = stratified_folds(d, 4, seed=1)
        for fold in folds:
            counts = np.bincount(d.y[fold], minlength=2)
            assert counts[0] >= 1 and counts[1] >= 1

    def test_leave_one_out_boundary(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(10, 3))
        y = np.array([0, 1] * 5)
        x[:, 0] = np.where(y == 1, 2.0, -2.0) + rng.normal(0, 0.1, 10)
        d = Dataset(x, y, ["a", "b", "c"])
        report = kfold(d, k=10, adapter=dt_adapter(valid_fraction=0.4), inner_runs=1, seed=2)
        assert len(report.folds) == 10

    def test_mean_variance_identity(self):
        d = _task(13, n=150)
        report = kfold(d, 3, dt_adapter(), inner_runs=2, seed=3)
        mean, var = report.recompute()
        assert report.mean_performance == pytest.approx(mean, abs=1e-12)
        assert report.variance_performance == pytest.approx(var, abs=1e-12)

    def test_cv_report_rows(self, tmp_path):
        d = _task(14, n=120)
        reports = [
            kfold(d, 3, dt_adapter(dtree.DtConfig(seed=0)), inner_runs=2, seed=4),
            kfold(d, 3, gmdh_adapter(_fast_gmdh_cfg()), inner_runs=2, seed=4),
        ]
        path = tmp_path / "cv_report.csv"
        write_cv_report(reports, path)
        rows = _read_rows(path)
        assert len(rows) == 6  # 2 methods x 3 folds
        assert {r["method"] for r in rows} == {"dt", "gmdh"}
        for rep in reports:
            got = [r for r in rows if r["method"] == rep.method]
            assert float(got[0]["mean_performance"]) == rep.mean_performance

    def test_too_many_folds_rejected(self):
        rng = np.random.default_rng(15)
        d = Dataset(rng.normal(size=(10, 3)), np.array([0, 1] * 5), ["a", "b", "c"])
        with pytest.raises(DataError):
            kfold(d, 50, dt_adapter(), inner_runs=1, seed=0)


def _sweep_dataset(seed=0, n=8):
    rng = np.random.default_rng(seed)
    signs = rng.choice([-1.0, 1.0], size=n)
    x = signs * rng.uniform(10.0, 11.0, size=n)
    y = (x > 0).astype(np.int64)
    other = rng.normal(size=n)
    return Dataset(np.column_stack([x, other]), y, ["signal", "noise"])


class TestChiSweep:
    def test_default_list(self):
        assert DEFAULT_CHI_LIST == (1.25, 1.5, 1.75, 2.0)

    def test_identical_seed_identical_traces(self):
        d = _sweep_dataset(0, n=40)
        cfg = TrainConfig(seed=0)
        r1 = chi_sweep(d, list(DEFAULT_CHI_LIST), cfg, seed=0)
        r2 = chi_sweep(d, list(DEFAULT_CHI_LIST), cfg, seed=0)
        for chi in DEFAULT_CHI_LIST:
            np.testing.assert_array_equal(r1[chi].rse_trace_b, r2[chi].rse_trace_b)

    def test_same_init_across_chis(self):
        d = _sweep_dataset(1, n=40)
        results = chi_sweep(d, [1.25, 2.0], TrainConfig(seed=1), seed=1)
        assert results[1.25].rse_trace_b[0] == results[2.0].rse_trace_b[0]

    def test_fast_rate_wins(self):
        d = _sweep_dataset(2, n=40)
        results = chi_sweep(d, list(DEFAULT_CHI_LIST), TrainConfig(seed=2), seed=2)
        assert results[2.0].criterion <= results[1.25].criterion + 1e-6

    def test_out_of_range_chi_rejected(self):
        d = _sweep_dataset(3, n=20)
        with pytest.raises(ConfigError):
            chi_sweep(d, [2.5], TrainConfig(seed=0), seed=0)

    def test_trace_csv_round_trip(self, tmp_path):
        d = _sweep_dataset(4, n=30)
        results = chi_sweep(d, [1.5, 2.0], TrainConfig(seed=3), seed=3)
        path = tmp_path / "chi_traces.csv"
        write_chi_traces(results, path)
        rows = _read_rows(path)
        expected = sum(len(results[chi].rse_trace_b) for chi in (1.5, 2.0))
        assert len(rows) == expected
        back = {}
        for row in rows:
            back.setdefault(float(row["chi"]), []).append(float(row["rse_b"]))
        for chi in (1.5, 2.0):
            np.testing.assert_array_equal(back[chi], results[chi].rse_trace_b)
