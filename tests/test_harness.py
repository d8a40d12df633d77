import csv
import math
import pickle

import numpy as np
import pytest

from ecnn import cascade, dtree, gmdh
from ecnn.dataset import Dataset, synth_generate
from ecnn.errors import ConfigError, DataError
from ecnn.harness import (
    DEFAULT_CHI_LIST,
    FAMILIES,
    RESTART_REPORTS,
    Method,
    RestartReport,
    RunRecord,
    chi_sweep,
    ecnn_adapter,
    kfold,
    multi_restart,
    stratified_folds,
    write_chi_traces,
    write_cv_report,
    write_restart_reports,
)
from ecnn.projection import TrainConfig
from ecnn.util import derive_seed, write_table
from reference import chi_traces_text, cv_report_text, recompute, restart_report_texts


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _task(seed=0, n=240, m=5):
    d, _ = synth_generate(n, m, [0, 2], 0.1, 0.05, seed=seed)
    return d


def _fast_gmdh_cfg():
    return gmdh.GmdhConfig(offspring_per_generation=30, max_serial_failures=2,
                           fit_subsample=1.0)


class TestMultiRestart:
    def test_single_run_is_best(self):
        rep = multi_restart(Method("ecnn", cascade.GrowthConfig()), _task(), None, runs=1, base_seed=0)
        assert rep.best_run == 0
        assert len(rep.records) == 1
        assert np.isnan(rep.best.test_error)

    def test_best_minimizes_criterion(self):
        rep = multi_restart(Method("ecnn", cascade.GrowthConfig()), _task(1), _task(2), runs=6, base_seed=1)
        crits = [r.criterion for r in rep.records]
        assert rep.best.criterion == min(crits)
        assert rep.best_run == int(np.argmin(crits))

    def test_derived_seeds_distinct(self):
        rep = multi_restart(Method("ecnn", cascade.GrowthConfig()), _task(3), None, runs=8, base_seed=2)
        seeds = [r.seed for r in rep.records]
        assert len(set(seeds)) == 8

    def test_parallel_jobs_match_serial(self):
        d_train, d_test = _task(4), _task(5)
        serial = multi_restart(Method("dt", dtree.DtConfig()), d_train, d_test, runs=4, base_seed=3, jobs=1)
        parallel = multi_restart(Method("dt", dtree.DtConfig()), d_train, d_test, runs=4, base_seed=3, jobs=2)
        assert [r.criterion for r in serial.records] == [r.criterion for r in parallel.records]
        assert [r.test_error for r in serial.records] == [r.test_error for r in parallel.records]
        assert serial.best_run == parallel.best_run

    def test_zero_runs_rejected(self):
        with pytest.raises(ConfigError):
            multi_restart(Method("ecnn", cascade.GrowthConfig()), _task(), None, runs=0, base_seed=0)

    def test_all_failed_reraises_error_class(self):
        # a subsample of 10% of 15 fitting rows is too small: a data error
        method = Method("gmdh", gmdh.GmdhConfig(fit_subsample=0.1))
        for jobs in (1, 2):
            with pytest.raises(DataError, match="all 2 restarts failed"):
                multi_restart(method, _task(18, n=30), None, runs=2, base_seed=0, jobs=jobs)

    def test_report_files_account_for_runs(self, tmp_path):
        rep = multi_restart(Method("dt", dtree.DtConfig()), _task(6), _task(7), runs=5, base_seed=4)
        paths = write_restart_reports(rep, tmp_path / "run", feature_names=[f"f{j}" for j in range(5)])
        assert {p.name for p in tmp_path.iterdir()} == {f"run.{name}.csv" for name in RESTART_REPORTS}
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

    def test_feature_names_needing_quotes(self, tmp_path):
        names = ['a,b', '"c', 'd"e', "f\rg", "h\ni"]
        rep = RestartReport([RunRecord(run=0, seed=0, status="ok", feature_set=frozenset(range(5)))], 0)
        paths = write_restart_reports(rep, tmp_path / "run", feature_names=names)
        with open(paths["feature_freq"], newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["feature", "name", "count"], *([str(j), name, "1"] for j, name in enumerate(names))]

    def test_test_data_of_another_width_refused_before_any_run(self, monkeypatch):
        calls = []
        cfg_cls, fit = FAMILIES["ecnn"]
        monkeypatch.setitem(FAMILIES, "ecnn",
                            (cfg_cls, lambda d, cfg, seed: calls.append(seed) or fit(d, cfg, seed)))
        with pytest.raises(DataError, match="test data has 4 features but training data has 5"):
            multi_restart(Method("ecnn", cascade.GrowthConfig()), _task(), _task(1, m=4), runs=3, base_seed=0)
        assert calls == []

    def test_gmdh_method_runs(self):
        rep = multi_restart(Method("gmdh", _fast_gmdh_cfg()), _task(8), _task(9), runs=2, base_seed=5)
        assert all(r.status == "ok" for r in rep.records)
        assert all(0.0 <= r.criterion <= 1.0 for r in rep.records)

    def test_best_test_error_survives_serialization(self, tmp_path):
        d_train, d_test = _task(16), _task(17)
        for method in (Method("ecnn", cascade.GrowthConfig()), Method("dt", dtree.DtConfig()),
                       Method("gmdh", _fast_gmdh_cfg())):
            rep = multi_restart(method, d_train, d_test, runs=2, base_seed=6)
            path = tmp_path / f"{method.name}.model.json"
            rep.best.model.save(path)
            reloaded = type(rep.best.model).load(path)
            assert reloaded.error_rate(d_test) == pytest.approx(rep.best.test_error, abs=1e-12)


class TestMethod:
    @pytest.mark.parametrize("method", [Method("ecnn", cascade.GrowthConfig()), Method("dt", dtree.DtConfig()),
                                        Method("gmdh", _fast_gmdh_cfg())])
    def test_a_run_records_what_its_family_fit_returns(self, method):
        d = _task(24)
        best = multi_restart(method, d, None, 1, 9).best
        model, criterion, trace = FAMILIES[method.name][1](d, method.cfg, derive_seed(9, "restart", 0))
        assert (best.criterion, best.criterion_trace) == (criterion, trace)
        assert best.model.to_json() == model.to_json()

    def test_ecnn_adapter_is_the_ecnn_method(self):
        cfg = cascade.GrowthConfig(max_failed_attempts=2)
        assert ecnn_adapter(cfg) == Method("ecnn", cfg)

    def test_method_survives_pickle(self):
        method = Method("gmdh", _fast_gmdh_cfg())
        assert pickle.loads(pickle.dumps(method)) == method


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
        report = kfold(d, k=10, method=Method("dt", dtree.DtConfig()), inner_runs=1, seed=2)
        assert len(report.folds) == 10

    def test_mean_variance_identity(self):
        d = _task(13, n=150)
        report = kfold(d, 3, Method("dt", dtree.DtConfig()), inner_runs=2, seed=3)
        mean, var = recompute(report)
        assert report.mean_performance == pytest.approx(mean, abs=1e-12)
        assert report.variance_performance == pytest.approx(var, abs=1e-12)

    def test_cv_report_rows(self, tmp_path):
        d = _task(14, n=120)
        reports = [
            kfold(d, 3, Method("dt", dtree.DtConfig()), inner_runs=2, seed=4),
            kfold(d, 3, Method("gmdh", _fast_gmdh_cfg()), inner_runs=2, seed=4),
        ]
        path = tmp_path / "cv_report.csv"
        write_cv_report(reports, path)
        rows = _read_rows(path)
        assert len(rows) == 6  # 2 methods x 3 folds
        assert {r["method"] for r in rows} == {"dt", "gmdh"}
        for rep in reports:
            got = [r for r in rows if r["method"] == rep.method]
            assert float(got[0]["mean_performance"]) == rep.mean_performance

    def test_folds_hold_each_folds_best_run(self):
        d = _task(19, n=90)
        method = Method("dt", dtree.DtConfig())
        report = kfold(d, 3, method, inner_runs=3, seed=6)
        folds = stratified_folds(d, 3, seed=6)
        for f, record in enumerate(report.folds):
            train_idx = np.sort(np.concatenate([folds[g] for g in range(3) if g != f]))
            own = multi_restart(method, d.subset(train_idx), d.subset(folds[f]), 3,
                                derive_seed(6, "fold", f)).best
            assert (record.run, record.seed, record.test_error) == (own.run, own.seed, own.test_error)
        assert report.performances == [1.0 - r.test_error for r in report.folds]

    def test_training_part_with_one_class_rejected(self):
        # one row of class 1: the training part of the fold that holds it has none
        rng = np.random.default_rng(20)
        d = Dataset(rng.normal(size=(12, 3)), np.array([0] * 11 + [1]), ["a", "b", "c"])
        with pytest.raises(DataError, match=r"training part of fold \d contains a single class"):
            kfold(d, 3, Method("dt", dtree.DtConfig()), inner_runs=1, seed=0)

    def test_too_many_folds_rejected(self):
        rng = np.random.default_rng(15)
        d = Dataset(rng.normal(size=(10, 3)), np.array([0, 1] * 5), ["a", "b", "c"])
        with pytest.raises(DataError):
            kfold(d, 50, Method("dt", dtree.DtConfig()), inner_runs=1, seed=0)


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
        cfg = TrainConfig()
        r1 = chi_sweep(d, list(DEFAULT_CHI_LIST), cfg, seed=0)
        r2 = chi_sweep(d, list(DEFAULT_CHI_LIST), cfg, seed=0)
        for chi in DEFAULT_CHI_LIST:
            np.testing.assert_array_equal(r1[chi].rse_trace_b, r2[chi].rse_trace_b)

    def test_same_init_across_chis(self):
        d = _sweep_dataset(1, n=40)
        results = chi_sweep(d, [1.25, 2.0], TrainConfig(), seed=1)
        assert results[1.25].rse_trace_b[0] == results[2.0].rse_trace_b[0]

    def test_fast_rate_wins(self):
        d = _sweep_dataset(2, n=40)
        results = chi_sweep(d, list(DEFAULT_CHI_LIST), TrainConfig(), seed=2)
        assert results[2.0].criterion <= results[1.25].criterion + 1e-6

    def test_out_of_range_chi_rejected(self):
        d = _sweep_dataset(3, n=20)
        with pytest.raises(ConfigError):
            chi_sweep(d, [2.5], TrainConfig(), seed=0)

    def test_trace_csv_round_trip(self, tmp_path):
        d = _sweep_dataset(4, n=30)
        results = chi_sweep(d, [1.5, 2.0], TrainConfig(), seed=3)
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


class TestReportBytes:
    """Every report table is byte-identical to the hand-joined reference."""

    @staticmethod
    def _check_restart_reports(tmp_path, report, names):
        paths = write_restart_reports(report, tmp_path / "run", feature_names=names)
        want = restart_report_texts(report, names)
        assert {name: path.read_bytes().decode() for name, path in paths.items()} == want

    def test_restart_reports_of_trained_runs(self, tmp_path):
        names = ['a,b', 'say "hi"', "c\rd", "e\nf", "g"]
        for method in (Method("ecnn", cascade.GrowthConfig()), Method("dt", dtree.DtConfig()),
                        Method("gmdh", _fast_gmdh_cfg())):
            for d_test in (_task(22), None):  # None: every test error is NaN
                rep = multi_restart(method, _task(21), d_test, runs=3, base_seed=7)
                self._check_restart_reports(tmp_path, rep, names)

    def test_restart_reports_of_an_error_run_and_numpy_cells(self, tmp_path):
        records = [
            RunRecord(run=0, seed=11, status="ok", criterion=np.float64(0.125), train_error=0.1,
                      test_error=math.nan, model_size=3, feature_set=frozenset({0, 2}),
                      criterion_trace=(np.float64(0.3), 0.2)),
            RunRecord(run=1, seed=2**64 - 1, status="error", error=DataError("one class")),
            RunRecord(run=2, seed=13, status="ok", criterion=0.1, train_error=np.float64(1 / 3),
                      test_error=np.float64(0.25), model_size=np.int64(3),
                      feature_set=frozenset({1}), criterion_trace=(0.1,)),
        ]
        self._check_restart_reports(tmp_path, RestartReport(records, 2), ['a,b', 'say "hi"', "c"])

    def test_cv_report(self, tmp_path):
        d = _task(23, n=120)
        reports = [kfold(d, 3, method, inner_runs=2, seed=8)
                   for method in (Method("ecnn", cascade.GrowthConfig()), Method("dt", dtree.DtConfig()),
                                   Method("gmdh", _fast_gmdh_cfg()))]
        path = tmp_path / "cv_report.csv"
        write_cv_report(reports, path)
        assert path.read_bytes().decode() == cv_report_text(reports)

    def test_chi_traces(self, tmp_path):
        results = chi_sweep(_sweep_dataset(5, n=30), [1.25, 2, 1.5], TrainConfig(), seed=4)
        assert isinstance(results[2].rse_trace_b[0], np.float64)
        path = tmp_path / "chi_traces.csv"
        write_chi_traces(results, path)
        assert path.read_bytes().decode() == chi_traces_text(results)

    def test_write_table_cells(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, "a,b,c", [[np.float64(0.1), math.nan, "x,y"], [np.int64(7), 1e300, 'q"']])
        assert path.read_bytes() == b'a,b,c\n0.1,,"x,y"\n7,1e+300,"q"""\n'
