"""Experiment protocols: multi-restart selection, stratified k-fold
cross-validation, and learning-rate sweeps, with CSV reporting.

Every protocol derives per-run seeds from one base seed, so restarts and
folds are independent and can run in parallel worker processes without
changing any result.
"""

from __future__ import annotations

import dataclasses
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import cascade, dtree, gmdh
from .dataset import Dataset, fit_normalize, split
from .errors import ConfigError, DataError, EcnnError, NumericError
from .projection import FitResult, TrainConfig, fit_neuron
from .util import atomic_write_text, derive_rng, derive_seed

DEFAULT_CHI_LIST = (1.25, 1.5, 1.75, 2.0)


@dataclass
class Trained:
    """A trained model with its validation criterion (lower is better)."""

    model: Any
    criterion: float
    trace: tuple[float, ...] = ()


@dataclass
class MethodAdapter:
    """Handle the harness uses to drive one classifier family: its name and
    a picklable training function. The trained model answers everything
    else through the interface the families share (``ecnn.model``)."""

    name: str
    train: Callable[[Dataset, int], Trained]


def _train_ecnn(d: Dataset, seed: int, cfg: cascade.GrowthConfig) -> Trained:
    model = cascade.train(d, cfg, seed=seed)
    return Trained(model, model.neurons[-1].criterion, model.criterion_trace())


def _train_gmdh(d: Dataset, seed: int, cfg: gmdh.GmdhConfig, valid_fraction: float) -> Trained:
    dn, norm = fit_normalize(d)
    pair = split(dn, 1.0 - valid_fraction, derive_seed(seed, "gmdh-split"))
    model = gmdh.evolve(
        dn.subset(pair.a_indices), dn.subset(pair.b_indices), cfg, seed=seed, norm=norm
    )
    trace = tuple(best for _, best, _ in model.generation_log)
    return Trained(model, 1.0 - model.validation_performance, trace)


def _train_dt(d: Dataset, seed: int, cfg: dtree.DtConfig, valid_fraction: float) -> Trained:
    pair = split(d, 1.0 - valid_fraction, derive_seed(seed, "dt-split"))
    d_fit = d.subset(pair.a_indices)
    d_valid = d.subset(pair.b_indices)
    model = dtree.build(d_fit, cfg, seed=seed)
    return Trained(model, model.error_rate(d_valid))


def ecnn_adapter(cfg: cascade.GrowthConfig | None = None) -> MethodAdapter:
    cfg = cfg if cfg is not None else cascade.GrowthConfig()
    return MethodAdapter("ecnn", partial(_train_ecnn, cfg=cfg))


def gmdh_adapter(cfg: gmdh.GmdhConfig | None = None, valid_fraction: float = 0.5) -> MethodAdapter:
    cfg = cfg if cfg is not None else gmdh.GmdhConfig()
    return MethodAdapter("gmdh", partial(_train_gmdh, cfg=cfg, valid_fraction=valid_fraction))


def dt_adapter(cfg: dtree.DtConfig | None = None, valid_fraction: float = 0.5) -> MethodAdapter:
    cfg = cfg if cfg is not None else dtree.DtConfig()
    return MethodAdapter("dt", partial(_train_dt, cfg=cfg, valid_fraction=valid_fraction))


@dataclass
class RunRecord:
    run: int
    seed: int
    status: str  # "ok" or "error"
    criterion: float = math.nan
    train_error: float = math.nan
    test_error: float = math.nan
    model_size: int = 0
    feature_set: frozenset[int] = frozenset()
    criterion_trace: tuple[float, ...] = ()
    model: Any = field(default=None, repr=False)
    error: EcnnError | None = None


@dataclass
class RestartReport:
    records: list[RunRecord]
    best_run: int

    @property
    def best(self) -> RunRecord:
        return self.records[self.best_run]


def _run_one(
    adapter: MethodAdapter, d_train: Dataset, d_test: Dataset | None, base_seed: int, run: int
) -> RunRecord:
    seed = derive_seed(base_seed, "restart", run)
    try:
        trained = adapter.train(d_train, seed)
    except (DataError, NumericError) as exc:
        return RunRecord(run=run, seed=seed, status="error", error=exc)
    model = trained.model
    return RunRecord(
        run=run,
        seed=seed,
        status="ok",
        criterion=trained.criterion,
        train_error=model.error_rate(d_train),
        test_error=model.error_rate(d_test) if d_test is not None else math.nan,
        model_size=model.size(),
        feature_set=model.used_features(),
        criterion_trace=trained.trace,
        model=model,
    )


def multi_restart(
    adapter: MethodAdapter,
    d_train: Dataset,
    d_test: Dataset | None,
    runs: int,
    base_seed: int,
    jobs: int = 1,
) -> RestartReport:
    """Train ``runs`` times from derived seeds and pick the best model by
    validation criterion (ties to the lower run index).

    A run that raises a data or numeric error is recorded as failed rather
    than aborting the whole protocol; only if every run fails does the
    report raise, with the error class of the last run.
    """
    if runs < 1:
        raise ConfigError(f"runs must be >= 1, got {runs}")
    if jobs > 1:
        worker = partial(_run_one, adapter, d_train, d_test, base_seed)
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(worker, range(runs)))
    else:
        records = [_run_one(adapter, d_train, d_test, base_seed, i) for i in range(runs)]
    ok = [r for r in records if r.status == "ok"]
    if not ok:
        last = records[-1].error
        raise type(last)(f"all {runs} restarts failed; last error: {last}")
    best = min(ok, key=lambda r: (r.criterion, r.run))
    return RestartReport(records, best.run)


def _fmt(v: float) -> str:
    return "" if (isinstance(v, float) and math.isnan(v)) else repr(float(v))


def write_restart_reports(
    report: RestartReport, out_dir: str | Path, feature_names: list[str] | None = None, prefix: str = ""
) -> dict[str, Path]:
    """Emit the per-run table plus histogram source files.

    Writes restart_report.csv (one row per run), feature_freq.csv (how
    often each feature was used across successful runs), size_hist.csv
    (model-size counts summing to the number of successful runs) and
    error_hist.csv (per-run train/test errors).
    """
    out_dir = Path(out_dir)
    paths: dict[str, Path] = {}

    rows = ["run,seed,status,criterion,train_error,test_error,model_size,features,criterion_trace"]
    for r in report.records:
        feats = ";".join(str(j) for j in sorted(r.feature_set))
        trace = ";".join(repr(float(v)) for v in r.criterion_trace)
        rows.append(
            f"{r.run},{r.seed},{r.status},{_fmt(r.criterion)},{_fmt(r.train_error)},"
            f"{_fmt(r.test_error)},{r.model_size},{feats},{trace}"
        )
    paths["restart_report"] = out_dir / f"{prefix}restart_report.csv"
    atomic_write_text(paths["restart_report"], "\n".join(rows) + "\n")

    ok = [r for r in report.records if r.status == "ok"]
    freq: dict[int, int] = {}
    for r in ok:
        for j in r.feature_set:
            freq[j] = freq.get(j, 0) + 1
    rows = ["feature,name,count"]
    for j in sorted(freq):
        name = feature_names[j] if feature_names else f"f{j}"
        rows.append(f"{j},{name},{freq[j]}")
    paths["feature_freq"] = out_dir / f"{prefix}feature_freq.csv"
    atomic_write_text(paths["feature_freq"], "\n".join(rows) + "\n")

    sizes: dict[int, int] = {}
    for r in ok:
        sizes[r.model_size] = sizes.get(r.model_size, 0) + 1
    rows = ["model_size,count"]
    for s in sorted(sizes):
        rows.append(f"{s},{sizes[s]}")
    paths["size_hist"] = out_dir / f"{prefix}size_hist.csv"
    atomic_write_text(paths["size_hist"], "\n".join(rows) + "\n")

    rows = ["run,train_error,test_error"]
    for r in ok:
        rows.append(f"{r.run},{_fmt(r.train_error)},{_fmt(r.test_error)}")
    paths["error_hist"] = out_dir / f"{prefix}error_hist.csv"
    atomic_write_text(paths["error_hist"], "\n".join(rows) + "\n")
    return paths


@dataclass
class FoldResult:
    fold: int
    performance: float
    test_error: float
    best_seed: int


@dataclass
class CvReport:
    method: str
    folds: list[FoldResult]
    mean_performance: float
    variance_performance: float

    def recompute(self) -> tuple[float, float]:
        perfs = np.asarray([f.performance for f in self.folds])
        return float(perfs.mean()), float(perfs.var())


def stratified_folds(d: Dataset, k: int, seed: int) -> list[np.ndarray]:
    """Class-balanced fold assignment: each class is shuffled and dealt
    round-robin, so fold sizes differ by at most one per class."""
    if k < 2:
        raise ConfigError(f"k must be >= 2, got {k}")
    if d.n < k:
        raise DataError(f"cannot make {k} folds from {d.n} rows")
    rng = derive_rng(seed, "folds")
    assignment = np.empty(d.n, dtype=np.int64)
    offset = 0  # carry the deal across classes so all folds fill when n >= k
    for cls in np.unique(d.y):
        idx = rng.permutation(np.flatnonzero(d.y == cls))
        assignment[idx] = (np.arange(len(idx)) + offset) % k
        offset = (offset + len(idx)) % k
    return [np.flatnonzero(assignment == f) for f in range(k)]


def kfold(
    d: Dataset,
    k: int,
    adapter: MethodAdapter,
    inner_runs: int = 30,
    seed: int = 0,
    jobs: int = 1,
) -> CvReport:
    """Stratified k-fold protocol: per fold, ``inner_runs`` restarts pick
    the best-on-validation model, which is then scored on the held-out
    fold. Reports mean and population variance of fold performances."""
    folds = stratified_folds(d, k, seed)
    results: list[FoldResult] = []
    for f, test_idx in enumerate(folds):
        train_idx = np.sort(np.concatenate([folds[g] for g in range(k) if g != f]))
        d_train = d.subset(train_idx)
        d_test = d.subset(test_idx)
        counts = d_train.class_counts()
        if counts[0] == 0 or counts[1] == 0:
            raise DataError(f"training part of fold {f} lacks a class")
        rep = multi_restart(adapter, d_train, d_test, inner_runs, derive_seed(seed, "fold", f), jobs)
        best = rep.best
        results.append(
            FoldResult(
                fold=f,
                performance=1.0 - best.test_error,
                test_error=best.test_error,
                best_seed=best.seed,
            )
        )
    perfs = np.asarray([r.performance for r in results])
    return CvReport(adapter.name, results, float(perfs.mean()), float(perfs.var()))


def write_cv_report(reports: list[CvReport], path: str | Path) -> None:
    """One row per method per fold, with the method-level summary repeated."""
    rows = ["method,fold,performance,test_error,best_seed,mean_performance,variance_performance"]
    for rep in reports:
        for f in rep.folds:
            rows.append(
                f"{rep.method},{f.fold},{repr(f.performance)},{repr(f.test_error)},"
                f"{f.best_seed},{repr(rep.mean_performance)},{repr(rep.variance_performance)}"
            )
    atomic_write_text(path, "\n".join(rows) + "\n")


def chi_sweep(
    d: Dataset, chis: list[float], cfg: TrainConfig, seed: int = 0
) -> dict[float, FitResult]:
    """Fit one all-features neuron per learning rate, every fit starting
    from the same initial weights on the same data split."""
    for chi in chis:
        if not 0.0 < chi <= 2.0:
            raise ConfigError(f"sweep learning rates must be in (0, 2], got {chi}")
    dn, _ = fit_normalize(d)
    pair = split(dn, cfg.split_fraction, derive_seed(seed, "split"))
    d_a = dn.subset(pair.a_indices)
    d_b = dn.subset(pair.b_indices)
    inputs_a = d_a.x.T
    inputs_b = d_b.x.T
    ya = d_a.y.astype(np.float64)
    yb = d_b.y.astype(np.float64)
    results: dict[float, FitResult] = {}
    for chi in chis:
        cfg_chi = dataclasses.replace(cfg, chi=chi)
        rng = derive_rng(seed, "sweep-init")  # fresh identical stream per chi
        results[chi] = fit_neuron(inputs_a, ya, inputs_b, yb, cfg_chi, rng)
    return results


def write_chi_traces(results: dict[float, FitResult], path: str | Path) -> None:
    rows = ["chi,step,rse_b"]
    for chi in results:
        for step, value in enumerate(results[chi].rse_trace_b):
            rows.append(f"{repr(float(chi))},{step},{repr(float(value))}")
    atomic_write_text(path, "\n".join(rows) + "\n")
