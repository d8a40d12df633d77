"""Experiment protocols: multi-restart selection, stratified k-fold
cross-validation, and learning-rate sweeps, with CSV reporting.

Every protocol derives per-run seeds from one base seed, so restarts and
folds are independent and can run in parallel worker processes without
changing any result.
"""

from __future__ import annotations

import dataclasses
import math
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

from . import cascade, dtree, gmdh
from .dataset import Dataset, fit_normalize, split
from .errors import ConfigError, DataError, EcnnError, NumericError
from .projection import FitResult, TrainConfig, fit_neuron
from .util import derive_rng, derive_seed, write_table

DEFAULT_CHI_LIST = (1.25, 1.5, 1.75, 2.0)
# the tables ``write_restart_reports`` writes, each to ``<prefix>.<name>.csv``
RESTART_REPORTS = ("restart_report", "feature_freq", "size_hist", "error_hist")
# each family: its config class and its ``fit(d, cfg, seed)``, which
# returns the trained model, its validation criterion (lower is better)
# and that criterion's trace. The model answers everything else through
# the interface the families share (``ecnn.model``).
FAMILIES = {
    "ecnn": (cascade.GrowthConfig, cascade.fit),
    "gmdh": (gmdh.GmdhConfig, gmdh.fit),
    "dt": (dtree.DtConfig, dtree.fit),
}


class Method(NamedTuple):
    """One family of ``FAMILIES`` and its config: what a protocol trains,
    and what it sends to a worker process."""

    name: str
    cfg: Any


ecnn_adapter = partial(Method, "ecnn")  # perfbench's select72 still builds its method by this name


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
    method: Method, d_train: Dataset, d_test: Dataset | None, base_seed: int, run: int
) -> RunRecord:
    seed = derive_seed(base_seed, "restart", run)
    try:
        model, criterion, trace = FAMILIES[method.name][1](d_train, method.cfg, seed)
    except (DataError, NumericError) as exc:
        return RunRecord(run=run, seed=seed, status="error", error=exc)
    return RunRecord(
        run=run,
        seed=seed,
        status="ok",
        criterion=criterion,
        train_error=model.error_rate(d_train),
        test_error=model.error_rate(d_test) if d_test is not None else math.nan,
        model_size=model.size(),
        feature_set=model.used_features(),
        criterion_trace=trace,
        model=model,
    )


def multi_restart(
    method: Method,
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
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    if d_test is not None and d_test.m != d_train.m:
        raise DataError(f"test data has {d_test.m} features but training data has {d_train.m}")
    worker = partial(_run_one, method, d_train, d_test, base_seed)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(worker, range(runs)))
    else:
        records = list(map(worker, range(runs)))
    ok = [r for r in records if r.status == "ok"]
    if not ok:
        last = records[-1].error
        raise type(last)(f"all {runs} restarts failed; last error: {last}")
    best = min(ok, key=lambda r: (r.criterion, r.run))
    return RestartReport(records, best.run)


def _features_cell(r: RunRecord) -> str:
    """A run's features as a report cell: ascending indices, ``;``-joined."""
    return ";".join(str(j) for j in sorted(r.feature_set))


def write_restart_reports(
    report: RestartReport, prefix: str | Path, feature_names: list[str]
) -> dict[str, Path]:
    """Emit the per-run table plus histogram source files.

    Writes ``<prefix>.<name>.csv`` for each name: restart_report (one row
    per run), feature_freq (how often each feature was used across
    successful runs), size_hist (model-size counts summing to the number
    of successful runs) and error_hist (per-run train/test errors).
    """
    paths = {name: Path(f"{prefix}.{name}.csv") for name in RESTART_REPORTS}
    write_table(paths["restart_report"],
                "run,seed,status,criterion,train_error,test_error,model_size,features,criterion_trace",
                ([r.run, r.seed, r.status, r.criterion, r.train_error, r.test_error, r.model_size,
                  _features_cell(r), ";".join(repr(float(v)) for v in r.criterion_trace)]
                 for r in report.records))
    ok = [r for r in report.records if r.status == "ok"]
    freq = Counter(j for r in ok for j in r.feature_set)
    write_table(paths["feature_freq"], "feature,name,count",
                ([j, feature_names[j], freq[j]] for j in sorted(freq)))
    sizes = Counter(r.model_size for r in ok)
    write_table(paths["size_hist"], "model_size,count", ([s, sizes[s]] for s in sorted(sizes)))
    write_table(paths["error_hist"], "run,train_error,test_error",
                ([r.run, r.train_error, r.test_error] for r in ok))
    return paths


@dataclass
class CvReport:
    """One method's k-fold result: ``folds[f]`` is the best restart of fold
    ``f``, its performance 1 - its test error on that fold's held-out rows."""

    method: str
    folds: list[RunRecord]

    def __post_init__(self) -> None:
        self.performances = [1.0 - r.test_error for r in self.folds]
        self.mean_performance = float(np.mean(self.performances))
        self.variance_performance = float(np.var(self.performances))


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
    method: Method,
    inner_runs: int = 30,
    seed: int = 0,
    jobs: int = 1,
) -> CvReport:
    """Stratified k-fold protocol: per fold, ``inner_runs`` restarts pick
    the best-on-validation model, which is then scored on the held-out
    fold. Reports mean and population variance of fold performances."""
    folds = stratified_folds(d, k, seed)
    best = []
    for f, test_idx in enumerate(folds):
        train_idx = np.sort(np.concatenate([folds[g] for g in range(k) if g != f]))
        d_train = d.subset(train_idx)
        d_train.require_both_classes(f"training part of fold {f}")
        fold_seed = derive_seed(seed, "fold", f)
        best.append(multi_restart(method, d_train, d.subset(test_idx), inner_runs, fold_seed, jobs).best)
    return CvReport(method.name, best)


def write_cv_report(reports: list[CvReport], path: str | Path) -> None:
    """One row per method per fold, with the method-level summary repeated;
    ``model_size`` and ``features`` describe the fold's best run."""
    write_table(
        path,
        "method,fold,performance,test_error,best_seed,mean_performance,variance_performance,model_size,features",
        ([rep.method, f, perf, r.test_error, r.seed, rep.mean_performance, rep.variance_performance,
          r.model_size, _features_cell(r)]
         for rep in reports for f, (r, perf) in enumerate(zip(rep.folds, rep.performances))),
    )


def chi_sweep(
    d: Dataset, chis: list[float], cfg: TrainConfig, seed: int = 0
) -> dict[float, FitResult]:
    """Fit one all-features neuron per learning rate, every fit starting
    from the same initial weights on the same data split."""
    for chi in chis:
        if not 0.0 < chi <= 2.0:
            raise ConfigError(f"sweep learning rates must be in (0, 2], got {chi}")
    if len(set(chis)) < len(chis):  # results are keyed by rate
        raise ConfigError(f"sweep learning rates must differ, got {chis}")
    dn, _ = fit_normalize(d)
    d_a, d_b = split(dn, cfg.split_fraction, derive_seed(seed, "split"))
    results: dict[float, FitResult] = {}
    for chi in chis:
        cfg_chi = dataclasses.replace(cfg, chi=chi)
        rng = derive_rng(seed, "sweep-init")  # fresh identical stream per chi
        results[chi] = fit_neuron(d_a.x.T, d_a.y, d_b.x.T, d_b.y, cfg_chi, rng)
    return results


def write_chi_traces(results: dict[float, FitResult], path: str | Path) -> None:
    write_table(path, "chi,step,rse_b", ([float(chi), step, value] for chi, res in results.items()
                                          for step, value in enumerate(res.rse_trace_b)))
