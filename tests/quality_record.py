"""Quality record of a model family: a paired test of a candidate
configuration against a base one, the gate a default that changes the
family's models passes.

Each task is a 600-row dataset of standard-normal features labelled by a
rule of the clean features; every feature then gets Gaussian noise of
deviation 0.2, and 5% of the labels are flipped:

- ``linear``: ``synth_generate(600, 12, [0, 4, 9], 0.2, 0.05, seed)``;
- ``interaction``: 12 features, ``x0*x4 + 0.5*x9 >= 0``;
- ``redundant``: ``x0 - 1.2*x4 + 0.8*x9 >= 0``, and x0, x4 and x9 each get
  2 copies with their own noise of deviation 0.3 (18 columns);
- ``imbalanced``: 12 features, the same score at or above its 90%
  quantile (about 14% positives after the flips);
- ``m2`` and ``m20``, reported only: ``synth_generate(600, m, [0, m-1],
  0.2, 0.05, seed)``.

For each seed, the family (``--method``, GMDH by default) runs through
``harness.kfold`` (5 folds, 5 inner runs, fold seed = data seed) under
each configuration, and the seed's error is the mean held-out error of its
folds. Per task and configuration the record gives the mean error, the
median size of the best model of each fold, the mean depth of every run
(GMDH's generations, the cascade's layers) and the CPU seconds of the
process and its workers; then the seeds where the candidate is better,
tied and worse, and the exact one-sided p of the paired Wilcoxon
signed-rank test (Demsar, JMLR 2006) that the candidate is worse. Seeds
0-9 choose a default, and seeds 100-119 confirm it.

Usage, from the repository root::

    PYTHONPATH=src python3 tests/quality_record.py --seeds 100-119 \\
        --base offspring_per_generation=500 [field=value ...]
    PYTHONPATH=src python3 tests/quality_record.py --method ecnn --seeds 100-119 \\
        --base max_failed_attempts=1000
    PYTHONPATH=src python3 tests/quality_record.py --method ecnn --seeds 100-119 \\
        trainer.max_steps=1000 trainer.delta=3e-4

``--base field=value`` (repeatable) sets a field of the family's default
config (``GmdhConfig()``, ``GrowthConfig()``), and each positional
``field=value`` one of the candidate's; a value is a Python literal
(``None``, ``500``, ``0.5``). A dotted name sets a field of a field:
``trainer.max_steps`` is the cascade's ``TrainConfig.max_steps``.

``--save PATH`` writes the candidate's record (its family, config and
seeds, and each task's per-seed errors, sizes, depths and CPU) as JSON;
``--against PATH`` takes such a record as the base instead of running
one, so that the gate can judge a change of code, not only of config::

    PYTHONPATH=src python3 tests/quality_record.py --method ecnn --seeds 100-119 --save parent.json
    # then, on the changed code
    PYTHONPATH=src python3 tests/quality_record.py --method ecnn --seeds 100-119 --against parent.json

pytest does not collect this file; ``tests/test_quality_record.py`` checks
its test statistic.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import json
import resource
import statistics
import sys

import numpy as np

from ecnn import harness
from ecnn.dataset import Dataset, synth_generate

ROWS, NOISE, FLIP = 600, 0.2, 0.05
FOLDS, INNER_RUNS = 5, 5
GATED = ("linear", "interaction", "redundant", "imbalanced")
DEPTH = {"gmdh": "generations", "ecnn": "layers"}


def _score(x: np.ndarray) -> np.ndarray:
    return x[:, 0] - 1.2 * x[:, 4] + 0.8 * x[:, 9]


def _with_copies(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    copies = np.repeat(x[:, [0, 4, 9]], 2, axis=1)
    return np.hstack([x, copies + rng.normal(0.0, 0.3, size=copies.shape)])


def _made(seed: int, label, columns=lambda x, rng: x) -> Dataset:
    """12 standard-normal features labelled by ``label`` of them, the
    columns ``columns`` makes of them, then feature noise and label flips."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((ROWS, 12))
    y = label(x).astype(np.int64)
    x = columns(x, rng)
    x = x + rng.normal(0.0, NOISE, size=x.shape)
    y[rng.random(ROWS) < FLIP] ^= 1
    return Dataset(x, y, [f"x{j}" for j in range(x.shape[1])])


TASKS = {
    "linear": lambda s: synth_generate(ROWS, 12, [0, 4, 9], NOISE, FLIP, s)[0],
    "interaction": lambda s: _made(s, lambda x: x[:, 0] * x[:, 4] + 0.5 * x[:, 9] >= 0),
    "redundant": lambda s: _made(s, lambda x: _score(x) >= 0, _with_copies),
    "imbalanced": lambda s: _made(s, lambda x: _score(x) >= np.quantile(_score(x), 0.9)),
    "m2": lambda s: synth_generate(ROWS, 2, [0, 1], NOISE, FLIP, s)[0],
    "m20": lambda s: synth_generate(ROWS, 20, [0, 19], NOISE, FLIP, s)[0],
}


def wilcoxon_worse_p(diffs) -> float:
    """Exact one-sided p of the paired Wilcoxon signed-rank test that the
    differences lie above zero.

    The differences are ranked by absolute value, zeros included, tied
    values sharing their mean rank. The statistic is the rank sum of the
    positive differences plus half the rank of each zero one (the zero
    split). p is the share of the 2**k sign patterns of the k nonzero
    differences, all equally likely when there is no shift, whose
    statistic is at least the observed one; k is at most 20. Differences
    are rounded to 12 decimals first, so that rounding in the errors they
    come from does not break a tie.
    """
    d = np.round(np.asarray(diffs, dtype=np.float64), 12)
    if d.ndim != 1 or len(d) > 20:
        raise ValueError(f"need at most 20 paired differences, got shape {d.shape}")
    _, inverse, counts = np.unique(np.abs(d), return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2)[inverse]
    # every rank and half rank is a multiple of 0.25, so the sums are exact
    fixed = ranks[d == 0].sum() / 2
    observed = ranks[d > 0].sum() + fixed
    free = ranks[d != 0]
    patterns = np.arange(2 ** len(free))
    stats = np.full(len(patterns), fixed)
    for j, rank in enumerate(free.tolist()):
        stats += ((patterns >> j) & 1) * rank
    return float(np.mean(stats >= observed))


def _cpu_s() -> float:
    return sum(r.ru_utime + r.ru_stime for r in (resource.getrusage(resource.RUSAGE_SELF),
                                                   resource.getrusage(resource.RUSAGE_CHILDREN)))


def run_task(task: str, seeds: list[int], method: harness.Method, jobs: int = 1) -> dict:
    """The k-fold record of ``method`` on ``task`` for each seed: per-seed
    errors, the best model size of every fold, each run's depth and CPU."""
    runs: list[harness.RunRecord] = []
    multi_restart = harness.multi_restart

    def keep_runs(*args, **kwargs):
        report = multi_restart(*args, **kwargs)
        runs.extend(r for r in report.records if r.status == "ok")
        return report

    errors, sizes = [], []
    start = _cpu_s()
    harness.multi_restart = keep_runs
    try:
        for seed in seeds:
            report = harness.kfold(TASKS[task](seed), FOLDS, method, INNER_RUNS, seed, jobs)
            errors.append(1.0 - report.mean_performance)
            sizes.extend(r.model_size for r in report.folds)
    finally:
        harness.multi_restart = multi_restart
    return {
        "errors": errors,
        "sizes": sizes,
        "depths": [len(r.criterion_trace) - 1 for r in runs],
        "cpu_s": _cpu_s() - start,
    }


def _summary(rec: dict) -> str:
    return (f"{statistics.fmean(rec['errors']):.4f}, {statistics.median(rec['sizes']):g}, "
            f"{statistics.fmean(rec['depths']):.1f}, {rec['cpu_s']:.1f} s")


def _replaced(cfg, name: str, value):
    """``cfg`` with field ``name`` set to ``value``; ``a.b`` names field ``b`` of field ``a``."""
    head, dot, rest = name.partition(".")
    return dataclasses.replace(cfg, **{head: _replaced(getattr(cfg, head), rest, value) if dot else value})


def _method(family: str, assignments: list[str]) -> harness.Method:
    cfg = harness.FAMILIES[family][0]()
    for item in assignments:
        name, sep, value = item.partition("=")
        if not sep:
            raise SystemExit(f"expected field=value, got {item!r}")
        cfg = _replaced(cfg, name, ast.literal_eval(value))
    return harness.Method(family, cfg)


def _seeds(spec: str) -> list[int]:
    seeds = []
    for part in spec.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def _saved_base(path: str, method: str, seeds: list[int], tasks: list[str]) -> dict:
    """The record at ``path``, refused unless it holds ``method`` on exactly
    ``seeds`` for every task in ``tasks``, so that its seeds pair with the run's."""
    with open(path, encoding="utf-8") as f:
        record = json.load(f)
    if record["method"] != method or record["seeds"] != seeds:
        raise SystemExit(f"{path} holds {record['method']} on seeds {record['seeds']}, "
                         f"not {method} on seeds {seeds}")
    missing = [t for t in tasks if t not in record["tasks"]]
    if missing:
        raise SystemExit(f"{path} has no record of {', '.join(missing)}")
    return record


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("candidate", nargs="*", metavar="field=value")
    parser.add_argument("--method", choices=DEPTH, default="gmdh")
    parser.add_argument("--base", action="append", default=[], metavar="field=value")
    parser.add_argument("--against", metavar="PATH", help="a saved record to use as the base")
    parser.add_argument("--save", metavar="PATH", help="write the candidate's record here as JSON")
    parser.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 100-119 or 1,3,5")
    parser.add_argument("--tasks", default=",".join(TASKS))
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    if args.against and args.base:
        parser.error("--base and --against both set the base")
    cand = _method(args.method, args.candidate)
    seeds, tasks = _seeds(args.seeds), args.tasks.split(",")
    if args.against:
        saved = _saved_base(args.against, args.method, seeds, tasks)
        base_name = f"{saved['config']} from {args.against}"
    else:
        base = _method(args.method, args.base)
        base_name = str(base.cfg)
    print(f"base {base_name}\ncandidate {cand.cfg}\nseeds {args.seeds}, {FOLDS} folds x {INNER_RUNS} inner runs")
    print(f"task: base (mean error, median best-fold size, mean {DEPTH[args.method]}, CPU) / candidate; "
          "seeds better/tied/worse; one-sided p that the candidate is worse")
    record = {"method": args.method, "config": str(cand.cfg), "seeds": seeds, "tasks": {}}
    for task in tasks:
        old = saved["tasks"][task] if args.against else run_task(task, seeds, base, args.jobs)
        new = record["tasks"][task] = run_task(task, seeds, cand, args.jobs)
        diffs = np.round(np.subtract(new["errors"], old["errors"]), 12)
        counts = "/".join(str(int(n)) for n in ((diffs < 0).sum(), (diffs == 0).sum(), (diffs > 0).sum()))
        gate = "" if task in GATED else " (reported only)"
        print(f"{task}{gate}: {_summary(old)} / {_summary(new)}; {counts}; p {wilcoxon_worse_p(diffs):.3f}",
              flush=True)
    if args.save:
        with open(args.save, "w", encoding="utf-8") as f:
            json.dump(record, f)
            f.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
