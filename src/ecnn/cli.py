"""Command-line entry point.

Commands: ``synth`` (generate a benchmark dataset), ``train`` (fit one of
the three classifier families, optionally with multi-restart selection),
``evaluate`` (score a saved model), ``compare`` (cross-validated
comparison of all three families) and ``chi-sweep`` (learning-rate
curves). Every command is deterministic given its full flag set, records
a manifest sufficient to replay it, and writes output files atomically.

Exit codes: 0 success, 2 config error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

import click
import numpy as np

from . import cascade, dtree, gmdh, harness
from .dataset import Dataset, load_csv, save_csv, synth_generate
from .errors import ConfigError, DataError, NumericError
from .model import read_model_doc
from .projection import TrainConfig
from .util import atomic_write_text, sha256_file

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _handles_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ConfigError as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(EXIT_CONFIG)
        except DataError as exc:
            click.echo(f"data error: {exc}", err=True)
            sys.exit(EXIT_DATA)
        except NumericError as exc:
            click.echo(f"numeric error: {exc}", err=True)
            sys.exit(EXIT_NUMERIC)

    return wrapper


def _argv() -> list[str]:
    """The command line that reruns the current command: every option
    that has a value, except ``--jobs``, which never changes a result."""
    ctx = click.get_current_context()
    argv = [ctx.info_name]
    for param in ctx.command.params:
        value = ctx.params[param.name]
        if value is not None and param.name != "jobs":
            argv += [param.opts[0], str(value)]
    return argv


def _write_manifest(
    out_prefix: str,
    config: dict,
    seeds: dict,
    input_paths: list[str | Path],
    artifacts: list[Path],
    started: float,
    results: dict | None = None,
) -> Path:
    argv = _argv()
    manifest = {
        "format_version": 1,
        "command": argv[0],
        "argv": argv,
        "config": config,
        "seeds": seeds,
        "input_hashes": {str(p): sha256_file(p) for p in input_paths},
        "artifacts": [str(p) for p in artifacts],
        "wall_clock_s": time.time() - started,
    }
    if results is not None:
        manifest["results"] = results
    path = Path(f"{out_prefix}.manifest.json")
    atomic_write_text(path, json.dumps(manifest, indent=2) + "\n")
    return path


def _resolve_target(target: str) -> str | int:
    try:
        return int(target)
    except ValueError:
        return target


def load_any_model(path: str | Path):
    """Load a saved model, telling its family by a key only that family
    writes; returns (kind, model)."""
    doc = read_model_doc(path)
    for key, kind, model_cls in (
        ("base_feature", "ecnn", cascade.CascadeModel),
        ("output_id", "gmdh", gmdh.GmdhModel),
        ("root", "dt", dtree.DtModel),
    ):
        if key in doc:
            return kind, model_cls.from_json_dict(doc)
    raise DataError(f"{path} is not a recognized model file")


def _metrics(model, d: Dataset, threshold: float) -> dict:
    _, cls = model.predict_batch(d.x, threshold)
    tp = int(np.sum((cls == 1) & (d.y == 1)))
    tn = int(np.sum((cls == 0) & (d.y == 0)))
    fp = int(np.sum((cls == 1) & (d.y == 0)))
    fn = int(np.sum((cls == 0) & (d.y == 1)))
    return {
        "n": d.n,
        "error_rate": float(np.mean(cls != d.y)),
        "confusion": {"tp": tp, "tn": tn, "fp": fp, "fn": fn},
    }


@click.group()
def cli() -> None:
    """Cascade-classifier training, baselines, and benchmarking."""


@cli.command("synth")
@click.option("--n", type=int, required=True, help="Number of rows.")
@click.option("--m", type=int, required=True, help="Number of features.")
@click.option("--relevant", required=True, help="Comma-separated relevant feature indices.")
@click.option("--noise-std", type=float, default=0.0, show_default=True)
@click.option("--flip", type=float, default=0.0, show_default=True, help="Label flip probability.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", required=True, help="Output prefix; writes <out>.csv and <out>.truth.json.")
@_handles_errors
def cmd_synth(n, m, relevant, noise_std, flip, seed, out) -> None:
    """Generate a synthetic feature-selection dataset plus its ground truth."""
    started = time.time()
    try:
        relevant_idx = [int(tok) for tok in relevant.split(",") if tok.strip() != ""]
    except ValueError:
        raise ConfigError(f"--relevant must be comma-separated integers, got {relevant!r}")
    d, truth = synth_generate(n, m, relevant_idx, noise_std, flip, seed)
    csv_path = Path(f"{out}.csv")
    truth_path = Path(f"{out}.truth.json")
    save_csv(d, csv_path)
    truth.save(truth_path)
    _write_manifest(
        out,
        {"n": n, "m": m, "relevant": relevant_idx, "noise_std": noise_std, "flip": flip},
        {"seed": seed}, [], [csv_path, truth_path], started,
    )
    click.echo(f"wrote {csv_path} and {truth_path}")


def _build_adapter(method, chi, delta, epsilon, init_std, split_a, max_steps,
                   candidate_restarts, max_failed_attempts, offspring, max_failures,
                   subsample, ns, pmin, seed):
    trainer = TrainConfig(
        chi=chi, delta=delta, epsilon=epsilon, max_steps=max_steps,
        init_std=init_std, split_fraction=split_a, seed=seed,
    )
    if method == "ecnn":
        cfg = cascade.GrowthConfig(
            trainer=trainer,
            restarts_per_candidate=candidate_restarts,
            max_failed_attempts=max_failed_attempts,
        )
        return harness.ecnn_adapter(cfg), cfg.to_dict()
    if method == "gmdh":
        cfg = gmdh.GmdhConfig(
            offspring_per_generation=offspring, max_serial_failures=max_failures,
            fit_subsample=subsample, seed=seed,
        )
        return harness.gmdh_adapter(cfg), cfg.to_dict()
    cfg = dtree.DtConfig(n_s=ns, p_min=pmin, seed=seed)
    return harness.dt_adapter(cfg), cfg.to_dict()


_train_options = [
    click.option("--data", "data_path", required=True, help="Training dataset CSV."),
    click.option("--target", default="target", show_default=True, help="Target column name or index."),
    click.option("--chi", type=float, default=1.9, show_default=True),
    click.option("--delta", type=float, default=0.0015, show_default=True),
    click.option("--epsilon", type=float, default=None, help="Known noise level stop (off by default)."),
    click.option("--init-std", type=float, default=0.1, show_default=True),
    click.option("--split-a", type=float, default=0.5, show_default=True, help="Fitting-part fraction."),
    click.option("--max-steps", type=int, default=200, show_default=True),
    click.option("--candidate-restarts", type=int, default=1, show_default=True),
    click.option("--max-failed-attempts", type=int, default=None),
    click.option("--offspring", type=int, default=500, show_default=True),
    click.option("--max-failures", type=int, default=5, show_default=True),
    click.option("--subsample", type=float, default=0.5, show_default=True),
    click.option("--ns", type=int, default=25, show_default=True),
    click.option("--pmin", type=float, default=0.06, show_default=True),
    click.option("--seed", type=int, default=0, show_default=True),
    click.option("--jobs", type=int, default=1, show_default=True, envvar="ECNN_JOBS"),
]


def _with_train_options(fn):
    for opt in reversed(_train_options):
        fn = opt(fn)
    return fn


@cli.command("train")
@_with_train_options
@click.option("--method", type=click.Choice(["ecnn", "gmdh", "dt"]), default="ecnn", show_default=True)
@click.option("--restarts", type=int, default=1, show_default=True, help="Multi-restart runs; best kept.")
@click.option("--test-data", default=None, help="Optional held-out CSV for per-run test errors.")
@click.option("--out", required=True, help="Output prefix.")
@_handles_errors
def cmd_train(data_path, target, method, restarts, test_data, out, jobs, **cfg_flags) -> None:
    """Train a classifier and save the best model plus a run manifest."""
    started = time.time()
    d = load_csv(data_path, _resolve_target(target))
    d_test = load_csv(test_data, _resolve_target(target)) if test_data else None
    adapter, cfg_dict = _build_adapter(method, **cfg_flags)
    report = harness.multi_restart(adapter, d, d_test, restarts, cfg_flags["seed"], jobs=jobs)
    best = report.best

    model_path = Path(f"{out}.model.json")
    best.model.save(model_path)
    artifacts = [model_path]
    if restarts > 1:
        paths = harness.write_restart_reports(
            report, Path(out).parent, d.feature_names, prefix=Path(out).name + "."
        )
        artifacts.extend(paths.values())

    results = {
        "best_run": report.best_run,
        "criterion": best.criterion,
        "train_error": best.train_error,
        "test_error": None if np.isnan(best.test_error) else best.test_error,
        "model_size": best.model_size,
        "features": sorted(best.feature_set),
    }
    _write_manifest(
        out,
        {"method": method, "restarts": restarts, **cfg_dict},
        {"seed": cfg_flags["seed"], "run_seeds": [r.seed for r in report.records]},
        [data_path] + ([test_data] if test_data else []),
        artifacts,
        started,
        results,
    )
    click.echo(f"wrote {model_path} (criterion {best.criterion:.6g}, train error {best.train_error:.4f})")


@cli.command("evaluate")
@click.option("--model", "model_path", required=True)
@click.option("--data", "data_path", required=True)
@click.option("--target", default="target", show_default=True)
@click.option("--threshold", type=float, default=0.5, show_default=True)
@click.option("--out", default=None, help="Optional prefix for metrics JSON + manifest.")
@_handles_errors
def cmd_evaluate(model_path, data_path, target, threshold, out) -> None:
    """Score a saved model on a dataset: error rate and confusion counts."""
    started = time.time()
    kind, model = load_any_model(model_path)
    d = load_csv(data_path, _resolve_target(target))
    metrics = _metrics(model, d, threshold)
    metrics["method"] = kind
    text = json.dumps(metrics, indent=2)
    click.echo(text)
    if out:
        metrics_path = Path(f"{out}.metrics.json")
        atomic_write_text(metrics_path, text + "\n")
        _write_manifest(out, {"threshold": threshold}, {},
                        [model_path, data_path], [metrics_path], started)


@cli.command("compare")
@_with_train_options
@click.option("--folds", type=int, default=5, show_default=True)
@click.option("--inner-runs", type=int, default=30, show_default=True)
@click.option("--out", required=True, help="Output prefix; writes <out>.cv_report.csv.")
@_handles_errors
def cmd_compare(data_path, target, folds, inner_runs, out, jobs, **cfg_flags) -> None:
    """Cross-validated comparison of the cascade model and both baselines."""
    started = time.time()
    d = load_csv(data_path, _resolve_target(target))
    seed = cfg_flags["seed"]
    reports = []
    for method in ("ecnn", "gmdh", "dt"):
        adapter, _ = _build_adapter(method, **cfg_flags)
        reports.append(harness.kfold(d, folds, adapter, inner_runs, seed, jobs=jobs))
    report_path = Path(f"{out}.cv_report.csv")
    harness.write_cv_report(reports, report_path)
    _write_manifest(out, {"folds": folds, "inner_runs": inner_runs},
                    {"seed": seed}, [data_path], [report_path], started)
    for rep in reports:
        click.echo(
            f"{rep.method}: mean performance {rep.mean_performance:.4f} "
            f"(variance {rep.variance_performance:.6f})"
        )
    click.echo(f"wrote {report_path}")


@cli.command("chi-sweep")
@click.option("--data", "data_path", required=True)
@click.option("--target", default="target", show_default=True)
@click.option("--chis", default="1.25,1.5,1.75,2.0", show_default=True)
@click.option("--delta", type=float, default=0.0015, show_default=True)
@click.option("--max-steps", type=int, default=200, show_default=True)
@click.option("--init-std", type=float, default=0.1, show_default=True)
@click.option("--split-a", type=float, default=0.5, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", required=True, help="Output prefix; writes <out>.chi_traces.csv.")
@_handles_errors
def cmd_chi_sweep(data_path, target, chis, delta, max_steps, init_std, split_a, seed, out) -> None:
    """Validation-error traces of one neuron fitted at several learning rates."""
    started = time.time()
    try:
        chi_list = [float(tok) for tok in chis.split(",") if tok.strip() != ""]
    except ValueError:
        raise ConfigError(f"--chis must be comma-separated numbers, got {chis!r}")
    if not chi_list:
        raise ConfigError("--chis must name at least one learning rate")
    for chi in chi_list:
        if not 0.0 < chi <= 2.0:
            raise ConfigError(f"sweep learning rates must be in (0, 2], got {chi}")
    d = load_csv(data_path, _resolve_target(target))
    cfg = TrainConfig(
        chi=chi_list[0], delta=delta, max_steps=max_steps,
        init_std=init_std, split_fraction=split_a, seed=seed,
    )
    results = harness.chi_sweep(d, chi_list, cfg, seed)
    trace_path = Path(f"{out}.chi_traces.csv")
    harness.write_chi_traces(results, trace_path)
    _write_manifest(out, {"chis": chi_list, "delta": delta},
                    {"seed": seed}, [data_path], [trace_path], started)
    for chi in chi_list:
        res = results[chi]
        click.echo(f"chi={chi}: {res.steps_taken} steps, final rse_b {res.criterion:.6g}")
    click.echo(f"wrote {trace_path}")


def replay_manifest(path: str | Path) -> int:
    """Re-run the command recorded in a manifest; returns the exit code."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"manifest not found: {path}")
    doc = json.loads(path.read_text())
    try:
        cli.main(args=doc["argv"], standalone_mode=False)
        return 0
    except SystemExit as exc:  # raised by the error-mapping decorator
        return int(exc.code or 0)


@cli.command("replay")
@click.argument("manifest", type=str)
@_handles_errors
def cmd_replay(manifest) -> None:
    """Re-run a recorded command from its manifest file."""
    code = replay_manifest(manifest)
    if code != 0:
        sys.exit(code)


if __name__ == "__main__":
    cli()
