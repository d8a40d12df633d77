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

import dataclasses
import functools
import math
import os
import sys
import time
from pathlib import Path

import click
import numpy as np

from . import cascade, dtree, gmdh, harness
from .dataset import Dataset, load_csv, save_csv, synth_generate
from .errors import ConfigError, DataError, NumericError
from .model import read_json_doc
from .projection import TrainConfig
from .util import atomic_write_text, json_text

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _handles_errors(fn):
    """Map each typed error to its exit code; the manifest's clock starts
    here, and so does its ``input_hashes``, which the readers fill with
    the sha256 of each input file parsed, by the path it was given as."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        click.get_current_context().meta.update(started=time.time(), input_hashes={})
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
    artifacts: list[Path],
    results: dict | None = None,
) -> Path:
    argv = _argv()
    meta = click.get_current_context().meta
    manifest = {
        "format_version": 1,
        "command": argv[0],
        "argv": argv,
        "config": config,
        "seeds": seeds,
        "input_hashes": meta["input_hashes"],
        "artifacts": [str(p) for p in artifacts],
        "wall_clock_s": time.time() - meta["started"],
    }
    if results is not None:
        manifest["results"] = results
    path = Path(f"{out_prefix}.manifest.json")
    atomic_write_text(path, json_text(manifest))
    return path


def _check_out(out: str, *suffixes: str) -> list[Path]:
    """The paths of the files a command writes, ``out`` followed by each of
    ``suffixes``. Refuses, before any work, an output prefix that does not
    end in a name (a path separator, ``.`` or ``..``), whose nearest
    existing ancestor is not a directory this process can write to, or
    where one of those files, or the manifest, is an existing directory.
    Nothing is created here: the first file written creates the missing
    directories, so a refused command leaves none."""
    if os.path.basename(out) in ("", ".", ".."):
        raise ConfigError(f"--out must end in a file name prefix, got {out!r}")
    ancestor = Path(out).parent
    while not os.path.lexists(ancestor):
        ancestor = ancestor.parent
    if not (ancestor.is_dir() and os.access(ancestor, os.W_OK | os.X_OK)):
        raise ConfigError(f"--out {out!r}: {str(ancestor)!r} is not a directory this process can write to")
    for path in (out + suffix for suffix in (*suffixes, ".manifest.json")):
        if os.path.isdir(path):
            raise ConfigError(f"--out {out!r}: the output file {path!r} is a directory")
    return [Path(out + suffix) for suffix in suffixes]


def _load_data(path: str, target: str) -> Dataset:
    """The dataset in ``path``, its target column named by ``target`` or,
    if that is an integer, numbered by it."""
    try:
        column: str | int = int(target)
    except ValueError:
        column = target
    return load_csv(path, column, click.get_current_context().meta["input_hashes"])


def load_any_model(path: str | Path, hashes: dict[str, str] | None = None):
    """Load a saved model, telling its family by a key only that family
    writes; returns (kind, model). ``hashes`` is ``read_json_doc``'s."""
    doc = read_json_doc(path, hashes=hashes)
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
    # rows by (label, class): 2 * label + class counts tn, fp, fn, tp
    tn, fp, fn, tp = np.bincount(2 * d.y + cls, minlength=4).tolist()
    return {
        "n": d.n,
        "error_rate": (fp + fn) / d.n,
        "confusion": {"tp": tp, "tn": tn, "fp": fp, "fn": fn},
    }


@click.group()
def cli() -> None:
    """Cascade-classifier training, baselines, and benchmarking."""


def _field_option(flag: str, cls, field: str, **kwargs):
    """A family flag: its parameter is named after the config field it sets,
    which is how _build_method finds it, and it has that field's default."""
    default = getattr(cls, field)
    return field, click.option(flag, field, default=default, show_default=True, **{"type": type(default), **kwargs})


# The options of more than one command, in train's order.
_SHARED_OPTIONS = dict([
    ("data_path", click.option("--data", "data_path", required=True, help="Dataset CSV.")),
    ("target", click.option("--target", default="target", show_default=True, help="Target column name or index.")),
    _field_option("--chi", TrainConfig, "chi"),
    _field_option("--delta", TrainConfig, "delta"),
    _field_option("--epsilon", TrainConfig, "epsilon", type=float, help="Known noise level stop (off by default)."),
    _field_option("--init-std", TrainConfig, "init_std"),
    _field_option("--split-a", TrainConfig, "split_fraction", help="Fitting-part fraction."),
    _field_option("--max-steps", TrainConfig, "max_steps"),
    _field_option("--candidate-restarts", cascade.GrowthConfig, "restarts_per_candidate"),
    _field_option("--max-failed-attempts", cascade.GrowthConfig, "max_failed_attempts", type=int),
    _field_option("--offspring", gmdh.GmdhConfig, "offspring_per_generation"),
    _field_option("--max-failures", gmdh.GmdhConfig, "max_serial_failures"),
    _field_option("--subsample", gmdh.GmdhConfig, "fit_subsample"),
    _field_option("--ns", dtree.DtConfig, "n_s"),
    _field_option("--pmin", dtree.DtConfig, "p_min"),
    ("seed", click.option("--seed", type=int, default=0, show_default=True)),
    ("jobs", click.option("--jobs", type=int, default=1, show_default=True)),
])


def _shared(*names: str):
    """Add the named shared options to a command, in the order given."""
    return lambda fn: functools.reduce(lambda f, name: _SHARED_OPTIONS[name](f), reversed(names), fn)


@cli.command("synth")
@click.option("--n", type=int, required=True, help="Number of rows.")
@click.option("--m", type=int, required=True, help="Number of features.")
@click.option("--relevant", required=True, help="Comma-separated relevant feature indices.")
@click.option("--noise-std", type=float, default=0.0, show_default=True)
@click.option("--flip", type=float, default=0.0, show_default=True, help="Label flip probability.")
@_shared("seed")
@click.option("--out", required=True, help="Output prefix; writes <out>.csv and <out>.truth.json.")
@_handles_errors
def cmd_synth(n, m, relevant, noise_std, flip, seed, out) -> None:
    """Generate a synthetic feature-selection dataset plus its ground truth."""
    csv_path, truth_path = _check_out(out, ".csv", ".truth.json")
    try:
        relevant_idx = [int(tok) for tok in relevant.split(",") if tok.strip() != ""]
    except ValueError:
        raise ConfigError(f"--relevant must be comma-separated integers, got {relevant!r}")
    d, truth = synth_generate(n, m, relevant_idx, noise_std, flip, seed)
    save_csv(d, csv_path)
    truth.save(truth_path)
    _write_manifest(
        out,
        {"n": n, "m": m, "relevant": relevant_idx, "noise_std": noise_std, "flip": flip},
        {"seed": seed}, [csv_path, truth_path],
    )
    click.echo(f"wrote {csv_path} and {truth_path}")


def _build_method(method: str, flags: dict) -> harness.Method:
    """The method with its config: each field is the flag of its name or, like
    the trainer (checked first), a config built the same way from its
    ``default_factory``. Only the chosen method's flags are read and checked."""
    def build(cls):
        return cls(**{f.name: flags[f.name] if f.name in flags else build(f.default_factory)
                      for f in dataclasses.fields(cls)})

    return harness.Method(method, build(harness.FAMILIES[method][0]))


@cli.command("train")
@_shared(*_SHARED_OPTIONS)
@click.option("--method", type=click.Choice(list(harness.FAMILIES)), default="ecnn", show_default=True)
@click.option("--restarts", type=int, default=1, show_default=True, help="Multi-restart runs; best kept.")
@click.option("--test-data", default=None, help="Optional held-out CSV for per-run test errors.")
@click.option("--out", required=True, help="Output prefix.")
@_handles_errors
def cmd_train(data_path, target, method, restarts, test_data, out, jobs, seed, **flags) -> None:
    """Train a classifier and save the best model plus a run manifest."""
    reports = [f".{name}.csv" for name in harness.RESTART_REPORTS] if restarts > 1 else []
    model_path = _check_out(out, ".model.json", *reports)[0]
    d = _load_data(data_path, target)
    d_test = _load_data(test_data, target) if test_data else None
    built = _build_method(method, flags)
    report = harness.multi_restart(built, d, d_test, restarts, seed, jobs=jobs)
    best = report.best

    best.model.save(model_path)
    artifacts = [model_path]
    if restarts > 1:
        artifacts.extend(harness.write_restart_reports(report, out, d.feature_names).values())

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
        {"method": method, "restarts": restarts, **dataclasses.asdict(built.cfg)},
        {"seed": seed, "run_seeds": [r.seed for r in report.records]},
        artifacts,
        results,
    )
    click.echo(f"wrote {model_path} (criterion {best.criterion:.6g}, train error {best.train_error:.4f})")


@cli.command("evaluate")
@click.option("--model", "model_path", required=True)
@_shared("data_path", "target")
@click.option("--threshold", type=float, default=0.5, show_default=True)
@click.option("--out", default=None, help="Optional prefix for metrics JSON + manifest.")
@_handles_errors
def cmd_evaluate(model_path, data_path, target, threshold, out) -> None:
    """Score a saved model on a dataset: error rate and confusion counts."""
    metrics_path = None if out is None else _check_out(out, ".metrics.json")[0]
    if not math.isfinite(threshold):
        raise ConfigError(f"--threshold must be finite, got {threshold}")
    kind, model = load_any_model(model_path, click.get_current_context().meta["input_hashes"])
    d = _load_data(data_path, target)
    metrics = _metrics(model, d, threshold)
    metrics["method"] = kind
    text = json_text(metrics)
    click.echo(text, nl=False)
    if metrics_path is not None:
        atomic_write_text(metrics_path, text)
        _write_manifest(out, {"threshold": threshold}, {}, [metrics_path])


@cli.command("compare")
@_shared(*_SHARED_OPTIONS)
@click.option("--folds", type=int, default=5, show_default=True)
@click.option("--inner-runs", type=int, default=30, show_default=True)
@click.option("--out", required=True, help="Output prefix; writes <out>.cv_report.csv.")
@_handles_errors
def cmd_compare(data_path, target, folds, inner_runs, out, jobs, seed, **flags) -> None:
    """Cross-validated comparison of the cascade model and both baselines."""
    [report_path] = _check_out(out, ".cv_report.csv")
    d = _load_data(data_path, target)
    built = [_build_method(method, flags) for method in harness.FAMILIES]
    reports = [harness.kfold(d, folds, method, inner_runs, seed, jobs=jobs) for method in built]
    harness.write_cv_report(reports, report_path)
    methods = {method.name: dataclasses.asdict(method.cfg) for method in built}
    _write_manifest(out, {"folds": folds, "inner_runs": inner_runs, "methods": methods},
                    {"seed": seed}, [report_path])
    for rep in reports:
        click.echo(
            f"{rep.method}: mean performance {rep.mean_performance:.4f} "
            f"(variance {rep.variance_performance:.6f})"
        )
    click.echo(f"wrote {report_path}")


@cli.command("chi-sweep")
@_shared("data_path", "target")
@click.option("--chis", default=",".join(map(str, harness.DEFAULT_CHI_LIST)), show_default=True)
@_shared("delta", "max_steps", "init_std", "split_fraction", "seed")
@click.option("--out", required=True, help="Output prefix; writes <out>.chi_traces.csv.")
@_handles_errors
def cmd_chi_sweep(data_path, target, chis, seed, out, **flags) -> None:
    """Validation-error traces of one neuron fitted at several learning rates."""
    [trace_path] = _check_out(out, ".chi_traces.csv")
    try:
        chi_list = [float(tok) for tok in chis.split(",") if tok.strip() != ""]
    except ValueError:
        raise ConfigError(f"--chis must be comma-separated numbers, got {chis!r}")
    if not chi_list:
        raise ConfigError("--chis must name at least one learning rate")
    d = _load_data(data_path, target)
    # chi_sweep sets each rate in turn and rejects any outside (0, 2]
    cfg = TrainConfig(**flags)
    results = harness.chi_sweep(d, chi_list, cfg, seed)
    harness.write_chi_traces(results, trace_path)
    trainer = {name: value for name, value in dataclasses.asdict(cfg).items() if name != "chi"}
    _write_manifest(out, {"chis": chi_list, **trainer}, {"seed": seed}, [trace_path])
    for chi in chi_list:
        res = results[chi]
        click.echo(f"chi={chi}: {res.steps_taken} steps, final rse_b {res.criterion:.6g}")
    click.echo(f"wrote {trace_path}")


def replay_manifest(path: str | Path) -> int:
    """Re-run the command recorded in a manifest; returns the exit code."""
    argv = read_json_doc(path, "manifest").get("argv")
    if not (isinstance(argv, list) and all(isinstance(a, str) for a in argv)):
        raise DataError(f"manifest {path} has no argv list of strings")
    if argv[:1] == ["replay"]:
        raise DataError(f"manifest {path} records a replay, not a command to rerun")
    try:
        cli.main(args=argv, standalone_mode=False)
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
