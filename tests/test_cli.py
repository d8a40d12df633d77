import builtins
import csv
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ecnn
from ecnn import cascade, dtree, gmdh, harness
from ecnn import cli as cli_module
from ecnn.cli import cli, load_any_model, replay_manifest
from ecnn.dataset import load_csv, save_csv, synth_generate
from ecnn.errors import NumericError
from ecnn.model import read_json_doc
from ecnn.projection import TrainConfig
from ecnn.util import json_text


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture
def runner():
    return CliRunner()


def _invoke(runner, args):
    return runner.invoke(cli, args, catch_exceptions=False)


def _assert_manifest_config(manifest, cfg, method, restarts, seed):
    """The manifest's ``config`` holds the hyper-parameters and no seed;
    the one seed is under ``seeds``."""
    assert manifest["config"] == {"method": method, "restarts": restarts, **dataclasses.asdict(cfg)}

    def keys(node):
        if isinstance(node, dict):
            for key, value in node.items():
                yield key
                yield from keys(value)

    assert "seed" not in set(keys(manifest["config"]))
    assert manifest["seeds"]["seed"] == seed


def _make_data(tmp_path, seed=0, n=160, m=5, name="train.csv"):
    d, _ = synth_generate(n, m, [0, 2], 0.1, 0.05, seed=seed)
    path = tmp_path / name
    save_csv(d, path)
    return path


class TestSynthCommand:
    def test_writes_dataset_and_truth(self, runner, tmp_path):
        out = tmp_path / "task"
        result = _invoke(runner, [
            "synth", "--n", "120", "--m", "8", "--relevant", "1,4", "--seed", "7", "--out", str(out),
        ])
        assert result.exit_code == 0
        d = load_csv(f"{out}.csv", "target")
        assert d.n == 120 and d.m == 8
        truth = json.loads(Path(f"{out}.truth.json").read_text())
        assert truth["relevant"] == [1, 4]
        assert set(truth) == {"relevant", "coefficients", "seed", "flip_count"}

    def test_missing_out_is_usage_error(self, runner):
        result = runner.invoke(cli, ["synth", "--n", "100", "--m", "5", "--relevant", "0"])
        assert result.exit_code == 2

    def test_same_flags_identical_bytes(self, runner, tmp_path):
        args = ["synth", "--n", "100", "--m", "6", "--relevant", "0,3", "--seed", "3"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert _invoke(runner, args + ["--out", str(out1)]).exit_code == 0
        assert _invoke(runner, args + ["--out", str(out2)]).exit_code == 0
        assert Path(f"{out1}.csv").read_bytes() == Path(f"{out2}.csv").read_bytes()
        assert Path(f"{out1}.truth.json").read_bytes() == Path(f"{out2}.truth.json").read_bytes()

    def test_bad_config_exit_code(self, runner, tmp_path):
        result = runner.invoke(
            cli, ["synth", "--n", "100", "--m", "5", "--relevant", "9", "--out", str(tmp_path / "x")]
        )
        assert result.exit_code == 2

    # Sizes whose allocation fails at once (petabytes), never one the OS could commit.
    @pytest.mark.parametrize("flags, named", [
        (["--n", "1000000000000000", "--m", "6"], "--n, --m"),
        (["--n", "10", "--m", "1000000000000000"], "--n, --m"),
        (["--n", "100", "--m", "6", "--noise-std", "1e308"], "--noise-std"),
        (["--n", "20", "--m", "1"], "--m"),
    ])
    def test_flags_that_cannot_make_a_table(self, runner, tmp_path, flags, named):
        out = tmp_path / "x"
        result = runner.invoke(cli, ["synth", *flags, "--relevant", "0", "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "config error" in result.output and named in result.output
        assert list(tmp_path.iterdir()) == []


class TestTrainCommand:
    def test_default_train_writes_model_and_manifest(self, runner, tmp_path):
        data = _make_data(tmp_path)
        out = tmp_path / "run"
        result = _invoke(runner, ["train", "--data", str(data), "--out", str(out)])
        assert result.exit_code == 0
        kind, model = load_any_model(f"{out}.model.json")
        assert kind == "ecnn"
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert manifest["config"]["trainer"]["chi"] == 1.9
        assert manifest["config"]["trainer"]["delta"] == 0.0015
        assert manifest["results"]["train_error"] >= 0.0
        _assert_manifest_config(manifest, cascade.GrowthConfig(), "ecnn", 1, 0)

    def test_dt_defaults(self, runner, tmp_path):
        data = _make_data(tmp_path)
        out = tmp_path / "dtrun"
        result = _invoke(runner, ["train", "--data", str(data), "--method", "dt", "--out", str(out)])
        assert result.exit_code == 0
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert manifest["config"]["n_s"] == 25
        assert manifest["config"]["p_min"] == 0.06
        _assert_manifest_config(manifest, dtree.DtConfig(), "dt", 1, 0)
        kind, _ = load_any_model(f"{out}.model.json")
        assert kind == "dt"

    def test_gmdh_defaults(self, runner, tmp_path):
        data = _make_data(tmp_path)
        out = tmp_path / "gmrun"
        result = _invoke(runner, ["train", "--data", str(data), "--method", "gmdh", "--out", str(out)])
        assert result.exit_code == 0
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        _assert_manifest_config(manifest, gmdh.GmdhConfig(), "gmdh", 1, 0)

    def test_gmdh_train(self, runner, tmp_path):
        data = _make_data(tmp_path, n=200)
        out = tmp_path / "gm"
        result = _invoke(runner, [
            "train", "--data", str(data), "--method", "gmdh", "--offspring", "30",
            "--max-failures", "2", "--subsample", "1.0", "--out", str(out),
        ])
        assert result.exit_code == 0
        kind, _ = load_any_model(f"{out}.model.json")
        assert kind == "gmdh"
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        cfg = gmdh.GmdhConfig(offspring_per_generation=30, max_serial_failures=2, fit_subsample=1.0)
        _assert_manifest_config(manifest, cfg, "gmdh", 1, 0)

    def test_seed_flag_recorded_only_under_seeds(self, runner, tmp_path):
        data = _make_data(tmp_path)
        out = tmp_path / "seeded"
        result = _invoke(runner, [
            "train", "--data", str(data), "--method", "dt", "--restarts", "2", "--seed", "7",
            "--out", str(out),
        ])
        assert result.exit_code == 0
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        _assert_manifest_config(manifest, dtree.DtConfig(), "dt", 2, 7)
        assert len(manifest["seeds"]["run_seeds"]) == 2

    def test_invalid_chi_rejected(self, runner, tmp_path):
        data = _make_data(tmp_path)
        result = runner.invoke(cli, [
            "train", "--data", str(data), "--chi", "0", "--out", str(tmp_path / "x"),
        ])
        assert result.exit_code == 2

    @pytest.mark.parametrize("method", ["dt", "gmdh"])
    def test_trainer_flags_ignored_by_other_methods(self, runner, tmp_path, method):
        # trees and GMDH read no trainer flag: an out-of-range --chi is not
        # checked or warned about for them, and changes no byte of the model
        data = _make_data(tmp_path)
        models = []
        for tag, flags in (("plain", []), ("zero", ["--chi", "0"]), ("wide", ["--chi", "3"])):
            out = tmp_path / tag
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                result = _invoke(runner, ["train", "--data", str(data), "--method", method,
                                          "--offspring", "30", "--out", str(out)] + flags)
            assert result.exit_code == 0, result.output
            models.append(Path(f"{out}.model.json").read_bytes())
        assert models[1] == models[0] == models[2]

    def test_missing_data_exit_code(self, runner, tmp_path):
        result = runner.invoke(cli, [
            "train", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "x"),
        ])
        assert result.exit_code == 3

    def test_failed_restarts_keep_data_error_class(self, runner, tmp_path):
        # every restart fails: the subsample leaves too few rows to fit,
        # which is a data error, so the command exits 3 and not 4
        data = _make_data(tmp_path, n=30)
        result = runner.invoke(cli, [
            "train", "--data", str(data), "--method", "gmdh", "--subsample", "0.1",
            "--out", str(tmp_path / "x"),
        ])
        assert result.exit_code == 3
        assert "all 1 restarts failed" in result.output

    def test_test_data_of_another_width_refused_before_training(self, runner, tmp_path, monkeypatch):
        calls = []
        train = cascade.train
        monkeypatch.setattr(cascade, "train", lambda *args, **kwargs: calls.append(1) or train(*args, **kwargs))
        data = _make_data(tmp_path, m=6)
        held = _make_data(tmp_path, seed=1, n=100, m=5, name="held.csv")
        out = tmp_path / "x"
        result = runner.invoke(cli, ["train", "--data", str(data), "--test-data", str(held),
                                     "--restarts", "5", "--out", str(out)])
        assert result.exit_code == 3, result.output
        assert "test data has 5 features but training data has 6" in result.output
        assert calls == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["held.csv", "train.csv"]

    def test_genuine_numeric_failure_exit_code(self, runner, tmp_path, monkeypatch):
        def failing_fit(*args, **kwargs):
            raise NumericError("least-squares fit produced non-finite coefficients")

        monkeypatch.setattr(gmdh, "fit_ls", failing_fit)
        data = _make_data(tmp_path)
        result = runner.invoke(cli, [
            "train", "--data", str(data), "--method", "gmdh", "--restarts", "2",
            "--out", str(tmp_path / "x"),
        ])
        assert result.exit_code == 4
        assert "non-finite coefficients" in result.output

    def test_numeric_failure_in_first_generation_exit_code(self, runner, tmp_path, monkeypatch):
        # seed fits succeed, but their outputs are so large that the basis of
        # every offspring overflows, so the first batched fit is non-finite
        real_forward = gmdh.poly_forward

        def huge_forward(*args, **kwargs):
            return real_forward(*args, **kwargs) * 1e200

        monkeypatch.setattr(gmdh, "poly_forward", huge_forward)
        data = _make_data(tmp_path)
        with np.errstate(over="ignore", invalid="ignore"):
            result = runner.invoke(cli, [
                "train", "--data", str(data), "--method", "gmdh", "--out", str(tmp_path / "x"),
            ])
        assert result.exit_code == 4
        assert "non-finite coefficients" in result.output

    @pytest.mark.parametrize("method", ["ecnn", "gmdh", "dt"])
    def test_features_near_the_float_limit_round_trip(self, runner, tmp_path, method):
        # noise of std 1e300 overflows a plain deviation; training must
        # still write finite numbers that evaluate reads back
        task = tmp_path / "big"
        result = _invoke(runner, [
            "synth", "--n", "100", "--m", "4", "--relevant", "0", "--noise-std", "1e300",
            "--seed", "1", "--out", str(task),
        ])
        assert result.exit_code == 0
        out = tmp_path / method
        result = runner.invoke(cli, [
            "train", "--data", f"{task}.csv", "--method", method, "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        text = Path(f"{out}.model.json").read_text()
        assert "Infinity" not in text and "NaN" not in text
        result = runner.invoke(cli, ["evaluate", "--model", f"{out}.model.json", "--data", f"{task}.csv"])
        assert result.exit_code == 0, result.output

    def test_non_finite_model_exit_code(self, runner, tmp_path, monkeypatch):
        # a model holding a NaN coefficient is a numeric failure, not a
        # file that evaluate would refuse
        real_evolve = gmdh.evolve

        def nan_evolve(*args, **kwargs):
            model = real_evolve(*args, **kwargs)
            model.coeffs[-1, 0] = np.nan
            return model

        monkeypatch.setattr(gmdh, "evolve", nan_evolve)
        data = _make_data(tmp_path)
        out = tmp_path / "x"
        result = runner.invoke(cli, ["train", "--data", str(data), "--method", "gmdh", "--out", str(out)])
        assert result.exit_code == 4
        assert "not finite" in result.output
        assert not Path(f"{out}.model.json").exists()

    def test_missing_output_directories_created(self, runner, tmp_path):
        data = _make_data(tmp_path)
        task = tmp_path / "nodir" / "sub" / "task"
        result = runner.invoke(cli, [
            "synth", "--n", "100", "--m", "4", "--relevant", "0", "--out", str(task),
        ])
        assert result.exit_code == 0
        assert Path(f"{task}.csv").exists()
        out = tmp_path / "other" / "x"
        result = runner.invoke(cli, [
            "train", "--data", str(data), "--method", "dt", "--restarts", "2", "--out", str(out),
        ])
        assert result.exit_code == 0
        assert Path(f"{out}.model.json").exists()
        assert Path(f"{out}.restart_report.csv").exists()

    def test_restarts_write_reports(self, runner, tmp_path):
        data = _make_data(tmp_path)
        out = tmp_path / "multi"
        result = _invoke(runner, [
            "train", "--data", str(data), "--restarts", "4", "--test-data", str(data),
            "--out", str(out),
        ])
        assert result.exit_code == 0
        rows = _read_rows(tmp_path / "multi.restart_report.csv")
        assert len(rows) == 4
        sizes = _read_rows(tmp_path / "multi.size_hist.csv")
        assert sum(int(r["count"]) for r in sizes) == 4

    def test_deterministic_model_bytes(self, runner, tmp_path):
        data = _make_data(tmp_path)
        args = ["train", "--data", str(data), "--seed", "11"]
        out1, out2 = tmp_path / "d1", tmp_path / "d2"
        _invoke(runner, args + ["--out", str(out1)])
        _invoke(runner, args + ["--out", str(out2)])
        assert Path(f"{out1}.model.json").read_bytes() == Path(f"{out2}.model.json").read_bytes()

    def test_jobs_is_read_from_the_command_line_only(self, runner, tmp_path):
        """An ``ECNN_JOBS`` in the environment neither fails a run that
        gives no ``--jobs`` nor changes its model."""
        data = _make_data(tmp_path)
        args = ["train", "--data", str(data), "--method", "dt"]
        plain, with_env = tmp_path / "plain", tmp_path / "env"
        assert _invoke(runner, args + ["--out", str(plain)]).exit_code == 0
        result = runner.invoke(cli, args + ["--out", str(with_env)], env={"ECNN_JOBS": "0"}, catch_exceptions=False)
        assert result.exit_code == 0, result.output
        assert Path(f"{with_env}.model.json").read_bytes() == Path(f"{plain}.model.json").read_bytes()


# the options of train and compare that set no config field
_COMMAND_OPTIONS = {"--data", "--target", "--seed", "--jobs", "--out", "--method", "--restarts", "--test-data",
                    "--folds", "--inner-runs"}
_CONFIGS = (TrainConfig, *(cfg_cls for cfg_cls, _ in harness.FAMILIES.values()))


class TestFamilyFlags:
    """Each family flag is named after the config field it sets, which is
    how the command finds it: a misnamed flag would otherwise go unread."""

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_each_flag_names_one_config_field_with_its_default(self, command):
        fields = {}
        for cls in _CONFIGS:
            for f in dataclasses.fields(cls):
                if (cls, f.name) != (cascade.GrowthConfig, "trainer"):
                    fields.setdefault(f.name, []).append(f)
        flags = [p for p in cli.commands[command].params if p.opts[0] not in _COMMAND_OPTIONS]
        for param in flags:
            assert len(fields.get(param.name, [])) == 1, f"{param.opts[0]} sets {param.name!r}"
            assert param.default == fields[param.name][0].default, param.opts[0]
        assert sorted(param.name for param in flags) == sorted(fields)

    def test_method_choices_are_the_family_table(self):
        [method] = [p for p in cli.commands["train"].params if p.name == "method"]
        assert list(method.type.choices) == list(harness.FAMILIES)

    def test_trainer_flags_are_checked_first(self, runner, tmp_path):
        data = _make_data(tmp_path, n=60, m=4)
        result = runner.invoke(cli, ["train", "--data", str(data), "--chi", "0", "--candidate-restarts", "0",
                                     "--out", str(tmp_path / "x")])
        assert result.exit_code == 2, result.output
        assert "config error: chi must be positive, got 0.0" in result.output

    @pytest.mark.parametrize("method,flags,cfg", [
        ("ecnn", ["--chi", "1.7", "--delta", "0.002", "--epsilon", "0.01", "--init-std", "0.2",
                  "--split-a", "0.4", "--max-steps", "300", "--candidate-restarts", "2",
                  "--max-failed-attempts", "3"],
         cascade.GrowthConfig(trainer=TrainConfig(chi=1.7, delta=0.002, epsilon=0.01, max_steps=300, init_std=0.2,
                                                  split_fraction=0.4),
                              max_failed_attempts=3, restarts_per_candidate=2)),
        ("gmdh", ["--offspring", "40", "--max-failures", "2", "--subsample", "0.8"],
         gmdh.GmdhConfig(offspring_per_generation=40, max_serial_failures=2, fit_subsample=0.8)),
        ("dt", ["--ns", "10", "--pmin", "0.1"], dtree.DtConfig(n_s=10, p_min=0.1)),
    ])
    def test_every_flag_reaches_its_field_and_replays(self, runner, tmp_path, method, flags, cfg):
        for part in [cfg] + ([cfg.trainer] if method == "ecnn" else []):
            for f in dataclasses.fields(part):
                assert f.name == "trainer" or getattr(part, f.name) != f.default, f"{f.name} is at its default"
        data = _make_data(tmp_path)
        out = tmp_path / method
        result = _invoke(runner, ["train", "--data", str(data), "--method", method, "--restarts", "2",
                                  "--out", str(out)] + flags)
        assert result.exit_code == 0, result.output
        _assert_manifest_config(json.loads(Path(f"{out}.manifest.json").read_text()), cfg, method, 2, 0)
        model = Path(f"{out}.model.json")
        model_bytes = model.read_bytes()
        model.unlink()
        assert replay_manifest(f"{out}.manifest.json") == 0
        assert model.read_bytes() == model_bytes

    def test_chi_sweep_trainer_flags_reach_the_config_and_replay(self, runner, tmp_path):
        data = _make_data(tmp_path, n=60, m=4)
        out = tmp_path / "sweep"
        result = _invoke(runner, ["chi-sweep", "--data", str(data), "--chis", "1.5,1.9", "--delta", "0.002",
                                  "--max-steps", "50", "--init-std", "0.2", "--split-a", "0.4", "--out", str(out)])
        assert result.exit_code == 0, result.output
        trainer = dataclasses.asdict(TrainConfig(delta=0.002, max_steps=50, init_std=0.2, split_fraction=0.4))
        del trainer["chi"]
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert manifest["config"] == {"chis": [1.5, 1.9], **trainer}
        traces = Path(f"{out}.chi_traces.csv")
        trace_bytes = traces.read_bytes()
        traces.unlink()
        assert replay_manifest(f"{out}.manifest.json") == 0
        assert traces.read_bytes() == trace_bytes


class TestEvaluateCommand:
    def test_matches_manifest_train_error(self, runner, tmp_path):
        data = _make_data(tmp_path)
        out = tmp_path / "run"
        _invoke(runner, ["train", "--data", str(data), "--out", str(out)])
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        result = _invoke(runner, [
            "evaluate", "--model", f"{out}.model.json", "--data", str(data),
        ])
        assert result.exit_code == 0
        metrics = json.loads(result.output)
        assert metrics["error_rate"] == pytest.approx(manifest["results"]["train_error"], abs=0)

    def test_confusion_counts_sum(self, runner, tmp_path):
        data = _make_data(tmp_path, n=180)
        out = tmp_path / "run"
        _invoke(runner, ["train", "--data", str(data), "--method", "dt", "--out", str(out)])
        result = _invoke(runner, ["evaluate", "--model", f"{out}.model.json", "--data", str(data)])
        metrics = json.loads(result.output)
        confusion = metrics["confusion"]
        assert sum(confusion.values()) == metrics["n"] == 180

    def test_missing_model_exit_code(self, runner, tmp_path):
        data = _make_data(tmp_path)
        result = runner.invoke(cli, ["evaluate", "--model", str(tmp_path / "no.json"), "--data", str(data)])
        assert result.exit_code == 3

    def test_writes_metrics_file(self, runner, tmp_path):
        data = _make_data(tmp_path)
        out = tmp_path / "run"
        _invoke(runner, ["train", "--data", str(data), "--out", str(out)])
        _invoke(runner, [
            "evaluate", "--model", f"{out}.model.json", "--data", str(data),
            "--out", str(tmp_path / "ev"),
        ])
        saved = json.loads(Path(tmp_path / "ev.metrics.json").read_text())
        assert "error_rate" in saved and "confusion" in saved

    def test_manifest_hashes_the_bytes_parsed(self, runner, tmp_path, monkeypatch):
        # each input is opened once, and a file that changes after it was
        # parsed leaves the hash of the parsed bytes in the manifest
        data = _make_data(tmp_path)
        out = tmp_path / "run"
        _invoke(runner, ["train", "--data", str(data), "--method", "dt", "--out", str(out)])
        model = Path(f"{out}.model.json")
        parsed = {str(path): hashlib.sha256(path.read_bytes()).hexdigest() for path in (model, data)}
        real_open, real_metrics, opened = io.open, cli_module._metrics, []

        def counting_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        def rewrite_then_score(*args):
            for path in parsed:  # appended to without an open() call
                fd = os.open(path, os.O_WRONLY | os.O_APPEND)
                os.write(fd, b"\n")
                os.close(fd)
            return real_metrics(*args)

        monkeypatch.setattr(io, "open", counting_open)
        monkeypatch.setattr(builtins, "open", counting_open)
        monkeypatch.setattr(cli_module, "_metrics", rewrite_then_score)
        result = _invoke(runner, ["evaluate", "--model", str(model), "--data", str(data),
                                  "--out", str(tmp_path / "ev")])
        assert result.exit_code == 0, result.output
        assert sorted(path for path in opened if path in parsed) == sorted(parsed)
        assert json.loads(Path(tmp_path / "ev.manifest.json").read_text())["input_hashes"] == parsed


@pytest.fixture(scope="module")
def saved_models(tmp_path_factory):
    """One small saved model of each family, and the data to score them on."""
    tmp = tmp_path_factory.mktemp("models")
    data = _make_data(tmp)
    paths = {}
    for method in ("ecnn", "gmdh", "dt"):
        out = tmp / method
        result = _invoke(CliRunner(), [
            "train", "--data", str(data), "--method", method, "--offspring", "30",
            "--max-failures", "2", "--out", str(out),
        ])
        assert result.exit_code == 0
        paths[method] = Path(f"{out}.model.json")
    return data, paths


def _first_split(root):
    assert "split" in root, "tree has no split"
    return root["split"]


def _set(doc, *path_and_value):
    *path, key, value = path_and_value
    for step in path:
        doc = doc[step]
    doc[key] = value


def _cascade_layers(doc, layers=3):
    """Extend a one-neuron cascade document to ``layers`` neurons wired in
    the cascade pattern, each adding a feature not yet read."""
    base, fresh = doc["base_feature"], doc["neurons"][0]["inputs"][-1]["index"]
    free = [j for j in range(len(doc["feature_names"])) if j not in (base, fresh)]
    for r in range(len(doc["neurons"]) + 1, layers + 1):
        inputs = [*({"kind": "hidden", "index": k} for k in range(r - 1)),
                  {"kind": "feature", "index": base}, {"kind": "feature", "index": free.pop(0)}]
        doc["neurons"].append({"layer": r, "inputs": inputs, "bias": 0.1, "weights": [0.5] * (r + 1),
                               "criterion": 1.0 / r})
    return doc


def _swap(items, i, j):
    items[i], items[j] = items[j], items[i]


def _deep_tree(depth):
    """A tree file whose root has ``depth`` splits down its left side."""
    leaf = '{"leaf": {"class": 1, "counts": [1, 1]}}'
    split = '{"split": {"feature": 0, "threshold": 0.5, "left": '
    return ('{"format_version": 1, "n_features": 5, "root": ' + split * depth + leaf
            + (', "right": ' + leaf + "}}") * depth + "}")


def _doc_edit(edit):
    """A text edit that applies ``edit`` to the decoded document."""
    def apply(text):
        doc = json.loads(text)
        edit(doc)
        return json.dumps(doc)

    return apply


# case -> (family, edit of the decoded model document)
DOC_EDITS = {
    "format_version_7": ("ecnn", lambda doc: _set(doc, "format_version", 7)),
    "input_index_out_of_range": ("ecnn", lambda doc: _set(doc, "neurons", 0, "inputs", 0, "index", 99)),
    "forward_hidden_reference": ("ecnn", lambda doc: _set(doc, "neurons", 0, "inputs", 0,
                                                          {"kind": "hidden", "index": 0})),
    "short_norm_mean": ("ecnn", lambda doc: _set(doc, "norm", "mean", doc["norm"]["mean"][:-1])),
    "missing_key": ("ecnn", lambda doc: doc.pop("c0")),
    "wrong_type": ("ecnn", lambda doc: _set(doc, "neurons", 0, "weights", "heavy")),
    "extra_cascade_weight": ("ecnn", lambda doc: doc["neurons"][0]["weights"].append(0.5)),
    "short_feature_names": ("ecnn", lambda doc: doc["feature_names"].pop()),
    "cascade_nan_weight": ("ecnn", lambda doc: _set(doc, "neurons", 0, "weights", 0, float("nan"))),
    # files that break the cascade pattern, which the decoder once read
    "cascade_hidden_out_of_order": ("ecnn", lambda doc: _swap(_cascade_layers(doc)["neurons"][2]["inputs"],
                                                              0, 1)),
    "cascade_base_not_second_to_last": ("ecnn", lambda doc: _swap(doc["neurons"][0]["inputs"], 0, 1)),
    "cascade_layer_not_position": ("ecnn", lambda doc: _set(doc, "neurons", 0, "layer", 2)),
    "cascade_weights_not_layer_plus_1": ("ecnn", lambda doc: [doc["neurons"][0][key].pop(0)
                                                              for key in ("inputs", "weights")]),
    "gmdh_forward_parent": ("gmdh", lambda doc: _set(doc, "neurons", 0, "parent_a",
                                                     {"kind": "neuron", "index": doc["output_id"]})),
    "gmdh_missing_output": ("gmdh", lambda doc: _set(doc, "output_id", 10**6)),
    "gmdh_output_not_last": ("gmdh", lambda doc: doc["neurons"].append(
        {**doc["neurons"][0], "id": max(nd["id"] for nd in doc["neurons"]) + 1})),
    "gmdh_three_coeffs": ("gmdh", lambda doc: doc["neurons"][0]["coeffs"].pop()),
    "gmdh_short_std": ("gmdh", lambda doc: doc["norm"]["std"].pop()),
    "gmdh_infinite_index": ("gmdh", lambda doc: _set(doc, "neurons", 0, "parent_a", "index",
                                                     float("inf"))),
    "gmdh_infinite_coeff": ("gmdh", lambda doc: _set(doc, "neurons", 0, "coeffs", 0, float("inf"))),
    "gmdh_negative_infinite_coeff": ("gmdh", lambda doc: _set(doc, "neurons", 0, "coeffs", 1, -float("inf"))),
    "gmdh_null_parent_a": ("gmdh", lambda doc: _set(doc, "neurons", 0, "parent_a", None)),
    "gmdh_duplicate_id": ("gmdh", lambda doc: doc["neurons"].append(
        {**doc["neurons"][-1], "coeffs": [0.5, 0.0, 0.0, 0.0]})),
    "tree_split_feature": ("dt", lambda doc: _set(_first_split(doc["root"]), "feature", 5)),
    "tree_leaf_class": ("dt", lambda doc: _set(_first_split(doc["root"]), "left",
                                               {"leaf": {"class": 2, "counts": [1, 1]}})),
    "tree_nan_threshold": ("dt", lambda doc: _set(_first_split(doc["root"]), "threshold", float("nan"))),
    "tree_no_features": ("dt", lambda doc: _set(doc, "n_features", "five")),
}
# case -> (family, edit of the saved model's JSON text); each must exit 3
MALFORMED = {
    "truncated": ("ecnn", lambda text: text[: len(text) // 2]),
    "json_scalar": ("ecnn", lambda text: "3"),
    "json_list": ("gmdh", lambda text: "[]"),
    "json_nested_100000_deep": ("dt", lambda text: '{"root": ' + "[" * 100_000 + "]" * 100_000 + "}"),
    "tree_3000_splits_deep": ("dt", lambda text: _deep_tree(3000)),
    # json.dumps cannot write an overflowing literal: put one in by hand
    "gmdh_overflowing_coeff": ("gmdh", lambda text: _doc_edit(
        lambda doc: _set(doc, "neurons", 0, "coeffs", 0, 7e77))(text).replace("7e+77", "1e999")),
    **{case: (family, _doc_edit(edit)) for case, (family, edit) in DOC_EDITS.items()},
}


class TestMalformedModelFiles:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_exit_code_3(self, runner, tmp_path, saved_models, case):
        data, paths = saved_models
        family, edit = MALFORMED[case]
        bad = tmp_path / "bad.model.json"
        bad.write_text(edit(paths[family].read_text()))
        result = runner.invoke(cli, ["evaluate", "--model", str(bad), "--data", str(data)])
        assert result.exit_code == 3, (result.output, result.exception)
        assert "data error" in result.output

    def test_saved_models_still_load(self, saved_models):
        _, paths = saved_models
        for family, path in paths.items():
            kind, model = load_any_model(path)
            assert kind == family
            assert model.to_json() == path.read_text()

    def test_deeper_cascade_pattern_loads(self, runner, tmp_path, saved_models):
        # the file that cascade_hidden_out_of_order breaks is read as it is
        data, paths = saved_models
        doc = _cascade_layers(json.loads(paths["ecnn"].read_text()))
        good = tmp_path / "deep.model.json"
        good.write_text(json.dumps(doc, indent=2) + "\n")
        result = runner.invoke(cli, ["evaluate", "--model", str(good), "--data", str(data)])
        assert result.exit_code == 0, result.output
        assert load_any_model(good)[1].to_json() == good.read_text()


def _locations(node):
    """Every (container, key) of a JSON document, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield node, key
        yield from _locations(value)


_json_values = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 10**6), st.floats(), st.text(max_size=4),
    st.lists(st.integers(-2, 6), max_size=3), st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_model_exits_0_or_3(saved_models, tmp_path, data):
    """Any one-place edit of a saved model file is scored or refused with
    a data error; it never ends in a traceback."""
    csv_path, paths = saved_models
    family = data.draw(st.sampled_from(sorted(paths)))
    doc = json.loads(paths[family].read_text())
    container, key = data.draw(st.sampled_from(list(_locations(doc))))
    if data.draw(st.booleans()):
        del container[key]
    else:
        container[key] = data.draw(_json_values)
    mutated = tmp_path / "mutated.model.json"
    mutated.write_text(json.dumps(doc))
    result = CliRunner().invoke(cli, ["evaluate", "--model", str(mutated), "--data", str(csv_path)])
    assert result.exit_code in (0, 3), (result.output, result.exception)


class TestCompareCommand:
    def test_report_rows_and_determinism(self, runner, tmp_path):
        data = _make_data(tmp_path, n=120, m=4)
        args = [
            "compare", "--data", str(data), "--folds", "3", "--inner-runs", "2",
            "--offspring", "25", "--max-failures", "2", "--subsample", "1.0", "--seed", "5",
        ]
        out1, out2 = tmp_path / "c1", tmp_path / "c2"
        assert _invoke(runner, args + ["--out", str(out1)]).exit_code == 0
        rows = _read_rows(f"{out1}.cv_report.csv")
        assert len(rows) == 9  # 3 methods x 3 folds
        assert [r["method"] for r in rows[::3]] == list(harness.FAMILIES)
        for r in rows:
            assert int(r["model_size"]) >= 1
            assert all(0 <= int(j) < 4 for j in r["features"].split(";") if j), r
        assert _invoke(runner, args + ["--out", str(out2)]).exit_code == 0
        assert Path(f"{out1}.cv_report.csv").read_bytes() == Path(f"{out2}.cv_report.csv").read_bytes()
        manifest = json.loads(Path(f"{out1}.manifest.json").read_text())
        assert manifest["config"] == {"folds": 3, "inner_runs": 2, "methods": {
            "ecnn": dataclasses.asdict(cascade.GrowthConfig()),
            "gmdh": dataclasses.asdict(gmdh.GmdhConfig(25, 2, 1.0)),
            "dt": dataclasses.asdict(dtree.DtConfig()),
        }}

    @pytest.mark.parametrize("flags", [["--chi", "0"], ["--subsample", "0"], ["--pmin", "1"]],
                             ids=["chi", "subsample", "pmin"])
    def test_any_methods_bad_flag_refused_before_training(self, runner, tmp_path, monkeypatch, flags):
        # compare trains all three methods, so it checks every method's
        # flags, and all of them before the first fold is trained
        monkeypatch.setattr(harness, "kfold", lambda *args, **kwargs: pytest.fail("a fold was trained"))
        data = _make_data(tmp_path, n=60, m=4)
        result = runner.invoke(cli, ["compare", "--data", str(data), "--out", str(tmp_path / "c")] + flags)
        assert result.exit_code == 2, result.output
        assert "config error" in result.output


class TestChiSweepCommand:
    def test_default_chi_list(self, runner, tmp_path):
        data = _make_data(tmp_path, n=60, m=4)
        out = tmp_path / "sweep"
        result = _invoke(runner, ["chi-sweep", "--data", str(data), "--out", str(out)])
        assert result.exit_code == 0
        rows = _read_rows(f"{out}.chi_traces.csv")
        assert {float(r["chi"]) for r in rows} == {1.25, 1.5, 1.75, 2.0}

    def test_single_chi_allowed(self, runner, tmp_path):
        data = _make_data(tmp_path, n=60, m=4)
        out = tmp_path / "one"
        result = _invoke(runner, ["chi-sweep", "--data", str(data), "--chis", "1.9", "--out", str(out)])
        assert result.exit_code == 0
        rows = _read_rows(f"{out}.chi_traces.csv")
        assert {float(r["chi"]) for r in rows} == {1.9}

    def test_out_of_range_rejected(self, runner, tmp_path):
        data = _make_data(tmp_path, n=60, m=4)
        result = runner.invoke(cli, [
            "chi-sweep", "--data", str(data), "--chis", "3.0", "--out", str(tmp_path / "x"),
        ])
        assert result.exit_code == 2

    def test_repeated_rate_rejected_and_nothing_written(self, runner, tmp_path):
        # results are keyed by rate, so a repeated rate would lose a trace
        data = _make_data(tmp_path, n=60, m=4)
        result = runner.invoke(cli, ["chi-sweep", "--data", str(data), "--chis", "1,1.0",
                                     "--out", str(tmp_path / "s")])
        assert result.exit_code == 2, result.output
        assert "config error: sweep learning rates must differ, got [1.0, 1.0]" in result.output
        assert not list(tmp_path.glob("s.*"))


class TestUnreadableData:
    @pytest.mark.parametrize("command", ["train", "chi-sweep"])
    @pytest.mark.parametrize("case", ["not_utf8", "directory"])
    def test_exit_code_3(self, runner, tmp_path, command, case):
        data = tmp_path / "bad.csv"
        if case == "not_utf8":
            data.write_bytes(b"a,b,target\n1,2,0\n\xff\xfe,3,1\n")
        else:
            data.mkdir()
        result = runner.invoke(cli, [command, "--data", str(data), "--out", str(tmp_path / "x")])
        assert result.exit_code == 3, result.output
        assert f"cannot read dataset file {data}" in result.output


class TestNonFiniteAndOutOfRangeFlags:
    @pytest.mark.parametrize("command, flags", [
        ("train", ["--delta", "nan"]),
        ("train", ["--epsilon", "nan"]),
        ("train", ["--chi", "nan"]),
        ("train", ["--chi", "inf"]),
        ("train", ["--init-std", "nan"]),
        ("train", ["--delta", "inf"]),
        ("train", ["--jobs", "0"]),
        ("train", ["--jobs", "-4"]),
        ("compare", ["--jobs", "0"]),
        ("chi-sweep", ["--delta", "nan"]),
        ("synth", ["--noise-std", "nan"]),
        ("synth", ["--noise-std", "inf"]),
        ("evaluate", ["--threshold", "nan"]),
    ])
    def test_exit_code_2(self, runner, tmp_path, command, flags):
        data = _make_data(tmp_path, n=60, m=4)
        out = str(tmp_path / "x")
        if command == "synth":
            args = ["synth", "--n", "60", "--m", "4", "--relevant", "0", "--out", out]
        elif command == "evaluate":
            model = tmp_path / "dt"
            assert _invoke(runner, ["train", "--data", str(data), "--method", "dt",
                                    "--out", str(model)]).exit_code == 0
            args = ["evaluate", "--model", f"{model}.model.json", "--data", str(data), "--out", out]
        elif command == "compare":
            args = ["compare", "--data", str(data), "--folds", "2", "--inner-runs", "1",
                    "--offspring", "10", "--out", out]
        else:
            args = [command, "--data", str(data), "--out", out]
        result = runner.invoke(cli, args + flags)
        assert result.exit_code == 2, result.output
        assert "config error" in result.output
        assert not Path(f"{out}.manifest.json").exists()


class TestBadOutPrefix:
    """An output prefix that names no file, whose nearest existing ancestor
    is not a directory, or where a file the command writes is an existing
    directory, is refused before any work: exit 2, no traceback, nothing
    written."""

    @pytest.mark.parametrize("command", ["synth", "train", "evaluate", "compare", "chi-sweep"])
    @pytest.mark.parametrize("prefix", ["data.csv/x", "sub/", "sub/.", ".", "taken"])
    def test_exit_code_2(self, runner, tmp_path, monkeypatch, command, prefix):
        monkeypatch.chdir(tmp_path)
        _make_data(tmp_path, n=60, m=4, name="data.csv")
        assert _invoke(runner, ["train", "--data", "data.csv", "--method", "dt",
                                "--out", "dt"]).exit_code == 0
        if prefix == "taken":
            # a file the command would write is an existing directory
            (tmp_path / {"synth": "taken.truth.json", "train": "taken.size_hist.csv",
                         "evaluate": "taken.metrics.json", "compare": "taken.cv_report.csv",
                         "chi-sweep": "taken.manifest.json"}[command]).mkdir()
        args = {
            "synth": ["synth", "--n", "60", "--m", "4", "--relevant", "0"],
            "train": ["train", "--data", "data.csv", "--method", "dt", "--restarts", "2"],
            "evaluate": ["evaluate", "--model", "dt.model.json", "--data", "data.csv"],
            "compare": ["compare", "--data", "data.csv", "--folds", "2", "--inner-runs", "1"],
            "chi-sweep": ["chi-sweep", "--data", "data.csv"],
        }[command]
        before = sorted(tmp_path.rglob("*"))
        result = runner.invoke(cli, args + ["--out", prefix])
        assert result.exit_code == 2, result.output
        assert "config error: --out" in result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert sorted(tmp_path.rglob("*")) == before

    def test_model_file_is_a_directory(self, runner, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        _make_data(tmp_path, n=60, m=4, name="data.csv")
        Path("y.model.json").mkdir()
        result = runner.invoke(cli, ["train", "--data", "data.csv", "--method", "dt", "--out", "y"])
        assert result.exit_code == 2, result.output
        assert "config error: --out" in result.output and "y.model.json" in result.output
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "y.model.json"]


    @pytest.mark.parametrize("code, args", [
        (2, ["synth", "--n", "60", "--m", "4", "--relevant", "x"]),
        (3, ["train", "--data", "missing.csv"]),
        (2, ["train", "--data", "data.csv", "--chi", "nan"]),
        (3, ["evaluate", "--model", "missing.model.json", "--data", "data.csv"]),
        (2, ["evaluate", "--model", "missing.model.json", "--data", "data.csv", "--threshold", "nan"]),
        (3, ["compare", "--data", "missing.csv"]),
        (2, ["compare", "--data", "data.csv", "--jobs", "0"]),
        (3, ["chi-sweep", "--data", "missing.csv"]),
        (2, ["chi-sweep", "--data", "data.csv", "--chis", "3.0"]),
    ])
    def test_refused_command_leaves_no_directory(self, runner, tmp_path, monkeypatch, code, args):
        monkeypatch.chdir(tmp_path)
        _make_data(tmp_path, n=60, m=4, name="data.csv")
        result = runner.invoke(cli, args + ["--out", "newdir/sub/x"])
        assert result.exit_code == code, result.output
        assert "Traceback" not in result.output
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]


def test_every_json_file_written_reads_back(runner, tmp_path):
    """Truth, model, metrics and manifest files all read back through
    read_json_doc."""
    task = tmp_path / "task"
    commands = [["synth", "--n", "120", "--m", "4", "--relevant", "0,2", "--seed", "1", "--out", str(task)]]
    for method in ("ecnn", "gmdh", "dt"):
        commands += [
            ["train", "--data", f"{task}.csv", "--method", method, "--offspring", "30", "--max-failures", "2",
             "--out", str(tmp_path / method)],
            ["evaluate", "--model", str(tmp_path / f"{method}.model.json"), "--data", f"{task}.csv",
             "--out", str(tmp_path / f"ev_{method}")],
        ]
    commands += [
        ["compare", "--data", f"{task}.csv", "--folds", "2", "--inner-runs", "1", "--offspring", "30",
         "--max-failures", "2", "--out", str(tmp_path / "cmp")],
        ["chi-sweep", "--data", f"{task}.csv", "--chis", "1.9", "--out", str(tmp_path / "sweep")],
    ]
    for args in commands:
        assert _invoke(runner, args).exit_code == 0, args
    written = sorted(tmp_path.glob("*.json"))
    assert [path.name for path in written] == sorted(
        ["task.truth.json", "task.manifest.json", "cmp.manifest.json", "sweep.manifest.json",
         *(f"{method}.{suffix}.json" for method in ("ecnn", "gmdh", "dt") for suffix in ("model", "manifest")),
         *(f"ev_{method}.{suffix}.json" for method in ("ecnn", "gmdh", "dt") for suffix in ("metrics", "manifest"))])
    for path in written:
        assert read_json_doc(path, "written file") == json.loads(path.read_text())


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_json_writer_refuses_a_number_that_is_not_finite(value):
    with pytest.raises(NumericError, match="not finite"):
        json_text({"results": {"criterion": [0.5, value]}})


def test_utf8_files_under_an_ascii_locale(tmp_path):
    """Data, model, report and manifest files are UTF-8 whatever the locale."""
    data = tmp_path / "data.csv"
    # the target follows the first feature, so the tree and its reports use it
    rows = ["gr\u00f6\u00dfe,b,target"] + [f"{i % 2 + i % 5 * 0.1},{i % 3},{i % 2}" for i in range(40)]
    data.write_bytes(("\n".join(rows) + "\n").encode("utf-8"))
    env = {k: v for k, v in os.environ.items() if not k.startswith("LC_") and k != "LANG"}
    src = str(Path(ecnn.__file__).resolve().parent.parent)
    env.update(LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONIOENCODING="",
               PYTHONPATH=os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")])))
    run_cli = [sys.executable, "-X", "utf8=0", "-c", "from ecnn.cli import cli; cli()"]
    for args in (
        ["chi-sweep", "--data", str(data), "--chis", "1.5", "--out", str(tmp_path / "sweep")],
        ["train", "--data", str(data), "--method", "dt", "--restarts", "2",
         "--out", str(tmp_path / "dt")],
        ["evaluate", "--model", str(tmp_path / "dt.model.json"), "--data", str(data)],
    ):
        proc = subprocess.run(run_cli + args, env=env, capture_output=True, text=True,
                              encoding="utf-8", timeout=120)
        assert proc.returncode == 0, proc.stderr
    freq = (tmp_path / "dt.feature_freq.csv").read_bytes().decode("utf-8")
    assert "0,gr\u00f6\u00dfe," in freq


class TestManifestReplay:
    def test_replay_reproduces_artifacts(self, runner, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        data = _make_data(tmp_path)
        out = tmp_path / "replayed"
        _invoke(runner, [
            "train", "--data", str(data), "--seed", "9", "--chi", "1.7", "--out", str(out),
        ])
        model_bytes = Path(f"{out}.model.json").read_bytes()
        Path(f"{out}.model.json").unlink()
        code = replay_manifest(f"{out}.manifest.json")
        assert code == 0
        assert Path(f"{out}.model.json").read_bytes() == model_bytes

    def test_replay_command_for_compare(self, runner, tmp_path):
        data = _make_data(tmp_path, n=100, m=4)
        out = tmp_path / "cmp"
        _invoke(runner, [
            "compare", "--data", str(data), "--folds", "2", "--inner-runs", "1",
            "--offspring", "20", "--max-failures", "1", "--subsample", "1.0",
            "--out", str(out),
        ])
        report_bytes = Path(f"{out}.cv_report.csv").read_bytes()
        Path(f"{out}.cv_report.csv").unlink()
        result = _invoke(runner, ["replay", f"{out}.manifest.json"])
        assert result.exit_code == 0
        assert Path(f"{out}.cv_report.csv").read_bytes() == report_bytes

    def test_replay_missing_manifest(self, runner, tmp_path):
        result = runner.invoke(cli, ["replay", str(tmp_path / "ghost.json")])
        assert result.exit_code == 3

    @pytest.mark.parametrize("text", [
        pytest.param('{"argv": ["synth"', id="truncated_json"),
        pytest.param('["synth", "--n", "10"]', id="not_an_object"),
        pytest.param('{"command": "synth"}', id="no_argv"),
        pytest.param('{"argv": "synth --n 10"}', id="argv_not_a_list"),
    ])
    def test_malformed_manifest_exit_code(self, runner, tmp_path, text):
        manifest = tmp_path / "bad.manifest.json"
        manifest.write_text(text)
        result = runner.invoke(cli, ["replay", str(manifest)])
        assert result.exit_code == 3, result.output
        assert str(manifest) in result.output

    def test_self_replaying_manifest_exit_code(self, runner, tmp_path):
        manifest = tmp_path / "loop.manifest.json"
        manifest.write_text(json.dumps({"argv": ["replay", str(manifest)]}))
        result = runner.invoke(cli, ["replay", str(manifest)])
        assert result.exit_code == 3, result.output
        assert "records a replay" in result.output

    def test_manifest_names_existing_artifacts(self, runner, tmp_path):
        data = _make_data(tmp_path)
        out = tmp_path / "art"
        _invoke(runner, ["train", "--data", str(data), "--out", str(out)])
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        for artifact in manifest["artifacts"]:
            assert Path(artifact).exists()
        assert manifest["input_hashes"]
        assert manifest["wall_clock_s"] >= 0
