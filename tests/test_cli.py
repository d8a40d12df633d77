import builtins
import csv
import dataclasses
import hashlib
import io
import json
import os
import re
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
from ecnn.errors import DataError, NumericError
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

    @pytest.mark.parametrize("counts, layers", [((None, 3), 5), ((11, 12, 1000), 6)],
                             ids=["default_is_3", "every_feature"])
    def test_rejection_counts_that_write_the_same_bytes(self, runner, tmp_path, counts, layers):
        # the default is `--max-failed-attempts 3`, and on 12 features any
        # count from 11, the number of candidates, up tries every feature;
        # on this task 3 rejections in a row end growth after layer 5
        data = _make_data(tmp_path, seed=9, n=400, m=12)
        models = []
        for count in counts:
            out = tmp_path / f"count{count}"
            flags = [] if count is None else ["--max-failed-attempts", str(count)]
            result = _invoke(runner, ["train", "--data", str(data), "--seed", "3", "--out", str(out)] + flags)
            assert result.exit_code == 0, result.output
            models.append(Path(f"{out}.model.json").read_bytes())
            manifest = json.loads(Path(f"{out}.manifest.json").read_text())
            assert manifest["config"]["max_failed_attempts"] == (count or 3)
            assert manifest["results"]["model_size"] == layers
        assert models == [models[0]] * len(counts)

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
        assert "numeric error: all 2 restarts failed" in result.output
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
        # every row holds a value outside 1e-4 <= |x| < 1e16
        x = np.abs(load_csv(f"{task}.csv", "target").x)
        assert (~((x >= 1e-4) & (x < 1e16))).any(axis=1).all()
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
        # the same seed gives the same model, and so does the same data spelled
        # with every cell quoted, or with a byte-order mark, CRLF line ends and
        # a blank line after the header
        data = _make_data(tmp_path)
        with open(data, newline="") as fh:
            rows = list(csv.reader(fh))
        quoted = tmp_path / "quoted.csv"
        with open(quoted, "w", newline="") as fh:
            csv.writer(fh, quoting=csv.QUOTE_ALL, lineterminator="\n").writerows(rows)
        lines = data.read_bytes().splitlines()
        crlf = tmp_path / "crlf.csv"
        crlf.write_bytes(b"\xef\xbb\xbf" + b"\r\n".join([lines[0], b"", *lines[1:]]) + b"\r\n")
        for method in ("ecnn", "dt"):
            models = []
            for path in (data, data, quoted, crlf):
                out = tmp_path / f"{method}{len(models)}"
                result = _invoke(runner, ["train", "--data", str(path), "--method", method, "--seed", "11",
                                          "--out", str(out)])
                assert result.exit_code == 0, result.output
                models.append(Path(f"{out}.model.json").read_bytes())
            assert models == [models[0]] * 4, method

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

    def test_readme_flag_table_matches_train(self):
        # rows of the form | `--flag` | `Class.field` | default |
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        rows = re.findall(r"^\| `(--[\w-]+)` \| `(\w+)\.(\w+)` \| (.+?) \|$", readme, re.MULTILINE)
        owner = {f.name: cls.__name__ for cls in _CONFIGS for f in dataclasses.fields(cls) if f.name != "trainer"}
        flags = [p for p in cli.commands["train"].params if p.opts[0] not in _COMMAND_OPTIONS]
        assert sorted(row[0] for row in rows) == sorted(p.opts[0] for p in flags)
        for param in flags:
            [(_, cls_name, field, default)] = [row for row in rows if row[0] == param.opts[0]]
            assert (cls_name, field) == (owner[param.name], param.name), param.opts[0]
            if param.default is None:
                assert default.startswith("none"), param.opts[0]
            else:
                assert default == str(param.default), param.opts[0]

    def test_method_choices_are_the_family_table(self, runner, tmp_path):
        [method] = [p for p in cli.commands["train"].params if p.name == "method"]
        assert list(method.type.choices) == list(harness.FAMILIES)
        data = _make_data(tmp_path, n=60, m=4)
        result = runner.invoke(cli, ["train", "--data", str(data), "--method", "nn", "--out", str(tmp_path / "nn")])
        assert result.exit_code == 2, result.output
        assert list(tmp_path.glob("nn.*")) == []

    def test_trainer_flags_are_checked_first(self, runner, tmp_path):
        data = _make_data(tmp_path, n=60, m=4)
        result = runner.invoke(cli, ["train", "--data", str(data), "--chi", "0", "--max-failed-attempts", "0",
                                     "--out", str(tmp_path / "x")])
        assert result.exit_code == 2, result.output
        assert "config error: chi must be positive, got 0.0" in result.output

    @pytest.mark.parametrize("method,flags,cfg", [
        ("ecnn", ["--chi", "1.7", "--delta", "0.002", "--init-std", "0.2",
                  "--split-a", "0.4", "--max-steps", "300", "--max-failed-attempts", "2"],
         cascade.GrowthConfig(trainer=TrainConfig(chi=1.7, delta=0.002, max_steps=300, init_std=0.2,
                                                  split_fraction=0.4),
                              max_failed_attempts=2)),
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
        written = [Path(f"{out}.{name}") for name in ["model.json", *(f"{r}.csv" for r in harness.RESTART_REPORTS)]]
        written_bytes = [path.read_bytes() for path in written]
        for path in written:
            path.unlink()
        assert replay_manifest(f"{out}.manifest.json") == 0
        assert [path.read_bytes() for path in written] == written_bytes

    def test_removed_epsilon_flag_exits_2(self, runner, tmp_path, monkeypatch):
        # the fit stops only on delta or max_steps; a noise level is refused, never ignored
        monkeypatch.chdir(tmp_path)
        _make_data(tmp_path, n=60, m=4, name="data.csv")
        result = runner.invoke(cli, ["train", "--data", "data.csv", "--epsilon", "0.1", "--out", "x"])
        assert result.exit_code == 2, result.output
        assert "No such option '--epsilon'" in result.output
        assert "Traceback" not in result.output
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]

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
    @pytest.mark.parametrize("method", ["ecnn", "gmdh", "dt"])
    def test_matches_manifest_train_error(self, runner, tmp_path, method):
        data = _make_data(tmp_path)
        out = tmp_path / "run"
        _invoke(runner, ["train", "--data", str(data), "--method", method, "--out", str(out)])
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

    @pytest.mark.parametrize("family", ["ecnn", "gmdh"])
    def test_nan_scores_exit_code_4(self, runner, tmp_path, saved_models, family):
        # a std of 5e-324 is finite and positive, so the file loads, but the
        # rows it normalizes overflow and the scores come out NaN
        data, paths = saved_models
        doc = json.loads(paths[family].read_text())
        doc["norm"]["std"] = [5e-324] * len(doc["norm"]["std"])
        bad = tmp_path / "bad.model.json"
        bad.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(cli, ["evaluate", "--model", str(bad), "--data", str(data),
                                         "--out", str(tmp_path / "m")])
        assert result.exit_code == 4, (result.output, result.exception)
        assert re.fullmatch(r"numeric error: the model's score is NaN on \d+ of 160 rows: "
                            r"not finite, and no threshold orders it\n", result.output)
        assert list(tmp_path.iterdir()) == [bad]

    @pytest.mark.parametrize("family", ["ecnn", "gmdh"])
    def test_threshold_flag_overrides_the_model_s_own(self, runner, saved_models, family):
        data, paths = saved_models
        d = load_csv(data, "target")
        model = load_any_model(paths[family])[1]
        score, cls = model.predict_batch(d.x)
        assert (cls != (score >= 0.3)).any()
        result = _invoke(runner, ["evaluate", "--model", str(paths[family]), "--data", str(data),
                                  "--threshold", "0.3"])
        assert json.loads(result.output)["error_rate"] == float(np.mean((score >= 0.3) != d.y))

    @pytest.mark.parametrize("stored", [0.8, 1, True, "0.5", None], ids=["0.8", "1", "true", "string", "null"])
    def test_stored_threshold_other_than_one_half_exit_code_3(self, runner, tmp_path, saved_models, stored):
        # a cascade file always stores 0.5, the one class threshold; any
        # other value would be scored at one threshold or another
        data, paths = saved_models
        doc = json.loads(paths["ecnn"].read_text())
        doc["threshold"] = stored
        bad = tmp_path / "bad.model.json"
        bad.write_text(json.dumps(doc))
        result = runner.invoke(cli, ["evaluate", "--model", str(bad), "--data", str(data),
                                     "--out", str(tmp_path / "m")])
        assert result.exit_code == 3, (result.output, result.exception)
        assert re.fullmatch(r"data error: malformed model file: [^\n]*threshold[^\n]*\n", result.output)
        assert list(tmp_path.iterdir()) == [bad]
        with pytest.raises(DataError, match="^malformed model file: "):
            cascade.CascadeModel.load(bad)

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
    "gmdh_nan_coeff": ("gmdh", lambda doc: _set(doc, "neurons", 0, "coeffs", 0, float("nan"))),
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


def _first_leaf(node):
    while "split" in node:
        node = node["split"]["left"]
    return node["leaf"]


def _last(items, key, change):
    items[-1][key] = change(items[-1][key])


# case -> (family, edit): a field of the wrong JSON type, which int(),
# float() or numpy would read as a value
WRONG_TYPE_EDITS = {
    "cascade_base_feature_fraction": ("ecnn", lambda doc: _set(doc, "base_feature", doc["base_feature"] + 0.9)),
    "cascade_layer_true": ("ecnn", lambda doc: _set(doc, "neurons", 0, "layer", True)),
    "cascade_layer_float": ("ecnn", lambda doc: _set(doc, "neurons", 0, "layer", 1.0)),
    "cascade_input_index_float": ("ecnn", lambda doc: _last(doc["neurons"][0]["inputs"], "index", float)),
    "cascade_norm_mean_strings": ("ecnn", lambda doc: _set(doc, "norm", "mean", list(map(str, doc["norm"]["mean"])))),
    "cascade_weights_strings_bias_true": ("ecnn", lambda doc: doc["neurons"][0].update(
        weights=list(map(str, doc["neurons"][0]["weights"])), bias=True)),
    "cascade_threshold_string": ("ecnn", lambda doc: _set(doc, "threshold", "0.5")),
    "cascade_c0_string": ("ecnn", lambda doc: _set(doc, "c0", "1")),
    # a string of one letter per feature, which list() would take for the names
    "cascade_feature_names_string": ("ecnn", lambda doc: _set(doc, "feature_names",
                                                              "abcdefgh"[:len(doc["feature_names"])])),
    "gmdh_n_features_fraction": ("gmdh", lambda doc: _set(doc, "n_features", doc["n_features"] + 0.5)),
    "gmdh_ids_fraction": ("gmdh", lambda doc: [_last(doc["neurons"], "id", lambda v: v + 0.25),
                                               _set(doc, "output_id", doc["output_id"] + 0.25)]),
    "gmdh_constant_flags_0": ("gmdh", lambda doc: _set(doc, "norm", "constant_flags",
                                                       [0] * len(doc["norm"]["constant_flags"]))),
    "gmdh_coeffs_strings": ("gmdh", lambda doc: _set(doc, "neurons", 0, "coeffs",
                                                     list(map(str, doc["neurons"][0]["coeffs"])))),
    "gmdh_performance_string": ("gmdh", lambda doc: _set(doc, "neurons", 0, "performance", "0.5")),
    "tree_split_feature_fraction": ("dt", lambda doc: _set(_first_split(doc["root"]), "feature",
                                                           _first_split(doc["root"])["feature"] + 0.5)),
    "tree_leaf_class_1.7": ("dt", lambda doc: _set(_first_leaf(doc["root"]), "class", 1.7)),
    "tree_leaf_class_0.3": ("dt", lambda doc: _set(_first_leaf(doc["root"]), "class", 0.3)),
    "tree_threshold_string": ("dt", lambda doc: _set(_first_split(doc["root"]), "threshold",
                                                     str(_first_split(doc["root"])["threshold"]))),
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

    @pytest.mark.parametrize("version", [True, 1.0, "1"], ids=["true", "float", "string"])
    @pytest.mark.parametrize("family", ["ecnn", "gmdh", "dt"])
    def test_format_version_must_be_the_integer_1(self, runner, tmp_path, saved_models, family, version):
        # JSON true and 1.0 compare equal to 1 in Python, but are not its version
        data, paths = saved_models
        doc = json.loads(paths[family].read_text())
        doc["format_version"] = version
        bad = tmp_path / "bad.model.json"
        bad.write_text(json.dumps(doc))
        result = runner.invoke(cli, ["evaluate", "--model", str(bad), "--data", str(data),
                                     "--out", str(tmp_path / "m")])
        assert result.exit_code == 3, (result.output, result.exception)
        assert f"format_version {version!r} is not 1" in result.output
        assert list(tmp_path.iterdir()) == [bad]

    @pytest.mark.parametrize("case", sorted(WRONG_TYPE_EDITS))
    def test_field_of_the_wrong_json_type_exit_code_3(self, runner, tmp_path, saved_models, case):
        data, paths = saved_models
        family, edit = WRONG_TYPE_EDITS[case]
        bad = tmp_path / "bad.model.json"
        bad.write_text(_doc_edit(edit)(paths[family].read_text()))
        result = runner.invoke(cli, ["evaluate", "--model", str(bad), "--data", str(data),
                                     "--out", str(tmp_path / "m")])
        assert result.exit_code == 3, (result.output, result.exception)
        assert "data error: malformed model file" in result.output
        assert list(tmp_path.iterdir()) == [bad]

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
    """Any one-place edit of a saved model file is scored, refused with a
    data error, or, where an edited number sends a score to NaN, refused
    with that numeric error; it never ends in a traceback."""
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
    nan_score = re.fullmatch(r"numeric error: the model's score is NaN on \d+ of 160 rows: "
                             r"not finite, and no threshold orders it\n", result.output)
    assert result.exit_code in (0, 3) or (result.exit_code == 4 and nan_score), (result.output, result.exception)


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
        # two worker processes write the serial run's bytes
        out3 = tmp_path / "c3"
        assert _invoke(runner, args + ["--jobs", "2", "--out", str(out3)]).exit_code == 0
        assert Path(f"{out3}.cv_report.csv").read_bytes() == Path(f"{out1}.cv_report.csv").read_bytes()
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


@pytest.mark.parametrize("warned, quiet, chi", [
    (["train", "--chi", "2.5"], ["train"], 2.5),
    (["compare", "--chi", "2.5", "--folds", "2", "--inner-runs", "1"],
     ["compare", "--folds", "2", "--inner-runs", "1"], 2.5),
    (["chi-sweep", "--chis", "0.5,1.5"], ["chi-sweep", "--chis", "1.2,1.5"], 0.5),
])
def test_a_warning_is_one_line(tmp_path, warned, quiet, chi):
    """A learning rate outside (1, 2] is shown as one ``warning:`` line on
    stderr, with no warning class and no line of the package's source, and
    the command writes the files it writes without the warning."""
    data = _make_data(tmp_path)
    written, stderr = [], []
    for tag, args in (("warned", warned), ("quiet", quiet)):
        (tmp_path / tag).mkdir()
        result = CliRunner().invoke(cli, args + ["--data", str(data), "--out", str(tmp_path / tag / "run")])
        assert result.exit_code == 0, result.output
        written.append(sorted(p.name for p in (tmp_path / tag).iterdir()))
        stderr.append(result.stderr)
    assert written[0] == written[1]
    assert stderr == [f"warning: chi={chi} is outside the intended range (1, 2]\n", ""]


class TestUnreadableData:
    """Data that cannot be read, or whose every feature is constant, is a
    data error: exit 3."""

    @pytest.mark.parametrize("command", ["train", "chi-sweep"])
    @pytest.mark.parametrize("case", ["not_utf8", "directory", "all_constant"])
    def test_exit_code_3(self, runner, tmp_path, command, case):
        data = tmp_path / "bad.csv"
        message = f"cannot read dataset file {data}"
        if case == "not_utf8":
            data.write_bytes(b"a,b,target\n1,2,0\n\xff\xfe,3,1\n")
        elif case == "directory":
            data.mkdir()
        else:
            data.write_text("a,b,target\n1,2,0\n1,2,1\n1,2,0\n1,2,1\n")
            message = "every feature is degenerate; nothing to train on"
        result = runner.invoke(cli, [command, "--data", str(data), "--out", str(tmp_path / "x")])
        assert result.exit_code == 3, result.output
        assert message in result.output


class TestFullFloatRange:
    """Data whose column ``a`` alternates -1.7e308 and 1.7e308 with the
    class, a range wider than the largest float, trains with no warning
    and no traceback; GMDH cannot fit 8 rows, which is a data error."""

    @pytest.mark.parametrize("n, args, code", [
        (8, ["train", "--method", "dt"], 0),
        (8, ["train", "--method", "ecnn"], 0),
        (8, ["train", "--method", "gmdh"], 3),
        (60, ["compare", "--folds", "2", "--inner-runs", "2"], 0),
    ], ids=["train-dt", "train-ecnn", "train-gmdh", "compare"])
    def test_exit_code(self, runner, tmp_path, n, args, code):
        data = tmp_path / "wide.csv"
        data.write_text("a,b,target\n" + "".join(f"{(-1.7e308, 1.7e308)[i % 2]},{i % 3},{i % 2}\n" for i in range(n)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(cli, args + ["--data", str(data), "--out", str(tmp_path / "x")])
        assert result.exit_code == code, (result.output, result.exception)
        assert "Traceback" not in result.output


class TestHugeSizes:
    """A size no run could allocate is a config error before any work,
    not an allocation traceback after it."""

    @pytest.mark.parametrize("value", ["1125899906842624", "4611686018427387904"])
    @pytest.mark.parametrize("flags", [["--method", "gmdh", "--offspring"], ["--method", "dt", "--ns"]],
                             ids=["offspring", "ns"])
    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_exit_2_without_training(self, runner, tmp_path, monkeypatch, command, flags, value):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cascade, "train", lambda *args, **kwargs: pytest.fail("a cascade was trained"))
        _make_data(tmp_path, n=60, m=4, name="data.csv")
        if command == "compare":
            flags = flags[2:]  # compare trains every family
        result = runner.invoke(cli, [command, "--data", "data.csv", "--out", "x"] + flags + [value])
        assert result.exit_code == 2, result.output
        assert result.output.startswith("config error: ")
        assert value in result.output
        assert "Traceback" not in result.output
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]


class TestNonFiniteAndOutOfRangeFlags:
    @pytest.mark.parametrize("command, flags", [
        ("train", ["--delta", "nan"]),
        ("train", ["--chi", "nan"]),
        ("train", ["--chi", "inf"]),
        ("train", ["--init-std", "nan"]),
        ("train", ["--delta", "inf"]),
        ("train", ["--jobs", "0"]),
        ("train", ["--jobs", "-4"]),
        ("train", ["--method", "gmdh", "--offspring", "0"]),
        ("train", ["--max-failed-attempts", "0"]),
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


class TestLongOutPrefix:
    """Every name a command writes may be as long as the file system
    takes: a prefix that makes one longer is refused before any work, even
    when the data is missing, and one that just fits writes every file,
    through temp files no longer."""

    ARGS = {
        "synth": ["synth", "--n", "60", "--m", "4", "--relevant", "0"],
        "train": ["train", "--data", "data.csv", "--method", "dt"],
        "evaluate": ["evaluate", "--model", "dt.model.json", "--data", "data.csv"],
        "compare": ["compare", "--data", "data.csv", "--folds", "2", "--inner-runs", "1", "--offspring", "10"],
        "chi-sweep": ["chi-sweep", "--data", "data.csv", "--chis", "1.9"],
    }
    SUFFIXES = {"synth": [".csv", ".truth.json"], "train": [".model.json"], "evaluate": [".metrics.json"],
                "compare": [".cv_report.csv"], "chi-sweep": [".chi_traces.csv"]}

    def prefix(self, command, name_max):
        """The longest prefix whose every name fits in ``name_max`` bytes:
        241 characters of 255 where the manifest's name is the longest."""
        return "a" * (name_max - max(map(len, [*self.SUFFIXES[command], ".manifest.json"])))

    @pytest.fixture
    def name_max(self, runner, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        _make_data(tmp_path, n=60, m=4, name="data.csv")
        assert _invoke(runner, self.ARGS["train"] + ["--out", "dt"]).exit_code == 0
        return cli_module._name_max(tmp_path)

    @pytest.mark.parametrize("command", sorted(ARGS))
    @pytest.mark.parametrize("over", [1, 9])
    def test_a_name_too_long_exits_2_and_writes_nothing(self, runner, tmp_path, name_max, command, over):
        out = self.prefix(command, name_max) + "a" * over
        before = sorted(tmp_path.iterdir())
        for args in (self.ARGS[command], [arg.replace("data.csv", "missing.csv") for arg in self.ARGS[command]]):
            result = runner.invoke(cli, args + ["--out", out])
            assert result.exit_code == 2, result.output
            assert result.output.startswith(f"config error: --out {out!r}: the name '{out}.")
            assert result.output.endswith(f"is longer than the {name_max} bytes a file name may have in '.'\n")
            assert result.output.count("\n") == 1
            assert sorted(tmp_path.iterdir()) == before

    def test_a_directory_name_too_long_exits_2(self, runner, tmp_path, name_max):
        result = runner.invoke(cli, self.ARGS["synth"] + ["--out", "d" * (name_max + 1) + "/x"])
        assert result.exit_code == 2, result.output
        assert result.output.startswith("config error: --out")
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["data.csv", "dt.model.json", "dt.manifest.json"])

    @pytest.mark.parametrize("command", sorted(ARGS))
    def test_a_name_that_just_fits_writes_every_file(self, runner, tmp_path, name_max, command):
        out = self.prefix(command, name_max)
        before = {p.name for p in tmp_path.iterdir()}
        result = runner.invoke(cli, self.ARGS[command] + ["--out", out])
        assert result.exit_code == 0, (result.output, result.exception)
        written = {p.name for p in tmp_path.iterdir()} - before
        assert written == {out + suffix for suffix in [*self.SUFFIXES[command], ".manifest.json"]}
        assert max(len(name) for name in written) == name_max

    @pytest.mark.parametrize("pathconf", ["missing", "raises"])
    def test_the_limit_is_255_where_it_cannot_be_asked(self, runner, tmp_path, name_max, monkeypatch, pathconf):
        # Windows has no os.pathconf; some file systems refuse the query
        def refuse(path, name):
            raise OSError(22, "Invalid argument")

        if pathconf == "missing":
            monkeypatch.delattr(cli_module.os, "pathconf", raising=False)
        else:
            monkeypatch.setattr(cli_module.os, "pathconf", refuse)
        assert _invoke(runner, self.ARGS["train"] + ["--out", "x"]).exit_code == 0
        assert (tmp_path / "x.model.json").is_file() and (tmp_path / "x.manifest.json").is_file()
        result = runner.invoke(cli, self.ARGS["train"] + ["--out", "a" * 242])
        assert result.exit_code == 2, result.output
        assert result.output.endswith("is longer than the 255 bytes a file name may have in '.'\n")

    def test_no_name_is_too_long_where_the_file_system_sets_no_limit(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli_module.os, "pathconf", lambda path, name: -1)
        out = str(tmp_path / "d" / ("a" * 300))
        assert cli_module._check_out(out, ".model.json") == [Path(out + ".model.json")]
        assert list(tmp_path.iterdir()) == []


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


# the argv of a default train run recorded while --candidate-restarts
# existed: refused, never retrained under another config
_REMOVED_FLAG_MANIFEST = json.dumps({"format_version": 1, "argv": [
    "train", "--data", "train.csv", "--target", "target", "--chi", "1.9", "--delta", "0.0015",
    "--init-std", "0.1", "--split-a", "0.5", "--max-steps", "200", "--candidate-restarts", "1",
    "--max-failures", "3", "--subsample", "0.5", "--ns", "25", "--pmin", "0.06", "--seed", "0",
    "--method", "ecnn", "--restarts", "1", "--out", "old"]})
# the argv of a train run recorded with the noise-level stop --epsilon set
_REMOVED_EPSILON_MANIFEST = json.dumps({"format_version": 1, "argv": [
    "train", "--data", "train.csv", "--target", "target", "--chi", "1.9", "--delta", "0.0015",
    "--epsilon", "0.1", "--init-std", "0.1", "--split-a", "0.5", "--max-steps", "200",
    "--max-failed-attempts", "3", "--max-failures", "3", "--subsample", "0.5", "--ns", "25", "--pmin", "0.06",
    "--seed", "0", "--method", "ecnn", "--restarts", "1", "--out", "old"]})


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

    @pytest.mark.parametrize("text, code, named", [
        pytest.param('{"argv": ["synth"', 3, None, id="truncated_json"),
        pytest.param('["synth", "--n", "10"]', 3, None, id="not_an_object"),
        pytest.param('{"command": "synth"}', 3, None, id="no_argv"),
        pytest.param('{"argv": "synth --n 10"}', 3, None, id="argv_not_a_list"),
        pytest.param(_REMOVED_FLAG_MANIFEST, 2, "No such option '--candidate-restarts'", id="removed_flag"),
        pytest.param(_REMOVED_EPSILON_MANIFEST, 2, "No such option '--epsilon'", id="removed_epsilon"),
    ])
    def test_malformed_manifest_exit_code(self, runner, tmp_path, monkeypatch, text, code, named):
        monkeypatch.chdir(tmp_path)
        data = _make_data(tmp_path)
        manifest = tmp_path / "bad.manifest.json"
        manifest.write_text(text)
        result = runner.invoke(cli, ["replay", str(manifest)])
        assert result.exit_code == code, result.output
        assert isinstance(result.exception, SystemExit)
        assert (named or str(manifest)) in result.output
        assert sorted(tmp_path.iterdir()) == [manifest, data]

    def test_removed_flag_returns_2_as_a_library_call(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        data = _make_data(tmp_path)
        manifest = tmp_path / "old.manifest.json"
        manifest.write_text(_REMOVED_FLAG_MANIFEST)
        assert replay_manifest(manifest) == 2
        assert "No such option '--candidate-restarts'" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [manifest, data]

    @pytest.mark.parametrize("version", [7, None, True, 1.0, "1"],
                             ids=["other_version", "no_version", "true", "float", "string"])
    def test_manifest_of_another_format_version_exit_code(self, runner, tmp_path, version):
        out = tmp_path / "task"
        assert _invoke(runner, ["synth", "--n", "60", "--m", "4", "--relevant", "0",
                                "--out", str(out)]).exit_code == 0
        doc = json.loads(Path(f"{out}.manifest.json").read_text())
        for path in tmp_path.iterdir():
            path.unlink()
        if version is None:
            del doc["format_version"]
        else:
            doc["format_version"] = version
        manifest = tmp_path / "edited.manifest.json"
        manifest.write_text(json.dumps(doc))
        result = runner.invoke(cli, ["replay", str(manifest)])
        assert result.exit_code == 3, result.output
        assert f"data error: manifest {manifest} has format_version {version!r}, not 1" in result.output
        assert list(tmp_path.iterdir()) == [manifest]

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
