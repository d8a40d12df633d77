import csv
import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ecnn import gmdh
from ecnn.cli import cli, load_any_model, replay_manifest
from ecnn.dataset import load_csv, save_csv, synth_generate
from ecnn.errors import NumericError


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture
def runner():
    return CliRunner()


def _invoke(runner, args):
    return runner.invoke(cli, args, catch_exceptions=False)


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

    def test_dt_defaults(self, runner, tmp_path):
        data = _make_data(tmp_path)
        out = tmp_path / "dtrun"
        result = _invoke(runner, ["train", "--data", str(data), "--method", "dt", "--out", str(out)])
        assert result.exit_code == 0
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert manifest["config"]["n_s"] == 25
        assert manifest["config"]["p_min"] == 0.06
        kind, _ = load_any_model(f"{out}.model.json")
        assert kind == "dt"

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

    def test_invalid_chi_rejected(self, runner, tmp_path):
        data = _make_data(tmp_path)
        result = runner.invoke(cli, [
            "train", "--data", str(data), "--chi", "0", "--out", str(tmp_path / "x"),
        ])
        assert result.exit_code == 2

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
    "gmdh_forward_parent": ("gmdh", lambda doc: _set(doc, "neurons", 0, "parent_a",
                                                     {"kind": "neuron", "index": doc["output_id"]})),
    "gmdh_missing_output": ("gmdh", lambda doc: _set(doc, "output_id", 10**6)),
    "gmdh_three_coeffs": ("gmdh", lambda doc: doc["neurons"][0]["coeffs"].pop()),
    "gmdh_short_std": ("gmdh", lambda doc: doc["norm"]["std"].pop()),
    "gmdh_infinite_index": ("gmdh", lambda doc: _set(doc, "neurons", 0, "parent_a", "index",
                                                     float("inf"))),
    "tree_split_feature": ("dt", lambda doc: _set(_first_split(doc["root"]), "feature", 5)),
    "tree_leaf_class": ("dt", lambda doc: _set(_first_split(doc["root"]), "left",
                                               {"leaf": {"class": 2, "counts": [1, 1]}})),
    "tree_no_features": ("dt", lambda doc: _set(doc, "n_features", "five")),
}
# case -> (family, edit of the saved model's JSON text); each must exit 3
MALFORMED = {
    "truncated": ("ecnn", lambda text: text[: len(text) // 2]),
    "json_scalar": ("ecnn", lambda text: "3"),
    "json_list": ("gmdh", lambda text: "[]"),
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
        assert {r["method"] for r in rows} == {"ecnn", "gmdh", "dt"}
        assert _invoke(runner, args + ["--out", str(out2)]).exit_code == 0
        assert Path(f"{out1}.cv_report.csv").read_bytes() == Path(f"{out2}.cv_report.csv").read_bytes()


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

    def test_manifest_names_existing_artifacts(self, runner, tmp_path):
        data = _make_data(tmp_path)
        out = tmp_path / "art"
        _invoke(runner, ["train", "--data", str(data), "--out", str(out)])
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        for artifact in manifest["artifacts"]:
            assert Path(artifact).exists()
        assert manifest["input_hashes"]
        assert manifest["wall_clock_s"] >= 0
