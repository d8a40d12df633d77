"""The quality record's paired test, checked on cases worked by hand, the
shape of its tasks, and a whole run of the script for each family."""

import json

import numpy as np
import pytest

from ecnn.cascade import GrowthConfig
from ecnn.projection import TrainConfig
from quality_record import TASKS, _method, main, wilcoxon_worse_p


@pytest.mark.parametrize("diffs, p", [
    # ranks 1-5 all positive: the largest of 2**5 equally likely sums
    ([0.01, 0.02, 0.03, 0.04, 0.05], 1 / 32),
    # the zero takes rank 1 and adds 0.5; signs of ranks 2-4 give 9.5
    # only when all three are positive
    ([0.0, 0.01, 0.02, 0.03], 1 / 8),
    # four tied ranks of 2.5, three positive: 3 or 4 positive in 5 of 16
    ([0.01, 0.01, -0.01, 0.01], 5 / 16),
    # no nonzero difference, so no pattern other than the observed one
    ([0.0, 0.0, 0.0], 1.0),
    # ranks 1-5 all negative: every pattern is at least as large
    ([-0.01, -0.02, -0.03, -0.04, -0.05], 1.0),
    # a tie that rounding in the errors would break: ranks 1.5 and 1.5
    ([0.1 - 0.09, 0.01], 1 / 4),
])
def test_exact_one_sided_p(diffs, p):
    assert wilcoxon_worse_p(diffs) == p


def test_more_than_20_differences_refused():
    with pytest.raises(ValueError, match="at most 20"):
        wilcoxon_worse_p(np.ones(21))


def test_tasks_have_their_stated_shapes():
    widths = {"linear": 12, "interaction": 12, "redundant": 18, "imbalanced": 12, "m2": 2, "m20": 20}
    for name, make in TASKS.items():
        d = make(0)
        assert d.x.shape == (600, widths[name]), name
        low, high = (0.10, 0.20) if name == "imbalanced" else (0.4, 0.6)
        assert low < d.y.mean() < high, name
    # columns 12-17 of the redundant task are noisy copies of x0, x0, x4, x4, x9, x9
    x = TASKS["redundant"](0).x
    corr = np.corrcoef(x.T)[12:, [0, 0, 4, 4, 9, 9]].diagonal()
    assert (corr > 0.9).all(), corr


@pytest.mark.parametrize("method, field, depth", [
    ("gmdh", "max_serial_failures=3", "generations"),
    ("ecnn", "max_failed_attempts=3", "layers"),
    pytest.param("ecnn", None, "layers", id="ecnn-against-saved"),
])
def test_main_runs_each_family_end_to_end(capsys, tmp_path, method, field, depth):
    args = ["--method", method, "--seeds", "0", "--tasks", "m2"]
    if field:
        # the base sets its field to the default, so the one seed ties
        main([*args, "--base", field])
    else:
        # the saved record of the default is the base of the same code, so the seed ties
        saved = tmp_path / "record.json"
        main([*args, "--save", str(saved)])
        record = json.loads(saved.read_text())
        assert (record["method"], record["seeds"], list(record["tasks"])) == (method, [0], ["m2"])
        assert {"errors", "sizes", "depths", "cpu_s"} == set(record["tasks"]["m2"])
        capsys.readouterr()
        main([*args, "--against", str(saved)])
    lines = capsys.readouterr().out.splitlines()
    cfg_cls = {"gmdh": "GmdhConfig(", "ecnn": "GrowthConfig("}[method]
    assert lines[0].startswith(f"base {cfg_cls}") and lines[1].startswith(f"candidate {cfg_cls}")
    assert (field or f"from {saved}") in lines[0]
    assert f"mean {depth}, CPU" in lines[3]
    assert lines[4].startswith("m2 (reported only): ") and lines[4].endswith("; 0/1/0; p 1.000")
    assert len(lines) == 5


def test_dotted_names_set_the_trainer_fields():
    method = _method("ecnn", ["trainer.max_steps=1000", "trainer.delta=3e-4", "max_failed_attempts=5"])
    assert method.cfg == GrowthConfig(trainer=TrainConfig(max_steps=1000, delta=3e-4), max_failed_attempts=5)


def test_saved_record_of_other_seeds_refused(tmp_path):
    saved = tmp_path / "record.json"
    main(["--method", "ecnn", "--seeds", "0", "--tasks", "m2", "--save", str(saved)])
    with pytest.raises(SystemExit, match="holds ecnn on seeds \\[0\\], not ecnn on seeds \\[1\\]"):
        main(["--method", "ecnn", "--seeds", "1", "--tasks", "m2", "--against", str(saved)])
