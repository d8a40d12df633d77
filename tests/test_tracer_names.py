"""Every name perfbench's tracer wraps must exist in the package, so a
refactor cannot silently break a traced benchmark run (``--trace 1``)."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import ecnn

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # stdlib only; installs nothing on import
    return module


def test_every_traced_name_resolves():
    tracer = _load_tracer()
    missing = []
    for mod_name, attr in [*tracer.SPANS, *tracer.LEAVES]:
        if not callable(getattr(importlib.import_module(f"ecnn.{mod_name}"), attr, None)):
            missing.append(f"ecnn.{mod_name}.{attr}")
    for mod_name, cls_name, attr in tracer.METHOD_SPANS:
        cls = getattr(importlib.import_module(f"ecnn.{mod_name}"), cls_name, None)
        if not callable(getattr(cls, attr, None)):
            missing.append(f"ecnn.{mod_name}.{cls_name}.{attr}")
    for mod_name in tracer.MODULES:
        importlib.import_module(f"ecnn.{mod_name}")
    assert not missing, f"traced names missing from {ecnn.__name__}: {missing}"


# Trains one small cascade and one small GMDH model, installs the tracer,
# predicts once with each, and prints the spans and what the classes hold.
_PREDICT_ONCE_EACH = textwrap.dedent("""
    import importlib.util, json, sys
    import ecnn, ecnn.cli
    from ecnn import cascade, gmdh
    from ecnn.dataset import synth_generate
    from ecnn.model import Model
    spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    d, _ = synth_generate(120, 4, [0, 2], 0.1, 0.05, seed=0)
    models = [cascade.train(d, cascade.GrowthConfig(), seed=0),
              gmdh.fit(d, gmdh.GmdhConfig(offspring_per_generation=20, max_serial_failures=1), 0)[0]]
    original = Model.predict_batch
    tracer = tracing.Tracer()
    tracing.install(tracer, ecnn.cli.cli)
    for model in models:
        model.predict_batch(d.x)
    print(json.dumps({
        "spans": [name for _, name, *_ in tracer.spans],
        "base_unwrapped": Model.__dict__["predict_batch"] is original,
        "classes_wrapped": [type(m).__dict__["predict_batch"] is not original for m in models],
    }))
""")


def test_inherited_predict_batch_is_wrapped_per_class():
    # a child process, because ``install`` does not undo its wrapping
    src = str(Path(ecnn.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _PREDICT_ONCE_EACH, str(TRACER)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert [name for name in out["spans"] if name.endswith(".predict_batch")] == [
        "cascade.predict_batch", "gmdh.predict_batch"]
    assert out["base_unwrapped"] and out["classes_wrapped"] == [True, True]
