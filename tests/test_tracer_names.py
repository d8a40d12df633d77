"""Every name perfbench's tracer wraps must exist in the package, so a
refactor cannot silently break a traced benchmark run (``--trace 1``)."""

import importlib
import importlib.util
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
