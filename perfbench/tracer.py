"""Outside-in tracing of the ``ecnn`` layers.

Tracing replaces module attributes the package calls through (for
example ``ecnn.cascade.fit_neuron`` or ``ecnn.gmdh.derive_rng``) and the
methods on model classes with wrappers that record spans: name, start,
end and parent. Spans stay in memory and are written once, at the end.
Very frequent leaf calls are aggregated per parent span into a call count
and a total time; a leaf must not call another traced function.

Nothing under ``src/`` changes, and nothing is wrapped unless a traced run
installs the tracer.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

# (module, attribute) -> span name. Every module of the package that holds
# the same function object under any name gets the wrapper.
SPANS = {
    ("harness", "multi_restart"): "harness.multi_restart",
    ("harness", "kfold"): "harness.kfold",
    ("cascade", "train"): "cascade.train",
    ("cascade", "rank_features"): "cascade.rank_features",
    ("cascade", "assemble_candidate_inputs"): "cascade.assemble_candidate_inputs",
    ("projection", "fit_neuron"): "projection.fit_neuron",
    ("gmdh", "evolve"): "gmdh.evolve",
    ("dtree", "build"): "dtree.build",
    ("dtree", "evaluate"): "dtree.evaluate",
    ("dataset", "load_csv"): "dataset.load_csv",
    ("dataset", "save_csv"): "dataset.save_csv",
    ("dataset", "fit_normalize"): "dataset.fit_normalize",
    ("dataset", "split"): "dataset.split",
    ("cli", "load_any_model"): "cli.load_any_model",
    ("cli", "_write_manifest"): "cli._write_manifest",
}
METHOD_SPANS = {
    ("cascade", "CascadeModel", "predict_batch"): "cascade.predict_batch",
    ("gmdh", "GmdhModel", "predict_batch"): "gmdh.predict_batch",
}
LEAVES = {
    ("gmdh", "fit_ls"): "gmdh.fit_ls",
    ("gmdh", "poly_forward"): "gmdh.poly_forward",
    ("gmdh", "_ancestor_ids"): "gmdh._ancestor_ids",
    ("util", "derive_rng"): "util.derive_rng",
    ("dtree", "best_partition"): "dtree.best_partition",
    ("dtree", "dt_predict"): "dtree.dt_predict",
}
MODULES = ("cascade", "cli", "dataset", "dtree", "gmdh", "harness", "projection", "util")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, name, start, end, parent id or None]
        self.stack: list[int] = []
        self.leaves: dict[tuple[int | None, str], list] = defaultdict(lambda: [0, 0.0])
        self.counters: dict[str, float] = defaultdict(float)
        self.in_leaf = False
        self.active = True  # off between timed operations

    def span(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = len(self.spans)
            record = [sid, name, 0.0, 0.0, self.stack[-1] if self.stack else None]
            self.spans.append(record)
            self.stack.append(sid)
            record[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                self.stack.pop()
            if after is not None:
                after(self, record, args, kwargs, result)
            return result

        return traced

    def leaf(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if self.in_leaf:
                raise RuntimeError(f"traced call {name} inside an aggregated leaf")
            bucket = self.leaves[(self.stack[-1] if self.stack else None, name)]
            self.in_leaf = True
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                bucket[1] += time.perf_counter() - start
                bucket[0] += 1
                self.in_leaf = False

        return traced

    # -- output -------------------------------------------------------------

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
            for (parent, name), (calls, total) in sorted(
                self.leaves.items(), key=lambda kv: (-1 if kv[0][0] is None else kv[0][0], kv[0][1])
            ):
                fh.write(json.dumps({"leaf": name, "parent": parent, "calls": calls,
                                     "total_s": total}) + "\n")
            fh.write(json.dumps({"counters": dict(self.counters)}) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-function calls and time, per-layer self time, and counters."""
        calls: dict[str, float] = defaultdict(float)
        total: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        child_time: dict[int, float] = defaultdict(float)
        for sid, name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for (parent, name), (n, t) in self.leaves.items():
            calls[name] += n
            total[name] += t
            self_s[name.split(".")[0]] += t
            if parent is not None:
                child_time[parent] += t
        for sid, name, start, end, parent in self.spans:
            calls[name] += 1
            total[name] += end - start
            self_s[name.split(".")[0]] += end - start - child_time[sid]
        out: dict[str, float] = {}
        for name in calls:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = total[name]
        for layer in MODULES:
            out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        out.update(self.counters)
        return out


def _after_fit(tracer: Tracer, record: list, args, kwargs, result) -> None:
    cfg = kwargs["cfg"] if "cfg" in kwargs else args[4]
    tracer.counters["projection.steps"] += result.steps_taken
    tracer.counters["projection.capped_fits"] += result.steps_taken >= cfg.max_steps
    parent = record[4]
    if parent is not None and tracer.spans[parent][1] == "cascade.train":
        tracer.counters["cascade.candidates"] += 1


def _after_cascade_train(tracer: Tracer, record: list, args, kwargs, model) -> None:
    chain = model.criterion_trace()
    tracer.counters["cascade.accepted"] += sum(b < a for a, b in zip(chain, chain[1:]))
    tracer.counters["cascade.models"] += 1
    tracer.counters["cascade.features"] += len(model.used_features())


def _after_evolve(tracer: Tracer, record: list, args, kwargs, model) -> None:
    cfg = kwargs["cfg"] if "cfg" in kwargs else args[2]
    generations = len(model.generation_log) - 1
    tracer.counters["gmdh.models"] += 1
    tracer.counters["gmdh.generations"] += generations
    tracer.counters["gmdh.offspring"] += generations * cfg.offspring_per_generation
    tracer.counters["gmdh.offspring_accepted"] += len(model.neurons) - model.n_features
    tracer.counters["gmdh.population_total"] += len(model.neurons)


AFTER = {
    "projection.fit_neuron": _after_fit,
    "cascade.train": _after_cascade_train,
    "gmdh.evolve": _after_evolve,
}


def install(tracer: Tracer, cli_group: Any) -> None:
    """Wrap every traced function where the package looks it up."""
    modules = {name: sys.modules[f"ecnn.{name}"] for name in MODULES}
    package = sys.modules["ecnn"]
    targets = [(key, name, False) for key, name in SPANS.items()]
    targets += [(key, name, True) for key, name in LEAVES.items()]
    for (mod_name, attr), span_name, is_leaf in targets:
        original = getattr(modules[mod_name], attr)
        wrapped = (tracer.leaf(span_name, original) if is_leaf
                   else tracer.span(span_name, original, AFTER.get(span_name)))
        for module in (*modules.values(), package):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
    for (mod_name, cls_name, attr), span_name in METHOD_SPANS.items():
        cls = getattr(modules[mod_name], cls_name)
        setattr(cls, attr, tracer.span(span_name, getattr(cls, attr)))
    # the benchmark's own calls into the command layer
    cli_group.main = tracer.span("cli.main", cli_group.main)


# (name, unit, better) of every per-layer metric the benchmark reports
PER_LAYER = [
    ("projection.fit_neuron.calls", "count", "lower"),
    ("projection.fit_neuron.s", "s", "lower"),
    ("projection.steps", "count", "lower"),
    ("projection.steps_per_fit", "steps/fit", "lower"),
    ("projection.capped_fits", "count", "lower"),
    ("projection.self_s", "s", "lower"),
    ("cascade.rank_features.s", "s", "lower"),
    ("cascade.assemble_candidate_inputs.calls", "count", "lower"),
    ("cascade.assemble_candidate_inputs.s", "s", "lower"),
    ("cascade.candidates", "count", "lower"),
    ("cascade.accepted", "count", "higher"),
    ("cascade.accept_ratio", "ratio", "higher"),
    ("cascade.features_per_model", "features/model", "lower"),
    ("cascade.predict_batch.s", "s", "lower"),
    ("cascade.self_s", "s", "lower"),
    ("gmdh.evolve.s", "s", "lower"),
    ("gmdh.generations", "count", "lower"),
    ("gmdh.offspring", "count", "lower"),
    ("gmdh.offspring_accepted", "count", "higher"),
    ("gmdh.accept_ratio", "ratio", "higher"),
    ("gmdh.fit_ls.calls", "count", "lower"),
    ("gmdh.fit_ls.s", "s", "lower"),
    ("gmdh._ancestor_ids.calls", "count", "lower"),
    ("gmdh._ancestor_ids.s", "s", "lower"),
    ("gmdh.poly_forward.s", "s", "lower"),
    ("gmdh.population", "neurons/model", "lower"),
    ("gmdh.self_s", "s", "lower"),
    ("util.derive_rng.calls", "count", "lower"),
    ("util.derive_rng.s", "s", "lower"),
    ("dtree.build.s", "s", "lower"),
    ("dtree.best_partition.calls", "count", "lower"),
    ("dtree.best_partition.s", "s", "lower"),
    ("dtree.dt_predict.calls", "count", "lower"),
    ("dtree.dt_predict.s", "s", "lower"),
    ("dtree.self_s", "s", "lower"),
    ("dataset.load_csv.calls", "count", "lower"),
    ("dataset.load_csv.s", "s", "lower"),
    ("dataset.save_csv.calls", "count", "lower"),
    ("dataset.save_csv.s", "s", "lower"),
    ("dataset.fit_normalize.s", "s", "lower"),
    ("dataset.split.s", "s", "lower"),
    ("dataset.self_s", "s", "lower"),
    ("harness.multi_restart.calls", "count", "lower"),
    ("harness.kfold.s", "s", "lower"),
    ("harness.self_s", "s", "lower"),
    ("cli.load_any_model.s", "s", "lower"),
    ("cli._write_manifest.s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
]
# derived metrics: name -> (numerator, denominator) of raw tracer figures
RATIOS = {
    "projection.steps_per_fit": ("projection.steps", "projection.fit_neuron.calls"),
    "cascade.accept_ratio": ("cascade.accepted", "cascade.candidates"),
    "cascade.features_per_model": ("cascade.features", "cascade.models"),
    "gmdh.accept_ratio": ("gmdh.offspring_accepted", "gmdh.offspring"),
    "gmdh.population": ("gmdh.population_total", "gmdh.models"),
}


def per_layer(tracer: Tracer) -> dict[str, dict]:
    """Every per-layer metric, by name, with its unit; 0 where a workload
    bypasses the layer."""
    raw = tracer.layer_metrics()
    out = {}
    for name, unit, _ in PER_LAYER:
        if name in RATIOS:
            num, den = (float(raw.get(k, 0.0)) for k in RATIOS[name])
            value = num / den if den else 0.0
        else:
            value = float(raw.get(name, 0.0))
        out[name] = {"value": value, "unit": unit}
    return out
