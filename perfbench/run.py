"""Benchmark of the ``ecnn`` package: cascade selection, the k-fold
comparison and CSV scoring.

Run from the root of a checkout:

    python3 perfbench/run.py --workload select72 --seed 0 --seconds 20 --trace 0

``--workload`` is ``select72``, ``compare12``, ``score`` or ``all`` (each
workload in its own fresh process, one after another). ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` makes a traced run and
reports the per-layer metrics. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Each run also writes a record (and, traced, its spans) under
``.perfbench_out/``. The exit code is 0 when every check passed, 1 when a
check failed and 2 when the program under test cannot be found.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"

# One BLAS thread: each workload keeps to one core of the machine, and
# idle BLAS threads do not compete with the measured one.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

SETUP_REPEATS = 3
WORKLOAD_NAMES = ("select72", "compare12", "score")


def import_program():
    """Import ``ecnn`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "ecnn" / "__init__.py").is_file():
        raise ImportError(f"no ecnn package under {src}")
    sys.path.insert(0, str(src))
    started = time.perf_counter()
    ecnn = importlib.import_module("ecnn")
    importlib.import_module("ecnn.cli")
    elapsed = time.perf_counter() - started
    if Path(ecnn.__file__).resolve().parent != (src / "ecnn").resolve():
        raise ImportError(f"ecnn imported from {ecnn.__file__}, not from {src}")
    return ecnn, elapsed


def git_sha() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the layout of numpy's build report is not a stable API
        blas = None
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "git_sha": git_sha(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def percentile_tail(times: list[float]) -> dict:
    """The highest percentile with at least ten samples beyond it, when
    there are 40 samples or more."""
    n = len(times)
    if n < 40:
        return {}
    ordered = sorted(times)
    return {f"op_s.p{int(100 * (n - 10) / n)}": ordered[n - 11]}


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    try:
        ecnn, import_s = import_program()
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import tracer as tracing
    from workloads import WORKLOADS

    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, ecnn.cli.cli)
        tracer.active = False

    stamp = f"{name}-seed{seed}-trace{int(trace)}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    work_root = OUT / "work" / stamp
    failures: list[str] = []
    setup_times: list[float] = []
    fingerprints = []
    try:
        for rep in range(SETUP_REPEATS):
            workdir = work_root / f"setup{rep}"
            workdir.mkdir(parents=True)
            gc.collect()
            started = time.perf_counter()
            workload = WORKLOADS[name](ecnn, seed, seconds, workdir)
            workload.setup()
            workload.warm_up()
            setup_times.append(time.perf_counter() - started)
            if hasattr(workload, "model_bytes"):
                fingerprints.append(workload.model_bytes())
            if rep < SETUP_REPEATS - 1:
                shutil.rmtree(workdir)
        if any(f != fingerprints[0] for f in fingerprints):
            failures.append("set-up repeated on one seed wrote different model bytes")

        op_times: list[float] = []
        failed: list[str] = []
        operations = workload.operations()
        for op in operations:
            gc.collect()
            if tracer is not None:
                tracer.active = True
            started = time.perf_counter()
            try:
                result = op.run()
            except (Exception, SystemExit) as exc:  # a failed operation is counted, not fatal
                op_times.append(time.perf_counter() - started)
                failed.append(f"{op.label}: {type(exc).__name__}: {exc}")
                continue
            finally:
                if tracer is not None:
                    tracer.active = False
            op_times.append(time.perf_counter() - started)
            try:
                failures.extend(op.check(result))
            except Exception as exc:  # a check that cannot run is a failed check
                failures.append(f"{op.label}: check raised {type(exc).__name__}: {exc}")
        if len(failed) < len(operations):
            failures.extend(workload.finish())
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    if trace:
        metrics = tracing.per_layer(tracer)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "wall_s": {"value": sum(op_times), "unit": "s"},
            "op_s.p50": {"value": statistics.median(op_times), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
            "test_acc": {"value": statistics.fmean(workload.accuracies) if workload.accuracies
                         else 0.0, "unit": "ratio"},
        }
    result = {"correct": not failures, "attempted": len(operations), "failed": len(failed),
              "metrics": metrics}
    record = {
        **result,
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "samples": len(op_times),
        "op_s": op_times,
        **percentile_tail(op_times),
        "setup_s": setup_times,
        "import_s": import_s,
        "checks_failed": failures,
        "operations_failed": failed,
        "notes": workload.notes,
        "environment": environment(),
    }
    (OUT / "records").mkdir(parents=True, exist_ok=True)
    (OUT / "records" / f"{stamp}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer is not None:
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / "traces" / f"{stamp}.jsonl")
    for line in failures + failed:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if not failures else 1


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Each workload in its own fresh process, never two at once."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        print(f"{name}: {lines[-1] if lines else '(no result)'}", flush=True)
        if proc.returncode != 0 or not lines:
            code = max(code, proc.returncode or 1)
            summary["correct"] = False
            continue
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
