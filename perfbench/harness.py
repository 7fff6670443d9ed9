"""Measurement loop, environment record and report of the nconvex benchmark.

A run repeats passes over the workload's operations until its time is up
(at least one pass).  End-to-end values are medians over passes; the
traced run adds per-layer medians from ``layers.Instrument``.
"""

from __future__ import annotations

import ctypes
import glob
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy
import scipy

import workloads as wl
from layers import PER_LAYER, Instrument, median_metrics
from spans import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 3  # set-up samples per run, for a median

END_TO_END = (
    ("run_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "share"),
)
PHASES = (("solve_s", "s"), ("verify_s", "s"), ("sup_error", "abs"))

_clock = time.perf_counter


# -- environment record --------------------------------------------------------


def _openblas_threads(package) -> int | None:
    libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
    for lib in glob.glob(str(libs / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(handle, sym, None)
            if getter is not None:
                return int(getter())
    return None


def _blas_version(package) -> str:
    try:
        blas = package.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def _commit() -> str:
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
    return "unknown"


def environment(seed: int, blas_threads: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas_version(numpy),
        "scipy_blas": _blas_version(scipy),
        "blas_threads_pinned": blas_threads,
        "blas_threads_numpy": _openblas_threads(numpy),
        "blas_threads_scipy": _openblas_threads(scipy),
        "seed": seed,
        "commit": _commit(),
    }


# -- measuring -------------------------------------------------------------------


def _import_seconds() -> float:
    """Time a fresh import of the nconvex package; the loaded modules are kept."""
    kept = {k: v for k, v in sys.modules.items() if k == "nconvex" or k.startswith("nconvex.")}
    for name in kept:
        del sys.modules[name]
    try:
        t0 = _clock()
        importlib.import_module("nconvex.cli")
        return _clock() - t0
    finally:
        for name in [k for k in sys.modules if k == "nconvex" or k.startswith("nconvex.")]:
            del sys.modules[name]
        sys.modules.update(kept)


def _guarded(label, fn, *args) -> wl.OpResult:
    """Run one operation; an exception makes it a failed operation."""
    try:
        return fn(*args)
    except Exception as exc:  # the run goes on; the failure is counted and shown
        return wl.OpResult(label=label, problems=[f"raised {exc!r}"])


def run_pass(workload: str, seed: int, scratch: Path, instrument=None) -> dict:
    """One pass over the workload's operations: timings, outputs and checks."""
    tracer = instrument.tracer if instrument is not None else None
    if instrument is not None:
        instrument.begin_pass()
    with (tracer.span("pass") if tracer is not None else nullcontext()) as root:
        t0 = _clock()
        if workload in wl.PDE_WORKLOADS:
            ops = [_guarded(case.label, wl.run_case, case, scratch, tracer)
                   for case in wl.PDE_WORKLOADS[workload](seed)]
        else:
            ops = [_guarded(f"selftest seed {s}", wl.run_selftest, s, tracer)
                   for s in wl.selftest_seeds(seed)]
        run_s = _clock() - t0
    rec = {
        "run_s": run_s,
        "setup_s": sum(op.setup_s for op in ops),
        "solve_s": sum(op.solve_s for op in ops),
        "verify_s": sum(op.verify_s for op in ops),
        "sup_error": max(op.sup_error for op in ops),
        "ops": ops,
    }
    if instrument is not None:
        rec["layers"] = instrument.pass_metrics(root)
    return rec


def run(workload: str, seed: int, seconds: float, trace: bool,
        out_dir: Path = OUT_DIR) -> dict:
    """Measure ``workload`` for ``seconds``; returns the full run record."""
    if workload not in wl.WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(wl.WORKLOADS)}")
    out_dir.mkdir(exist_ok=True)
    setups = []
    if workload not in wl.PDE_WORKLOADS:
        setups = [_import_seconds() for _ in range(SETUP_REPEATS)]
    instrument = None
    if trace:
        instrument = Instrument(Tracer())
        instrument.install()
    passes = []
    try:
        start = _clock()
        while not passes or _clock() - start < seconds:
            passes.append(run_pass(workload, seed, out_dir, instrument))
    finally:
        if instrument is not None:
            instrument.tracer.restore()
    if workload in wl.PDE_WORKLOADS:
        setups += [p["setup_s"] for p in passes]
        cases = wl.PDE_WORKLOADS[workload](seed)
        while not trace and len(setups) < SETUP_REPEATS:
            t0 = _clock()
            for case in cases:
                wl.set_up(case)
            setups.append(_clock() - t0)
    ops = [op for p in passes for op in p["ops"]]
    failed = sum(not op.ok for op in ops)
    values = {
        key: statistics.median(p[key] for p in passes)
        for key in ("run_s", "solve_s", "verify_s", "sup_error")
    }
    values.update({
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_share": (len(ops) - failed) / len(ops),
    })
    if trace:
        values.update(median_metrics([p["layers"] for p in passes]))
        values["trace.run_s"] = values["run_s"]
        instrument.tracer.dump(out_dir / f"trace-{workload}-seed{seed}.json.gz")
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "passes": len(passes),
        "attempted": len(ops),
        "failed": failed,
        "values": values,
        "counts": [op.counts for op in passes[0]["ops"]],
        "problems": [f"{op.label}: {'; '.join(op.problems)}" for op in ops if not op.ok],
        "setups": setups,
    }


# -- reporting ---------------------------------------------------------------------


def result_line(record: dict) -> dict:
    """The last line of a run: verdict, operation counts and metrics."""
    table = PER_LAYER if record["trace"] else END_TO_END
    values = record["values"]
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in table},
    }


def print_report(record: dict, env: dict):
    values = record["values"]
    print(f"nconvex benchmark: workload {record['workload']}, seed {record['seed']}, "
          f"{record['seconds']:g} s, trace {record['trace']}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"{record['passes']} pass(es), {record['attempted']} operation(s), "
          f"{record['failed']} failed")
    for line in record["problems"]:
        print(f"  FAILED {line}")
    for counts in record["counts"]:
        print("  per operation: " + ", ".join(f"{k}={v}" for k, v in counts.items()))
    shown = dict(END_TO_END + PHASES)
    if record["trace"]:
        shown.update(PER_LAYER)
    for name, unit in shown.items():
        print(f"  {name:<28} {values[name]:>14.6g} {unit}")
    print(f"correct: {'true' if record['failed'] == 0 else 'false'}")


def append_record(record: dict, env: dict, line: dict, out_dir: Path = OUT_DIR):
    with open(out_dir / "results.jsonl", "a") as fh:
        fh.write(json.dumps({**record, "env": env, "result": line}) + "\n")
