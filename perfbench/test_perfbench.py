"""Tests of the benchmark itself: inputs, tracing, counts and file hygiene.

Run with ``python3 -m pytest perfbench -q`` (about two minutes: the
count checks run the real ``manufactured-17`` and ``verify-sweep``
workloads).
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import harness  # noqa: E402
import layers  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402

import nconvex.barriers  # noqa: E402
import nconvex.discretize  # noqa: E402
import nconvex.solver  # noqa: E402
from nconvex.cli import named_case  # noqa: E402
from nconvex.discretize import Grid, sample_problem  # noqa: E402
from nconvex.geometry import DomainSpec, pinching_check  # noqa: E402

COUNT_KEYS = [name for name, unit in layers.PER_LAYER if unit in ("count", "bytes")]


def _run(workload, seed, trace, tmp_path):
    return harness.run(workload, seed, 0.0, trace, out_dir=tmp_path)


# -- inputs --------------------------------------------------------------------


def test_seed0_inputs_are_the_named_manufactured_case():
    domain, named, _ = named_case("ball-manufactured-exp")
    (case,) = wl.PDE_WORKLOADS["manufactured-17"](0)
    grid = Grid(domain, 17)
    ref = sample_problem(named, grid)
    gen = sample_problem(case.problem, grid)
    assert gen.f_active.tobytes() == ref.f_active.tobytes()
    assert gen.phi_colloc.tobytes() == ref.phi_colloc.tobytes()


def test_seeds_repeat_and_vary_the_inputs():
    for seed in range(10):
        w = wl.manufactured_direction(seed)
        assert np.linalg.norm(w) == pytest.approx(1.0)
        assert np.array_equal(w, wl.manufactured_direction(seed))
        axes = wl.ellipsoid_axes(seed)
        assert axes == wl.ellipsoid_axes(seed)
        assert sorted(axes)[:2] == [1.0, 1.0]
        assert 0.03 <= max(axes) - 1.0 <= 0.07
        assert pinching_check(DomainSpec.ellipsoid(axes)).passes
    assert not np.array_equal(wl.manufactured_direction(1), wl.manufactured_direction(2))
    assert len({wl.ellipsoid_axes(s) for s in range(10)}) > 5


# -- tracing -------------------------------------------------------------------


def test_self_time_is_span_time_minus_children():
    t = Tracer()
    with t.span("outer") as root:
        with t.span("inner"):
            sum(range(20000))
        sum(range(20000))
    self_t, calls, durations = t.self_times(root)
    assert calls == {"outer": 1, "inner": 1}
    outer = t.end[root] - t.start[root]
    assert self_t["outer"] + self_t["inner"] == pytest.approx(outer)
    assert self_t["inner"] == pytest.approx(durations["inner"][0])


def test_wrapped_names_are_patched_everywhere_and_restored():
    original = nconvex.discretize.hessian_batch
    inst = layers.Instrument(Tracer())
    inst.install()
    try:
        wrapped = nconvex.discretize.hessian_batch
        assert wrapped is not original
        assert nconvex.solver.hessian_batch is wrapped
        assert nconvex.barriers.hessian_batch is wrapped
    finally:
        inst.tracer.restore()
    assert nconvex.solver.hessian_batch is original
    assert nconvex.barriers.hessian_batch is original
    assert nconvex.solver.splu.__module__.startswith("scipy")


# -- counts ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def m17_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("m17")
    return {
        "plain": _run("manufactured-17", 0, False, tmp),
        "traced": _run("manufactured-17", 0, True, tmp),
        "traced_seed1": _run("manufactured-17", 1, True, tmp),
    }


def test_traced_and_untraced_runs_agree(m17_runs):
    plain, traced = m17_runs["plain"], m17_runs["traced"]
    assert plain["failed"] == traced["failed"] == 0
    assert plain["counts"] == traced["counts"]
    assert plain["values"]["sup_error"] == traced["values"]["sup_error"]
    v = traced["values"]
    assert v["discretize.n_unknowns"] == traced["counts"][0]["n_unknowns"]
    assert v["barriers.strip_points"] == traced["counts"][0]["strip_points"]
    assert v["cli.dump_bytes"] == traced["counts"][0]["dump_bytes"]


def test_work_counts_match_across_seeds(m17_runs):
    a, b = m17_runs["traced"]["values"], m17_runs["traced_seed1"]["values"]
    for key in ("solver.factor_count", "solver.newton_solves", "solver.newton_iters",
                "solver.rejected_steps", "discretize.n_unknowns"):
        assert a[key] == b[key], key
    assert m17_runs["traced"]["counts"][0]["rows"] == m17_runs["traced_seed1"]["counts"][0]["rows"]


def test_counts_repeat_exactly(tmp_path):
    first = _run("verify-sweep", 3, True, tmp_path)
    second = _run("verify-sweep", 3, True, tmp_path)
    assert first["failed"] == second["failed"] == 0
    assert first["values"]["solver.factor_count"] == 0
    for key in COUNT_KEYS:
        if key != "trace.spans":
            assert first["values"][key] == second["values"][key], key


# -- the command -------------------------------------------------------------------


def _tree(root: Path):
    skip = {".git", "__pycache__", ".pytest_cache"}
    out = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in skip]
        if Path(dirpath) == BENCH_DIR:
            dirnames[:] = [d for d in dirnames if d != "out"]
        for name in filenames:
            st = (Path(dirpath) / name).stat()
            out[str(Path(dirpath) / name)] = (st.st_size, st.st_mtime_ns)
    return out


def test_runner_writes_only_its_own_directory():
    before = _tree(ROOT)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-sweep", "--seed", "0",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert _tree(ROOT) == before
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["metrics"]["solver.factor_count"]["value"] == 0
    assert not list((BENCH_DIR / "out").glob("tmp*")), "dump scratch dirs left behind"


def test_runner_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "manufactured-17", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_lists_what_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
