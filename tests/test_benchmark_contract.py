"""What the benchmark relies on in the library stays as it expects.

``perfbench/layers.py`` wraps library functions by (module, attribute) and
reads a few grid attributes; a renamed or deleted name would only show as a
failure of ``perfbench/run.py --trace 1``.  ``perfbench/workloads.py``
keeps a frozen copy of the manufactured data, which must sample the same
bytes as ``discretize.manufactured_problem``.  The files are read, never
written or imported as a package (so no bytecode cache lands next to them).
"""

import sys
import types
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import nconvex.barriers
import nconvex.solver
from nconvex.discretize import Grid, manufactured_problem, sample_problem
from nconvex.geometry import DomainSpec

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def read_only_module(path):
    """Execute a perfbench file as a module without importing it."""
    name = f"perfbench_{path.stem}"
    module = types.ModuleType(name)
    module.__file__ = str(path)
    # @dataclass looks the defining module up in sys.modules while it runs
    sys.modules[name] = module
    try:
        exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    finally:
        del sys.modules[name]
    return module


@pytest.fixture(scope="module")
def layers():
    return read_only_module(PERFBENCH / "layers.py")


@pytest.fixture(scope="module")
def workloads():
    return read_only_module(PERFBENCH / "workloads.py")


def test_every_wrapped_name_resolves(layers):
    assert layers.WRAPPED
    missing = [f"{module.__name__}.{attr}" for module, attr in layers.WRAPPED
               if not callable(getattr(module, attr, None))]
    assert missing == []


def test_factor_span_target_exists(layers):
    assert layers.FACTOR_SPAN == "solver.splu"
    assert callable(nconvex.solver.splu)


@pytest.mark.parametrize("module, attr", [
    (nconvex.solver, "hessian_batch"),
    (nconvex.barriers, "hessian_batch"),
], ids=["solver.hessian_batch", "barriers.hessian_batch"])
def test_names_perfbench_asserts_bound_stay_bound(module, attr):
    # perfbench/test_perfbench.py checks these bindings after wrapping
    # ``discretize.hessian_batch``; dropping an import breaks it
    assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_grid_has_the_sizes_the_grid_hook_reads():
    grid = Grid(DomainSpec.ball(1.0, n=3), 9)
    for name in ("W1", "W2", "C"):
        assert getattr(grid, name).nnz > 0, name
    assert grid.n_unknowns > 0
    # the closure is stored once, as a CSR on the field [values; trace]
    assert "C" in vars(grid) and isinstance(grid.C, sp.csr_matrix)
    assert grid.C.shape == (grid.n_ghost, grid.n_unknowns)


def test_frozen_manufactured_copy_samples_the_library_bytes(workloads):
    ball = DomainSpec.ball(1.0, n=3)
    grid = Grid(ball, 17)
    for seed in range(10):
        w = workloads.manufactured_direction(seed)
        frozen, frozen_exact = workloads.manufactured_problem(ball, w, "frozen")
        library, library_exact = manufactured_problem(
            ball, workloads.MANUFACTURED_AMPLITUDE, w)
        want, got = sample_problem(frozen, grid), sample_problem(library, grid)
        assert got.f_active.tobytes() == want.f_active.tobytes(), seed
        assert got.phi_colloc.tobytes() == want.phi_colloc.tobytes(), seed
        pts = grid.active_pts
        assert np.array_equal(library_exact(pts), frozen_exact(pts)), seed
