"""The names the traced benchmark run patches must stay bound in the library.

``perfbench/layers.py`` wraps library functions by (module, attribute) and
reads a few grid attributes; a renamed or deleted name would only show as a
failure of ``perfbench/run.py --trace 1``.  The file is read, never written
or imported as a package (so no bytecode cache lands next to it).
"""

import types
from pathlib import Path

import pytest

import nconvex.barriers
import nconvex.solver
from nconvex.discretize import Grid
from nconvex.geometry import DomainSpec

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    module = types.ModuleType("perfbench_layers")
    module.__file__ = str(LAYERS)
    exec(compile(LAYERS.read_text(), str(LAYERS), "exec"), module.__dict__)
    return module


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
