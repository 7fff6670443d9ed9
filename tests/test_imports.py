"""Every import in ``src/nconvex`` is used by the module that makes it.

The sources are read with ``ast``: a name bound by ``import`` or ``from ...
import`` must be read somewhere in the module (as a name, as the root of an
attribute chain, inside a quoted annotation, or as an ``__all__`` entry).
The only exceptions are import lines marked ``# noqa: F401``, bindings
that are kept for code outside the module to patch.  One more check runs
the package in a fresh interpreter: ``scipy.fft`` stays unloaded until the
first linear solve needs it.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "nconvex"
MODULES = sorted(p.stem for p in SRC.glob("*.py"))


def _imported(tree, lines):
    """{bound name: line} for every import the module makes, noqa lines left out."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = alias.lineno
    return bound


def _read_names(tree):
    """Names the module reads, including quoted annotations and ``__all__`` entries."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names.update(elt.value for elt in getattr(node.value, "elts", [])
                         if isinstance(elt, ast.Constant))
        annotations = []
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                names.update(n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                             if isinstance(n, ast.Name))
    return names


def unused_imports(path):
    text = path.read_text()
    tree = ast.parse(text)
    read = _read_names(tree)
    return sorted(f"{path.name}:{line} {name}"
                  for name, line in _imported(tree, text.splitlines()).items()
                  if name not in read)


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_import(name):
    assert unused_imports(SRC / f"{name}.py") == []


def test_scan_finds_an_unused_import(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "import itertools\n"
        "import numpy as np\n"
        "from scipy.spatial import cKDTree\n"
        "from scipy.sparse.linalg import splu  # noqa: F401 (kept for patching)\n"
        "\n"
        "def f(x: \"np.ndarray\"):\n"
        "    return x\n"
    )
    assert unused_imports(module) == ["sample.py:1 itertools", "sample.py:3 cKDTree"]


def test_fft_is_loaded_by_the_first_linear_solve_only():
    # scipy.fft's pocketfft extension costs resident memory, and runs that
    # solve no linear system (verify-only solves, the self-test) never need it
    script = (
        "import sys\n"
        "import nconvex.cli\n"
        "print('scipy.fft' in sys.modules)\n"
        "from nconvex.discretize import Grid, manufactured_problem, sample_problem\n"
        "from nconvex.geometry import DomainSpec\n"
        "from nconvex.solver import SolverConfig, continuation\n"
        "ball = DomainSpec.ball(1.0, n=3)\n"
        "grid = Grid(ball, 9)\n"
        "problem = sample_problem(manufactured_problem(ball, 0.05)[0], grid)\n"
        "state, report = continuation(problem, grid, SolverConfig())\n"
        "print(state.t, len(report.krylov_iters) > 0, 'scipy.fft' in sys.modules)\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert out.split("\n") == ["False", "1.0 True True", ""]
