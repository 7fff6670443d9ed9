"""Every import in ``src/nconvex`` is used by the module that makes it.

The sources are read with ``ast``: a name bound by ``import`` or ``from ...
import`` must be read somewhere in the module (as a name, as the root of an
attribute chain, inside a quoted annotation, or as an ``__all__`` entry).
The only exceptions are import lines marked ``# noqa: F401``, bindings
that are kept for code outside the module to patch.
"""

import ast
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
