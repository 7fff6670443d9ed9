"""Each module's ``__all__`` matches what the package itself uses.

Every entry must resolve, and every public name one ``nconvex`` module takes
from another, by ``from nconvex.x import name`` or as ``x.name`` after
``from nconvex import x``, must be in ``x.__all__``.  The sources are read
with ``ast``, so the check follows the code rather than a hand-kept list.
"""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "nconvex"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


def cross_module_names(path):
    """(module, name) for each public name the file takes from another nconvex module."""
    tree = ast.parse(path.read_text())
    aliases = {}  # local name -> nconvex module it is bound to
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "nconvex":
            for alias in node.names:
                aliases[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("nconvex."):
            source = node.module.split(".", 1)[1]
            used.update((source, alias.name) for alias in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            used.add((aliases[node.value.id], node.attr))
    return {(mod, name) for mod, name in used if not name.startswith("_")}


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(f"nconvex.{name}")
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_names_taken_by_other_modules_are_exported(name):
    unexported = sorted(
        f"{mod}.{attr}" for mod, attr in cross_module_names(SRC / f"{name}.py")
        if attr not in importlib.import_module(f"nconvex.{mod}").__all__
    )
    assert unexported == []
