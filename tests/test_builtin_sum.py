"""No module in ``src/nconvex`` calls the builtin ``sum``.

From Python 3.12 on, ``sum`` compensates a float sum, while numpy adds a
stack plainly, left to right.  So a one-tuple summed with the builtin can
round differently from the same row of a stack, and the kernels promise
those bit for bit.  The sources are read with ``ast``: a call whose callee
is the bare name ``sum`` fails the check; ``np.sum``, ``x.sum()`` and
``math.fsum`` do not.  ``symfun._add_in_order`` adds terms left to right
where Python floats need it.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "nconvex"
MODULES = sorted(p.stem for p in SRC.glob("*.py"))


def builtin_sum_calls(path):
    tree = ast.parse(path.read_text())
    return sorted(f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "sum")


@pytest.mark.parametrize("name", MODULES)
def test_no_builtin_sum(name):
    assert builtin_sum_calls(SRC / f"{name}.py") == []


def test_scan_finds_a_builtin_sum(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "import math\n"
        "import numpy as np\n"
        "\n"
        "def f(x):\n"
        "    return np.sum(x) + x.sum() + math.fsum(x)\n"
        "\n"
        "def g(x):\n"
        "    return sum(v * v for v in x)\n"
    )
    assert builtin_sum_calls(module) == ["sample.py:8"]
