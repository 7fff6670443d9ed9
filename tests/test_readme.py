"""The README's config blocks and library quickstart still work.

The fenced blocks are read from ``README.md`` itself: each plain block in
the "Config file" section must parse with ``parse_config``, the ``# run.cfg``
block must name every key that has a default, and the "Library quickstart"
Python block must run.  The keys the "Outputs" section lists for the JSON
path report must be the keys ``PathReport.to_json`` writes.
"""

import json
import re
from pathlib import Path

import pytest

from nconvex.cli import DEFAULTS, named_case, parse_config
from nconvex.discretize import Grid, sample_problem
from nconvex.solver import SolverConfig, continuation

README = Path(__file__).resolve().parents[1] / "README.md"


def fenced_blocks():
    """(heading above it, language, body) of every fenced block in the README."""
    heading, found, block = None, [], None
    for line in README.read_text().splitlines(keepends=True):
        if block is not None:
            if line.startswith("```"):
                found.append((heading, *block))
                block = None
            else:
                block[1] += line
        elif line.startswith("```"):
            block = [line[3:].strip(), ""]
        elif line.startswith("#"):
            heading = line.lstrip("#").strip()
    return found


def blocks(heading, language=""):
    """The bodies of the fenced blocks of ``language`` under ``heading``."""
    found = [body for head, lang, body in fenced_blocks()
             if head == heading and lang == language]
    assert found, f"no {language or 'plain'} block under {heading!r}"
    return found


CONFIG_BLOCKS = blocks("Config file")


@pytest.mark.parametrize("block", CONFIG_BLOCKS,
                         ids=[b.lstrip("# ").split()[0] for b in CONFIG_BLOCKS])
def test_config_block_parses(tmp_path, block):
    path = tmp_path / "block.cfg"
    path.write_text(block)
    parse_config(path)


def test_run_cfg_block_names_every_default_key():
    run_cfg = [b for b in CONFIG_BLOCKS if b.startswith("# run.cfg\n")]
    assert len(run_cfg) == 1
    keys = {line.split("=", 1)[0].strip()
            for line in run_cfg[0].splitlines() if "=" in line.split("#", 1)[0]}
    assert set(DEFAULTS) - keys == set()


def test_library_quickstart_runs(capsys):
    (code,) = blocks("Library quickstart", "python")
    exec(compile(code, f"{README}:Library quickstart", "exec"), {})
    assert capsys.readouterr().out


def json_report_keys():
    """The keys of the JSON path report as the README lists them: the
    backticked name that opens each sub-bullet of the "Path report" bullet."""
    text = README.read_text().split("### Outputs\n", 1)[1]
    bullet = text.split("* Path report:", 1)[1].split("\n* ", 1)[0]
    return re.findall(r"^  - `(\w+)`", bullet, flags=re.MULTILINE)


def test_readme_lists_the_json_report_keys():
    domain, problem, _ = named_case("ball-manufactured-exp")
    grid = Grid(domain, 9)
    _, report = continuation(sample_problem(problem, grid), grid, SolverConfig())
    # the keys a run writes only when it has them
    report.config_digest, report.exact_error, report.barriers = "digest", 0.0, {}
    listed = json_report_keys()
    assert len(listed) == len(set(listed))
    assert set(listed) == set(json.loads(report.to_json()))
