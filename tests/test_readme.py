"""The README's config blocks and library quickstart still work.

The fenced blocks are read from ``README.md`` itself: each plain block in
the "Config file" section must parse with ``parse_config``, the ``# run.cfg``
block must name every key that has a default, and the "Library quickstart"
Python block must run.
"""

from pathlib import Path

import pytest

from nconvex.cli import DEFAULTS, parse_config

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
