"""Byte-for-byte CLI snapshots: every README command, every word action,
and every geometry check in each output format on all three polytopes.

A refactor must leave these outputs unchanged.  When an output changes on
purpose, re-record the snapshots with

    PYTHONPATH=src python tests/test_snapshots.py

and review the diff under tests/data/snapshots/.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SNAPSHOTS = Path(__file__).parent / "data" / "snapshots"

COMMANDS = [
    # the README's CLI section
    ["gen-bases", "--polytope", "600cell"],
    ["gen-bases", "--polytope", "gosset", "--format", "csv"],
    ["weights", "--polytope", "120cell", "--odd"],
    ["weights", "--polytope", "gosset", "--odd", "--format", "json"],
    ["word", "--polytope", "120cell", "a b e g k r i'", "symbol"],
    ["word", "--polytope", "120cell", "cdy", "decompose"],
    ["word", "--polytope", "gosset", "e1 e2", "decompose"],
    ["word", "--polytope", "600cell", "acd", "minimal"],
    ["word", "--polytope", "600cell", "a", "verify", "--check-assignment"],
    ["word", "--polytope", "gosset", "b1", "expand", "--format", "json"],
    ["geometry", "rigidity"],
    ["geometry", "rigidity", "--format", "json"],
    # each format of every command that renders it
    ["gen-bases", "--polytope", "600cell", "--format", "json"],
    ["gen-bases", "--polytope", "600cell", "--format", "csv"],
    ["weights", "--polytope", "600cell", "--format", "csv"],
    ["weights", "--polytope", "gosset", "--odd", "--max-weight", "9"],
    ["word", "--polytope", "600cell", "a", "verify", "--check-assignment",
     "--format", "json"],
    ["word", "--polytope", "600cell", "c", "verify", "--format", "json"],
    ["word", "--polytope", "600cell", "", "verify", "--format", "json"],
    ["word", "--polytope", "120cell", "a b e g k r i'", "symbol",
     "--format", "json"],
    ["word", "--polytope", "600cell", "acd", "minimal", "--format", "json"],
    ["word", "--polytope", "120cell", "cdy", "decompose", "--format", "json"],
    ["word", "--polytope", "gosset", "b1", "expand"],
]
for _check in ("construct", "project", "match"):
    for _polytope in ("600cell", "120cell", "gosset"):
        COMMANDS.append(["geometry", _check, "--polytope", _polytope])
        for _fmt in ("json", "csv") if _check == "project" else ("json",):
            COMMANDS.append(["geometry", _check, "--polytope", _polytope,
                             "--format", _fmt])


def snapshot_name(argv: list[str]) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "-", " ".join(argv)).strip("-") + ".txt"


def run_cli(argv: list[str]) -> tuple[int, str]:
    from kspoly.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def test_snapshot_names_unique():
    names = [snapshot_name(argv) for argv in COMMANDS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_cli_snapshot(argv):
    code, out = run_cli(argv)
    assert code == 0
    assert out == (SNAPSHOTS / snapshot_name(argv)).read_text()


def test_projection_snapshots_without_numpy():
    """The package imports, and projects all three polytopes, in an
    interpreter where any import of numpy fails."""
    import kspoly

    projections = [argv for argv in COMMANDS
                   if argv[:2] == ["geometry", "project"]]
    child = ("import json, sys\n"
             "sys.modules['numpy'] = None\n"
             "import test_snapshots\n"
             "print(json.dumps([test_snapshots.run_cli(argv)\n"
             "                  for argv in json.loads(sys.argv[1])]))\n")
    src = str(Path(kspoly.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", child,
                           json.dumps(projections)],
                          cwd=Path(__file__).parent, env=env,
                          capture_output=True, text=True, check=True)
    for argv, (code, out) in zip(projections, json.loads(done.stdout)):
        assert code == 0
        assert out == (SNAPSHOTS / snapshot_name(argv)).read_text(), argv


if __name__ == "__main__":
    SNAPSHOTS.mkdir(parents=True, exist_ok=True)
    for argv in COMMANDS:
        code, out = run_cli(argv)
        if code:
            sys.exit(f"{' '.join(argv)}: exit {code}")
        (SNAPSHOTS / snapshot_name(argv)).write_text(out)
    print(f"recorded {len(COMMANDS)} snapshots in {SNAPSHOTS}")
