"""A pytest plugin that lists the lines of src/kspoly no test ran, and the
`if`, `while` and `for` statements that only ever went one way.

    PYTHONPATH=src:tools python -m pytest -q -p line_probe

It traces with `sys.settrace` from before the first conftest loads, so
module-level lines count too; the suite runs about six times slower.  Code
that a test runs in a subprocess is not traced, so its lines read as
unreached here.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "kspoly"
PREFIX = f"{SRC}/"
EXIT = -1  # the arc a frame leaves by

# per source file, the (line, next line) pairs executed
ARCS: dict[str, set[tuple[int, int]]] = {}


def _trace(frame, event, arg):
    code = frame.f_code
    if not code.co_filename.startswith(PREFIX):
        return None
    arcs = ARCS.setdefault(code.co_filename, set())
    # the def line is reached by the call itself: it raises no line event
    arcs.add((EXIT, code.co_firstlineno))
    last = EXIT

    def local(frame, event, arg):
        nonlocal last
        if event == "line":
            arcs.add((last, frame.f_lineno))
            last = frame.f_lineno
        elif event == "return":
            arcs.add((last, EXIT))
        return local

    return local


def pytest_load_initial_conftests() -> None:
    sys.settrace(_trace)  # before any test module imports kspoly


def _code_lines(code) -> set[int]:
    """The lines a code object and the code nested in it execute."""
    lines = {line for _, _, line in code.co_lines() if line}  # 0: no line
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _ranges(lines: list[int]) -> list[str]:
    out: list[list[int]] = []
    for line in lines:
        if out and out[-1][1] == line - 1:
            out[-1][1] = line
        else:
            out.append([line, line])
    return [f"{a}" if a == b else f"{a}-{b}" for a, b in out]


def _one_sided(tree: ast.AST, arcs: set[tuple[int, int]],
               reached: set[int]) -> list[tuple[int, str, str]]:
    """(line, statement, side never taken) for each reached `if`, `while`
    and `for` whose body was never entered, or never passed over."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.If, ast.While)):
            head_end = node.test.end_lineno
            if isinstance(node.test, ast.Constant):
                continue  # `while True`: one side by design
        elif isinstance(node, ast.For):
            head_end = node.iter.end_lineno
        else:
            continue
        head = range(node.lineno, head_end + 1)
        first = node.body[0].lineno
        if node.lineno not in reached or first in head:
            continue  # unreached, listed already; or a one-line body
        entered = first in reached
        passed = any(a in head and b not in head and b != first
                     for a, b in arcs)
        kind = type(node).__name__.lower()
        if not entered:
            out.append((node.lineno, kind, "body never entered"))
        elif not passed:
            out.append((node.lineno, kind,
                        "never exhausted" if kind == "for"
                        else "never false"))
    return sorted(out)


def pytest_terminal_summary(terminalreporter) -> None:
    sys.settrace(None)
    write = terminalreporter.write_line
    write("")
    write("line_probe: src/kspoly lines no test ran, and branches taken "
          "one way only")
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        arcs = ARCS.get(str(path), set())
        reached = {b for _, b in arcs}
        missed = sorted(_code_lines(compile(source, str(path), "exec"))
                        - reached)
        if missed:
            write(f"  {path.name}: not run: {', '.join(_ranges(missed))}")
        for line, kind, side in _one_sided(ast.parse(source), arcs,
                                           reached):
            write(f"  {path.name}:{line}: {kind}, {side}")
