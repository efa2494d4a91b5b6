"""List the varfrac functions that no CLI command and no acceptance test reaches.

Usage, from the repository root:

    python tools/reach.py

A ``sys.settrace`` hook records every function of ``src/varfrac`` that is
called, and every line of it that runs, while two workloads run in this
process, on its one thread: every command of ``tools/cli_digest.py``,
through ``varfrac.cli.main`` in a fresh working directory each, and
``tests/test_acceptance.py`` under pytest.  The script then prints each
function or method defined in ``src/varfrac`` that neither workload called,
as ``<file>:<line> <qualified name> (<lines> lines)``, followed by the count
and the total line count.  Then, for the functions that were called, it
prints each run of executable lines that never ran, as
``<file>:<first>[-<last>] <qualified name> (<lines> lines)``, followed by
the count of runs and their total line count.  A run is a maximal sequence
of a function's executable lines, in line order, none of which ran;
comprehensions and lambdas count as part of the function around them.  The
time of each workload and pytest's report go to stderr.

Functions that run only at import time count as reached; code that is not
a function (class bodies, module top level) is not listed.  This script is
not part of the test suite.
"""

from __future__ import annotations

import ast
import sys
import tempfile
import time
import types
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "varfrac"


def defined_functions() -> dict[tuple[str, int], tuple[str, int]]:
    """(file, first line) -> (qualified name, line count) of every def in PACKAGE.

    The first line is that of the first decorator, as in ``co_firstlineno``.
    """
    found = {}

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = f"{prefix}{child.name}"
                found[(path, first)] = (name, child.end_lineno - first + 1)
                visit(child, f"{name}.<locals>.", path)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", path)
            else:
                visit(child, prefix, path)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), "", str(path))
    return found


def executable_lines(defs: dict) -> dict[tuple[str, int], set[int]]:
    """(file, first line) -> the executable lines of each def in ``defs``.

    A def's lines are those of its code object and of the comprehensions
    and lambdas inside it, but not those of the defs nested in it.
    """
    found = {}

    def visit(code, path, owner):
        key = (path, code.co_firstlineno)
        if not code.co_name.startswith("<") and key in defs:
            owner = key
            found[owner] = set()
        if owner is not None:
            found[owner].update(line for *_, line in code.co_lines() if line is not None)
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                visit(const, path, owner)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(compile(path.read_text(), str(path), "exec"), str(path), None)
    return found


def unreached_runs(lines: set[int], ran: set[int]) -> list[tuple[int, int]]:
    """(first, last) of each maximal run of ``lines``, in order, none in ``ran``."""
    runs, open_run = [], False
    for line in sorted(lines):
        if line in ran:
            open_run = False
        elif open_run:
            runs[-1][1] = line
        else:
            runs.append([line, line])
            open_run = True
    return [(first, last) for first, last in runs]


def main() -> int:
    files = {str(p) for p in PACKAGE.glob("*.py")}
    reached = set()
    ran = {path: set() for path in files}

    def trace_lines(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace(frame, event, arg):
        code = frame.f_code
        if code.co_filename not in files:
            return None
        reached.add((code.co_filename, code.co_firstlineno))
        ran[code.co_filename].add(frame.f_lineno)
        return trace_lines

    # installed before varfrac is first imported, so import-time calls count
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "tools"))
    import cli_digest
    import pytest

    sys.settrace(trace)
    try:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
            for i, cmd in enumerate(cli_digest.all_commands()):
                cli_digest.run_in_process(cmd, cli_digest.make_workdir(Path(tmp) / str(i)))
        print(f"cli_digest commands: {time.perf_counter() - start:.1f} s", file=sys.stderr)
        start = time.perf_counter()
        # pytest's report goes to stderr, so stdout holds only the list
        with redirect_stdout(sys.stderr):
            code = pytest.main(
                ["-q", "-p", "no:cacheprovider", str(ROOT / "tests" / "test_acceptance.py")]
            )
        print(f"acceptance tests: {time.perf_counter() - start:.1f} s", file=sys.stderr)
    finally:
        sys.settrace(None)
    if code != 0:
        print(f"acceptance tests exited {int(code)}; the trace is incomplete", file=sys.stderr)
        return 1
    if Path(sys.modules["varfrac"].__file__).resolve().parent != PACKAGE:
        print(f"traced varfrac from {sys.modules['varfrac'].__file__}", file=sys.stderr)
        return 1

    defs = defined_functions()
    unreached = sorted(
        (path, first, name, lines)
        for (path, first), (name, lines) in defs.items()
        if (path, first) not in reached
    )
    for path, first, name, lines in unreached:
        print(f"{Path(path).relative_to(ROOT)}:{first} {name} ({lines} lines)")
    total = sum(lines for *_, lines in unreached)
    print(f"{len(unreached)} functions ({total} lines) reached by neither workload")

    runs = [
        (path, lo, hi, defs[(path, first)][0])
        for (path, first), lines in sorted(executable_lines(defs).items())
        if (path, first) in reached
        for lo, hi in unreached_runs(lines, ran[path])
    ]
    for path, lo, hi, name in runs:
        where = f"{lo}" if lo == hi else f"{lo}-{hi}"
        size = "1 line" if lo == hi else f"{hi - lo + 1} lines"
        print(f"{Path(path).relative_to(ROOT)}:{where} {name} ({size})")
    total = sum(hi - lo + 1 for _, lo, hi, _ in runs)
    print(f"{len(runs)} runs ({total} lines) inside reached functions reached by neither workload")
    return 0


if __name__ == "__main__":
    sys.exit(main())
