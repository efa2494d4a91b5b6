"""List the varfrac functions that no CLI command and no acceptance test reaches.

Usage, from the repository root:

    python tools/reach.py

A ``sys.setprofile`` hook records every function of ``src/varfrac`` that is
called while two workloads run in this process, on its one thread: every
command of ``tools/cli_digest.py``, through ``varfrac.cli.main`` in a fresh
working directory each, and ``tests/test_acceptance.py`` under pytest.
The script then prints each function or method defined in ``src/varfrac``
that neither workload called, as ``<file>:<line> <qualified name> (<lines>
lines)``, followed by the count and the total line count.  The time of each
workload and pytest's report go to stderr.

Functions that run only at import time count as reached; code that is not
a function (class bodies, module top level) is not listed.  This script is
not part of the test suite.
"""

from __future__ import annotations

import ast
import sys
import tempfile
import time
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


def main() -> int:
    files = {str(p) for p in PACKAGE.glob("*.py")}
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename in files:
                reached.add((code.co_filename, code.co_firstlineno))

    # installed before varfrac is first imported, so import-time calls count
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "tools"))
    import cli_digest
    import pytest

    sys.setprofile(profile)
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
        sys.setprofile(None)
    if code != 0:
        print(f"acceptance tests exited {int(code)}; the trace is incomplete", file=sys.stderr)
        return 1
    if Path(sys.modules["varfrac"].__file__).resolve().parent != PACKAGE:
        print(f"traced varfrac from {sys.modules['varfrac'].__file__}", file=sys.stderr)
        return 1

    unreached = sorted(
        (path, first, name, lines)
        for (path, first), (name, lines) in defined_functions().items()
        if (path, first) not in reached
    )
    for path, first, name, lines in unreached:
        print(f"{Path(path).relative_to(ROOT)}:{first} {name} ({lines} lines)")
    total = sum(lines for *_, lines in unreached)
    print(f"{len(unreached)} functions ({total} lines) reached by neither workload")
    return 0


if __name__ == "__main__":
    sys.exit(main())
