"""Byte-identity check of the varfrac CLI: exit code and sha256 of stdout and
stderr for a fixed set of commands.

Usage, from the repository root:

    python tools/cli_digest.py --src path/to/src > after.txt
    python tools/cli_digest.py --src path/to/other/src > before.txt
    diff before.txt after.txt

Every command runs in a fresh ``python -m varfrac.cli`` process with the
given ``src`` directory first on PYTHONPATH and one BLAS thread, two at a
time.  Each command gets its own new temporary working directory holding
the CSV inputs under fixed relative names, and commands name them by those
relative paths, so file paths in error messages match between runs (a
traceback still names the source tree).  A file a command writes with
``--output`` is digested as well.  Each output line reads

    <exit code> <sha256 stdout> <sha256 stderr> [<sha256 output file>] <command>

The command set is 9 orders (seven spec families and two ``csv:`` tables,
one linear and one step) times ``apply`` (R and Q), the five ``diagnose``
checks, ``spectrum --n 32``, ``spectrum --fit`` and the three ``verify``
suites; ``entropy`` five ways for each worked family and once on a grid
past 2^1000; the two L1 ``diagnose`` checks at order 100; every ``varfrac``
command in README.md; and a few inputs that the CLI must reject.

The digests depend on the CPU's SIMD dispatch and on the BLAS build, so
compare two source trees on one machine; a stored digest from another
machine proves nothing.  This script is not part of the test suite.

``--write-golden`` instead runs every command in this process, through
``varfrac.cli.main``, and writes tests/golden.json: per command the exit
code and, for stdout, stderr and any ``--output`` file, the text with each
number cut out and the numbers as printed.  ``tests/test_golden.py``
compares the CLI against that file at a stated tolerance, so it can run in
the test suite on any machine.  ``--only COMMAND`` (repeatable) rewrites
just those entries and keeps the rest of the file as it is:

    python tools/cli_digest.py --write-golden
    python tools/cli_digest.py --write-golden --only "spectrum --alpha ex4:0.5 --fit ..."
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden.json"

# a number as the CLI prints it (repr of a float or int, JSON's Infinity and
# NaN), not glued to a word or to another number
NUMBER = re.compile(
    r"(?<![\w.])[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|inf|nan|Infinity|NaN)(?![\w.])"
)

# fixed relative names of the CSV inputs inside the working directory
INPUTS = {
    "alpha_linear.csv": "t,alpha\n0.0,0.5\n0.25,0.9\n0.5,0.7\n1.0,1.5\n",
    "alpha_step.csv": "# interpretation=step\nt,alpha\n0.0,0.5\n0.5,1.5\n1.0,1.5\n",
    "alpha_bad_directive.csv": "# interpretation=cubic\n0.0,0.5\n1.0,1.5\n",
    "f_step.csv": "# interpretation=step\nnode,value\n0.0,1.0\n0.5,3.0\n1.0,3.0\n",
    "mat.csv": "3,0,0\n0.5,2,0\n0.25,0.5,1\n",
}

ORDERS = (
    "const:0.5",
    "const:1",
    "ex1:0.5,1,2",
    "ex2:0.5,1,1",
    "ex3:0.5,1,1",
    "ex4:0.5",
    "reclog",
    "csv:alpha_linear.csv",
    "csv:alpha_step.csv",
)

WORKED = ("ex1:0.5,1,1", "ex2:0.5,1,2", "ex3:0.5,1,1", "ex4:0.5")

# grids past 2^873, where the ex4 bound's radius scan reaches below the
# smallest double
LARGE_GRIDS = ("entropy --alpha ex4:0.5 --n-grid 2^1000..2^1005",)

# the L1 criteria at an order far past 31, where one 16-point Gauss panel on
# [1/2, 1] cannot integrate t^(a - 1), so the panels must grade toward t = 1
LARGE_ORDERS = (
    "diagnose --alpha const:100 --check l1criterion",
    "diagnose --alpha const:100 --check l1norm",
)

CHECKS = ("l1criterion", "l1norm", "lptolinf", "compact-zero", "compact-one")

REJECTED = (
    "spectrum --matrix mat.csv --fit",
    "spectrum --matrix mat.csv --n 4",
    "spectrum --matrix mat.csv --r 0.5",
    "spectrum --matrix mat.csv --p 3",
    "spectrum --matrix mat.csv --q nan",
    "spectrum --alpha const:0.5 --n 4097",
    "diagnose --alpha const:0.5 --check l1norm --p nan",
    "verify --suite identities --p nan",
    "apply --alpha csv:alpha_bad_directive.csv --targets 0.25",
    "apply --alpha const:1 --f csv:f_step.csv --targets 0.25,0.75",
    "entropy --alpha ex2:0.5,1,1 --n-grid 2^6..2^1024",
    "entropy --alpha ex2:0.5,1,1 --n-grid 16,32",
    "entropy --alpha ex2:0.5,1,1 --n-grid 2^6..2^8 --p 3",
    "entropy --alpha ex2:0.5,1,1 --n-grid 2,40",
    "apply --alpha ex1:0.5,0,2 --targets 0.5",
    "apply --alpha ex2:nan,1,1 --targets 0.5",
    "apply --alpha ex3:0.5,1,inf --targets 0.5",
    "apply --alpha ex4:0 --targets 0.5",
    "entropy --alpha ex1:3,1,1 --n-grid 2^349..2^349",
    "spectrum --alpha const:80 --n 256",
    "spectrum --alpha const:100 --n 256",
    "spectrum --alpha const:100 --fit",
    "spectrum --alpha const:130 --n 256",
)


def order_commands(alpha: str) -> list[str]:
    a = f"--alpha {alpha}"
    return [
        f"apply {a} --f cos3 --targets 33",
        f"apply {a} --f cos3 --targets 33 --adjoint",
        *(f"diagnose {a} --check {check}" for check in CHECKS),
        f"spectrum {a} --n 32",
        f"spectrum {a} --fit --n-max 8 --n 64 --fit-lo 2 --fit-hi 8",
        f"verify --suite identities {a} --n-cells 64",
        f"verify --suite witness {a} --n-max 12",
        f"verify --suite maxbound {a} --seed 3 --trials 10",
    ]


def entropy_commands(alpha: str) -> list[str]:
    base = f"entropy --alpha {alpha} --n-grid 2^6..2^12"
    return [
        base,
        f"{base} --output bracket.csv",
        f"{base} --fit power",
        f"{base} --fit power_log --output bracket.csv",
        f"{base} --fit power_loglog",
    ]


def readme_commands() -> list[str]:
    """The `varfrac ...` lines of README.md, without the program name and comments."""
    out = []
    for line in (ROOT / "README.md").read_text().splitlines():
        if line.startswith("varfrac "):
            out.append(shlex.join(shlex.split(line, comments=True)[1:]))
    return out


def all_commands() -> list[str]:
    cmds = [c for alpha in ORDERS for c in order_commands(alpha)]
    cmds += [c for alpha in WORKED for c in entropy_commands(alpha)]
    return cmds + list(LARGE_GRIDS + LARGE_ORDERS) + readme_commands() + list(REJECTED)


def make_workdir(path: Path) -> Path:
    """Create ``path`` holding the CSV inputs under their fixed names."""
    path.mkdir(parents=True, exist_ok=True)
    for name, text in INPUTS.items():
        (path / name).write_text(text)
    return path


def split_numbers(text: str) -> dict:
    """The text with every number replaced by ``#``, and the numbers as printed."""
    return {"text": NUMBER.sub("#", text), "numbers": NUMBER.findall(text)}


def run_in_process(command: str, workdir: Path) -> dict:
    """Run one command through ``varfrac.cli.main`` in ``workdir``.

    Returns the golden entry: the command, its exit code, and split_numbers
    of stdout, stderr and, for a command with ``--output``, the file it
    wrote (None when it wrote none).
    """
    from varfrac import cli

    args = shlex.split(command)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(args)
    finally:
        os.chdir(cwd)
    entry = {
        "command": command,
        "exit": code,
        "stdout": split_numbers(out.getvalue()),
        "stderr": split_numbers(err.getvalue()),
    }
    if "--output" in args:
        path = workdir / args[args.index("--output") + 1]
        entry["file"] = split_numbers(path.read_text()) if path.exists() else None
    return entry


def write_golden(src: Path, only: list[str]) -> None:
    """Write GOLDEN from the varfrac under ``src``; with ``only``, just those entries."""
    sys.path.insert(0, str(src))
    import varfrac

    if Path(varfrac.__file__).resolve().parent != src / "varfrac":
        raise SystemExit(f"imported varfrac from {varfrac.__file__}, not from {src}")
    cmds = all_commands()
    unknown = set(only) - set(cmds)
    if unknown:
        raise SystemExit(f"not in the command list: {sorted(unknown)}")
    old = {}
    if only:
        old = {e["command"]: e for e in json.loads(GOLDEN.read_text())}
    entries = []
    with tempfile.TemporaryDirectory(prefix="cli-golden-") as tmp:
        for i, cmd in enumerate(cmds):
            if only and cmd not in only:
                entries.append(old[cmd])
            else:
                entries.append(run_in_process(cmd, make_workdir(Path(tmp) / str(i))))
    # one line per command, so a diff of the file names the commands that moved
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(command: str, src: Path, workdir: Path) -> str:
    args = shlex.split(command)
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "varfrac.cli", *args],
        cwd=workdir,
        env=env,
        capture_output=True,
        check=False,
    )
    fields = [str(proc.returncode), _sha(proc.stdout), _sha(proc.stderr)]
    if "--output" in args:
        out = workdir / args[args.index("--output") + 1]
        fields.append(_sha(out.read_bytes()) if out.exists() else "no-file")
    return " ".join(fields + [command])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding varfrac/")
    parser.add_argument(
        "--write-golden", action="store_true", help=f"write {GOLDEN.relative_to(ROOT)} instead"
    )
    parser.add_argument(
        "--only", action="append", default=[], metavar="COMMAND",
        help="with --write-golden: rewrite only this command's entry (repeatable)",
    )
    args = parser.parse_args(argv)
    src = args.src.resolve()
    if not (src / "varfrac" / "__init__.py").is_file():
        parser.error(f"no varfrac package under {src}")
    if args.only and not args.write_golden:
        parser.error("--only needs --write-golden")
    if args.write_golden:
        write_golden(src, args.only)
        return 0
    cmds = all_commands()
    with tempfile.TemporaryDirectory(prefix="cli-digest-") as tmp:
        # one working directory per command, so --output files cannot collide
        dirs = [make_workdir(Path(tmp) / str(i)) for i in range(len(cmds))]
        # each command is its own process, so two threads run two at once
        with ThreadPoolExecutor(2) as pool:
            lines = pool.map(lambda cd: digest(cd[0], src, cd[1]), zip(cmds, dirs))
            for line in lines:
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
