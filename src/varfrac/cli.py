"""Command-line front end: every operation as a subcommand with CSV or JSON
output, suitable for shell pipelines and experiment scripts.

Order profiles are given with a small spec grammar (see --help of any
subcommand): const:<a>, ex1:<a0>,<lam>,<gamma>, ex2:..., ex3:...,
ex4:<gamma>, reclog, or csv:<path> for a tabulated profile.  Input functions
are the builtins one, ramp, cos3, or csv:<path>.  Exit codes: 0 success,
2 usage or validation failure, 3 numerical failure.  A fixed --seed makes
randomized suites byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import _module
from .core import (
    GridFunction,
    K0,
    NumericalError,
    _sorted_unique,
    atomic_write_text,
    csv_text,
    maximal_values,
    q_values,
    read_table,
    rl_values,
)
from .orders import (
    Constant,
    ExpOffset,
    LogPower,
    LogPowerOffset,
    OrderFunction,
    PowerOffset,
    ReciprocalLog,
    Tabulated,
)

__all__ = ["main"]

#: names the subcommands take from the modules that not every subcommand
#: runs.  The module ``__getattr__`` is the one place that imports such a
#: module: the first lookup of any of its names binds them all into this
#: module's globals, keeping a name already set there.  Subcommands call them
#: as attributes of this module (``_self``), so ``apply`` never imports these
#: modules, and a name set on this module from outside, such as a test's
#: stand-in or a tracing wrapper, is the one the subcommands call.
_LAZY = {
    "diagnostics": (
        "classify_compactness",
        "l1_criterion_integral",
        "l1_operator_norm",
        "lp_to_linf_norm",
        "verify_scaling",
        "verify_semigroup",
        "witness_separation",
    ),
    "entropy": ("build_example_estimate", "family_name", "fit_rate"),
    "spectral": (
        "OperatorMatrix",
        "_check_dense_size",
        "_spectrum_text",
        "approximation_numbers",
        "assemble_matrix",
        "singular_values",
    ),
}

_self = sys.modules[__name__]


def __getattr__(name: str):
    for module, names in _LAZY.items():
        if name in names:
            source = _module(module)
            for lazy in names:
                globals().setdefault(lazy, getattr(source, lazy))
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

DIAGNOSE_CHECKS = ("l1criterion", "l1norm", "lptolinf", "compact-zero", "compact-one")
VERIFY_SUITES = ("identities", "witness", "maxbound")

#: largest --n-cells of the identities suite.  Its checks take time about
#: linear in the cell count (8 s at the cap, doubled run included, on a
#: 2-vCPU machine), and past 2^16 cells the discrepancies no longer shrink.
MAX_N_CELLS = 2**17

#: largest power of two an --n-grid index may reach: the entropy bounds take
#: each index to a float power, and from just below 2^1024 on an index no
#: longer converts to a float
_NGRID_MAX_POWER = 1023

#: discrepancy floor of the identities suite.  From 2^16 to 2^18 cells the
#: semigroup discrepancy of every cli_digest order stays between 1.2e-9 and
#: 3.6e-9 without contracting, and the scaling one stays at 2.2e-16 or
#: below at every cell count; 1e-8 is about 4.5e7 eps.
IDENTITY_FLOOR = 1e-8


# --------------------------------------------------------------------------
# spec parsing


def parse_alpha(spec: str) -> OrderFunction:
    """Build an order profile from its command-line spec string."""
    head, sep, tail = spec.partition(":")
    if head == "const":
        return Constant(_floats(tail, 1)[0])
    if head == "ex1":
        return PowerOffset(*_floats(tail, 3))
    if head == "ex2":
        return LogPowerOffset(*_floats(tail, 3))
    if head == "ex3":
        return ExpOffset(*_floats(tail, 3))
    if head == "ex4":
        return LogPower(_floats(tail, 1)[0])
    if spec == "reclog":
        return ReciprocalLog()
    if head == "csv":
        return Tabulated.from_csv(tail)
    raise ValueError(
        f"unknown alpha spec {spec!r}; expected const:<a>, ex1:<a0>,<lam>,<gamma>, "
        "ex2:..., ex3:..., ex4:<gamma>, reclog, or csv:<path>"
    )


def parse_f(spec: str) -> GridFunction:
    """Build an input function: builtin one/ramp/cos3 or csv:<path>."""
    if spec == "one":
        return GridFunction((0.0, 1.0), (1.0, 1.0))
    if spec == "ramp":
        return GridFunction((0.0, 1.0), (0.0, 1.0))
    if spec == "cos3":
        t = np.linspace(0.0, 1.0, 257)
        return GridFunction(t, np.cos(3.0 * t))
    head, _, tail = spec.partition(":")
    if head == "csv":
        return GridFunction.from_csv(tail)
    raise ValueError(f"unknown f spec {spec!r}; expected one, ramp, cos3, or csv:<path>")


def parse_targets(spec: str) -> np.ndarray:
    """A bare integer is a point count (uniform grid on [0,1]); anything else
    is comma-separated points."""
    try:
        count = int(spec)
    except ValueError:
        return np.asarray([float(x) for x in spec.split(",")], dtype=float)
    if count < 2:
        raise ValueError(f"target count must be >= 2, got {count}")
    return np.linspace(0.0, 1.0, count)


def parse_ngrid(spec: str) -> list[int]:
    """Index grid: '2^6..2^20' for powers of two, or comma-separated ints."""
    if ".." in spec:
        lo, _, hi = spec.partition("..")
        if not (lo.startswith("2^") and hi.startswith("2^")):
            raise ValueError(f"range grid must look like 2^6..2^20, got {spec!r}")
        a, b = int(lo[2:]), int(hi[2:])
        if not (0 < a <= b <= _NGRID_MAX_POWER):
            raise ValueError(
                f"bad power range in {spec!r}: need 0 < a <= b <= {_NGRID_MAX_POWER}"
            )
        return [2**k for k in range(a, b + 1)]
    grid = [int(x) for x in spec.split(",")]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("explicit grid must be increasing integers")
    if grid[-1] > 2**_NGRID_MAX_POWER:
        raise ValueError(f"grid indices must be at most 2^{_NGRID_MAX_POWER}")
    return grid


def _floats(tail: str, count: int) -> list[float]:
    parts = [x for x in tail.split(",") if x != ""]
    if len(parts) != count:
        raise ValueError(f"expected {count} comma-separated numbers, got {tail!r}")
    return [float(x) for x in parts]


# --------------------------------------------------------------------------
# output plumbing


def _emit(text: str, output: str | None) -> None:
    """Write the payload atomically to a file, or to stdout."""
    if not text.endswith("\n"):
        text += "\n"
    if output:
        atomic_write_text(output, text)
    else:
        sys.stdout.write(text)


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


# --------------------------------------------------------------------------
# subcommands


def cmd_apply(args) -> int:
    alpha = parse_alpha(args.alpha)
    f = parse_f(args.f)
    targets = parse_targets(args.targets)
    values = (q_values if args.adjoint else rl_values)(alpha, f, targets)
    _emit(csv_text("t,value", zip(targets, values)), args.output)
    return EXIT_OK


def cmd_diagnose(args) -> int:
    alpha = parse_alpha(args.alpha)
    check = args.check
    if check == "l1criterion":
        report = _self.l1_criterion_integral(alpha).to_dict()
    elif check == "l1norm":
        report = _self.l1_operator_norm(alpha).to_dict()
    elif check == "lptolinf":
        report = _self.lp_to_linf_norm(alpha, args.p).to_dict()
    else:
        report = _self.classify_compactness(alpha, check.split("-")[1]).to_dict()
    _emit(_json_dumps({"alpha": args.alpha, "check": check, "report": report}), args.output)
    return EXIT_OK


def cmd_spectrum(args) -> int:
    if (args.alpha is None) == (args.matrix is None):
        raise ValueError("spectrum needs exactly one of --alpha and --matrix")
    if args.matrix is not None:
        # the file is the matrix, so nothing would read these flags
        ignored = {
            "--fit": args.fit,
            "--n": args.n is not None,
            "--r": args.r != 1.0,
            "--p": args.p != 2.0,
            "--q": args.q != 2.0,
        }
        named = [flag for flag, given in ignored.items() if given]
        if named:
            raise ValueError(f"spectrum --matrix uses the file as it is; drop {', '.join(named)}")
        entries = _load_matrix(args.matrix)
        m = _self.OperatorMatrix(r=1.0, p=2.0, q=2.0, entries=entries)
        _emit(_self._spectrum_text(_self.singular_values(m)), args.output)
        return EXIT_OK
    alpha = parse_alpha(args.alpha)
    if args.fit:
        if args.p != 2.0 or args.q != 2.0:
            raise ValueError(
                "spectrum --fit computes L2 approximation numbers; --p and --q must "
                f"be 2, got --p {args.p:g}, --q {args.q:g}"
            )
        lo, hi = args.fit_lo, min(args.fit_hi, args.n_max)
        if not 1 <= lo < hi:
            raise ValueError(
                f"need 1 <= --fit-lo < min(--fit-hi, --n-max), got --fit-lo {lo}, "
                f"--fit-hi {args.fit_hi}, --n-max {args.n_max}"
            )
        report = _self.approximation_numbers(alpha, n_max=args.n_max, n_disc=args.n, r=args.r)
        ks = np.arange(lo, hi + 1)
        slope, intercept = np.polyfit(np.log(ks), np.log(report.values[ks - 1]), 1)
        payload = {
            "alpha": args.alpha,
            "converged": report.converged,
            "drift": report.drift,
            "fit_range": [int(ks[0]), int(ks[-1])],
            "intercept": float(intercept),
            "n_disc": report.n_disc,
            "slope": float(slope),
            "values": [float(v) for v in report.values],
        }
        _emit(_json_dumps(payload), args.output)
        return EXIT_OK
    n = 256 if args.n is None else args.n
    _self._check_dense_size(n)
    m = _self.assemble_matrix(alpha, n=n, r=args.r, p=args.p, q=args.q)
    _emit(_self._spectrum_text(_self.singular_values(m)), args.output)
    return EXIT_OK


def _load_matrix(path: str) -> np.ndarray:
    entries, _ = read_table(path)
    if entries.size == 0:
        raise ValueError(f"no matrix rows in {path}")
    if entries.shape[0] != entries.shape[1]:
        raise ValueError(f"matrix in {path} is not square: shape {entries.shape}")
    return entries


def cmd_entropy(args) -> int:
    alpha = parse_alpha(args.alpha)
    family = _self.family_name(alpha)
    grid = parse_ngrid(args.n_grid)
    est = _self.build_example_estimate(alpha, grid, p=args.p, q=args.q)
    # the bracket CSV goes to --output, or to stdout when no fit summary takes it
    if args.output or not args.fit:
        _emit(est.csv_text(), args.output)
    if args.fit:
        sides = ["upper", "predicted"] + (["lower"] if est.lower is not None else [])
        fits = {side: _self.fit_rate(est, args.fit, side).to_dict() for side in sides}
        payload = {
            "alpha": args.alpha,
            "family": family,
            "fits": fits,
            "model": args.fit,
            "params": dataclasses.asdict(alpha),
        }
        _emit(_json_dumps(payload), None)
    return EXIT_OK


def cmd_verify(args) -> int:
    alpha = parse_alpha(args.alpha)
    if args.suite == "identities":
        table = _verify_identities(alpha, args.n_cells)
    elif args.suite == "witness":
        table = _verify_witness(alpha, args.p, args.n_max)
    else:
        table = _verify_maxbound(alpha, args.seed, args.trials)
    _emit(_json_dumps(table), args.output)
    return EXIT_OK


def _identity_pass(coarse: float, fine: float) -> bool:
    """Verdict on an identity's discrepancy at n_cells and 2 * n_cells.

    Contraction under cell doubling certifies a resampling artifact, not an
    identity violation, and so does a pair that has reached IDENTITY_FLOOR;
    the absolute cap 0.05 catches broken identities outright.
    """
    return fine <= 0.05 and (fine <= 0.75 * coarse or max(coarse, fine) <= IDENTITY_FLOOR)


def _verify_identities(alpha: OrderFunction, n_cells: int) -> dict:
    if n_cells > MAX_N_CELLS:
        raise ValueError(f"--n-cells is capped at {MAX_N_CELLS}, got {n_cells}")
    f = parse_f("cos3")
    sg1 = _self.verify_semigroup(alpha, 0.5, f, n_cells)
    sg2 = _self.verify_semigroup(alpha, 0.5, f, 2 * n_cells)
    sc1 = _self.verify_scaling(alpha, 0.5, 2.0, 2.0, f, n_cells)
    sc2 = _self.verify_scaling(alpha, 0.5, 2.0, 2.0, f, 2 * n_cells)
    sg_pass = _identity_pass(sg1, sg2)
    sc_pass = _identity_pass(sc1, sc2)
    return {
        "pass": sg_pass and sc_pass,
        "scaling": {"coarse": sc1, "fine": sc2, "pass": sc_pass},
        "semigroup": {"coarse": sg1, "fine": sg2, "pass": sg_pass},
    }


def _verify_witness(alpha: OrderFunction, p: float, n_max: int) -> dict:
    values = _self.witness_separation(alpha, p, n_max)
    tail = values[-min(10, len(values)) :]
    liminf_positive = bool(np.min(tail) >= 0.5 * np.max(tail) and np.min(tail) > 0.0)
    decays = bool(values[-1] < 0.1 * values[0])
    return {
        "decays": decays,
        "liminf_positive": liminf_positive,
        "values": [float(v) for v in values],
    }


def _verify_maxbound(alpha: OrderFunction, seed: int, trials: int) -> dict:
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    targets = np.linspace(0.0, 1.0, 65)
    bound_factor = 2.0 / K0
    violations = 0
    worst = -math.inf
    for _ in range(trials):
        k = int(rng.integers(3, 12))
        inner = np.sort(rng.uniform(0.05, 0.95, size=k))
        nodes = _sorted_unique(np.concatenate(([0.0], inner, [1.0])))
        values = rng.uniform(0.0, 2.0, size=nodes.size)
        f = GridFunction(nodes, values, "step")
        lhs = rl_values(alpha, f, targets)
        mf = maximal_values(f, targets)
        rhs = bound_factor * targets ** np.asarray(alpha.eval(targets)) * mf + 1e-9
        excess = float(np.max(lhs - rhs))
        worst = max(worst, excess)
        if excess > 0.0:
            violations += 1
    return {
        "pass": violations == 0,
        "seed": seed,
        "trials": trials,
        "violations": violations,
        "worst_excess": worst,
    }


# --------------------------------------------------------------------------
# argument parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varfrac",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(sp, **alpha):
        sp.add_argument(
            "--alpha",
            **alpha,
            help="order spec: const:<a>, ex1:<a0>,<lam>,<gamma>, ex2:..., ex3:..., "
            "ex4:<gamma>, reclog, csv:<path>",
        )
        sp.add_argument("--output", default=None, help="output path (default stdout)")

    sp = sub.add_parser("apply", help="evaluate the integration operator on a function")
    add_common(sp, required=True)
    sp.add_argument("--f", default="one", help="input: one, ramp, cos3, or csv:<path>")
    sp.add_argument("--targets", default="65", help="point count or comma-separated points")
    sp.add_argument("--adjoint", action="store_true", help="apply the right-sided operator")
    sp.set_defaults(func=cmd_apply)

    sp = sub.add_parser("diagnose", help="boundedness and compactness diagnostics")
    add_common(sp, required=True)
    sp.add_argument("--check", required=True, choices=DIAGNOSE_CHECKS)
    sp.add_argument("--p", type=float, default=2.0, help="source exponent for lptolinf")
    sp.set_defaults(func=cmd_diagnose)

    sp = sub.add_parser("spectrum", help="singular values / approximation numbers")
    add_common(sp)
    sp.add_argument("--n", type=int, default=None, help="matrix size (or N_disc with --fit)")
    sp.add_argument("--r", type=float, default=1.0, help="right endpoint of the interval")
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--q", type=float, default=2.0)
    sp.add_argument("--fit", action="store_true", help="fit the approximation-number decay")
    sp.add_argument("--n-max", type=int, default=64, help="number of approximation numbers")
    sp.add_argument("--fit-lo", type=int, default=8, help="first index of the fit window")
    sp.add_argument("--fit-hi", type=int, default=64, help="last index of the fit window")
    sp.add_argument("--matrix", default=None, help="CSV matrix file: report its spectrum")
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("entropy", help="entropy-number brackets for the worked families")
    add_common(sp, required=True)
    sp.add_argument("--n-grid", default="2^6..2^20", help="2^a..2^b or comma-separated ints")
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--q", type=float, default=2.0)
    sp.add_argument(
        "--fit",
        default=None,
        choices=("power", "power_log", "power_loglog"),
        help="also fit the bracket columns and print the fit JSON",
    )
    sp.set_defaults(func=cmd_entropy)

    sp = sub.add_parser("verify", help="identity, witness, and maximal-bound suites")
    add_common(sp, default="const:0.5")
    sp.add_argument("--suite", required=True, choices=VERIFY_SUITES)
    sp.add_argument(
        "--n-cells", type=int, default=512,
        help=f"coarse cell count (identities), 2 to {MAX_N_CELLS}",
    )
    sp.add_argument("--p", type=float, default=2.0, help="witness exponent")
    sp.add_argument("--n-max", type=int, default=20, help="witness count")
    sp.add_argument("--seed", type=int, default=0, help="RNG seed (maxbound)")
    sp.add_argument("--trials", type=int, default=100, help="trial count (maxbound)")
    sp.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        p, q = getattr(args, "p", 2.0), getattr(args, "q", 2.0)
        # written so that a NaN exponent fails the check too
        if not (p >= 1.0 and q >= 1.0):
            raise ValueError(f"exponents must satisfy p, q >= 1, got p={p}, q={q}")
        if getattr(args, "seed", 0) < 0:
            raise ValueError(f"seed must be nonnegative, got {args.seed}")
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"varfrac: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"varfrac: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
