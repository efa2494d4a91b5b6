"""The benchmark's three workloads, each driven as one closed loop.

A workload hands out the inputs of job i (``inputs``, untimed), runs the job
(``job``, timed) and checks its output against the benchmark's own reference
(``check``, untimed).  Jobs cycle through ``period`` kinds, and the loop in
``run.py`` always finishes whole rounds, so every run has the same job mix.
The program is called through its module attributes, where the traced run
puts its wrappers.
"""

from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
from varfrac import core, spectral
from varfrac import orders as vo

import oracles

HERE = Path(__file__).resolve().parent


def _close(got, want, rtol: float, atol: float = 0.0) -> bool:
    got, want = np.asarray(got, float), np.asarray(want, float)
    return got.shape == want.shape and bool(np.allclose(got, want, rtol=rtol, atol=atol))


def instrument(tracer) -> None:
    """Wrap the in-process layers: order evaluation, product integration, spectral."""
    points = lambda self, t: {"points": int(np.size(t))}  # noqa: E731
    tracer.wrap(vo.OrderFunction, "eval", "orders.eval", points)
    tracer.wrap(vo.OrderFunction, "__call__", "orders.eval", points)
    tracer.wrap(
        core,
        "rl_values",
        "core.rl_values",
        lambda alpha, f, targets, cfg=None: {"pairs": int(np.size(targets)) * f.nodes.size},
    )
    tracer.wrap(core, "q_values", "core.q_values")
    tracer.wrap(core, "maximal_values", "core.maximal_values")
    tracer.wrap(core.GridFunction, "cumulative_at", "core.cumulative_at", span=False)
    tracer.wrap(spectral, "approximation_numbers", "spectral.approximation_numbers")
    tracer.wrap(
        spectral,
        "assemble_matrix",
        "spectral.assemble_matrix",
        lambda alpha, n, *a, **k: {"entries": n * (n + 1) // 2},
    )
    # values-only dense SVD: Householder bidiagonalization, 8/3 n^3 flops
    tracer.wrap(
        spectral,
        "singular_values",
        "spectral.singular_values",
        lambda m: {"flops_computed": 8 * m.n**3 // 3},
    )


class Operator:
    """Core product integration on seeded inputs, one job per order profile.

    Each job runs rl_values and q_values on a 257-node linear GridFunction at
    257 targets, then rl_values and maximal_values on a step function drawn
    like a `verify --suite maxbound` trial, at 65 targets.
    """

    name = "operator"
    ORDERS = (
        (vo.Constant(0.5), oracles.constant(0.5)),
        (vo.PowerOffset(0.5, 1.0, 2.0), oracles.power_offset(0.5, 1.0, 2.0)),
        (vo.LogPowerOffset(0.3, 0.5, 1.0), oracles.log_power_offset(0.3, 0.5, 1.0)),
        (vo.ReciprocalLog(), oracles.reciprocal_log()),
        (vo.ExpOffset(0.5, 1.0, 1.0), oracles.exp_offset(0.5, 1.0, 1.0)),
    )
    period = len(ORDERS)
    NODES = np.linspace(0.0, 1.0, 257)
    TARGETS = np.linspace(0.0, 1.0, 257)
    STEP_TARGETS = np.linspace(0.0, 1.0, 65)

    def __init__(self, seed: int, workdir: Path, traced: bool = False):
        self.seed = seed

    instrument = staticmethod(instrument)

    def inputs(self, i: int):
        rng = np.random.default_rng([self.seed, i])
        alpha, ref = self.ORDERS[i % self.period]
        f = core.GridFunction(self.NODES, 1.0 + np.cumsum(rng.normal(size=257)) / 16.0)
        k = int(rng.integers(3, 12))
        inner = np.sort(rng.uniform(0.05, 0.95, size=k))
        nodes = np.unique(np.concatenate(([0.0], inner, [1.0])))
        g = core.GridFunction(nodes, rng.uniform(0.0, 2.0, size=nodes.size), "step")
        # Q needs alpha(t) > 0; at t = 0 an order with alpha(0) = 0 raises
        # NumericalError, which is the documented result for that input
        q_targets = self.TARGETS if ref(0.0) > 0.0 else self.TARGETS[1:]
        return alpha, ref, f, g, q_targets

    def job(self, inp):
        alpha, _, f, g, q_targets = inp
        return (
            core.rl_values(alpha, f, self.TARGETS),
            core.q_values(alpha, f, q_targets),
            core.rl_values(alpha, g, self.STEP_TARGETS),
            core.maximal_values(g, self.STEP_TARGETS),
        )

    def check(self, inp, out) -> bool:
        _, ref, f, g, q_targets = inp
        rl, q, rl_step, mf = out
        ts, t65 = self.TARGETS, self.STEP_TARGETS
        a65 = ref(t65)
        mf_ref, roundoff = oracles.maximal_step(g.nodes, g.values, t65)
        return (
            _close(rl, oracles.rl_linear(f.nodes, f.values, ts, ref(ts)), 1e-9, 1e-12)
            and _close(
                q, oracles.q_linear(f.nodes, f.values, q_targets, ref(q_targets)), 1e-9, 1e-12
            )
            and _close(rl_step, oracles.rl_step(g.nodes, g.values, t65, a65), 1e-9, 1e-12)
            and bool(np.all(np.abs(mf - mf_ref) <= 1e-12 * mf_ref + roundoff))
            # the maximal-function bound R|f| <= (2/K0) t^a Mf, with f >= 0 here
            and bool(np.all(rl_step <= 2.0 / oracles.K0 * t65**a65 * mf_ref + 1e-9))
        )

    def known_defect(self, i: int) -> bool:
        return False

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Spectral:
    """approximation_numbers(alpha, n_max=16, n_disc=128): two assemblies, two SVDs.

    The inputs are fixed; the seed picks the order that starts the cycle.
    """

    name = "spectral"
    ORDERS = (
        ("const:1", vo.Constant(1.0)),
        ("ex1:0.5,1,2", vo.PowerOffset(0.5, 1.0, 2.0)),
        ("ex2:0.3,0.5,1", vo.LogPowerOffset(0.3, 0.5, 1.0)),
    )
    period = len(ORDERS)
    N_MAX, N_DISC = 16, 128

    def __init__(self, seed: int, workdir: Path, traced: bool = False):
        self.seed = seed
        with open(HERE / "reference.json") as fh:
            self.reference = json.load(fh)["spectral"]
        self.exact = oracles.galerkin_volterra(self.N_DISC)[: self.N_MAX]
        self.volterra = oracles.volterra(self.N_MAX)

    instrument = staticmethod(instrument)

    def inputs(self, i: int):
        return self.ORDERS[(i + self.seed) % self.period]

    def job(self, inp):
        return spectral.approximation_numbers(inp[1], n_max=self.N_MAX, n_disc=self.N_DISC)

    def check(self, inp, report) -> bool:
        label = inp[0]
        values = np.asarray(report.values)
        if not (report.n_disc == self.N_DISC and math.isfinite(report.drift)):
            return False
        # `converged` is not required: the variable orders drift 3-6% at this size
        if label == "const:1":
            # exact discrete values, and the Volterra limit the seed meets to 1.2%
            return _close(values, self.exact, 1e-9) and _close(values, self.volterra, 0.02)
        # values stored from the first benchmarked commit; 1e-4 leaves room for
        # the planned breakpoint-aware quadrature, which moves them by ~1e-6
        return _close(values, self.reference[label], 1e-4)

    def known_defect(self, i: int) -> bool:
        return False

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _csv_rows(text: str, header: str) -> np.ndarray:
    lines = text.strip().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"expected header {header!r}")
    return np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


def _fmt(points) -> str:
    return ",".join(repr(float(p)) for p in points)


class Cli:
    """One cold `python -m varfrac.cli` subprocess per job, README-style commands.

    The seed draws the apply targets and the two CSV input files.  Outputs
    are parsed and checked by value, never by bytes.  The step-file job fails
    while the CLI reads CSV input as linear (a known defect); it is counted
    in pass_frac and listed by ``known_defect``.
    """

    name = "cli"

    def __init__(self, seed: int, workdir: Path, traced: bool = False):
        rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.tracer = None
        src = str(HERE.parent / "src")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )
        entry = [str(HERE / "cli_child.py")] if traced else ["-m", "varfrac.cli"]
        self.prefix = [sys.executable, *entry]
        self.peak_kb = 0

        two = np.sort(rng.uniform(0.05, 1.0, size=2))
        lin_x = np.linspace(0.0, 1.0, 17)
        lin_y = 1.0 + 0.3 * rng.normal(size=17)
        lin_t = np.sort(rng.uniform(0.05, 1.0, size=4))
        inner = np.sort(rng.uniform(0.1, 0.9, size=int(rng.integers(2, 5))))
        step_x = np.concatenate(([0.0], inner, [1.0]))
        step_v = rng.uniform(0.5, 3.0, size=step_x.size)
        step_t = np.sort(rng.uniform(0.05, 1.0, size=3))
        lin_path, step_path = workdir / "lin.csv", workdir / "step.csv"
        core.GridFunction(lin_x, lin_y).to_csv(lin_path)
        core.GridFunction(step_x, step_v, "step").to_csv(step_path)
        cos3_x = np.linspace(0.0, 1.0, 257)
        with open(HERE / "reference.json") as fh:
            entropy_ref = np.array(json.load(fh)["cli_entropy"])

        def apply(points, expected):
            def check(out):
                rows = _csv_rows(out, "t,value")
                return _close(rows[:, 0], points, 0.0) and _close(rows[:, 1], expected, 1e-9, 1e-12)

            return check

        def unit_value(out):
            # both diagnose commands below have the exact value 1
            report = json.loads(out)["report"]
            return report["divergent"] is False and abs(report["value"] - 1.0) <= 1e-9

        def noncompact(out):
            # t^alpha(t) = e^-1 identically near zero for reclog
            report = json.loads(out)["report"]
            return (
                report["verdict"] == "NonCompact"
                and abs(report["limit_evidence"][-1] - math.exp(-1.0)) <= 1e-12
            )

        def spectrum(out):
            rows = _csv_rows(out, "k,sigma_k")
            return _close(rows[:, 0], np.arange(1, 65), 0.0) and _close(
                rows[:, 1], oracles.galerkin_volterra(64), 1e-9
            )

        def entropy(out):
            rows = _csv_rows(out, "n,lower,upper,predicted")
            return _close(rows, entropy_ref, 1e-6) and bool(np.all(rows[:, 1] <= rows[:, 2]))

        half = oracles.constant(0.5)
        grid = np.linspace(0.0, 1.0, 257)
        self.commands = [
            (
                "apply-2pt",
                ["apply", "--alpha", "const:0.5", "--f", "one", "--targets", _fmt(two)],
                apply(two, two**0.5 / math.gamma(1.5)),
            ),
            (
                "apply-257-adjoint",
                ["apply", "--alpha", "ex1:0.5,1,2", "--f", "cos3", "--targets", "257", "--adjoint"],
                apply(
                    grid,
                    oracles.q_linear(
                        cos3_x, np.cos(3.0 * cos3_x), grid, oracles.power_offset(0.5, 1, 2)(grid)
                    ),
                ),
            ),
            (
                "apply-csv-linear",
                ["apply", "--alpha", "const:0.5", "--f", f"csv:{lin_path}", "--targets", _fmt(lin_t)],
                apply(lin_t, oracles.rl_linear(lin_x, lin_y, lin_t, half(lin_t))),
            ),
            (
                "apply-csv-step",
                ["apply", "--alpha", "const:1", "--f", f"csv:{step_path}", "--targets", _fmt(step_t)],
                apply(step_t, oracles.rl_step(step_x, step_v, step_t, np.ones_like(step_t))),
            ),
            (
                "diagnose-l1criterion",
                ["diagnose", "--alpha", "const:0.5", "--check", "l1criterion"],
                unit_value,
            ),
            (
                "diagnose-compact-zero",
                ["diagnose", "--alpha", "reclog", "--check", "compact-zero"],
                noncompact,
            ),
            (
                "diagnose-lptolinf",
                ["diagnose", "--alpha", "const:1", "--check", "lptolinf", "--p", "2"],
                unit_value,
            ),
            ("spectrum-64", ["spectrum", "--alpha", "const:1", "--n", "64"], spectrum),
            (
                "entropy",
                ["entropy", "--alpha", "ex1:0.5,1,1", "--n-grid", "2^6..2^12"],
                entropy,
            ),
        ]
        self.period = len(self.commands)

    def instrument(self, tracer) -> None:
        self.tracer = tracer

    def inputs(self, i: int):
        return self.commands[i % self.period]

    def job(self, inp):
        root = self.tracer.begin("cli.job") if self.tracer else None
        with open(self.workdir / "stderr.txt", "w+b") as err:
            proc = subprocess.Popen(
                self.prefix + inp[1],
                stdout=subprocess.PIPE,
                stderr=err,
                env=self.env,
                cwd=self.workdir,
            )
            with proc.stdout:
                out = proc.stdout.read()
            # wait4, not wait: its rusage is this child's own peak RSS
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            if root is not None:
                self.tracer.end(root)
            err.seek(0)
            errtext = err.read().decode()
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        if root is not None:
            self._merge_child_spans(root, errtext, len(out))
        return proc.returncode, out.decode()

    def _merge_child_spans(self, root: int, errtext: str, stdout_bytes: int) -> None:
        self.tracer.counts["cli.stdout_bytes"] += stdout_bytes
        child = json.loads(errtext.strip().splitlines()[-1])
        self.tracer.counts.update(child["counts"])
        base = len(self.tracer.spans)
        for name, start, end, parent, _ in child["spans"]:
            self.tracer.add(name, start, end, root if parent is None else base + parent)

    def check(self, inp, out) -> bool:
        rc, text = out
        return rc == 0 and bool(inp[2](text))

    def known_defect(self, i: int) -> bool:
        # ROADMAP known defect 2: the CLI's CSV reader drops `interpretation=step`
        return self.commands[i % self.period][0] == "apply-csv-step"

    def peak_rss_mb(self) -> float:
        return self.peak_kb / 1024.0


WORKLOADS = {w.name: w for w in (Operator, Spectral, Cli)}
