"""varfrac benchmark: three closed-loop workloads, job costs in calibration units.

Usage (from the repository root):

    python3 perfbench/run.py --workload {operator,spectral,cli} --seed N \
        --seconds S --trace {0,1}

One client runs jobs back to back, with no extra threads, for S seconds of
job loop, always in whole rounds of the workload's job kinds.  Every job is
bracketed by the calibration kernel (calibrate.py); its cost in cu is its
wall time over the mean of the two kernel times, which cancels the host's
speed phases.  The process and its children are pinned to one CPU, and BLAS
to one thread.

setup_s is the median set-up of three fresh benchmark processes, from spawn
to ready, converted from cu to seconds at a fixed kernel time of 3 ms; the
raw seconds are printed beside it.

--trace 0 prints the end-to-end metrics.  --trace 1 runs S/2 seconds
untraced, then a fixed number of rounds with spans around each layer, and
prints the per-layer metrics; spans and counts go to
.perfbench_work/trace-<workload>-seed<N>.json.  The last stdout line is the
result JSON; the line before it holds raw seconds and the machine block.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:  # before numpy loads; child processes inherit it
    os.environ[_var] = BLAS_THREADS
# one CPU for this process and its children, so the calibration kernel and
# the job it brackets run on the same vCPU, whose speed drifts on its own
PINNED_CPU = max(os.sched_getaffinity(0))
os.sched_setaffinity(0, {PINNED_CPU})

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"

SETUP_PROBES = 3  # fresh processes timed from spawn to ready; setup_s is their median
# setup_s is reported in seconds at this calibration-kernel time, so that a
# slow or fast host phase during one set of runs cannot move it
REFERENCE_KERNEL_S = 0.003
MIN_JOBS = 20  # job_tail_cu needs ten samples beyond it
TRACED_ROUNDS = {"operator": 6, "spectral": 6, "cli": 2}

END_TO_END_UNITS = {
    "setup_s": "s",
    "job_p50_cu": "cu",
    "job_tail_cu": "cu",
    "jobs_per_kcu": "1/kcu",
    "pass_frac": "frac",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("operator", "spectral", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup(args):
    """Import, input generation and warm-up: everything before the first timed job."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import varfrac

    import_s = time.perf_counter() - t0
    if not Path(varfrac.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"varfrac imported from {varfrac.__file__}, not from {SRC}")
    import calibrate
    from workloads import WORKLOADS

    WORKDIR.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, WORKDIR, traced=bool(args.trace))
    # in-process workloads warm up on one round; a cli job is a cold process
    # anyway, and one run is enough to write the bytecode caches
    for i in range(1 if args.workload == "cli" else wl.period):
        wl.job(wl.inputs(i))
    import_cal_s = statistics.median(calibrate.measure() for _ in range(5))
    return wl, import_s, import_cal_s


def run_rounds(wl, seconds=None, rounds=None, tracer=None, between_rounds=None):
    """Closed loop in whole rounds, until `rounds` rounds or `seconds` of loop time."""
    import calibrate

    records, busy, i = [], 0.0, 0
    while True:
        t_round = time.perf_counter()
        for _ in range(wl.period):
            inp = wl.inputs(i)
            if tracer is not None:
                tracer.job = i
            c0 = calibrate.measure()
            t0 = time.perf_counter()
            try:
                out, error = wl.job(inp), None
            except Exception as exc:  # a failed job is counted, not fatal
                out, error = None, repr(exc)
            wall = time.perf_counter() - t0
            c1 = calibrate.measure()
            ok = False
            if error is None:
                try:
                    ok = wl.check(inp, out)
                except Exception as exc:  # an unparsable output fails its check
                    error = repr(exc)
            records.append(
                {
                    "job": i,
                    "kind": i % wl.period,
                    "wall_s": wall,
                    "cal_s": (c0 + c1) / 2.0,
                    "ok": bool(ok),
                    "known_defect": wl.known_defect(i),
                    "error": error,
                }
            )
            i += 1
        busy += time.perf_counter() - t_round
        if between_rounds is not None:
            between_rounds(busy)
        if rounds is not None and i >= rounds * wl.period:
            return records
        if seconds is not None and busy >= seconds and len(records) >= MIN_JOBS:
            return records


def probe_setup(args) -> tuple[float, float]:
    """Seconds from spawning a fresh benchmark process to it being ready to time
    a job, and the same in cu, bracketed by the calibration kernel like a job."""
    import calibrate

    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe"]
    cmd += ["--workload", args.workload, "--seed", str(args.seed)]
    c0 = calibrate.measure()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
    with proc.stdout:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.wait() != 0 or line.strip() != b"ready":
        raise RuntimeError(f"setup probe failed: exit {proc.returncode}")
    c1 = calibrate.measure()
    return elapsed, elapsed / ((c0 + c1) / 2.0)


def costs(records):
    return [r["wall_s"] / r["cal_s"] for r in records]


def tail(values):
    """Value at the highest percentile with at least ten samples beyond it."""
    return sorted(values)[len(values) - 11]


def end_to_end(args, wl):
    probes = []
    every = args.seconds / SETUP_PROBES

    def between_rounds(busy):
        # spread the probes over the run so they sample different host phases
        if len(probes) < SETUP_PROBES and busy >= every * (len(probes) + 0.5):
            probes.append(probe_setup(args))

    records = run_rounds(wl, seconds=args.seconds, between_rounds=between_rounds)
    while len(probes) < SETUP_PROBES:
        probes.append(probe_setup(args))
    cu = costs(records)
    metrics = {
        "setup_s": statistics.median(c for _, c in probes) * REFERENCE_KERNEL_S,
        "job_p50_cu": statistics.median(cu),
        "job_tail_cu": tail(cu),
        "jobs_per_kcu": 1000.0 * len(cu) / sum(cu),
        "pass_frac": sum(r["ok"] for r in records) / len(records),
        "peak_rss_mb": wl.peak_rss_mb(),
    }
    raw = {"setup_probe_s": [p for p, _ in probes], "setup_probe_cu": [c for _, c in probes]}
    return records, {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, raw


def per_layer(args, wl, import_s, import_cal_s):
    from tracing import Tracer

    base = run_rounds(wl, seconds=args.seconds / 2.0)
    tracer = Tracer()
    wl.instrument(tracer)
    try:
        records = run_rounds(wl, rounds=TRACED_ROUNDS[args.workload], tracer=tracer)
    finally:
        tracer.restore()
    cal = {r["job"]: r["cal_s"] for r in records}
    layer = Counter()
    for span, own in zip(tracer.spans, tracer.self_seconds()):
        name = span[0]
        if name.startswith(("diagnostics.", "entropy.")):
            name = name.split(".")[0]
        layer[name] += own / cal[span[4]]
    n = len(records)
    counts = tracer.counts
    if args.workload == "cli":
        import_cu = layer["cli.import"] / n
    else:  # the in-process workloads pay the import once, in setup
        import_cu = import_s / import_cal_s
    values = {
        "orders.eval.calls": ("count", counts["orders.eval.calls"]),
        "orders.eval.points": ("count", counts["orders.eval.points"]),
        "orders.eval.self_cu": ("cu", layer["orders.eval"] / n),
        "core.rl_values.calls": ("count", counts["core.rl_values.calls"]),
        "core.rl_values.pairs": ("count", counts["core.rl_values.pairs"]),
        "core.rl_values.self_cu": ("cu", layer["core.rl_values"] / n),
        "core.q_values.calls": ("count", counts["core.q_values.calls"]),
        "core.q_values.self_cu": ("cu", layer["core.q_values"] / n),
        "core.maximal_values.calls": ("count", counts["core.maximal_values.calls"]),
        "core.maximal_values.self_cu": ("cu", layer["core.maximal_values"] / n),
        "core.cumulative_at.calls": ("count", counts["core.cumulative_at.calls"]),
        "spectral.assemble_matrix.calls": ("count", counts["spectral.assemble_matrix.calls"]),
        "spectral.assemble_matrix.entries": ("count", counts["spectral.assemble_matrix.entries"]),
        "spectral.assemble_matrix.self_cu": ("cu", layer["spectral.assemble_matrix"] / n),
        "spectral.singular_values.calls": ("count", counts["spectral.singular_values.calls"]),
        "spectral.singular_values.self_cu": ("cu", layer["spectral.singular_values"] / n),
        "spectral.singular_values.flops_computed": (
            "flop",
            counts["spectral.singular_values.flops_computed"],
        ),
        "spectral.approximation_numbers.self_cu": (
            "cu",
            layer["spectral.approximation_numbers"] / n,
        ),
        "cli.import_cu": ("cu", import_cu),
        "cli.main_cu": ("cu", layer["cli.main"] / n),
        "cli.spawn_cu": ("cu", layer["cli.job"] / n),
        "cli.stdout_bytes": ("B", counts["cli.stdout_bytes"]),
        "diagnostics.self_cu": ("cu", layer["diagnostics"] / n),
        "entropy.self_cu": ("cu", layer["entropy"] / n),
        "trace.overhead_frac": (
            "frac",
            statistics.fmean(costs(records)) / statistics.fmean(costs(base)) - 1.0,
        ),
    }
    tracer.dump(WORKDIR / f"trace-{args.workload}-seed{args.seed}.json")
    metrics = {k: {"value": v, "unit": u} for k, (u, v) in values.items()}
    return base + records, metrics, {"traced_jobs": n}


def blas_threads():
    """Thread count OpenBLAS reports, read from the library numpy loaded."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine(records):
    import platform
    from importlib.metadata import version

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "cores": os.cpu_count(),
        "pinned_cpu": PINNED_CPU,
        "cpu": cpu,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "blas_threads_env": {v: os.environ[v] for v in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
        "calibration_p50_s": statistics.median(r["cal_s"] for r in records),
    }


def raw_seconds(records):
    walls = [r["wall_s"] for r in records]
    cu = costs(records)
    kinds = {}
    for r, c in zip(records, cu):
        kinds.setdefault(r["kind"], []).append(c)
    return {
        "jobs": len(records),
        "job_p50_s": statistics.median(walls),
        "job_tail_s": tail(walls),
        "tail_percentile": 100.0 * (len(records) - 10) / len(records),
        "calibration_p50_s": statistics.median(r["cal_s"] for r in records),
        "kind_p50_cu": {str(k): statistics.median(v) for k, v in sorted(kinds.items())},
        "errors": sorted({r["error"] for r in records if r["error"]}),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "varfrac" / "__init__.py").is_file():
        print(f"perfbench: no varfrac sources at {SRC}", file=sys.stderr)
        return 2
    wl, import_s, import_cal_s = setup(args)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    setup_main_s = time.perf_counter() - T_START
    if args.trace:
        records, metrics, raw = per_layer(args, wl, import_s, import_cal_s)
    else:
        records, metrics, raw = end_to_end(args, wl)
    raw.update(raw_seconds(records), setup_main_s=setup_main_s, import_s=import_s)
    failed = sum(not r["ok"] for r in records)
    result = {
        # a job listed as a known defect still counts in failed and pass_frac
        "correct": all(r["ok"] or r["known_defect"] for r in records),
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }
    side = {"raw": raw, "machine": machine(records)}
    with open(WORKDIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({**result, **side, "records": records}, fh, indent=1)
    print(json.dumps(side))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
