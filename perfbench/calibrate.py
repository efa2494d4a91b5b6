"""Calibration kernel: the benchmark's fixed unit of machine speed.

The host's vCPU changes speed in phases of several seconds, so a job's raw
wall time cannot repeat from run to run.  Every timed job is bracketed by one
run of ``kernel`` before and one after; the job's cost in calibration units
(cu) is its wall time over the mean of the two kernel times.

The kernel mixes the kinds of work the jobs do: short numpy power and dot
calls in a Python loop (as in product integration), elementwise powers and
exponentials on arrays large enough to be allocated and faulted in on every
call (as in Galerkin assembly), a small dense SVD, and plain interpreter
arithmetic.  Each kind reacts differently to the host's phases; the shares
(about 27/30/7/22/14% of the time, in that order) make the kernel track the
median job of all three workloads, measured over stretches of ten jobs.  It
imports numpy only, never ``varfrac``, so no change to the program can move
it.  Do not edit it: a changed kernel changes the unit, and every cu figure
before the change stops being comparable.
"""

from __future__ import annotations

import time

import numpy as np

_X = np.linspace(1e-3, 1.0, 257)
_T = np.linspace(0.01, 1.0, 200)[:, None]
_U = np.linspace(0.0, 0.5, 128)[None, :]
_A = 0.3 + _T / 2.0
_Y = np.linspace(1e-3, 1.0, 8192)
_M = np.add.outer(np.arange(64.0), np.arange(64.0)) % 7.0 + np.eye(64)


def kernel() -> float:
    """Fixed work of about 3 ms on a 2-core x86 VM; returns a checksum."""
    acc = 0.0
    for i in range(300):
        a = 0.2 + 0.005 * i
        acc += float(np.dot(_X**a, _X)) / a
    for shift in (0.0, 0.1, 0.2, 0.3):
        acc += float(np.sum(np.power(_T + _U + shift, _A)))
    for i in range(12):
        acc += float(np.sum(np.exp(-_Y * (1.0 + i)) * _Y))
    acc += float(np.linalg.svd(_M, compute_uv=False)[0])
    s = 0
    for i in range(9000):
        s += (i * 7) % 13
    return acc + s


def measure() -> float:
    """Seconds taken by one run of the kernel."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
