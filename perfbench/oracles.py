"""Independent reference values for the benchmark's output checks.

Nothing here imports ``varfrac``: the order profiles, the closed forms and
the exact Galerkin matrix are written out again from their definitions, so a
defect in the program cannot hide in its own reference.
"""

from __future__ import annotations

import math

import numpy as np

#: global minimum of the gamma function on (0, inf)
K0 = math.gamma(1.4616321449683623)

_E_INV = math.exp(-1.0)


def _capped_log(t: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.maximum(1.0, np.abs(np.log(t)))


# order profiles alpha(t) on [0, 1], keyed like the CLI specs
def constant(value: float):
    return lambda t: np.full_like(np.asarray(t, dtype=float), value)


def power_offset(a0: float, lam: float, g: float):
    return lambda t: a0 + lam * np.asarray(t, dtype=float) ** g


def log_power_offset(a0: float, lam: float, g: float):
    return lambda t: a0 + lam * _capped_log(np.asarray(t, dtype=float)) ** -g


def reciprocal_log():
    def alpha(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            return np.where(t < _E_INV, 1.0 / _capped_log(t), 1.0)

    return alpha


def exp_offset(a0: float, lam: float, g: float):
    def alpha(t):
        with np.errstate(divide="ignore", over="ignore"):
            return a0 + np.exp(-lam * np.asarray(t, dtype=float) ** -g)

    return alpha


def _gamma(x: np.ndarray) -> np.ndarray:
    return np.array([math.gamma(v) for v in np.ravel(x)]).reshape(np.shape(x))


def rl_linear(x, y, targets, a) -> np.ndarray:
    """Frozen-order R f(t) for the piecewise-linear f through (x, y), x[0] = 0.

    f(s) = y0 + sum_k c_k (s - x_k)_+ on [0, x[-1]], so with a = alpha(t)
    R f(t) = y0 t^a / Gamma(a+1) + sum_k c_k (t - x_k)_+^(a+1) / Gamma(a+2).
    """
    x, y = np.asarray(x, float), np.asarray(y, float)
    ts, a = np.asarray(targets, float), np.asarray(a, float)
    slopes = np.diff(y) / np.diff(x)
    kinks = np.concatenate(([slopes[0]], np.diff(slopes)))
    d = np.clip(ts[:, None] - x[None, :-1], 0.0, None)
    ramps = (d ** (a[:, None] + 1.0)) @ kinks / _gamma(a + 2.0)
    out = y[0] * ts**a / _gamma(a + 1.0) + ramps
    return np.where(ts > 0.0, out, 0.0)


def q_linear(x, y, targets, a) -> np.ndarray:
    """Frozen-order right-sided Q f(t) over [t, 1]: R of the mirrored f at 1 - t."""
    x, y = np.asarray(x, float), np.asarray(y, float)
    return rl_linear(1.0 - x[::-1], y[::-1], 1.0 - np.asarray(targets, float), a)


def rl_step(x, v, targets, a) -> np.ndarray:
    """Frozen-order R f(t) for f = v_j on [x_j, x_{j+1}), zero outside [x_0, x_-1]."""
    x, v = np.asarray(x, float), np.asarray(v, float)
    ts, a = np.asarray(targets, float), np.asarray(a, float)
    lo = np.clip(ts[:, None] - x[None, :-1], 0.0, None) ** a[:, None]
    hi = np.clip(ts[:, None] - x[None, 1:], 0.0, None) ** a[:, None]
    out = (lo - hi) @ v[:-1] / _gamma(a + 1.0)
    return np.where(ts > 0.0, out, 0.0)


def maximal_step(x, v, targets) -> tuple[np.ndarray, np.ndarray]:
    """Exact Hardy-Littlewood maximal function of a step function, and its roundoff.

    Between consecutive critical radii |t - x_k| the window mass is linear in
    r, so mass / 2r is monotone there: the supremum is attained at a critical
    radius or in the r -> 0 limit (|f(t-)| + |f(t+)|) / 2.  Cell overlaps are
    taken in offsets x - t, so a radius shorter than roundoff in t stays exact.

    The second array bounds the roundoff of the usual route, a difference of
    cumulative integrals at t +- r: a few ulps of the total mass over 2 r_min.
    """
    x, w = np.asarray(x, float), np.abs(np.asarray(v, float))
    ts = np.asarray(targets, float)
    u = x[None, :] - ts[:, None]
    r = np.abs(u)
    lo = np.maximum(u[:, None, :-1], -r[:, :, None])
    hi = np.minimum(u[:, None, 1:], r[:, :, None])
    mass = np.clip(hi - lo, 0.0, None) @ w[:-1]
    safe = np.where(r > 0.0, r, np.inf)
    best = np.max(mass / (2.0 * safe), axis=1)
    cells = np.append(w[:-1], 0.0)
    right = np.where(
        (ts >= x[0]) & (ts < x[-1]),
        cells[np.clip(np.searchsorted(x, ts, side="right") - 1, 0, x.size - 1)],
        0.0,
    )
    left = np.where(
        (ts > x[0]) & (ts <= x[-1]),
        cells[np.clip(np.searchsorted(x, ts, side="left") - 1, 0, x.size - 1)],
        0.0,
    )
    total = float(np.diff(x) @ w[:-1])
    roundoff = 16.0 * np.finfo(float).eps * total / (2.0 * np.min(safe, axis=1))
    return np.maximum(best, (left + right) / 2.0), roundoff


def galerkin_volterra(n: int) -> np.ndarray:
    """Singular values of the exact n-cell Galerkin matrix of alpha = 1 on [0, 1].

    In the normalized indicator basis the entries are 1/n below the diagonal
    and 1/(2n) on it.
    """
    m = (np.tril(np.ones((n, n)), -1) + 0.5 * np.eye(n)) / n
    return np.linalg.svd(m, compute_uv=False)


def volterra(k_max: int) -> np.ndarray:
    """Singular values 2 / ((2k - 1) pi) of the Volterra operator on L2[0, 1]."""
    k = np.arange(1, k_max + 1)
    return 2.0 / ((2 * k - 1) * math.pi)
