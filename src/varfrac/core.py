"""Product-integration core for the variable-order fractional integral.

Implements (R f)(t) = (1/Gamma(a(t))) * int_0^t (t-s)^(a(t)-1) f(s) ds and
the right-sided companion (Q f)(t) over [t, r] by product integration: f is
replaced by its declared interpolant and the weakly singular kernel is
integrated exactly on every cell of f's own nodes through closed-form
moments, so the result is exact up to roundoff for piecewise-linear and
piecewise-constant inputs.  Both operators run as one sweep over a block of
targets against all nodes: the kernel distance to every (target, node) edge
is raised to the power a(t) once, and each cell's moment is the difference
of its two edges.

Also provides the gamma function together with its global minimum K0, exact
L_p norms of grid functions, the Hardy-Littlewood maximal function evaluated
over its critical radii, a first-difference Besov norm, and the
cell-averaging projection onto piecewise constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from ._csvio import atomic_write_text, read_table
from .orders import OrderFunction

__all__ = [
    "NumericalError",
    "GAMMA_MIN_LOCATION",
    "K0",
    "gamma",
    "GridFunction",
    "rl_values",
    "rl_apply",
    "q_values",
    "q_apply",
    "lp_norm",
    "maximal_values",
    "maximal_function",
    "besov_norm",
    "project_average",
]


class NumericalError(ArithmeticError):
    """A computation failed numerically (nonpositive order, bad quadrature, ...)."""


#: argmin of the gamma function on (0, inf)
GAMMA_MIN_LOCATION = 1.4616321449683623

#: global minimum of the gamma function on (0, inf), ~0.8856031944
K0 = math.gamma(GAMMA_MIN_LOCATION)

# Gamma(x) exceeds the largest double just above this argument, where
# math.gamma raises OverflowError; larger arguments give inf instead
_GAMMA_MAX = 171.624376956302


def gamma(x):
    """Gamma function for strictly positive arguments (scalar or array).

    math.gamma is mapped over the elements; arguments past the double range
    (above 171.624...) give inf.
    """
    arr = np.asarray(x, dtype=float)
    if arr.size and np.min(arr) <= 0.0:
        raise ValueError("gamma requires strictly positive arguments")
    args = np.minimum(arr, _GAMMA_MAX).ravel().tolist()
    out = np.fromiter(map(math.gamma, args), float, arr.size).reshape(arr.shape)
    out[arr > _GAMMA_MAX] = math.inf
    if arr.ndim == 0:
        return float(out)
    return out


_GAUSS_X16, _GAUSS_W16 = leggauss(16)


def _gauss_panels(edges, x, w):
    """Nodes and weights of the rule (x, w) on [-1, 1] mapped onto every
    panel of a sorted edge array, as (panels x points) arrays."""
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    return mid[:, None] + half[:, None] * x, half[:, None] * w


@dataclass(frozen=True, eq=False)
class GridFunction:
    """A function on an interval, stored as nodes/values with an interpretation.

    interpretation "linear" is the continuous piecewise-linear interpolant;
    "step" is piecewise constant taking the value of the LEFT node on each
    cell (right-continuous; the final node's value closes the last cell).
    Calling the object evaluates the interpolant with zero extension outside
    [nodes[0], nodes[-1]].  Instances are immutable.
    """

    nodes: np.ndarray
    values: np.ndarray
    interpretation: str = "linear"

    def __post_init__(self):
        nodes = np.array(self.nodes, dtype=float)
        values = np.array(self.values, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("need at least two nodes")
        if values.shape != nodes.shape:
            raise ValueError("values must match nodes in shape")
        # both node checks are written so that a NaN node fails them
        if not np.all(np.diff(nodes) > 0.0):
            raise ValueError("nodes must be strictly increasing")
        if not (nodes[0] >= -1e-12 and nodes[-1] <= 1.0 + 1e-12):
            raise ValueError("nodes must lie within [0, 1]")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        if self.interpretation not in ("linear", "step"):
            raise ValueError(
                f"interpretation must be 'linear' or 'step', got {self.interpretation!r}"
            )
        nodes.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_cum", None)

    # -- basic queries ---------------------------------------------------

    @property
    def domain(self) -> tuple[float, float]:
        return (float(self.nodes[0]), float(self.nodes[-1]))

    def __call__(self, t):
        """Interpolant value, zero outside the domain (scalar in, float out)."""
        arr = np.asarray(t, dtype=float)
        a, b = self.nodes[0], self.nodes[-1]
        inside = (arr >= a) & (arr <= b)
        if self.interpretation == "linear":
            out = np.where(inside, np.interp(arr, self.nodes, self.values), 0.0)
        else:
            idx = np.clip(
                np.searchsorted(self.nodes, arr, side="right") - 1,
                0,
                len(self.nodes) - 2,
            )
            out = np.where(inside, self.values[idx], 0.0)
        if arr.ndim == 0:
            return float(out)
        return out

    def one_sided_limits(self, t):
        """(f(t-), f(t+)) of the zero-extended interpolant.

        Scalar t gives a pair of floats, an array gives a pair of arrays.
        """
        arr = np.asarray(t, dtype=float)
        a, b = self.domain
        here = self(arr)
        right = np.where((arr >= a) & (arr < b), here, 0.0)
        if self.interpretation == "step":
            idx = np.searchsorted(self.nodes, arr, side="left") - 1
            here = self.values[np.maximum(idx, 0)]
        left = np.where((arr > a) & (arr <= b), here, 0.0)
        if arr.ndim == 0:
            return (float(left), float(right))
        return (left, right)

    # -- integration -----------------------------------------------------

    def _cumulative_nodes(self) -> np.ndarray:
        cum = object.__getattribute__(self, "_cum")
        if cum is None:
            h = np.diff(self.nodes)
            if self.interpretation == "linear":
                cells = h * (self.values[:-1] + self.values[1:]) / 2.0
            else:
                cells = h * self.values[:-1]
            cum = np.concatenate(([0.0], np.cumsum(cells)))
            object.__setattr__(self, "_cum", cum)
        return cum

    def cumulative_at(self, x):
        """Exact int_{-inf}^x of the (zero-extended) interpolant."""
        cum = self._cumulative_nodes()
        arr = np.asarray(x, dtype=float)
        clipped = np.clip(arr, self.nodes[0], self.nodes[-1])
        idx = np.clip(
            np.searchsorted(self.nodes, clipped, side="right") - 1,
            0,
            len(self.nodes) - 2,
        )
        dx = clipped - self.nodes[idx]
        v0 = self.values[idx]
        if self.interpretation == "linear":
            h = self.nodes[idx + 1] - self.nodes[idx]
            vx = v0 + (self.values[idx + 1] - v0) * dx / h
            out = cum[idx] + dx * (v0 + vx) / 2.0
        else:
            out = cum[idx] + v0 * dx
        if arr.ndim == 0:
            return float(out)
        return out

    def integrate(self, a: float | None = None, b: float | None = None) -> float:
        """Exact integral of the interpolant over [a, b] (default: full domain)."""
        lo, hi = self.domain
        a = lo if a is None else a
        b = hi if b is None else b
        if a > b:
            raise ValueError(f"need a <= b, got [{a}, {b}]")
        return float(self.cumulative_at(b) - self.cumulative_at(a))

    # -- algebra (same interpretation and domain) -------------------------

    def __abs__(self) -> "GridFunction":
        if self.interpretation == "step":
            return GridFunction(self.nodes, np.abs(self.values), "step")
        v = self.values
        cross = np.nonzero(v[:-1] * v[1:] < 0.0)[0]
        roots = self.nodes[cross] + (self.nodes[cross + 1] - self.nodes[cross]) * (
            v[cross] / (v[cross] - v[cross + 1])
        )
        nodes = np.unique(np.concatenate((self.nodes, roots)))
        return GridFunction(nodes, np.abs(self(nodes)), "linear")

    def _combine(self, other: "GridFunction", sign: float) -> "GridFunction":
        if not isinstance(other, GridFunction):
            return NotImplemented
        if other.interpretation != self.interpretation:
            raise ValueError("cannot combine different interpretations")
        if other.domain != self.domain:
            raise ValueError("cannot combine different domains")
        nodes = np.unique(np.concatenate((self.nodes, other.nodes)))
        return GridFunction(
            nodes, self(nodes) + sign * other(nodes), self.interpretation
        )

    def __add__(self, other):
        return self._combine(other, 1.0)

    def __sub__(self, other):
        return self._combine(other, -1.0)

    def __mul__(self, c):
        if not np.isscalar(c):
            return NotImplemented
        return GridFunction(self.nodes, float(c) * self.values, self.interpretation)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    # -- construction and serialization -----------------------------------

    def to_csv(self, path) -> None:
        """Write `# interpretation=...`, a header row, then node,value rows (LF)."""
        lines = [f"# interpretation={self.interpretation}", "node,value"]
        # builtin-float repr round-trips exactly; numpy scalar repr does not parse
        lines.extend(
            f"{float(x)!r},{float(v)!r}" for x, v in zip(self.nodes, self.values)
        )
        atomic_write_text(path, "\n".join(lines) + "\n")

    @classmethod
    def from_csv(cls, path) -> "GridFunction":
        """Read node,value rows; inverse of to_csv.

        `# interpretation=<name>` sets the interpretation (default linear);
        header rows before the first data row are skipped.
        """
        table, directives = read_table(path, columns=2)
        return cls(table[:, 0], table[:, 1], directives.get("interpretation", "linear"))


# -- the fractional integral ----------------------------------------------

#: targets per (targets x nodes) sweep; bounds the size of its temporaries
_BLOCK = 48


def _blocks(n: int):
    """Slices covering range(n) in runs of _BLOCK."""
    return (slice(lo, lo + _BLOCK) for lo in range(0, n, _BLOCK))


def _checked_targets(targets, hi: float) -> np.ndarray:
    ts = np.atleast_1d(np.asarray(targets, dtype=float))
    if ts.size == 0:
        raise ValueError("empty targets")
    # written so that a NaN target fails the check too
    if not (np.min(ts) >= -1e-12 and np.max(ts) <= hi + 1e-12):
        raise ValueError(f"targets must lie within [0, {hi:g}]")
    return np.clip(ts, 0.0, hi)


def _product_integral(
    alpha: OrderFunction, f: GridFunction, ts: np.ndarray, live: np.ndarray, right: bool
) -> np.ndarray:
    """Exact kernel integral of f's interpolant at the targets ts[live].

    Shared by R (right=False, kernel distance (t - s)_+) and Q (right=True,
    (s - t)_+).  The nodes are ordered from the far end of the kernel to the
    near end, mirrored for Q, so edge k is the far edge of cell k.  With
    d = the kernel distance at an edge, d^a is taken once per (target, edge)
    and cell k has the moments M0 = (d_k^a - d_{k+1}^a)/a and
    M1 = (d_k^(a+1) - d_{k+1}^(a+1))/(a+1).  A linear cell is written from
    its far edge, f = y_k + slope_k * (d_k - dist), so its integral is
    y_k*M0 + slope_k*(d_k*M0 - M1); a step cell has its constant in place of
    y_k and no slope term.  Cells beyond t have d = 0 at both edges and drop
    out; targets outside `live` (empty range) give 0.
    """
    out = np.zeros(ts.size)
    idx = np.flatnonzero(live)
    if idx.size == 0:
        return out
    a = np.asarray(alpha.eval(ts[idx]), dtype=float)
    bad = np.flatnonzero(a <= 0.0)
    if bad.size:
        k = bad[0]
        raise NumericalError(f"order is nonpositive at target t={ts[idx[k]]}: alpha={a[k]}")
    x, y, sign = f.nodes, f.values, 1.0
    if right:
        x, y, sign = x[::-1], y[::-1], -1.0
    if f.interpretation == "linear":
        level, slope = y[:-1], np.diff(y) / np.abs(np.diff(x))
    else:
        # a step cell holds its left node's value: the far edge for R, the near one for Q
        level, slope = (y[1:] if right else y[:-1]), np.zeros(x.size - 1)
    sloped = bool(np.any(slope))
    norm = gamma(a)
    for blk in _blocks(idx.size):
        ab = a[blk, None]
        d = np.maximum(sign * (ts[idx[blk], None] - x), 0.0)
        p = d**ab
        m0 = (p[:, :-1] - p[:, 1:]) / ab
        val = m0 @ level
        if sloped:
            p *= d
            m1 = (p[:, :-1] - p[:, 1:]) / (ab + 1.0)
            val += (d[:, :-1] * m0 - m1) @ slope
        out[idx[blk]] = val / norm[blk]
    return out


def rl_values(alpha: OrderFunction, f: GridFunction, targets) -> np.ndarray:
    """(R f)(t) at each target t, exact for the declared interpolant of f.

    The target t = 0 returns 0 (integral over an empty interval).  Raises
    NumericalError naming the first positive target where alpha(t) <= 0.
    """
    ts = _checked_targets(targets, 1.0)
    return _product_integral(alpha, f, ts, ts > 0.0, right=False)


def rl_apply(alpha: OrderFunction, f: GridFunction, targets) -> GridFunction:
    """rl_values packaged as a piecewise-linear GridFunction on the targets."""
    ts = np.asarray(targets, dtype=float)
    return GridFunction(ts, rl_values(alpha, f, ts), "linear")


def q_values(alpha: OrderFunction, f: GridFunction, targets) -> np.ndarray:
    """(Q f)(t) = (1/Gamma(a(t))) int_t^r (s-t)^(a(t)-1) f(s) ds, r = right end of f.

    The target t = r returns 0.  Raises NumericalError naming the first
    target t < r where alpha(t) <= 0.
    """
    r = f.domain[1]
    ts = _checked_targets(targets, r)
    return _product_integral(alpha, f, ts, ts < r, right=True)


def q_apply(alpha: OrderFunction, f: GridFunction, targets) -> GridFunction:
    ts = np.asarray(targets, dtype=float)
    return GridFunction(ts, q_values(alpha, f, ts), "linear")


# -- norms ------------------------------------------------------------------


def lp_norm(f: GridFunction, p) -> float:
    """L_p norm of the interpolant over its domain.

    Exact for p in {1, 2, inf} (both interpretations) and for every p on step
    functions; composite 16-point Gauss per linear cell otherwise.
    """
    if p != np.inf and p < 1.0:
        raise ValueError(f"need p >= 1, got {p}")
    if p == np.inf:
        # essential sup: the closing value of a step function lives on a null set
        if f.interpretation == "step":
            return float(np.max(np.abs(f.values[:-1])))
        return float(np.max(np.abs(f.values)))
    h = np.diff(f.nodes)
    if f.interpretation == "step":
        return float(np.dot(h, np.abs(f.values[:-1]) ** p) ** (1.0 / p))
    if p == 1.0:
        return abs(f).integrate()
    v0, v1 = f.values[:-1], f.values[1:]
    if p == 2.0:
        return float(np.sqrt(np.dot(h, (v0 * v0 + v0 * v1 + v1 * v1) / 3.0)))
    g = abs(f)
    x, w = _gauss_panels(g.nodes, _GAUSS_X16, _GAUSS_W16)
    vals = np.interp(x, g.nodes, g.values)
    return float(np.sum(w * vals**p) ** (1.0 / p))


# -- maximal function ---------------------------------------------------------


def _window_mass(g: GridFunction, t, r):
    """int_{t-r}^{t+r} g, elementwise over broadcast t and r, in one cumulative_at call."""
    ends = g.cumulative_at(np.stack((t + r, t - r)))
    return ends[0] - ends[1]


def maximal_values(f: GridFunction, targets) -> np.ndarray:
    """Hardy-Littlewood maximal function sup_{r>0} (1/2r) int_{t-r}^{t+r} |f|.

    |f| is extended by zero outside its domain.  The supremum is taken over
    the exact critical radii: every radius at which a window endpoint crosses
    a node, the stationary radii of the per-piece quadratic window mass, and
    the r -> 0 limit (the mean of the one-sided limits of |f|).  This is
    exact for piecewise-constant f and a certified lower bound otherwise.
    Targets go in blocks; each row of a block holds one target's radii
    |nodes - t|, sorted, so consecutive columns bound the pieces.
    """
    g = abs(f)
    ts = np.atleast_1d(np.asarray(targets, dtype=float))
    if ts.size == 0:
        raise ValueError("empty targets")
    left, right = g.one_sided_limits(ts)
    out = (left + right) / 2.0
    for blk in _blocks(ts.size):
        t = ts[blk, None]
        radii = np.sort(np.abs(g.nodes - t), axis=1)
        mass = _window_mass(g, t, radii)
        avg = np.divide(mass, 2.0 * radii, out=np.full_like(mass, -np.inf), where=radii > 0.0)
        best = np.maximum(out[blk], np.max(avg, axis=1))
        # interior stationary radii: on each piece between consecutive
        # critical radii the window mass N(r) is quadratic, and
        # d/dr [N/2r] = 0 at r = sqrt(c/a) for N = a r^2 + b r + c; a piece
        # of zero length (a repeated radius) or starting at r = 0 has none
        r0, r1 = radii[:, :-1], radii[:, 1:]
        n0, n1 = mass[:, :-1], mass[:, 1:]
        nm = _window_mass(g, t, (r0 + r1) / 2.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            aa = 2.0 * (n0 - 2.0 * nm + n1) / (r1 - r0) ** 2
            bb = (n1 - n0) / (r1 - r0) - aa * (r0 + r1)
            cc = n0 - aa * r0 * r0 - bb * r0
            rstar = np.sqrt(cc / aa)
        ok = (r0 > 0.0) & np.isfinite(rstar) & (rstar > r0) & (rstar < r1)
        rows = np.nonzero(ok)[0]
        if rows.size:
            rs = rstar[ok]
            np.maximum.at(best, rows, _window_mass(g, t[rows, 0], rs) / (2.0 * rs))
        out[blk] = best
    return out


def maximal_function(f: GridFunction, targets) -> GridFunction:
    ts = np.asarray(targets, dtype=float)
    return GridFunction(ts, maximal_values(f, ts), "linear")


# -- Besov norm and averaging projection --------------------------------------


def besov_norm(f: GridFunction, p, smoothness: float, h_grid) -> float:
    """||f||_p + sup_h h^(-smoothness) ||f(.+h) - f(.)||_{L_p[0, 1-h]}.

    The supremum runs over the finite h_grid only, so the result is a lower
    estimate of the Besov norm; acceptance-style checks must use it on the
    <= side of inequalities.  First differences are formed exactly from the
    interpolant.
    """
    if not 0.0 < smoothness < 1.0:
        raise ValueError(f"smoothness index must be in (0, 1), got {smoothness}")
    hs = np.atleast_1d(np.asarray(h_grid, dtype=float))
    lo, hi = f.domain
    span = hi - lo
    if hs.size == 0 or np.min(hs) <= 0.0 or np.max(hs) > span + 1e-12:
        raise ValueError("h_grid must lie inside (0, domain span]")
    best = 0.0
    for h in np.clip(hs, 0.0, span):
        if h == span:
            # the difference domain degenerates to the single point {lo}
            diff = abs(float(f(hi)) - float(f(lo)))
            norm = diff if p == np.inf else 0.0
        else:
            cut = hi - h
            nodes = np.concatenate(
                (f.nodes[f.nodes < cut], f.nodes - h, [lo, cut])
            )
            nodes = np.unique(nodes)
            nodes = nodes[(nodes >= lo) & (nodes <= cut)]
            dvals = f(nodes + h) - f(nodes)
            norm = lp_norm(GridFunction(nodes, dvals, f.interpretation), p)
        best = max(best, norm / h**smoothness)
    return lp_norm(f, p) + best


def project_average(f: GridFunction, n: int) -> GridFunction:
    """Projection onto piecewise constants over n equal cells (exact cell means)."""
    if n < 1:
        raise ValueError(f"need n >= 1 cells, got {n}")
    lo, hi = f.domain
    edges = np.linspace(lo, hi, n + 1)
    cum = f.cumulative_at(edges)
    means = np.diff(cum) / np.diff(edges)
    return GridFunction(edges, np.append(means, means[-1]), "step")
