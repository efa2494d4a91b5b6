"""Product-integration core for the variable-order fractional integral.

Implements (R f)(t) = (1/Gamma(a(t))) * int_0^t (t-s)^(a(t)-1) f(s) ds and
the right-sided companion (Q f)(t) over [t, r] by product integration: f is
replaced by its declared interpolant and the weakly singular kernel is
integrated exactly on every cell of f's own nodes through closed-form
moments, so the result is exact up to roundoff for piecewise-linear and
piecewise-constant inputs.  Both operators run as one sweep over a block of
targets in kernel order against the nodes its kernels reach: the kernel
distance to each such (target, node) edge is raised to the power a(t) once,
and each cell's moment is the difference of its two edges.  The cells past
a block's last target, where all of its kernels vanish, are never formed.

Also provides the gamma function, evaluated over whole arrays by a numpy
port of the Lanczos approximation that CPython's math.gamma uses, together
with its global minimum K0; exact L_p norms of grid functions; the
Hardy-Littlewood maximal function evaluated over its critical radii; a
first-difference Besov norm; the cell-averaging projection onto piecewise
constants; and the CSV reader and writers of the package's files.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass
from functools import cache, cached_property
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    # annotations only: orders builds Tabulated on GridFunction and imports core
    from .orders import OrderFunction

__all__ = [
    "NumericalError",
    "GAMMA_MIN_LOCATION",
    "K0",
    "gamma",
    "GridFunction",
    "rl_values",
    "q_values",
    "lp_norm",
    "maximal_values",
    "besov_norm",
    "project_average",
]


class NumericalError(ArithmeticError):
    """A computation failed numerically (nonpositive order, bad quadrature, ...)."""


#: argmin of the gamma function on (0, inf)
GAMMA_MIN_LOCATION = 1.4616321449683623

#: global minimum of the gamma function on (0, inf), ~0.8856031944
K0 = math.gamma(GAMMA_MIN_LOCATION)

# Gamma(x) exceeds the largest double just above this argument; the kernel
# runs on arguments clamped to it, and larger arguments give inf
_GAMMA_MAX = 171.624376956302

# Lanczos approximation with the constants of CPython's math.gamma
# (m_tgamma in Modules/mathmodule.c): g, and the coefficients of the
# rational sum L_g(x), constant term first.  Each is packed as one complex
# number, numerator + 1j * denominator (the denominator is x (x+1) ... (x+11)),
# so one complex Horner sweep evaluates both polynomials: multiplying by a
# real x + 0j and adding a coefficient act on each part alone and round
# exactly as the two real sweeps would.
_LANCZOS_G = 6.024680040776729583740234375
_LANCZOS_G_MINUS_HALF = 5.524680040776729583740234375
_LANCZOS_COEFFS = tuple(
    np.array(complex(num, den))
    for num, den in zip(
        (
            23531376880.410759688572007674451636754734846804940,
            42919803642.649098768957899047001988850926355848959,
            35711959237.355668049440185451547166705960488635843,
            17921034426.037209699919755754458931112671403265390,
            6039542586.3520280050642916443072979210699388420708,
            1439720407.3117216736632230727949123939715485786772,
            248874557.86205415651146038641322942321632125127801,
            31426415.585400194380614231628318205362874684987640,
            2876370.6289353724412254090516208496135991145378768,
            186056.26539522349504029498971604569928220784236328,
            8071.6720023658162106380029022722506138218516325024,
            210.82427775157934587250973392071336271166969580291,
            2.5066282746310002701649081771338373386264310793408,
        ),
        (
            0.0, 39916800.0, 120543840.0, 150917976.0, 105258076.0, 45995730.0,
            13339535.0, 2637558.0, 357423.0, 32670.0, 1925.0, 66.0, 1.0,
        ),
    )
)
# Gamma(k) = (k-1)! for k = 1..23, every one exact in a double
_GAMMA_INTEGRAL = np.array([float(math.factorial(k)) for k in range(23)])


def _lanczos_sum(x, large):
    """L_g(x) for x > 0 as CPython evaluates it: Horner in x below 5 (large
    false), and from 5 up (large true) Horner in 1/x by division, which
    cannot overflow."""
    if large:
        # complex division by x + 0j would multiply by a reciprocal, so the
        # two parts are divided as reals
        acc = np.empty(x.size, complex)
        acc[...] = _LANCZOS_COEFFS[0]
        num, den = acc.real, acc.imag
        for c in _LANCZOS_COEFFS[1:]:
            num /= x
            den /= x
            acc += c
    else:
        xc = x.astype(complex)
        acc = xc * _LANCZOS_COEFFS[-1]
        acc += _LANCZOS_COEFFS[-2]
        for c in _LANCZOS_COEFFS[-3::-1]:
            acc *= xc
            acc += c
    return acc.real / acc.imag


def gamma(x):
    """Gamma function for strictly positive arguments (scalar or array).

    A numpy port of CPython's math.gamma: the Lanczos sum L_g(x) with g =
    6.0246..., divided by exp(y) and times y^(x-1/2) for y = x + g - 1/2,
    with the rounding error of y corrected to first order; from x = 140 up
    the power is the square of y^(x/2-1/4).  Integers 1..23 give the exact
    factorial and arguments below 1e-20 give 1/x.  The result is within a
    few ulp of math.gamma, and bit-equal where numpy's exp and pow round as
    the C library does.  Arguments past the double range (above
    171.624...) give inf.  Each rarely needed branch runs only when the
    greatest (or least) argument calls for it.
    """
    arr = np.asarray(x, dtype=float)
    if not arr.size:
        return np.empty(arr.shape)
    lo = np.minimum.reduce(arr, axis=None)
    hi = np.maximum.reduce(arr, axis=None)
    # each guard is written so that a NaN argument (which gives NaN) takes
    # its checked branch
    if not lo > 0.0 and np.any(arr <= 0.0):
        raise ValueError("gamma requires strictly positive arguments")
    x = arr.ravel()
    if not hi <= _GAMMA_MAX:
        x = np.minimum(x, _GAMMA_MAX)
    if not lo >= 1e-20:
        tiny = x < 1e-20
        # a placeholder whose sum cannot overflow; 1/x replaces it below
        x = np.where(tiny, 1.0, x)
    if hi < 5.0:
        r = _lanczos_sum(x, False)
    else:
        large = ~(x < 5.0)
        r = np.empty(x.size)
        r[~large] = _lanczos_sum(x[~large], False)
        r[large] = _lanczos_sum(x[large], True)
    gmh = _LANCZOS_G_MINUS_HALF
    y = x + gmh
    # z is the rounding error of y, by the subtraction that is exact
    if hi <= gmh:
        z = y - gmh
        z -= x
    else:
        z = np.where(x > gmh, (y - x) - gmh, (y - gmh) - x)
    z *= _LANCZOS_G
    z /= y
    r /= np.exp(y)
    r += z * r
    if hi < 140.0:
        r *= y ** (x - 0.5)
    else:
        split = ~(x < 140.0)
        p = y ** np.where(split, x / 2.0 - 0.25, x - 0.5)
        r *= p
        r[split] *= p[split]
    if not np.ceil(lo) > hi:  # some argument may be an integer
        k = np.floor(x)
        exact = k == x
        if exact.any():
            exact &= x <= 23.0
            r[exact] = _GAMMA_INTEGRAL[k[exact].astype(np.intp) - 1]
    if not lo >= 1e-20:
        with np.errstate(over="ignore"):
            r[tiny] = 1.0 / arr.ravel()[tiny]
    if not hi <= _GAMMA_MAX:
        r[arr.ravel() > _GAMMA_MAX] = math.inf
    if arr.ndim == 0:
        return float(r[0])
    return r.reshape(arr.shape)


@cache
def _leggauss(points: int):
    """Gauss-Legendre rule on [-1, 1], built on first use (numpy.polynomial: ~5 ms)."""
    from numpy.polynomial.legendre import leggauss

    return leggauss(points)


def _gauss_panels(edges, points: int):
    """Nodes and weights of `points`-point Gauss mapped onto every panel of a
    sorted edge array, as (panels x points) arrays."""
    x, w = _leggauss(points)
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    return mid[:, None] + half[:, None] * x, half[:, None] * w


def _panel_gauss(fn, edges) -> float:
    """16-point Gauss on each cell of a sorted edge array, summed."""
    x, w = _gauss_panels(edges, 16)
    return float(np.sum(w * fn(x)))


def _sorted_unique(x) -> np.ndarray:
    """The distinct values of a NaN-free float array, sorted: ``np.unique``
    without its masked-array check, which imports ``numpy.ma`` (15-17 ms in
    a fresh process)."""
    s = np.sort(np.asarray(x, dtype=float), axis=None)
    keep = np.empty(s.size, dtype=bool)
    keep[:1] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]


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

    @cached_property
    def _cum(self) -> np.ndarray:
        """Integral of the interpolant from nodes[0] to each node."""
        h = np.diff(self.nodes)
        if self.interpretation == "linear":
            cells = h * (self.values[:-1] + self.values[1:]) / 2.0
        else:
            cells = h * self.values[:-1]
        return np.concatenate(([0.0], np.cumsum(cells)))

    def cumulative_at(self, x):
        """Exact int_{-inf}^x of the (zero-extended) interpolant."""
        cum = self._cum
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

    # -- algebra: absolute value and scalar multiples -----------------------

    def __abs__(self) -> "GridFunction":
        if self.interpretation == "step":
            return GridFunction(self.nodes, np.abs(self.values), "step")
        v = self.values
        cross = np.nonzero(v[:-1] * v[1:] < 0.0)[0]
        roots = self.nodes[cross] + (self.nodes[cross + 1] - self.nodes[cross]) * (
            v[cross] / (v[cross] - v[cross + 1])
        )
        nodes = _sorted_unique(np.concatenate((self.nodes, roots)))
        return GridFunction(nodes, np.abs(self(nodes)), "linear")

    def __mul__(self, c):
        if not np.isscalar(c):
            return NotImplemented
        return GridFunction(self.nodes, float(c) * self.values, self.interpretation)

    __rmul__ = __mul__

    # -- construction and serialization -----------------------------------

    def to_csv(self, path) -> None:
        """Write `# interpretation=...`, a header row, then node,value rows (LF)."""
        head = f"# interpretation={self.interpretation}\nnode,value"
        atomic_write_text(path, csv_text(head, zip(self.nodes, self.values)))

    @classmethod
    def from_csv(cls, path) -> "GridFunction":
        """Read node,value rows; inverse of to_csv.

        `# interpretation=<name>` sets the interpretation (default linear);
        header rows before the first data row are skipped.
        """
        table, directives = read_table(path, columns=2)
        return cls(table[:, 0], table[:, 1], directives.get("interpretation", "linear"))


# -- the fractional integral ----------------------------------------------

#: targets per (targets x nodes) sweep; bounds the size of its temporaries.
#: Product integration sorts its targets into kernel order first, so each
#: block spans the live edges of its last target plus the first zero edge:
#: the cells beyond have a zero kernel at both edges for every target of the
#: block, so dropping them drops exact zeros.
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
    y_k and no slope term.  Targets outside `live` (empty range) give 0.

    The sweep is triangular: the targets run in kernel order (ascending for
    R, descending for Q) and each block stops at the first edge that lies at
    or past its last target, the one whose kernel reaches the most edges.
    Every edge beyond has d = 0 for every target of the block, so each cell
    dropped there has two zero edges and contributes exactly 0; only the
    length of the dot products changes.
    """
    out = np.zeros(ts.size)
    idx = np.flatnonzero(live)
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
    # kernel order: sign * x ascends from the far edge, and so does sign * t
    order = np.argsort(sign * ts[idx], kind="stable")
    idx, a = idx[order], a[order]
    pos = sign * x
    norm = gamma(a)
    for blk in _blocks(idx.size):
        ab = a[blk, None]
        tb = ts[idx[blk]]
        # the edges live for the block's last target, and the first zero edge
        k = min(int(np.searchsorted(pos, sign * tb[-1])) + 1, x.size)
        d = np.maximum(sign * (tb[:, None] - x[:k]), 0.0)
        p = d**ab
        m0 = (p[:, :-1] - p[:, 1:]) / ab
        val = m0 @ level[: k - 1]
        if sloped:
            p *= d
            m1 = (p[:, :-1] - p[:, 1:]) / (ab + 1.0)
            val += (d[:, :-1] * m0 - m1) @ slope[: k - 1]
        out[idx[blk]] = val / norm[blk]
    return out


def rl_values(alpha: OrderFunction, f: GridFunction, targets) -> np.ndarray:
    """(R f)(t) at each target t, exact for the declared interpolant of f.

    The target t = 0 returns 0 (integral over an empty interval).  Raises
    NumericalError naming the first positive target where alpha(t) <= 0.
    """
    ts = _checked_targets(targets, 1.0)
    return _product_integral(alpha, f, ts, ts > 0.0, right=False)


def q_values(alpha: OrderFunction, f: GridFunction, targets) -> np.ndarray:
    """(Q f)(t) = (1/Gamma(a(t))) int_t^r (s-t)^(a(t)-1) f(s) ds, r = right end of f.

    The target t = r returns 0.  Raises NumericalError naming the first
    target t < r where alpha(t) <= 0.
    """
    r = f.domain[1]
    ts = _checked_targets(targets, r)
    return _product_integral(alpha, f, ts, ts < r, right=True)


# -- norms ------------------------------------------------------------------


def lp_norm(f: GridFunction, p) -> float:
    """L_p norm of the interpolant over its domain.

    Exact for every p on step functions, and in closed form for p in {2, inf}.
    Otherwise composite 16-point Gauss on the cells of |f|, split at the
    roots of f, so p = 1 (a linear integrand per cell) is exact too.
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
    v0, v1 = f.values[:-1], f.values[1:]
    if p == 2.0:
        return float(np.sqrt(np.dot(h, (v0 * v0 + v0 * v1 + v1 * v1) / 3.0)))
    g = abs(f)
    return _panel_gauss(lambda x: np.interp(x, g.nodes, g.values) ** p, g.nodes) ** (1.0 / p)


# -- maximal function ---------------------------------------------------------


def _window_mass(g: GridFunction, t, r):
    """int_{t-r}^{t+r} g, elementwise over broadcast t and r, in one cumulative_at call."""
    ends = g.cumulative_at(np.stack((t + r, t - r)))
    return ends[0] - ends[1]


def maximal_values(f: GridFunction, targets) -> np.ndarray:
    """Hardy-Littlewood maximal function sup_{r>0} (1/2r) int_{t-r}^{t+r} |f|.

    |f| is extended by zero outside its domain.  The sup is taken over
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


# -- Besov norm and averaging projection --------------------------------------


def besov_norm(f: GridFunction, p, smoothness: float, h_grid) -> float:
    """||f||_p + sup_h h^(-smoothness) ||f(.+h) - f(.)||_{L_p[0, 1-h]}.

    The sup runs over the finite h_grid only, so the result is a lower
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
            nodes = _sorted_unique(nodes)
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


# -- CSV files ----------------------------------------------------------------
# Every CSV file the package reads (order tables, grid functions, operator
# matrices) follows one set of rules: blank lines are skipped, '#' lines are
# comments and a `# key=value` comment is a directive, rows that are not all
# numbers are headers while no data row has been read, and such a row after
# the first data row is an error naming path:line.


def read_table(path, columns: int | None = None) -> tuple[np.ndarray, dict[str, str]]:
    """Numeric rows of a CSV file as a 2-D array, and its `# key=value` directives.

    Every data row must have `columns` fields, or as many as the first data
    row when columns is None; ValueError names path:line otherwise.  A file
    without data rows gives an array with no rows.
    """
    rows: list[list[float]] = []
    directives: dict[str, str] = {}
    width = columns
    with open(path, newline="") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, eq, val = line[1:].partition("=")
                if eq:
                    directives[key.strip()] = val.strip()
                continue
            try:
                row = [float(x) for x in line.split(",")]
            except ValueError:
                if not rows:
                    continue
                raise ValueError(f"{path}:{lineno}: non-numeric row {line!r}") from None
            if width is None:
                width = len(row)
            if len(row) != width:
                raise ValueError(f"{path}:{lineno}: need {width} columns, got {len(row)}")
            rows.append(row)
    return np.asarray(rows, dtype=float).reshape(len(rows), width or 0), directives


def csv_text(head: str, rows) -> str:
    """CSV text: the head line(s), then one line per row, every line LF-ended.

    A field prints as the repr of a builtin float, which round-trips exactly
    (a numpy scalar's repr does not parse); an int prints as itself and None
    as an empty field.
    """

    def field(v) -> str:
        return "" if v is None else str(v) if isinstance(v, int) else repr(float(v))

    return "\n".join([head, *(",".join(map(field, row)) for row in rows)]) + "\n"


def atomic_write_text(path, text: str) -> None:
    """Write via a temp file + rename so failures never leave partial output."""
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
