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

import errno
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


def _sign_changes(x, v) -> tuple[np.ndarray, np.ndarray]:
    """The cells of a linear interpolant whose end values have opposite
    signs, and each one's root as its distance from the cell's left node.

    Signs are compared by ``np.sign``, so a product that underflows still
    counts.  Callers scale the values below 2^1022: v0 - v1 cannot overflow."""
    sign = np.sign(v)
    cross = np.flatnonzero(sign[:-1] * sign[1:] < 0.0)
    return cross, (x[cross + 1] - x[cross]) * (v[cross] / (v[cross] - v[cross + 1]))


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

    # -- algebra: scalar multiples ---------------------------------------

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
        table, directives = read_table(path)
        return cls(table[:, 0], table[:, 1], directives.get("interpretation", "linear"))


# -- the fractional integral ----------------------------------------------

#: targets per (targets x nodes) sweep; bounds the size of its temporaries.
#: Product integration sorts its targets into kernel order first, so each
#: block spans the live edges of its last target plus the first zero edge:
#: the cells beyond have a zero kernel at both edges for every target of the
#: block, so dropping them drops exact zeros.  Operator jobs at 32 / 48 / 64,
#: medians of 15 s harness runs on seeds 1-3: 1503 / 1509 / 1445 jobs_per_kcu
#: and 0.658 / 0.656 / 0.687 cu a job.
_BLOCK = 48


def _blocks(n: int):
    """Slices covering range(n) in runs of _BLOCK."""
    return (slice(lo, lo + _BLOCK) for lo in range(0, n, _BLOCK))


def _checked_targets(targets, hi: float) -> np.ndarray:
    ts = np.atleast_1d(np.asarray(targets, dtype=float))
    if ts.size == 0:
        raise ValueError("empty targets")
    lo_t, hi_t = np.min(ts), np.max(ts)
    # written so that a NaN target fails the check too
    if not (lo_t >= -1e-12 and hi_t <= hi + 1e-12):
        raise ValueError(f"targets must lie within [0, {hi:g}]")
    # may alias the caller's array: no caller writes to it
    return ts if lo_t >= 0.0 and hi_t <= hi else np.clip(ts, 0.0, hi)


def _product_integral(
    alpha: OrderFunction, f: GridFunction, ts: np.ndarray, live: np.ndarray, right: bool
) -> np.ndarray:
    """Exact kernel integral of f's interpolant at the targets ts[live].

    Shared by R (right=False, kernel distance (t - s)_+) and Q (right=True,
    (s - t)_+).  The nodes run from the far end of the kernel to the near end,
    so edge k is the far edge of cell k; Q sweeps contiguous mirrored copies of
    f's nodes and values, so both operators' matvecs take BLAS.  With d = the
    kernel distance at an edge, P = d^a is taken once per (target, edge), and
    the kernel integrates over cell k to dP_k / a with dP_k = P_k - P_{k+1}.
    A linear cell is written from its far edge, f = y_k + slope_k * (d_k - dist),
    and its slope term integrates to
    slope_k * (d_k*dP_k / (a(a+1)) - h_k*P_{k+1} / (a+1)), where
    slope_k*h_k = jump_k = y_{k+1} - y_k does not depend on the target.  So a
    block sums [dP @ level + ((d*dP) @ slope - a * (P[:, 1:] @ jump)) / (a+1)],
    and the per-target 1/a goes onto that sum with 1/Gamma(a).  A step cell
    has its constant in place of y_k and no slope term.  Targets outside
    `live` (empty range) give 0.

    The sweep is triangular: the targets run in kernel order (ascending for
    R, descending for Q) and each block stops at the first edge that lies at
    or past its last target, the one whose kernel reaches the most edges.
    Every edge beyond has d = 0 for every target of the block, so each cell
    dropped there has two zero edges and contributes exactly 0; only the
    length of the dot products changes; a block allocates only d, P and dP.
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
        x, y, sign = x[::-1].copy(), y[::-1].copy(), -1.0
    if f.interpretation == "linear":
        level, jump = y[:-1], np.diff(y)
        slope = jump / np.abs(np.diff(x))
    else:
        # a step cell holds its left node's value: the far edge for R, the near one for Q
        level, jump = (y[1:] if right else y[:-1]), np.zeros(x.size - 1)
    sloped = bool(np.any(jump))
    # kernel order: sign * x ascends from the far edge, and so does sign * t
    order = np.argsort(sign * ts[idx], kind="stable")
    idx, a = idx[order], a[order]
    pos = sign * x
    norm = gamma(a)
    for blk in _blocks(idx.size):
        ab = a[blk]
        tb = ts[idx[blk]]
        # the edges live for the block's last target, and the first zero edge
        k = min(int(np.searchsorted(pos, sign * tb[-1])) + 1, x.size)
        d = x[:k] - tb[:, None] if right else tb[:, None] - x[:k]
        np.maximum(d, 0.0, out=d)
        p = d ** ab[:, None]
        dp = p[:, :-1] - p[:, 1:]
        val = dp @ level[: k - 1]
        if sloped:
            dp *= d[:, :-1]
            val += (dp @ slope[: k - 1] - ab * (p[:, 1:] @ jump[: k - 1])) / (ab + 1.0)
        out[idx[blk]] = val / ab / norm[blk]
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
    """L_p norm of the interpolant over its domain, exact for every p >= 1.

    A piece of |f| (a cell, or one side of a root that `_sign_changes` places)
    of width h from y_lo to y_hi >= y_lo adds h y_hi^p phi(y_lo/y_hi), where
    phi(r) = (1 - r^(p+1)) / ((p+1) (1 - r)) goes through expm1 and log1p.
    A finite p that takes the largest power of a nonzero |f|, scaled by a
    power of two, below the normal doubles (only past p = 2044) raises
    ValueError naming p.
    """
    # written so that p = NaN fails the check too
    if not p >= 1.0:
        raise ValueError(f"need p >= 1, got {p}")
    # the values that count (a step f's closing one is on a null set) scaled by 2^s:
    # 2^(1022-p) < max y^p <= 2^1022, so no term overflows or, below p ~ 970, underflows
    v = f.values[:-1] if f.interpretation == "step" else f.values
    m, ev = np.frexp(np.max(np.abs(v)))
    s = math.floor(1022.0 / p - ev - math.log2(max(m, 0.5)))
    v = np.ldexp(v, s)
    h = np.diff(f.nodes)
    if f.interpretation == "step":
        y0 = y1 = np.abs(v)
    else:
        y0, y1 = np.abs(v[:-1]), np.abs(v[1:])
        # a sign change splits its cell at the root, and the left piece is appended
        cross, dist = _sign_changes(f.nodes, v)
        h, y0, y1 = np.append(h, dist), np.append(y0, y0[cross]), np.append(y1, 0.0 * dist)
        h[cross], y0[cross] = h[cross] - dist, 0.0
    hi = np.maximum(y0, y1)
    top = np.max(hi)
    if p == np.inf:
        return float(np.ldexp(top, -s))
    # past p = 2044 no scaling keeps max y^p a normal double, and the norm would read 0.0
    if top > 0.0 and top**p < np.finfo(float).tiny:
        raise ValueError(f"p = {p} takes the largest power of |f| below the normal doubles")
    with np.errstate(divide="ignore", invalid="ignore"):  # where() drops 0/0 and log1p(-1)
        d = 1.0 - np.where(hi > 0.0, np.minimum(y0, y1) / hi, 1.0)
        phi = np.where(d > 0.0, -np.expm1((p + 1.0) * np.log1p(-d)) / ((p + 1.0) * d), 1.0)
    total = np.dot(h, hi**p * phi)
    # total = 2^e t, 2^-p < t < 2^p, e = k p + r, |r| < 1, r = 0 for an integer p
    e = int(np.frexp(total)[1])
    e -= int(math.fmod(e, p))
    r = math.fmod(e, p)
    root = np.ldexp(total, -e) ** (1.0 / p) * 2.0 ** (r / p)
    return float(np.ldexp(root, round((e - r) / p) - s))


# -- maximal function ---------------------------------------------------------


#: elements per (targets x nodes) temporary of the maximal-function sweep;
#: a block holds _SWEEP_ELEMENTS // nodes targets
_SWEEP_ELEMENTS = 1 << 15


def maximal_values(f: GridFunction, targets) -> np.ndarray:
    """Hardy-Littlewood maximal function sup_{r>0} (1/2r) int_{t-r}^{t+r} |f|.

    |f| is extended by zero outside its domain.  Exact up to roundoff for
    both interpretations: each target sweeps its critical radii, the
    distances to the nodes of |f| (f's nodes and a linear f's roots), in
    ascending order.  Between two of them each window edge stays in one
    cell, so the window mass M(r) is quadratic with M'' = beta = slope
    right - slope left, and the piece adds M' integrated from the values of
    |f| at the edges, taken in offsets from t, never at t +- r: M at each
    radius is a cumsum of nonnegative pieces, however narrow the window.
    M/r has an interior maximum only on a piece with beta < 0 where M/r
    still rises, at r* = sqrt(rho^2 + 2 (M - M' rho) / beta) from the near
    end rho, and the piece's quadratic gives M(r*); a step f skips this.
    The r -> 0 limit is M'(0) / 2 on the first piece, the mean of |f(t-)|
    and |f(t+)|.  Targets must lie within [0, 1].
    """
    ts = _checked_targets(targets, 1.0)
    out = np.empty(ts.size)
    e = int(np.frexp(np.max(np.abs(f.values)))[1])  # M(2^e g) = 2^e M(g), swept below 1
    y = np.ldexp(f.values, -e)
    x, v = f.nodes, np.abs(y)
    # |f| on each cell: its value at the left node and its slope
    level, slope, anchor = v[:-1], np.zeros(x.size - 1), None
    if f.interpretation == "linear":
        h = np.diff(x)
        slope = np.diff(v) / h
        cross, dist = _sign_changes(x, y)
        if cross.size:
            # a sign change splits its cell: |f| falls to 0 at the root and
            # rises after it.  The root is placed by its distance from the
            # cell's left node, its anchor, so each target sees it at the
            # anchor's offset plus that distance.
            after = cross + 1
            rise = (v[cross] + v[after]) / h[cross]
            slope[cross] = -rise
            level = np.insert(level, after, 0.0)
            slope = np.insert(slope, after, rise)
            anchor = np.insert(np.arange(x.size), after, cross)
            shift = np.insert(np.zeros(x.size), after, dist)
    n = level.size + 1
    # the cell of a point y is the count of nodes <= y: cell 0 and cell n
    # are the zero extension either side of the domain
    level = np.concatenate(([0.0], level, [0.0]))
    slope = np.concatenate(([0.0], slope, [0.0]))
    sloped = bool(np.any(slope))
    size = max(1, _SWEEP_ELEMENTS // n)
    for lo in range(0, ts.size, size):
        t = ts[lo : lo + size, None]
        u = x - t
        if anchor is not None:
            u = u[:, anchor] + shift
        order = np.argsort(np.abs(u), axis=1)
        u_sorted = np.take_along_axis(u, order, axis=1)
        hi = np.abs(u_sorted)
        near = np.zeros_like(hi)
        near[:, 1:] = hi[:, :-1]
        # on the piece (near, hi) the right edge has passed the nodes <= t and
        # the right nodes swept before it; the left edge sits in the cell of
        # the left nodes not yet swept
        is_r, is_l = u_sorted > 0.0, u_sorted < 0.0
        swept_r, swept_l = np.cumsum(is_r, axis=1), np.cumsum(is_l, axis=1)
        cell_r = n - swept_r[:, -1:] + swept_r - is_r
        cell_l = swept_l[:, -1:] - swept_l + is_l
        width = hi - near
        deriv = level[cell_r] + level[cell_l]  # M' on each piece, at its near end
        if sloped:
            ul = np.zeros((t.size, n + 1))
            ul[:, 1:n] = u[:, :-1]
            sl_r, sl_l = slope[cell_r], slope[cell_l]
            ul_r = np.take_along_axis(ul, cell_r, axis=1)
            ul_l = np.take_along_axis(ul, cell_l, axis=1)
            beta = sl_r - sl_l
            deriv += sl_r * (near - ul_r) - sl_l * (near + ul_l)
            step = width * (deriv + 0.5 * beta * width)
        else:
            step = width * deriv
        mass = np.cumsum(step, axis=1)
        avg = np.divide(mass, 2.0 * hi, out=np.full_like(mass, -np.inf), where=hi > 0.0)
        # the r -> 0 limit is M'(0) / 2: the first piece starts at r = 0,
        # and for a target on a node it has zero width between the cells
        # of f(t+) and f(t-)
        best = np.maximum(deriv[:, 0] / 2.0, np.max(avg, axis=1))
        if sloped:
            m_near = np.zeros_like(mass)
            m_near[:, 1:] = mass[:, :-1]
            # M is concave on the piece, M/r still rises at its near end and
            # r* lies before its far end, tested without dividing by beta
            lift = 2.0 * (m_near - deriv * near)
            rising = (beta < 0.0) & (lift < 0.0)
            hit = np.nonzero(rising & (lift > beta * (hi - near) * (hi + near)))
            b, r0, m0, d0 = beta[hit], near[hit], m_near[hit], deriv[hit]
            rstar = np.sqrt(r0 * r0 + lift[hit] / b)
            dr = rstar - r0
            np.maximum.at(best, hit[0], (m0 + dr * (d0 + 0.5 * b * dr)) / (2.0 * rstar))
        out[lo : lo + size] = best
    return np.ldexp(out, e)


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
# Every CSV file the package reads (order tables and grid functions) follows
# one set of rules: blank lines are skipped, '#' lines are comments and a
# `# key=value` comment is a directive, rows that are not all numbers are
# headers while no data row has been read, and such a row after the first
# data row is an error naming path:line.


def read_table(path) -> tuple[np.ndarray, dict[str, str]]:
    """Two-column numeric rows of a CSV file, and its `# key=value` directives.

    Every data row must have 2 fields; ValueError names path:line otherwise.
    A file without data rows gives an array with no rows.
    """
    rows: list[list[float]] = []
    directives: dict[str, str] = {}
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
            if len(row) != 2:
                raise ValueError(f"{path}:{lineno}: need 2 columns, got {len(row)}")
            rows.append(row)
    return np.asarray(rows, dtype=float).reshape(len(rows), 2), directives


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
    """Write via a temp file in the target's directory + rename, so failures
    never leave partial output.

    An ``OSError`` names ``path``, not the temp file, and an existing
    directory is refused before any temp file is made.
    """
    path = os.fspath(path)
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", prefix=".tmp-", text=True)
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from None
        raise
