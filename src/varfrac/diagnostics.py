"""Boundedness criteria, compactness classification, and identity checks.

The criteria in this module share one numerical idiom: a quantity that may
diverge is never extrapolated.  It is computed on a schedule of truncations
whose depth doubles in the exponent (1e-3, 1e-6, 1e-12, ...), and the verdict
is read off the trailing window of truncated values.  Integrals that diverge
only like log log(1/eps) grow by a visible fixed increment per level on this
schedule, while convergent integrals collapse geometrically; a fixed-ratio
schedule (1e-3, 1e-4, 1e-5, ...) cannot separate the two at any feasible
depth.

Truncated integrals are evaluated with octave-wide geometric panels toward
the singular endpoint (16-point Gauss on each panel) plus a frozen-order
closed form on the innermost sliver, so constant orders are reproduced to
roundoff and the reported values are orderwise-exact truncations rather than
quadrature artifacts.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .core import GridFunction, _panel_gauss, _sorted_unique, gamma, lp_norm, rl_values
from .orders import Constant, OrderFunction, Shifted

__all__ = [
    "TRUNCATION_EPSILONS",
    "NormReport",
    "CompactnessVerdict",
    "divergence_trend",
    "l1_criterion_integral",
    "l1_operator_norm",
    "lp_to_linf_norm",
    "classify_compactness",
    "witness_separation",
    "verify_semigroup",
    "verify_scaling",
]

# Truncation schedule with doubling exponents.  Six levels reach 1e-96 while
# staying clear of double-precision underflow in every kernel power the
# criteria evaluate.
TRUNCATION_EPSILONS = (1e-3, 1e-6, 1e-12, 1e-24, 1e-48, 1e-96)


# --------------------------------------------------------------------------
# report types


@dataclass(frozen=True)
class NormReport:
    """Result of a norm or integral criterion.

    value      finite number, or +inf when divergent is set
    divergent  verdict of the trend test on the evidence values
    evidence   (truncation parameter, truncated value) pairs, deepest last;
               for hypothesis violations a single (location, margin) pair
    method     short tag describing how the numbers were produced
    """

    value: float
    divergent: bool
    evidence: tuple[tuple[float, float], ...]
    method: str

    def __post_init__(self):
        if self.divergent:
            if not (math.isinf(self.value) and self.value > 0):
                raise ValueError("divergent report must carry value = +inf")
        elif not math.isfinite(self.value):
            raise ValueError("non-divergent report must carry a finite value")
        clean = tuple((float(a), float(b)) for a, b in self.evidence)
        object.__setattr__(self, "evidence", clean)
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "divergent", bool(self.divergent))

    def to_dict(self) -> dict:
        return asdict(self) | {"value": None if self.divergent else self.value}


@dataclass(frozen=True)
class CompactnessVerdict:
    """Endpoint classification with the raw sample sequences attached.

    limit_evidence holds t_k^{alpha(t_k)} (endpoint zero) or
    u_k^{alpha(1 - u_k)} (endpoint one) along t_k = u_k = 2^-k, k = 1, 2, ...;
    phi_evidence holds the matching alpha * |log| products.  to_dict also
    reports the thresholds of the trend rules, so callers can re-judge.
    """

    verdict: str
    endpoint: str
    limit_evidence: tuple[float, ...]
    phi_evidence: tuple[float, ...]

    def __post_init__(self):
        if self.verdict not in ("Compact", "NonCompact", "Indeterminate"):
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.endpoint not in ("zero", "one"):
            raise ValueError(f"unknown endpoint {self.endpoint!r}")
        if self.verdict == "NonCompact" and min(self.limit_evidence) < _TOL_NONCOMPACT:
            raise ValueError("NonCompact verdict requires evidence bounded away from 0")
        object.__setattr__(self, "limit_evidence", tuple(float(v) for v in self.limit_evidence))
        object.__setattr__(self, "phi_evidence", tuple(float(v) for v in self.phi_evidence))

    def to_dict(self) -> dict:
        return asdict(self) | {"tol_compact": _TOL_COMPACT, "tol_noncompact": _TOL_NONCOMPACT}


# --------------------------------------------------------------------------
# divergence trend test


# Trend test: trailing window, least relative growth over it, and least
# ratio of its last increment to its first.
_TREND_WINDOW = 4
_TREND_GROWTH = 0.25
_TREND_FLOOR = 0.5


def divergence_trend(values) -> bool:
    """Trend test on a sequence of truncated values at doubling depths.

    Divergent when, over the trailing window of four values, every increment
    is positive, the total growth is at least 25%, and the last increment is
    at least half the first.  A log log divergence keeps a fixed increment
    per level and passes; a slowly convergent integral has geometrically
    collapsing increments and fails the floor.
    """
    v = np.asarray(values, dtype=float)
    if v.size < _TREND_WINDOW:
        return False
    w = v[-_TREND_WINDOW:]
    if w[0] <= 0.0:
        return False
    inc = np.diff(w)
    if np.any(inc <= 0.0):
        return False
    total_growth = w[-1] / w[0] - 1.0
    return total_growth >= _TREND_GROWTH and inc[-1] >= _TREND_FLOOR * inc[0]


def _ladder_report(evidence, value: float, method: str) -> NormReport:
    """Report on a truncation ladder of (depth, value) pairs: divergent, with
    value +inf, when divergence_trend flags the values, else `value`."""
    divergent = divergence_trend([v for _, v in evidence])
    return NormReport(
        value=math.inf if divergent else value,
        divergent=divergent,
        evidence=tuple(evidence),
        method=method,
    )


# --------------------------------------------------------------------------
# quadrature helpers


def _octave_edges(lo: float, hi: float, extra=()) -> np.ndarray:
    """Geometric edges graded toward both ends, merged with extra points.

    They double from lo up to hi, and halve the distance to hi down to
    (hi - lo) * 2^-15, where a large order's t^(a - 1) has its mass.
    """
    n = max(int(math.ceil(math.log2(hi / lo))), 1)
    edges = hi * 2.0 ** -np.arange(n, -1, -1, dtype=float)
    edges[0] = lo
    top = hi - (hi - lo) * 2.0 ** -np.arange(2, 16, dtype=float)
    pts = np.asarray([p for p in extra if lo < p < hi], dtype=float)
    return _sorted_unique(np.concatenate((edges, top, pts)))


# --------------------------------------------------------------------------
# L1 criteria


def l1_criterion_integral(alpha: OrderFunction) -> NormReport:
    """Integrability criterion: int_0^1 alpha(t) t^(alpha(t) - 1) dt.

    Truncated at each epsilon of the doubling schedule; the tail below the
    deepest epsilon is closed with the frozen-order form eps^alpha(eps),
    which is exact for constant orders (the full integral is then exactly 1
    regardless of the constant).  The evidence pairs are the raw truncated
    integrals, which is what the trend test judges.
    """

    def integrand(t):
        a = np.asarray(alpha.eval(t))
        return a * np.power(t, a - 1.0)

    bp = alpha.breakpoints
    evidence = []
    for eps in TRUNCATION_EPSILONS:
        edges = _octave_edges(eps, 1.0, extra=bp)
        evidence.append((eps, _panel_gauss(integrand, edges)))

    eps_last = TRUNCATION_EPSILONS[-1]
    tail = eps_last ** float(alpha.eval(eps_last))
    return _ladder_report(evidence, evidence[-1][1] + tail, "truncated-octave-gauss+frozen-tail")


def _l1_inner_integral(alpha: OrderFunction, s: float) -> float:
    """int_s^1 (t - s)^(alpha(t) - 1) / Gamma(alpha(t)) dt, for 0 < s < 1.

    Integrated in the offset u = t - s so panel edges never collapse onto s
    in floating point.  Panels run down to u = s * 2^-40; below that alpha
    is effectively constant for any doubling-regular order, and the sliver
    is closed with the frozen form w^a / Gamma(a + 1), exact for constant
    orders.  Tying the cutoff to s (not to a fixed depth) is what lets the
    probe values keep growing for genuinely unbounded orders.
    """
    span = 1.0 - s
    u_min = s * 2.0**-40

    def integrand(u):
        a = np.asarray(alpha.eval(np.minimum(s + u, 1.0)))
        return np.power(u, a - 1.0) / gamma(a)

    offsets = [b - s for b in alpha.breakpoints if s < b < 1.0]
    edges = _octave_edges(u_min, span, extra=offsets)
    w0 = edges[0]
    a0 = float(alpha.eval(min(s + w0, 1.0)))
    sliver = w0**a0 / gamma(a0 + 1.0)
    return _panel_gauss(integrand, edges) + sliver


def l1_operator_norm(alpha: OrderFunction) -> NormReport:
    """Operator norm on L1: sup over s of int_s^1 (t-s)^(alpha(t)-1)/Gamma dt.

    The sup is taken over a 19-point sweep of [0.05, 0.95] augmented
    with the doubling refinement schedule toward s = 0, which is where the
    inner integral can blow up.  The evidence pairs are the refinement-probe
    values, deepest probe last.
    """
    evidence = []
    for eps in TRUNCATION_EPSILONS:
        evidence.append((eps, _l1_inner_integral(alpha, eps)))
    wide = [_l1_inner_integral(alpha, s) for s in np.linspace(0.05, 0.95, 19)]

    value = max([v for _, v in evidence] + wide)
    return _ladder_report(evidence, value, "probe-sup/offset-octave-gauss")


def lp_to_linf_norm(alpha: OrderFunction, p: float) -> NormReport:
    """Norm of the operator from Lp into L-infinity, p > 1.

    Evaluates (1/q)^(1/q) * sup_t t^(alpha(t)-1/p) / (Gamma(alpha(t)) *
    (alpha(t)-1/p)^(1/q)) with q the conjugate exponent.  The sup is
    probed on grids refining toward 0 on the doubling schedule.  If alpha
    falls to 1/p or below at a probe bounded away from 0 the expression is
    undefined there and the operator is not bounded; the report is divergent
    with a single (location, margin) evidence pair.  If alpha - 1/p decays
    to 0 toward 0, either the probed suprema grow without bound and the
    trend test flags it, or the margin underflows to 0 at a deep probe,
    which for a margin positive on the coarse range already certifies an
    unbounded sup at the crossing.
    """
    if not (p > 1.0 and math.isfinite(p)):
        raise ValueError(f"need 1 < p < inf, got {p}")
    q = p / (p - 1.0)
    prefactor = (1.0 / q) ** (1.0 / q)

    coarse = np.linspace(0.002, 1.0, 500)
    margins = np.asarray(alpha.eval(coarse)) - 1.0 / p
    if np.any(margins <= 0.0):
        i = int(np.argmin(margins))
        return NormReport(
            value=math.inf,
            divergent=True,
            evidence=((float(coarse[i]), float(margins[i])),),
            method="lp-to-linf/order-not-above-1p",
        )

    evidence = []
    running = 0.0
    bp = [b for b in alpha.breakpoints if 0.0 < b < 1.0]
    for eps in TRUNCATION_EPSILONS:
        grid = _sorted_unique(
            np.concatenate(
                (
                    np.geomspace(eps, 1.0, 257),
                    coarse,
                    np.asarray(bp, dtype=float),
                )
            )
        )
        a = np.asarray(alpha.eval(grid))
        margin = a - 1.0 / p
        if np.any(margin <= 0.0):
            i = int(np.argmin(margin))
            return NormReport(
                value=math.inf,
                divergent=True,
                evidence=tuple(evidence) + ((float(grid[i]), float(margin[i])),),
                method="lp-to-linf/order-reaches-1p-toward-0",
            )
        terms = np.power(grid, margin) / (gamma(a) * np.power(margin, 1.0 / q))
        running = max(running, float(np.max(terms)))
        evidence.append((eps, running))

    return _ladder_report(evidence, prefactor * running, "lp-to-linf/refined-sup")


# --------------------------------------------------------------------------
# compactness

# Dyadic sampling depth: 2^-360 ~ 4e-109 is deep enough for orders whose
# decay is only exp(-sqrt(log(1/t))).
_COMPACT_DEPTH = 360

# trend-rule thresholds: Compact needs the deepest sample below the first,
# NonCompact every sample at or above the second
_TOL_COMPACT = 1e-6
_TOL_NONCOMPACT = 0.01


def classify_compactness(alpha: OrderFunction, endpoint: str = "zero") -> CompactnessVerdict:
    """Endpoint compactness dichotomy from the decay of t^alpha(t).

    Samples g_k = t_k^alpha(t_k) along t_k = 2^-k (endpoint zero) or
    g_k = u_k^alpha(1-u_k) along u_k = 2^-k (endpoint one), k = 1..360.
    Compact requires the samples to fall below _TOL_COMPACT and to be
    non-increasing over the deep half; NonCompact requires them to stay
    above _TOL_NONCOMPACT with a flat tail.  Anything else, in particular an
    oscillating profile, is Indeterminate.
    """
    if endpoint not in ("zero", "one"):
        raise ValueError(f"unknown endpoint {endpoint!r}")
    k = np.arange(1, _COMPACT_DEPTH + 1, dtype=float)
    u = 2.0**-k
    where = u if endpoint == "zero" else np.minimum(1.0 - u, 1.0)
    a = np.asarray(alpha.eval(where))
    g = np.exp(a * np.log(u))
    phi = a * np.abs(np.log(u))

    half = len(g) // 2
    tail = g[half:]
    nonincreasing = bool(np.all(np.diff(tail) <= 1e-9 * (1.0 + tail[:-1])))
    if g[-1] < _TOL_COMPACT and nonincreasing:
        verdict = "Compact"
    elif np.min(g) >= _TOL_NONCOMPACT and g[-1] >= 0.5 * g[half]:
        verdict = "NonCompact"
    else:
        verdict = "Indeterminate"
    return CompactnessVerdict(
        verdict=verdict,
        endpoint=endpoint,
        limit_evidence=tuple(float(x) for x in g),
        phi_evidence=tuple(float(x) for x in phi),
    )


def witness_separation(alpha: OrderFunction, p: float, n_max: int) -> np.ndarray:
    """Norms of localized witnesses under the operator, n = 1..n_max.

    The witness h_n is the unit-Lp-norm indicator 2^((n+1)/p) on the dyadic
    interval I_n = [2^-(n+1), 2^-n].  Returned entry n-1 is the Lp norm of
    (R h_n) restricted to I_n.  Norms staying bounded below certify a
    non-compact embedding at 0; norms decaying to 0 are consistent with
    compactness.  Targets are graded toward the left edge of I_n where the
    image ramps up from zero.

    n_max is at most 1021, the last n whose 2^-(n+1) is a normal double.  A
    norm outside the normal doubles, or an overflowing R h_n, is a ValueError
    naming n and p: an inf or a 0.0 cannot tell compact from non-compact.
    """
    if not 1 <= n_max <= 1021:
        raise ValueError(f"n_max must be between 1 and 1021, got {n_max}")
    if not p >= 1.0:
        raise ValueError(f"need p >= 1, got {p}")
    out = np.empty(n_max)
    m = 96
    ramp = (np.arange(m + 1) / m) ** 2
    for n in range(1, n_max + 1):
        left = 2.0 ** -(n + 1)
        right = 2.0**-n
        height = 2.0 ** ((n + 1) / p) if math.isfinite(p) else 1.0
        h = GridFunction(
            np.array([left, right]), np.array([height, height]), interpretation="step"
        )
        targets = left + (right - left) * ramp
        with np.errstate(over="ignore"):
            vals = rl_values(alpha, h, targets)
        norm = lp_norm(GridFunction(targets, vals), p) if np.all(np.isfinite(vals)) else math.inf
        if not (math.isfinite(norm) and norm >= sys.float_info.min):
            raise ValueError(
                f"witness norm {norm!r} at n = {n}, p = {p} is outside the normal doubles"
            )
        out[n - 1] = norm
    return out


# --------------------------------------------------------------------------
# identity checks


def _check_n_cells(n_cells: int) -> None:
    if n_cells < 2:
        raise ValueError(f"n_cells must be >= 2, got {n_cells}")


def _resampled(alpha: OrderFunction, f: GridFunction, grid: np.ndarray) -> GridFunction:
    """Linear interpolant of R^alpha f on a graded grid joined with f's nodes."""
    nodes = _sorted_unique(np.concatenate((grid, f.nodes)))
    return GridFunction(nodes, rl_values(alpha, f, nodes))


def verify_semigroup(
    alpha: OrderFunction,
    beta: float,
    f: GridFunction,
    n_cells: int = 256,
) -> float:
    """Discrepancy of the semigroup identity R^(alpha+beta) = R^alpha R^beta.

    The left side is integrated directly.  The right side routes R^beta f
    through an interpolant sampled on n_cells graded cells, so the
    reported discrepancy is the resampling error and contracts as the cell
    count doubles; both sides are compared on 65 evenly spaced targets.  The
    grading exponent matches the t^beta ramp of R^beta f at 0, which keeps
    the interpolation error uniform across cells.
    """
    if not (beta > 0.0 and math.isfinite(beta)):
        raise ValueError(f"need beta > 0, got {beta}")
    _check_n_cells(n_cells)
    hi = f.domain[1]
    targets = np.linspace(0.0, hi, 65)

    lhs = rl_values(Shifted(alpha, beta), f, targets)

    gexp = 2.0 / min(beta, 1.0)
    gexp = min(gexp, 8.0)
    g = _resampled(Constant(beta), f, hi * (np.arange(n_cells + 1) / n_cells) ** gexp)
    rhs = rl_values(alpha, g, targets)
    return float(np.max(np.abs(lhs - rhs)))


def verify_scaling(
    alpha: OrderFunction,
    r: float,
    p: float,
    q: float,
    f: GridFunction,
    n_cells: int = 256,
    targets=None,
) -> float:
    """Discrepancy of the dilation identity tying [0, r] to the unit interval.

    Compares J_q^-1 R^alpha J_p f against r^(alpha(r t) + 1/q - 1/p) *
    R^(alpha(r .)) f on a shared target grid, where (J_p f)(s) =
    r^(-1/p) f(s/r).  The left side is exact product integration; the right
    side samples R^(alpha(r .)) f on n_cells graded cells joined with the
    nodes of f, and reads its linear interpolant back at the targets.  A
    target that is one of those nodes is read back exactly, so only targets
    off them measure the resampling: there the discrepancy tracks the
    resampling error and contracts under refinement.  The default targets,
    65 evenly spaced points, are all nodes of an f sampled on 64k + 1 evenly
    spaced nodes, such as the CLI's cos3, and for such an f the discrepancy
    stays at roundoff for every n_cells.  At r = 1 both sides are the same
    map and the discrepancy is exactly zero.
    """
    if not (0.0 < r <= 1.0):
        raise ValueError(f"need 0 < r <= 1, got {r}")
    if not (p >= 1.0 and q >= 1.0):
        raise ValueError("need p, q >= 1")
    _check_n_cells(n_cells)
    if targets is None:
        targets = np.linspace(0.0, 1.0, 65)
    targets = np.atleast_1d(np.asarray(targets, dtype=float))

    rescaled = alpha.rescale(r)
    if r == 1.0:
        lhs = rl_values(alpha, f, targets)
        rhs = rl_values(rescaled, f, targets)
        return float(np.max(np.abs(lhs - rhs)))

    jp = GridFunction(f.nodes * r, f.values * r ** (-1.0 / p), f.interpretation)
    lhs = r ** (1.0 / q) * rl_values(alpha, jp, r * targets)

    g = _resampled(rescaled, f, (np.arange(n_cells + 1) / n_cells) ** 4)
    multiplier = r ** (np.asarray(rescaled.eval(targets)) + 1.0 / q - 1.0 / p)
    rhs = multiplier * g(targets)
    return float(np.max(np.abs(lhs - rhs)))

