"""Order profiles alpha(.) on [0,1].

The exponent profile of the variable-order fractional integral is a
measurable function alpha: [0,1] -> (0, infty).  This module provides the
parametric families used throughout the package (constant, power offset,
log-power offset, exponential offset, reciprocal-log, log-power, tabulated)
together with the queries the analysis needs: pointwise evaluation, infima
and suprema over subintervals, infima over dyadic cells, the weight
phi(t) = alpha(t)*|ln t|, a doubling-regularity check, and rescaling
t -> alpha(r*t).

Conventions
-----------
* Profiles that lose positivity at t=0 (reciprocal-log, log-power) define
  eval(0) as the right limit, which is 0.  Offset families return their
  offset alpha0 at t=0.  Operations that need strict positivity guard t>0
  themselves.
* "|ln t| capped below at 1": the log-power offset family reads
  alpha0 + lam*|ln t|^(-gamma) on (0, e^-1] and alpha0 + lam on [e^-1, 1],
  keeping the profile bounded, continuous and non-decreasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._csvio import read_table

__all__ = [
    "OrderFunctionError",
    "OrderFunction",
    "Constant",
    "PowerOffset",
    "LogPowerOffset",
    "ExpOffset",
    "ReciprocalLog",
    "LogPower",
    "Tabulated",
    "Shifted",
    "Rescaled",
    "RegularityReport",
]

_E_INV = math.exp(-1.0)

# slop for endpoint comparisons; quadrature maps can land 1 ulp outside [0,1]
_EDGE_TOL = 1e-12


class OrderFunctionError(ValueError):
    """An order profile was constructed or queried outside its contract."""


@dataclass(frozen=True)
class RegularityReport:
    """Outcome of the doubling-regularity check c1*alpha(s) <= alpha(t) <= c2*alpha(s).

    ``worst_pair`` is the probe pair (s, t), s <= t <= min(2s, 1), whose
    ratio alpha(t)/alpha(s) comes closest to (or furthest past) the allowed
    band [c1, c2]; ``worst_ratio`` is that ratio.
    """

    ok: bool
    c1: float
    c2: float
    worst_ratio: float
    worst_pair: tuple[float, float]
    n_pairs: int


class OrderFunction:
    """Base class for order profiles.

    Instances are immutable and all operations are pure, so values may be
    shared freely across threads.  Subclasses implement ``_eval_array`` on a
    1-d float array whose entries already lie inside ``domain``.
    """

    #: closed interval of valid arguments, a subset of [0, 1]
    @property
    def domain(self) -> tuple[float, float]:
        return (0.0, 1.0)

    @property
    def nondecreasing(self) -> bool:
        """True when the profile is non-decreasing on its domain."""
        return True

    @property
    def breakpoints(self) -> tuple[float, ...]:
        """Interior points where the defining formula changes piece."""
        return ()

    def _eval_array(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def eval(self, t):
        """Evaluate alpha(t).  Scalar in, float out; array in, array out."""
        arr = np.asarray(t, dtype=float)
        lo, hi = self.domain
        if arr.size and (np.min(arr) < lo - _EDGE_TOL or np.max(arr) > hi + _EDGE_TOL):
            raise OrderFunctionError(
                f"argument outside domain [{lo}, {hi}]: "
                f"range [{np.min(arr)}, {np.max(arr)}]"
            )
        flat = np.clip(arr.reshape(-1), lo, hi)
        out = self._eval_array(flat)
        if arr.ndim == 0:
            return float(out[0])
        return out.reshape(arr.shape)

    __call__ = eval

    def infimum(self, a: float, b: float) -> float:
        """Exact infimum of alpha over [a, b] (endpoint value for monotone families)."""
        self._check_interval(a, b)
        if self.nondecreasing:
            return self.eval(a)
        raise NotImplementedError(
            "infimum for non-monotone profiles is only provided by Tabulated"
        )

    def supremum(self, a: float, b: float) -> float:
        """Exact supremum of alpha over [a, b]."""
        self._check_interval(a, b)
        if self.nondecreasing:
            return self.eval(b)
        raise NotImplementedError(
            "supremum for non-monotone profiles is only provided by Tabulated"
        )

    def _check_interval(self, a: float, b: float) -> None:
        if not a < b:
            raise OrderFunctionError(f"empty interval [{a}, {b}]")
        lo, hi = self.domain
        if a < lo - _EDGE_TOL or b > hi + _EDGE_TOL:
            raise OrderFunctionError(
                f"interval [{a}, {b}] not inside domain [{lo}, {hi}]"
            )

    def dyadic_infima(self, n_max: int) -> np.ndarray:
        """Infima a_n over the dyadic cells I_n = [2^-(n+1), 2^-n], n = 0..n_max."""
        if n_max < 0:
            raise OrderFunctionError("n_max must be >= 0")
        return np.array(
            [self.infimum(2.0 ** -(n + 1), 2.0**-n) for n in range(n_max + 1)]
        )

    def phi(self, t):
        """The weight phi(t) = alpha(t) * |ln t| for t in (0, 1)."""
        arr = np.asarray(t, dtype=float)
        if arr.size and (np.min(arr) <= 0.0 or np.max(arr) >= 1.0):
            raise OrderFunctionError("phi requires 0 < t < 1")
        out = self.eval(arr) * np.abs(np.log(arr))
        if arr.ndim == 0:
            return float(out)
        return out

    def check_regularity(
        self, c1: float, c2: float, probe_grid: Sequence[float]
    ) -> RegularityReport:
        """Check c1*alpha(s) <= alpha(t) <= c2*alpha(s) on probe pairs s <= t <= min(2s, 1).

        Grid-based, not symbolic: a True result certifies the inequality on
        the probes only.
        """
        if not (0.0 < c1 <= 1.0 <= c2):
            raise OrderFunctionError("need 0 < c1 <= 1 <= c2")
        grid = np.unique(np.asarray(probe_grid, dtype=float))
        if grid.size == 0:
            raise OrderFunctionError("empty probe grid")
        if grid[0] <= 0.0 or grid[-1] > 1.0 + _EDGE_TOL:
            raise OrderFunctionError("probe grid must lie inside (0, 1]")
        vals = self.eval(grid)
        worst_excess = -np.inf
        worst_ratio = 1.0
        worst_pair = (float(grid[0]), float(grid[0]))
        n_pairs = 0
        for i, s in enumerate(grid):
            hi = min(2.0 * s, 1.0)
            j = np.searchsorted(grid, hi, side="right")
            ts = grid[i:j]
            if ts.size == 0:
                continue
            ratios = vals[i:j] / vals[i]
            n_pairs += ts.size
            # excess > 1 means the band [c1, c2] is violated
            excess = np.maximum(ratios / c2, c1 / ratios)
            k = int(np.argmax(excess))
            if excess[k] > worst_excess:
                worst_excess = float(excess[k])
                worst_ratio = float(ratios[k])
                worst_pair = (float(s), float(ts[k]))
        return RegularityReport(
            ok=bool(worst_excess <= 1.0),
            c1=float(c1),
            c2=float(c2),
            worst_ratio=worst_ratio,
            worst_pair=worst_pair,
            n_pairs=n_pairs,
        )

    def rescale(self, r: float) -> "OrderFunction":
        """The profile t -> alpha(r*t) on [0, 1], for r in (0, 1]."""
        if not 0.0 < r <= 1.0:
            raise OrderFunctionError(f"rescale factor must be in (0, 1], got {r}")
        return Rescaled(self, float(r))


@dataclass(frozen=True)
class Constant(OrderFunction):
    """alpha(t) = value, a constant order."""

    value: float

    def __post_init__(self):
        if not (math.isfinite(self.value) and self.value > 0.0):
            raise OrderFunctionError(f"constant order must be positive, got {self.value}")

    def _eval_array(self, t: np.ndarray) -> np.ndarray:
        return np.full_like(t, self.value)

    def rescale(self, r: float) -> "OrderFunction":
        if not 0.0 < r <= 1.0:
            raise OrderFunctionError(f"rescale factor must be in (0, 1], got {r}")
        return self


def _check_offset_params(alpha0: float, lam: float, gamma: float) -> None:
    for name, v in (("alpha0", alpha0), ("lam", lam), ("gamma", gamma)):
        if not (math.isfinite(v) and v > 0.0):
            raise OrderFunctionError(f"{name} must be positive and finite, got {v}")


@dataclass(frozen=True)
class PowerOffset(OrderFunction):
    """alpha(t) = alpha0 + lam * t**gamma, increasing from alpha0."""

    alpha0: float
    lam: float
    gamma: float

    def __post_init__(self):
        _check_offset_params(self.alpha0, self.lam, self.gamma)

    def _eval_array(self, t: np.ndarray) -> np.ndarray:
        return self.alpha0 + self.lam * t**self.gamma


@dataclass(frozen=True)
class LogPowerOffset(OrderFunction):
    """alpha(t) = alpha0 + lam * max(1, |ln t|)**(-gamma).

    Equals alpha0 + lam * |ln t|**(-gamma) on (0, e^-1] and alpha0 + lam on
    [e^-1, 1]; the cap keeps the profile bounded and non-decreasing.
    eval(0) = alpha0 (right limit).
    """

    alpha0: float
    lam: float
    gamma: float

    def __post_init__(self):
        _check_offset_params(self.alpha0, self.lam, self.gamma)

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return (_E_INV,)

    def _eval_array(self, t: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            capped = np.maximum(1.0, np.abs(np.log(t)))
        return self.alpha0 + self.lam * capped**-self.gamma


@dataclass(frozen=True)
class ExpOffset(OrderFunction):
    """alpha(t) = alpha0 + exp(-lam * t**(-gamma)), increasing; eval(0) = alpha0."""

    alpha0: float
    lam: float
    gamma: float

    def __post_init__(self):
        _check_offset_params(self.alpha0, self.lam, self.gamma)

    def _eval_array(self, t: np.ndarray) -> np.ndarray:
        # t**-gamma may hit inf at tiny t; exp(-inf) = 0 is the right limit
        with np.errstate(divide="ignore", over="ignore"):
            inv = t**-self.gamma
        return self.alpha0 + np.exp(-self.lam * inv)


@dataclass(frozen=True)
class ReciprocalLog(OrderFunction):
    """alpha(t) = 1/|ln t| on (0, e^-1], 1 on [e^-1, 1], 0 at t = 0.

    The canonical profile with t**alpha(t) = e^-1 identically near zero, the
    borderline of compactness.
    """

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return (_E_INV,)

    def _eval_array(self, t: np.ndarray) -> np.ndarray:
        out = np.ones_like(t)
        small = t < _E_INV
        with np.errstate(divide="ignore"):
            out[small] = 1.0 / np.abs(np.log(t[small]))
        return out

    def phi(self, t):
        # alpha(t)*|ln t| = 1 holds as an algebraic identity on (0, e^-1];
        # return it exactly instead of multiplying 1/|ln t| back by |ln t|.
        arr = np.asarray(t, dtype=float)
        if arr.size and (np.min(arr) <= 0.0 or np.max(arr) >= 1.0):
            raise OrderFunctionError("phi requires 0 < t < 1")
        out = np.where(arr <= _E_INV, 1.0, np.abs(np.log(arr)))
        if arr.ndim == 0:
            return float(out)
        return out


@dataclass(frozen=True)
class LogPower(OrderFunction):
    """alpha(t) = |ln t|**(-gamma) on (0, e^-1], 1 on [e^-1, 1], 0 at t = 0."""

    gamma: float

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma > 0.0):
            raise OrderFunctionError(f"gamma must be positive, got {self.gamma}")

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return (_E_INV,)

    def _eval_array(self, t: np.ndarray) -> np.ndarray:
        out = np.ones_like(t)
        small = t < _E_INV
        with np.errstate(divide="ignore"):
            out[small] = np.abs(np.log(t[small])) ** -self.gamma
        return out


@dataclass(frozen=True)
class Tabulated(OrderFunction):
    """Profile interpolated from (node, value) samples.

    ``interpolation`` is "step" (value at the left node on each cell) or
    "linear".  The domain is [nodes[0], nodes[-1]].  Infima and suprema use
    node values plus interpolated interval endpoints; there is no global
    optimization, which is exact for piecewise-monotone data.
    """

    nodes: tuple[float, ...]
    values: tuple[float, ...]
    interpolation: str = "linear"

    def __post_init__(self):
        nodes = tuple(float(x) for x in self.nodes)
        values = tuple(float(v) for v in self.values)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)
        if len(nodes) < 2 or len(nodes) != len(values):
            raise OrderFunctionError("need >= 2 nodes and matching values")
        arr = np.asarray(nodes)
        # both node checks are written so that a NaN node fails them
        if not np.all(np.diff(arr) > 0.0):
            raise OrderFunctionError("nodes must be strictly increasing")
        if not (arr[0] >= 0.0 and arr[-1] <= 1.0):
            raise OrderFunctionError("nodes must lie within [0, 1]")
        vals = np.asarray(values)
        if not np.all(np.isfinite(vals)) or np.any(vals <= 0.0):
            raise OrderFunctionError("values must all be finite and strictly positive")
        if self.interpolation not in ("step", "linear"):
            raise OrderFunctionError(
                f"interpolation must be 'step' or 'linear', got {self.interpolation!r}"
            )

    @property
    def domain(self) -> tuple[float, float]:
        return (self.nodes[0], self.nodes[-1])

    @property
    def nondecreasing(self) -> bool:
        return bool(np.all(np.diff(np.asarray(self.values)) >= 0.0))

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return self.nodes[1:-1]

    def _eval_array(self, t: np.ndarray) -> np.ndarray:
        nodes = np.asarray(self.nodes)
        vals = np.asarray(self.values)
        if self.interpolation == "linear":
            return np.interp(t, nodes, vals)
        idx = np.searchsorted(nodes, t, side="right") - 1
        idx = np.clip(idx, 0, len(nodes) - 2)
        return vals[idx]

    def _cell_range(self, a: float, b: float) -> np.ndarray:
        """Values attained on [a, b]: evaluated endpoints plus node values inside.

        Exact for both interpolations: a step cell intersecting [a, b] either
        contains a (its value is eval(a)) or has its left node inside (a, b].
        """
        nodes = np.asarray(self.nodes)
        vals = np.asarray(self.values)
        inner = vals[(nodes >= a) & (nodes <= b)]
        return np.concatenate(([self.eval(a), self.eval(b)], inner))

    def infimum(self, a: float, b: float) -> float:
        self._check_interval(a, b)
        return float(np.min(self._cell_range(a, b)))

    def supremum(self, a: float, b: float) -> float:
        self._check_interval(a, b)
        return float(np.max(self._cell_range(a, b)))

    @classmethod
    def from_csv(cls, path) -> "Tabulated":
        """Load linearly interpolated (t, alpha) samples from a two-column CSV;
        a header row is optional."""
        try:
            table, _ = read_table(path, columns=2)
        except ValueError as exc:
            raise OrderFunctionError(str(exc)) from None
        return cls(tuple(table[:, 0]), tuple(table[:, 1]))


@dataclass(frozen=True)
class Shifted(OrderFunction):
    """alpha(t) + offset: the left factor of the semigroup identity."""

    inner: OrderFunction
    offset: float

    def __post_init__(self):
        if not (math.isfinite(self.offset) and self.offset > 0.0):
            raise OrderFunctionError(f"offset must be positive, got {self.offset}")

    @property
    def domain(self) -> tuple[float, float]:
        return self.inner.domain

    @property
    def nondecreasing(self) -> bool:
        return self.inner.nondecreasing

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return self.inner.breakpoints

    def _eval_array(self, t: np.ndarray) -> np.ndarray:
        return np.asarray(self.inner.eval(t)) + self.offset

    def infimum(self, a: float, b: float) -> float:
        return self.inner.infimum(a, b) + self.offset

    def supremum(self, a: float, b: float) -> float:
        return self.inner.supremum(a, b) + self.offset


@dataclass(frozen=True)
class Rescaled(OrderFunction):
    """alpha(r * t): the profile seen by the scaling identity on [0, r]."""

    inner: OrderFunction
    scale: float

    def __post_init__(self):
        if not 0.0 < self.scale <= 1.0:
            raise OrderFunctionError(f"scale must be in (0, 1], got {self.scale}")

    @property
    def domain(self) -> tuple[float, float]:
        lo, hi = self.inner.domain
        return (min(1.0, lo / self.scale), min(1.0, hi / self.scale))

    @property
    def nondecreasing(self) -> bool:
        return self.inner.nondecreasing

    @property
    def breakpoints(self) -> tuple[float, ...]:
        pts = (b / self.scale for b in self.inner.breakpoints)
        return tuple(p for p in pts if 0.0 < p < 1.0)

    def _eval_array(self, t: np.ndarray) -> np.ndarray:
        return np.asarray(self.inner.eval(self.scale * t))

    def infimum(self, a: float, b: float) -> float:
        return self.inner.infimum(self.scale * a, self.scale * b)

    def supremum(self, a: float, b: float) -> float:
        return self.inner.supremum(self.scale * a, self.scale * b)

    def rescale(self, r: float) -> "OrderFunction":
        # flatten so rescale(rescale(a, r1), r2) is bit-identical to
        # rescale(a, r1*r2)
        if not 0.0 < r <= 1.0:
            raise OrderFunctionError(f"rescale factor must be in (0, 1], got {r}")
        return Rescaled(self.inner, self.scale * r)
