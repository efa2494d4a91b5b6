"""Order profiles alpha(.) on [0,1].

The exponent profile of the variable-order fractional integral is a
measurable function alpha: [0,1] -> (0, infty).  This module provides the
parametric families used throughout the package (constant, power offset,
log-power offset, exponential offset, reciprocal-log, log-power, tabulated)
together with what the operators need of a profile: pointwise evaluation,
its domain, whether it is non-decreasing, the breakpoints where its formula
changes piece, and rescaling t -> alpha(r*t).

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
from dataclasses import dataclass, field

import numpy as np

from .core import GridFunction

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
]

_E_INV = math.exp(-1.0)

# slop for endpoint comparisons; quadrature maps can land 1 ulp outside [0,1]
_EDGE_TOL = 1e-12


class OrderFunctionError(ValueError):
    """An order profile was constructed or queried outside its contract."""


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
        # written so that a NaN argument fails it
        if arr.size and not (np.min(arr) >= lo - _EDGE_TOL and np.max(arr) <= hi + _EDGE_TOL):
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

    def rescale(self, r: float) -> "OrderFunction":
        """The profile t -> alpha(r*t) on [0, 1], for r in (0, 1]."""
        return Rescaled(self, r)


@dataclass(frozen=True)
class Constant(OrderFunction):
    """alpha(t) = value, a constant order."""

    value: float

    def __post_init__(self):
        if not (math.isfinite(self.value) and self.value > 0.0):
            raise OrderFunctionError(f"constant order must be positive, got {self.value}")

    def _eval_array(self, t: np.ndarray) -> np.ndarray:
        return np.full_like(t, self.value)


def _capped_log_power(t: np.ndarray, gamma: float) -> np.ndarray:
    """max(1, |ln t|)**-gamma: |ln t|**-gamma below e^-1, 1 above, 0 at t = 0."""
    with np.errstate(divide="ignore"):
        return np.maximum(1.0, np.abs(np.log(t))) ** -gamma


@dataclass(frozen=True)
class _Offset(OrderFunction):
    """alpha0 + lam * shape(t): the three offset families' shared parameters."""

    alpha0: float
    lam: float
    gamma: float

    def __post_init__(self):
        for name in ("alpha0", "lam", "gamma"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise OrderFunctionError(f"{name} must be positive and finite, got {v}")


class PowerOffset(_Offset):
    """alpha(t) = alpha0 + lam * t**gamma, increasing from alpha0."""

    def _eval_array(self, t: np.ndarray) -> np.ndarray:
        return self.alpha0 + self.lam * t**self.gamma


class LogPowerOffset(_Offset):
    """alpha(t) = alpha0 + lam * max(1, |ln t|)**(-gamma).

    Equals alpha0 + lam * |ln t|**(-gamma) on (0, e^-1] and alpha0 + lam on
    [e^-1, 1]; the cap keeps the profile bounded and non-decreasing.
    eval(0) = alpha0 (right limit).
    """

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return (_E_INV,)

    def _eval_array(self, t: np.ndarray) -> np.ndarray:
        return self.alpha0 + self.lam * _capped_log_power(t, self.gamma)


class ExpOffset(_Offset):
    """alpha(t) = alpha0 + exp(-lam * t**(-gamma)), increasing; eval(0) = alpha0."""

    def _eval_array(self, t: np.ndarray) -> np.ndarray:
        # t**-gamma may hit inf at tiny t; exp(-inf) = 0 is the right limit
        with np.errstate(divide="ignore", over="ignore"):
            inv = t**-self.gamma
        return self.alpha0 + np.exp(-self.lam * inv)


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
        return _capped_log_power(t, self.gamma)


@dataclass(frozen=True)
class ReciprocalLog(LogPower):
    """alpha(t) = 1/|ln t| on (0, e^-1], 1 on [e^-1, 1], 0 at t = 0.

    The canonical profile with t**alpha(t) = e^-1 identically near zero, the
    borderline of compactness.  It is LogPower at gamma = 1, which is not a
    worked family: the entropy bounds of LogPower need gamma in (0, 1).
    """

    gamma: float = field(default=1.0, init=False, repr=False)


@dataclass(frozen=True)
class Tabulated(OrderFunction):
    """Profile interpolated from (node, value) samples.

    The samples are held as a ``GridFunction``, whose node checks,
    interpolant and CSV reader the profile uses: ``interpolation`` is "step"
    (value at the left node on each cell) or "linear".  The domain is
    [nodes[0], nodes[-1]], inside [0, 1], and every value is positive.
    """

    nodes: tuple[float, ...]
    values: tuple[float, ...]
    interpolation: str = "linear"

    def __post_init__(self):
        try:
            table = GridFunction(self.nodes, self.values, self.interpolation)
        except ValueError as exc:
            raise OrderFunctionError(str(exc)) from None
        if not (table.nodes[0] >= 0.0 and table.nodes[-1] <= 1.0):
            raise OrderFunctionError("nodes must lie within [0, 1]")
        if np.any(table.values <= 0.0):
            raise OrderFunctionError("values must all be finite and strictly positive")
        object.__setattr__(self, "nodes", tuple(table.nodes.tolist()))
        object.__setattr__(self, "values", tuple(table.values.tolist()))
        object.__setattr__(self, "_table", table)

    @property
    def domain(self) -> tuple[float, float]:
        return (self.nodes[0], self.nodes[-1])

    @property
    def nondecreasing(self) -> bool:
        return bool(np.all(np.diff(self._table.values) >= 0.0))

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return self.nodes[1:-1]

    def _eval_array(self, t: np.ndarray) -> np.ndarray:
        return self._table(t)

    @classmethod
    def from_csv(cls, path) -> "Tabulated":
        """Load (t, alpha) samples as GridFunction.from_csv reads them: a
        `# interpretation=step` line makes a step profile, linear otherwise."""
        try:
            table = GridFunction.from_csv(path)
        except ValueError as exc:
            raise OrderFunctionError(str(exc)) from None
        return cls(table.nodes, table.values, table.interpretation)


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


def _checked_scale(r: float) -> float:
    if not 0.0 < r <= 1.0:
        raise OrderFunctionError(f"rescale factor must be in (0, 1], got {r}")
    return float(r)


@dataclass(frozen=True)
class Rescaled(OrderFunction):
    """alpha(r * t): the profile seen by the scaling identity on [0, r]."""

    inner: OrderFunction
    scale: float

    def __post_init__(self):
        object.__setattr__(self, "scale", _checked_scale(self.scale))

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

    def rescale(self, r: float) -> "OrderFunction":
        # flatten so rescale(rescale(a, r1), r2) is bit-identical to
        # rescale(a, r1*r2); r is checked before the scales are multiplied
        return Rescaled(self.inner, self.scale * _checked_scale(r))
