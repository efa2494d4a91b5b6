"""Entropy-number brackets: constructive upper bounds, formula lower bounds,
partition strategies, predicted asymptotic rates, and rate regression.

Every bound is evaluated as a "shape": the unknown multiplicative constants
of the underlying estimates are set to 1.  Consumers should therefore test
exponents, ratios, and orderings, never absolute levels.  Upper bounds come
in two constructions: a single cut at radius r (two blocks), and an iterated
partition 0 = r_0 < r_1 < ... < r_m = 1 whose blocks each receive an
approximation budget.  The lower bound is the volume-comparison shape
n^-a1 r^(a1 + 1/q - 1/p) with a1 the supremum of the order on [0, r].

The four worked families are the order classes in FAMILIES, and the family
functions take the order instance itself.  Each family prescribes its own
cut radii and, for the power-offset family, a partition with
logarithmically many blocks and budgets n_j ~ n / j^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._csvio import atomic_write_text
from .diagnostics import local_norm_bound
from .orders import ExpOffset, LogPower, LogPowerOffset, OrderFunction, PowerOffset

__all__ = [
    "PartitionPlan",
    "EntropyEstimate",
    "IteratedBound",
    "RateFit",
    "two_block_upper",
    "iterated_upper",
    "example1_partition",
    "formula_lower",
    "predict_rate",
    "choose_r",
    "fit_rate",
    "build_example_estimate",
    "family_name",
    "FAMILIES",
]

#: the paper's worked examples, keyed by the order class that models each
FAMILIES = {
    PowerOffset: "Example1",
    LogPowerOffset: "Example2",
    ExpOffset: "Example3",
    LogPower: "Example4",
}


@dataclass(frozen=True)
class PartitionPlan:
    """Partition 0 = r_0 < r_1 < ... < r_m = 1 with per-block budgets n_j >= 1.

    clamped records whether any budget had to be raised to 1; the
    constructions guarantee n_j >= 1 up to rounding at tiny n.
    """

    cut_points: tuple[float, ...]
    budgets: tuple[int, ...]
    clamped: bool = False

    def __post_init__(self):
        cuts = tuple(float(c) for c in self.cut_points)
        buds = tuple(int(b) for b in self.budgets)
        if len(cuts) < 2 or cuts[0] != 0.0 or cuts[-1] != 1.0:
            raise ValueError("cut points must run from 0 to 1")
        if any(b <= a for a, b in zip(cuts, cuts[1:])):
            raise ValueError("cut points must be strictly increasing")
        if len(buds) != len(cuts) - 1:
            raise ValueError("need one budget per block")
        if any(b < 1 for b in buds):
            raise ValueError("budgets must be >= 1")
        object.__setattr__(self, "cut_points", cuts)
        object.__setattr__(self, "budgets", buds)

    @property
    def blocks(self) -> int:
        return len(self.budgets)

    @property
    def total(self) -> int:
        return sum(self.budgets)


@dataclass(frozen=True)
class IteratedBound:
    """Iterated-partition upper bound with its per-block breakdown.

    The bound applies at entropy index total - blocks + 1.
    """

    value: float
    index: int
    terms: tuple[float, ...]


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of ln(value) against a rate model.

    coefficients: (intercept, ln n slope) for "power"; with the slope of the
    correction regressor (ln ln n or ln ln ln n) appended for the other
    models.  degenerate flags an ill-conditioned design (nearly collinear
    regressors over the given n range).
    """

    model: str
    side: str
    coefficients: tuple[float, ...]
    residual: float
    condition: float
    degenerate: bool

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "side": self.side,
            "coefficients": list(self.coefficients),
            "residual": self.residual,
            "condition": self.condition,
            "degenerate": self.degenerate,
        }


@dataclass(frozen=True)
class EntropyEstimate:
    """Per-index entropy bracket for one family.

    lower may be None for families with no prescribed lower construction.
    All stored values are shape values (constants set to 1).
    """

    n_values: tuple[int, ...]
    lower: tuple[float, ...] | None
    upper: tuple[float, ...]
    predicted: tuple[float, ...] | None = None

    def __post_init__(self):
        ns = tuple(int(n) for n in self.n_values)
        up = tuple(float(v) for v in self.upper)
        if len(up) != len(ns):
            raise ValueError("upper must align with n_values")
        if any(v <= 0.0 or not math.isfinite(v) for v in up):
            raise ValueError("bound values must be positive and finite")
        lo = self.lower
        if lo is not None:
            lo = tuple(float(v) for v in lo)
            if len(lo) != len(ns):
                raise ValueError("lower must align with n_values")
            if any(v <= 0.0 or not math.isfinite(v) for v in lo):
                raise ValueError("bound values must be positive and finite")
            if any(a > b for a, b in zip(lo, up)):
                raise ValueError("lower bound exceeds upper bound")
        pred = self.predicted
        if pred is not None:
            pred = tuple(float(v) for v in pred)
            if len(pred) != len(ns):
                raise ValueError("predicted must align with n_values")
        object.__setattr__(self, "n_values", ns)
        object.__setattr__(self, "upper", up)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "predicted", pred)

    def csv_text(self) -> str:
        """The bracket as CSV: n,lower,upper,predicted, absent columns left empty."""
        lines = ["n,lower,upper,predicted"]
        for i, n in enumerate(self.n_values):
            lo = repr(self.lower[i]) if self.lower is not None else ""
            pred = repr(self.predicted[i]) if self.predicted is not None else ""
            lines.append(f"{n},{lo},{repr(self.upper[i])},{pred}")
        return "\n".join(lines) + "\n"

    def to_csv(self, path: str) -> None:
        atomic_write_text(path, self.csv_text())


# --------------------------------------------------------------------------
# bound formulas


def _require_admissible(alpha: OrderFunction, p: float, q: float) -> float:
    """Check monotonicity and the order floor alpha(0) > (1/p - 1/q)_+."""
    if not alpha.nondecreasing:
        raise ValueError("upper-bound constructions need a non-decreasing order")
    a0 = float(alpha.eval(0.0))
    floor = max(1.0 / p - 1.0 / q, 0.0)
    if not a0 > floor:
        raise ValueError(f"need alpha(0) > (1/p - 1/q)_+ = {floor}, got {a0}")
    return a0


def two_block_upper(
    alpha: OrderFunction,
    r: float,
    n1: int,
    n2: int,
    p: float = 2.0,
    q: float = 2.0,
) -> float:
    """Single-cut upper bound on e_{n1+n2-1}:

    r^(alpha(0) + 1/q - 1/p) n1^-alpha(0) + n2^-alpha(r), shape constants 1.
    """
    if not (0.0 < r < 1.0):
        raise ValueError(f"need 0 < r < 1, got {r}")
    if n1 < 1 or n2 < 1:
        raise ValueError("block budgets must be >= 1")
    a0 = _require_admissible(alpha, p, q)
    ar = float(alpha.eval(r))
    return r ** (a0 + 1.0 / q - 1.0 / p) * n1 ** (-a0) + n2 ** (-ar)


def iterated_upper(
    alpha: OrderFunction,
    plan: PartitionPlan,
    p: float = 2.0,
    q: float = 2.0,
) -> IteratedBound:
    """Iterated-partition upper bound on e_{N-m+1}:

    sum over blocks of r_j^(alpha(r_{j-1}) + 1/q - 1/p) n_j^-alpha(r_{j-1}),
    where r_{j-1}, r_j delimit block j and n_j is its budget.
    """
    _require_admissible(alpha, p, q)
    delta = 1.0 / q - 1.0 / p
    terms = []
    for j in range(plan.blocks):
        a_left = float(alpha.eval(plan.cut_points[j]))
        r_j = plan.cut_points[j + 1]
        terms.append(r_j ** (a_left + delta) * plan.budgets[j] ** (-a_left))
    return IteratedBound(
        value=float(sum(terms)),
        index=plan.total - plan.blocks + 1,
        terms=tuple(terms),
    )


def example1_partition(n: int, gamma: float) -> PartitionPlan:
    """Partition for the power-offset family: m = 1 + [ln n] blocks with
    cuts r_j = (j / ln n)^(1/gamma) and budgets n_j = [n / j^2].

    The budget sum is below (pi^2/6) n <= 2n; budgets are clamped to 1 (and
    flagged) if integer rounding at small n produces a zero.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if not (gamma > 0.0 and math.isfinite(gamma)):
        raise ValueError(f"gamma must be positive, got {gamma}")
    ln_n = math.log(n)
    m = 1 + int(ln_n)
    cuts = [0.0]
    cuts += [(j / ln_n) ** (1.0 / gamma) for j in range(1, m)]
    cuts.append(1.0)
    budgets = []
    clamped = False
    for j in range(1, m + 1):
        b = n // (j * j)
        if b < 1:
            b = 1
            clamped = True
        budgets.append(b)
    return PartitionPlan(cut_points=tuple(cuts), budgets=tuple(budgets), clamped=clamped)


def formula_lower(
    alpha: OrderFunction,
    r: float,
    n: int,
    p: float = 2.0,
    q: float = 2.0,
) -> float:
    """Volume-route lower-bound shape: n^-a1 r^(a1 + 1/q - 1/p), a1 = sup on [0, r]."""
    if not (0.0 < r <= 1.0):
        raise ValueError(f"need 0 < r <= 1, got {r}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    a1 = alpha.supremum(0.0, r)
    return n ** (-a1) * r ** (a1 + 1.0 / q - 1.0 / p)


# --------------------------------------------------------------------------
# worked families


def family_name(alpha: OrderFunction) -> str:
    """Worked-example name of a family order, such as "Example1" for PowerOffset.

    The threshold family (Example4) is only worked for gamma in (0, 1).
    """
    name = FAMILIES.get(type(alpha))
    if name is None:
        raise ValueError(
            "entropy bounds need a worked-family order ex1..ex4 (PowerOffset, "
            f"LogPowerOffset, ExpOffset or LogPower), got {type(alpha).__name__}"
        )
    if name == "Example4" and not alpha.gamma < 1.0:
        raise ValueError(f"Example4 needs gamma in (0, 1), got {alpha.gamma}")
    return name


def predict_rate(
    alpha: OrderFunction,
    n: int,
    p: float = 2.0,
    q: float = 2.0,
) -> dict:
    """Predicted asymptotic entropy rates (shape values) at index n.

    Returns {"upper": value, "lower": value-or-None}.  The power-offset and
    exponential-offset families share one two-sided rate; the log-power
    offset family carries different exponential constants on the two sides;
    the threshold family has no prescribed lower rate.
    """
    if n < 16:
        raise ValueError(f"rates are evaluated for n >= 16, got {n}")
    family = family_name(alpha)
    ln_n = math.log(n)
    if family == "Example1":
        alpha0 = alpha.alpha0
        shape = n ** (-alpha0) * ln_n ** (-(alpha0 + 1.0 / q - 1.0 / p) / alpha.gamma)
        return {"upper": shape, "lower": shape}
    if p != q:
        raise ValueError(f"{family} rates are stated for matching exponents p = q")
    if family == "Example2":
        alpha0, gamma = alpha.alpha0, alpha.gamma
        root = (alpha.lam * ln_n) ** (1.0 / (1.0 + gamma))
        base = alpha0 ** (gamma / (1.0 + gamma))
        upper = n ** (-alpha0) * math.exp(-base * root)
        boost = (gamma + 1.0) / gamma ** (gamma / (1.0 + gamma))
        lower = n ** (-alpha0) * math.exp(-base * boost * root)
        return {"upper": upper, "lower": lower}
    if family == "Example3":
        alpha0 = alpha.alpha0
        shape = n ** (-alpha0) * math.log(ln_n) ** (-alpha0 / alpha.gamma)
        return {"upper": shape, "lower": shape}
    return {"upper": math.exp(-(ln_n ** (1.0 - alpha.gamma))), "lower": None}


def choose_r(alpha: OrderFunction, n: int, bound_side: str) -> float:
    """Prescribed cut radius of a worked family for the requested bound side.

    Only the radii actually prescribed by the constructions exist; asking
    for the others (power-offset upper, which uses a partition instead, or
    threshold lower, which has no construction) raises.  The result must
    land in (0, 1) or n is too small.
    """
    if bound_side not in ("upper", "lower"):
        raise ValueError(f"bound_side must be 'upper' or 'lower', got {bound_side!r}")
    family = family_name(alpha)
    ln_n = math.log(n) if n >= 2 else -1.0
    if ln_n <= 0.0:
        raise ValueError(f"need n >= 2, got {n}")

    if family == "Example1":
        if bound_side == "upper":
            raise ValueError("Example1 upper bound uses a partition, not a single radius")
        r = ln_n ** (-1.0 / alpha.gamma)
    elif family == "Example2":
        alpha0, lam, gamma = alpha.alpha0, alpha.lam, alpha.gamma
        scale = lam if bound_side == "upper" else gamma * lam
        r = math.exp(-((scale * ln_n / alpha0) ** (1.0 / (1.0 + gamma))))
    elif family == "Example3":
        alpha0, lam, gamma = alpha.alpha0, alpha.lam, alpha.gamma
        if bound_side == "lower":
            if ln_n <= 1.0:
                raise ValueError(f"n = {n} too small for the prescribed radius")
            r = lam ** (1.0 / gamma) * math.log(ln_n) ** (-1.0 / gamma)
        else:
            if ln_n <= 1.0 or math.log(ln_n) <= 1.0:
                raise ValueError(f"n = {n} too small for the prescribed radius")
            inner = gamma * ln_n / (alpha0 * math.log(math.log(ln_n)))
            if inner <= 1.0:
                raise ValueError(f"n = {n} too small for the prescribed radius")
            r = lam ** (1.0 / gamma) * math.log(inner) ** (-1.0 / gamma)
    else:
        if bound_side == "lower":
            raise ValueError("Example4 has no prescribed lower-bound radius")
        r = 1.0 / n
    if not (0.0 < r < 1.0):
        raise ValueError(f"prescribed radius {r} falls outside (0, 1); n = {n} too small")
    return r


def build_example_estimate(
    alpha: OrderFunction,
    n_grid,
    p: float = 2.0,
    q: float = 2.0,
) -> EntropyEstimate:
    """Evaluate a family's computed bracket and predicted rate over an n grid.

    The power-offset family uses the iterated partition; its bounds apply at
    the matched index N - m + 1, which is what n_values records.  The other
    families use the single-cut construction with their prescribed radii
    (threshold family: local-norm term plus tail, no lower column).  Lower
    bounds are evaluated at the same matched index as the upper bounds.
    """
    family = family_name(alpha)
    ns, lows, ups, preds = [], [], [], []
    for n in n_grid:
        n = int(n)
        if family == "Example1":
            bound = iterated_upper(alpha, example1_partition(n, alpha.gamma), p, q)
            idx, upper = bound.index, bound.value
            lower = formula_lower(alpha, choose_r(alpha, idx, "lower"), idx, p, q)
        elif family in ("Example2", "Example3"):
            half = (n + 1) // 2
            idx = 2 * half - 1
            upper = two_block_upper(alpha, choose_r(alpha, idx, "upper"), half, half, p, q)
            lower = formula_lower(alpha, choose_r(alpha, idx, "lower"), idx, p, q)
        else:
            idx = n
            r = choose_r(alpha, idx, "upper")
            upper = local_norm_bound(alpha, "zero", r) + idx ** (-float(alpha.eval(r)))
            lower = None
        ns.append(idx)
        ups.append(upper)
        if lower is not None:
            lows.append(lower)
        preds.append(predict_rate(alpha, idx, p, q)["upper"])
    return EntropyEstimate(
        n_values=tuple(ns),
        lower=tuple(lows) if lows else None,
        upper=tuple(ups),
        predicted=tuple(preds),
    )


# --------------------------------------------------------------------------
# rate regression


def fit_rate(est: EntropyEstimate, model: str, side: str = "upper") -> RateFit:
    """OLS fit of ln(column) against the model's log regressors.

    Models: "power" regresses on ln n; "power_log" adds ln ln n;
    "power_loglog" adds ln ln ln n instead.  Needs at least 6 points; the
    design-matrix condition number is reported and flags near-collinear
    regressors (degenerate) rather than raising.
    """
    if model not in ("power", "power_log", "power_loglog"):
        raise ValueError(f"unknown model {model!r}")
    if side == "upper":
        data = est.upper
    elif side == "lower":
        data = est.lower
    elif side == "predicted":
        data = est.predicted
    else:
        raise ValueError(f"unknown side {side!r}")
    if data is None:
        raise ValueError(f"estimate has no {side} column")
    if len(data) < 6:
        raise ValueError("need at least 6 data points")
    y = np.log(np.asarray(data, dtype=float))
    n = np.asarray(est.n_values, dtype=float)
    ln_n = np.log(n)
    cols = [np.ones_like(ln_n), ln_n]
    if model == "power_log":
        cols.append(np.log(ln_n))
    elif model == "power_loglog":
        cols.append(np.log(np.log(ln_n)))
    design = np.column_stack(cols)
    coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    residual = float(np.max(np.abs(design @ coef - y)))
    condition = float(np.linalg.cond(design))
    return RateFit(
        model=model,
        side=side,
        coefficients=tuple(float(c) for c in coef),
        residual=residual,
        condition=condition,
        degenerate=condition > 1e8,
    )
