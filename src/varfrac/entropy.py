"""Entropy-number brackets: constructive upper bounds, formula lower bounds,
partition strategies, predicted asymptotic rates, and rate regression.

Every bound is evaluated as a "shape": the unknown multiplicative constants
of the underlying estimates are set to 1.  Consumers should therefore test
exponents, ratios, and orderings, never absolute levels.  Upper bounds come
in two constructions: a single cut at radius r (two blocks), and an iterated
partition 0 = r_0 < r_1 < ... < r_m = 1 whose blocks each receive an
approximation budget.  The lower bound is the volume-comparison shape
n^-a1 r^(a1 + 1/q - 1/p) with a1 = sup of the order on [0, r].

The four worked families are the order classes in FAMILIES, and the family
functions take the order instance itself.  Each family prescribes its own
cut radii and, for the power-offset family, a partition with
logarithmically many blocks and budgets n_j ~ n / j^2.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .core import csv_text
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
    "local_norm_bound",
    "predict_rate",
    "choose_r",
    "fit_rate",
    "build_example_estimate",
    "family_name",
    "FAMILIES",
]

#: smallest entropy index at which the predicted rates and the prescribed
#: radii are evaluated
MIN_INDEX = 16

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
        return asdict(self)


def _check_normal(column: str, value: float, where: str) -> None:
    """Reject a ``column`` bound at ``where`` that is not a normal double."""
    if not (math.isfinite(value) and value >= sys.float_info.min):
        raise ValueError(
            f"{column} bound at {where} is {value!r}; bounds must be finite and at "
            f"least {sys.float_info.min!r}, the smallest normal double"
        )


@dataclass(frozen=True)
class EntropyEstimate:
    """Per-index entropy bracket for one family.

    lower may be None for families with no prescribed lower construction.
    All stored values are shape values (constants set to 1).  Every value
    must be a normal double, finite and at least ``sys.float_info.min``: a
    subnormal one has lost digits.
    """

    n_values: tuple[int, ...]
    lower: tuple[float, ...] | None
    upper: tuple[float, ...]
    predicted: tuple[float, ...] | None = None

    def __post_init__(self):
        ns = tuple(int(n) for n in self.n_values)
        columns = {"upper": tuple(float(v) for v in self.upper)}
        for name in ("lower", "predicted"):
            values = getattr(self, name)
            columns[name] = None if values is None else tuple(float(v) for v in values)
        for name, values in columns.items():
            if values is not None and len(values) != len(ns):
                raise ValueError(f"{name} must align with n_values")
        for i, n in enumerate(ns):
            for name, values in columns.items():
                if values is not None:
                    _check_normal(name, values[i], f"n = {n}")
        up, lo = columns["upper"], columns["lower"]
        if lo is not None and any(a > b for a, b in zip(lo, up)):
            raise ValueError("lower bound exceeds upper bound")
        object.__setattr__(self, "n_values", ns)
        for name, values in columns.items():
            object.__setattr__(self, name, values)

    def csv_text(self) -> str:
        """The bracket as CSV: n,lower,upper,predicted, absent columns left empty."""
        absent = (None,) * len(self.n_values)
        rows = zip(self.n_values, self.lower or absent, self.upper, self.predicted or absent)
        return csv_text("n,lower,upper,predicted", rows)


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
    """Volume-route lower-bound shape: n^-a1 r^(a1 + 1/q - 1/p), a1 = sup on [0, r].

    The order must be non-decreasing, as the worked families are, so a1 is
    alpha(r).
    """
    if not (0.0 < r <= 1.0):
        raise ValueError(f"need 0 < r <= 1, got {r}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not alpha.nondecreasing:
        raise ValueError("the formula lower bound needs a non-decreasing order")
    a1 = float(alpha.eval(r))
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
    if n < MIN_INDEX:
        raise ValueError(f"rates are evaluated for n >= {MIN_INDEX}, got {n}")
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


def _matched_index(alpha: OrderFunction, n: int) -> tuple[int, PartitionPlan | None]:
    """Entropy index at which a family's bounds for grid value n apply, with the
    power-offset partition it comes from (None for the other families): N - m + 1
    of that partition, 2 * ceil(n / 2) - 1 for the two equal blocks of the
    two-block families, and n for the threshold family."""
    family = family_name(alpha)
    if family == "Example1":
        partition = example1_partition(n, alpha.gamma)
        return partition.total - partition.blocks + 1, partition
    if family in ("Example2", "Example3"):
        return 2 * ((n + 1) // 2) - 1, None
    return n, None


def local_norm_bound(alpha: OrderFunction, r: float) -> float:
    """Norm bound for the operator restricted to (0, r], near endpoint zero.

    The sup over 0 < t <= r of (2t)^alpha(t), the maximal-function route
    with constant 1; it vanishes with r exactly when the embedding at 0 is
    compact.  The sup is scanned on a geometric grid reaching t = r * 2^-200;
    for tiny r the points that underflow to 0 are dropped.
    """
    if not (0.0 < r <= 1.0):
        raise ValueError(f"need 0 < r <= 1, got {r}")
    t = r * 2.0 ** -np.arange(0, 201, dtype=float)
    t = t[t > 0.0]
    a = np.asarray(alpha.eval(t))
    return float(np.max(np.exp(a * np.log(2.0 * t))))


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

    Everything is checked before any bound is computed: the exponents (p = q
    outside the power-offset family), then each grid value, which must
    convert to a float and whose matched index must be at least MIN_INDEX
    and have the family's radii in (0, 1).
    The matched index never decreases with n, so the smallest accepted grid
    value is the first one whose index reaches MIN_INDEX.
    """
    family = family_name(alpha)
    if family != "Example1" and p != q:
        raise ValueError(f"{family} rates are stated for matching exponents p = q")
    smallest = next(n for n in itertools.count(3) if _matched_index(alpha, n)[0] >= MIN_INDEX)
    sides = {"Example1": ("lower",), "Example4": ("upper",)}.get(family, ("upper", "lower"))
    plan = []
    for n in map(int, n_grid):
        if n < smallest:
            raise ValueError(
                f"{family} bounds start at matched index {MIN_INDEX}, "
                f"so grid values must be at least {smallest}; got {n}"
            )
        try:
            float(n)
        except OverflowError:
            raise ValueError(f"grid value {n} does not convert to a float") from None
        idx, partition = _matched_index(alpha, n)
        radii = {}
        for side in sides:
            try:
                radii[side] = choose_r(alpha, idx, side)
            except ValueError:
                raise ValueError(
                    f"{family} with these parameters has no prescribed {side} radius "
                    f"in (0, 1) at grid value {n} (matched index {idx})"
                ) from None
        plan.append((n, idx, radii, partition))

    lows, ups, preds = [], [], []
    for n, idx, radii, partition in plan:
        if family == "Example1":
            ups.append(iterated_upper(alpha, partition, p, q).value)
        elif family == "Example4":
            r = radii["upper"]
            ups.append(local_norm_bound(alpha, r) + idx ** (-float(alpha.eval(r))))
        else:
            half = (n + 1) // 2
            ups.append(two_block_upper(alpha, radii["upper"], half, half, p, q))
        _check_normal("upper", ups[-1], f"grid value {n}")
        if "lower" in radii:
            lows.append(formula_lower(alpha, radii["lower"], idx, p, q))
            _check_normal("lower", lows[-1], f"grid value {n}")
        preds.append(predict_rate(alpha, idx, p, q)["upper"])
        _check_normal("predicted", preds[-1], f"grid value {n}")
    return EntropyEstimate(
        n_values=tuple(idx for _, idx, _, _ in plan),
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
    if side not in ("upper", "lower", "predicted"):
        raise ValueError(f"unknown side {side!r}")
    data = getattr(est, side)
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
