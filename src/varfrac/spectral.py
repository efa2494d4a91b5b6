"""Discretized operator matrices, singular values, and entropy conversions.

The operator is discretized against normalized indicators on n equal cells
of [0, r], giving the lower-triangular matrix

    sigma_ij = (n/r)^(1/p - 1/q + 1) *
               int_{I_i} Gamma(alpha(t))^-1 int_{I_j cap [0,t]} (t-s)^(alpha(t)-1) ds dt.

The inner integral is a closed-form kernel moment, the difference of
(t - e_k)_+^alpha(t) at the two edges of I_j, taken before the outer
integral.  The outer integral over I_i splits I_i at every breakpoint of
alpha inside it.  On each piece, the diagonal and the subdiagonal, whose
moments lose smoothness at the left edge of I_i, and the column next to
them, whose nearest singularity is too close for one 8-point panel, use
composite 8-point Gauss on panels graded toward the piece's left edge;
every other column is analytic well beyond the piece and uses plain
8-point Gauss.
Pieces are processed in blocks, with alpha, gamma and the weights evaluated
once per block.  Distances are taken in units of h from the left edge of
I_i, and every entry is summed along the points axis in one fixed order, so
a constant order gives an exactly Toeplitz matrix (entry (i, j) depends on
i - j alone, bit for bit).

Singular values of this matrix are the approximation numbers of the
discretized operator for p = q = 2; Carl's inequality converts
approximation numbers into entropy upper bounds, and the volume comparison
of mapped balls gives the matching lower bound.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import pairwise

import numpy as np

from ._csvio import atomic_write_text
from .core import _gauss_panels, gamma
from .orders import OrderFunction

__all__ = [
    "OperatorMatrix",
    "ApproximationReport",
    "VolumetricBound",
    "assemble_matrix",
    "singular_values",
    "approximation_numbers",
    "carl_constant",
    "carl_entropy_upper",
    "ball_volume_root",
    "volumetric_entropy_lower",
    "diagonal_floor",
    "index_domination_report",
    "spectrum_to_csv",
]

# Outer rule on a unit piece, in local units of h.  The near columns use
# 8-point Gauss on panels graded 2^-24..2^-1 toward the left edge: the
# innermost panel [0, 2^-24] keeps the kernel corner at a panel edge, so only
# that panel sees a non-smooth integrand and its mass is O(2^-24) of the
# piece.  The other columns use one 8-point panel, whose nodes come last.
_X8, _W8 = np.polynomial.legendre.leggauss(8)
_GRADED = _gauss_panels(np.append(0.0, 2.0 ** -np.arange(24, -1, -1.0)), _X8, _W8)
_PLAIN = _gauss_panels([0.0, 1.0], _X8, _W8)
_CORNER = _GRADED[0].size
_NODES = np.append(_GRADED[0], _PLAIN[0])
_WEIGHTS = np.append(_GRADED[1], _PLAIN[1])

#: pieces per block: alpha, gamma and the weights are evaluated once per
#: block.  Its (pieces x cells x 8) temporaries take 1 KiB per cell; 16
#: halves them against 32 and runs within 10% of it.
_BLOCK = 16


@dataclass(frozen=True)
class OperatorMatrix:
    """Lower-triangular discretization of the operator on n cells of [0, r]."""

    n: int
    r: float
    p: float
    q: float
    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if e.shape != (self.n, self.n):
            raise ValueError(f"entries must be {self.n}x{self.n}, got {e.shape}")
        if not np.all(np.isfinite(e)):
            raise ValueError("matrix entries must be finite")
        if np.any(np.triu(e, 1) != 0.0):
            raise ValueError("strict upper triangle must be exactly zero")
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)

    @property
    def diagonal(self) -> np.ndarray:
        return np.diag(self.entries)

    def to_csv(self, path: str) -> None:
        fields = {"n": self.n, "p": self.p, "q": self.q, "r": self.r}
        header = json.dumps({"basis_tag": "normalized-indicator", **fields}, sort_keys=True)
        lines = ["# " + header]
        for row in self.entries:
            lines.append(",".join(repr(float(x)) for x in row))
        atomic_write_text(path, "\n".join(lines) + "\n")


@dataclass(frozen=True)
class ApproximationReport:
    """Approximation numbers with the discretization-doubling check attached.

    values     a_1..a_n_max from the N_disc-cell discretization
    n_disc     cell count actually used
    drift      max relative change against the 2*N_disc discretization
    converged  drift < 1%; when False the values are still usable but coarse
    """

    values: np.ndarray
    n_disc: int
    drift: float
    converged: bool


@dataclass(frozen=True)
class VolumetricBound:
    """Volume-comparison lower bound on e_{n+1} with its factor breakdown."""

    value: float
    n: int
    volume_ratio_root: float
    diagonal_geomean: float


def assemble_matrix(
    alpha: OrderFunction,
    n: int,
    r: float = 1.0,
    p: float = 2.0,
    q: float = 2.0,
) -> OperatorMatrix:
    """Assemble the lower-triangular discretization on n equal cells of [0, r].

    In local coordinates t = e_i + h x and d = i - j, the inner integral
    over I_j cap [0, t] is the exact kernel moment
    h^a ((d + x)^a - (d - 1 + x)_+^a) / a, a difference taken before the
    outer integral; h^a(t) goes into the weights, and d + x is formed from
    the integer d, never from absolute positions.

    The outer integral splits I_i at each breakpoint of alpha inside it.  On
    each piece, the two corner columns, the diagonal x^a and the subdiagonal
    (1 + x)^a - x^a, use 8-point Gauss on 25 panels graded toward the
    piece's left edge, and so does d = 2: its singularity at Gauss
    coordinate -3 leaves one 8-point panel a relative error of up to 1e-12.
    The columns d >= 3 have theirs at -5 or further and use plain 8-point
    Gauss.  Pieces run in blocks of _BLOCK, with alpha, gamma and the
    weights evaluated once per block.  Each entry is summed along the
    contiguous points axis in one fixed order, so for a constant order
    entry (i, j) depends on i - j alone: the matrix is exactly
    lower-triangular Toeplitz and its diagonal exactly flat.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not (0.0 < r <= 1.0):
        raise ValueError(f"need 0 < r <= 1, got {r}")
    if not (p >= 1.0 and q >= 1.0):
        raise ValueError("need p, q >= 1")
    h = r / n
    prefactor = (n / r) ** (1.0 / p - 1.0 / q + 1.0)
    edges = h * np.arange(n + 1)

    # pieces (cell, lo, hi) in local units of h: I_i split at each breakpoint inside it
    cuts: dict[int, list[float]] = {}
    for b in alpha.breakpoints:
        i = int(np.searchsorted(edges, b, side="right")) - 1
        if 0 <= i < n and edges[i] < b:
            cuts.setdefault(i, []).append((b - edges[i]) / h)
    pieces = [
        (i, lo, hi) for i in range(n) for lo, hi in pairwise([0.0, *sorted(cuts.get(i, ())), 1.0])
    ]
    cell, lo, hi = (np.array(col) for col in zip(*pieces))

    entries = np.zeros((n, n))
    for blk in range(0, cell.size, _BLOCK):
        rows = cell[blk : blk + _BLOCK]
        base = lo[blk : blk + _BLOCK, None]
        width = hi[blk : blk + _BLOCK, None] - base
        x = base + width * _NODES
        a = np.asarray(alpha.eval(edges[rows, None] + h * x))
        w = h ** (a + 1.0) * (width * _WEIGHTS) / (a * gamma(a))
        # weighted moment sums by distance d = i - j: the near columns
        # d = 0, 1, 2 on the graded nodes, d >= 3 on the plain ones
        span = max(int(rows[-1]), 2)
        mom = np.empty((rows.size, span + 1))
        xc, ac, wc = x[:, :_CORNER], a[:, :_CORNER], w[:, :_CORNER]
        corner = np.power(xc, ac)
        first = np.power(1.0 + xc, ac)
        mom[:, 0] = np.sum(corner * wc, axis=1)
        mom[:, 1] = np.sum((first - corner) * wc, axis=1)
        mom[:, 2] = np.sum((np.power(2.0 + xc, ac) - first) * wc, axis=1)
        xf, af, wf = x[:, None, _CORNER:], a[:, None, _CORNER:], w[:, None, _CORNER:]
        far = np.arange(2.0, span + 1.0)[:, None] + xf
        np.power(far, af, out=far)
        far = far[:, 1:] - far[:, :-1]
        far *= wf
        mom[:, 3:] = np.sum(far, axis=2)
        for k, i in enumerate(rows.tolist()):
            entries[i, : i + 1] += mom[k, i::-1]
    entries *= prefactor
    return OperatorMatrix(n=n, r=r, p=p, q=q, entries=entries)


def singular_values(m: OperatorMatrix) -> np.ndarray:
    """Full singular spectrum of the assembled matrix, descending."""
    if m.n > 4096:
        raise ValueError("dense spectrum capped at n = 4096")
    return np.linalg.svd(m.entries, compute_uv=False)


def approximation_numbers(
    alpha: OrderFunction,
    n_max: int,
    n_disc: int | None = None,
    r: float = 1.0,
) -> ApproximationReport:
    """Approximation numbers a_1..a_n_max of the operator on L2[0, r].

    For p = q = 2 the approximation numbers equal singular values, so they
    are read off the n_disc-cell discretization.  The same spectrum is
    recomputed at 2 * n_disc cells; the reported drift is the maximum
    relative change over the returned range and must be below 1% for the
    converged flag.  Other (p, q) pairs have no dense desk-scale route and
    are served by the entropy-bound formulas instead.
    """
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got {n_max}")
    if n_disc is None:
        n_disc = max(8 * n_max, 256)
    if n_disc < 8 * n_max:
        raise ValueError(f"need n_disc >= 8*n_max = {8 * n_max}, got {n_disc}")
    if 2 * n_disc > 4096:
        raise ValueError("n_disc capped at 2048 so the doubled check stays dense")
    sv = singular_values(assemble_matrix(alpha, n_disc, r=r))[:n_max]
    sv2 = singular_values(assemble_matrix(alpha, 2 * n_disc, r=r))[:n_max]
    drift = float(np.max(np.abs(sv / sv2 - 1.0)))
    return ApproximationReport(values=sv, n_disc=n_disc, drift=drift, converged=drift < 0.01)


def carl_constant(alpha_exp: float) -> float:
    """Constant in the approximation-to-entropy conversion: 2^7 (32(2+a))^a."""
    if not (alpha_exp > 0.0 and math.isfinite(alpha_exp)):
        raise ValueError(f"need a positive finite exponent, got {alpha_exp}")
    return 2.0**7 * (32.0 * (2.0 + alpha_exp)) ** alpha_exp


def carl_entropy_upper(a_seq, alpha_exp: float) -> np.ndarray:
    """Entropy upper bounds C_a n^-a max_{k<=n} k^a a_k from approximation numbers."""
    a = np.asarray(a_seq, dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise ValueError("need a one-dimensional nonempty sequence")
    if np.any(np.diff(a) > 1e-12 * (1.0 + np.abs(a[:-1]))):
        raise ValueError("approximation numbers must be non-increasing")
    c = carl_constant(alpha_exp)
    k = np.arange(1, a.size + 1, dtype=float)
    running = np.maximum.accumulate(k**alpha_exp * a)
    return c * k**-alpha_exp * running


def ball_volume_root(n: int, p: float) -> float:
    """n-th root of the volume of the unit p-ball: 2 Gamma(1+1/p) / Gamma(n/p+1)^(1/n).

    Evaluated through log-gamma so large n cannot overflow; p = inf gives
    exactly 2 (both gamma factors are 1).
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not p >= 1.0:
        raise ValueError(f"need p >= 1, got {p}")
    inv = 0.0 if math.isinf(p) else 1.0 / p
    return 2.0 * math.gamma(1.0 + inv) * math.exp(-math.lgamma(n * inv + 1.0) / n)


def volumetric_entropy_lower(m: OperatorMatrix) -> VolumetricBound:
    """Volume-comparison lower bound: e_{n+1} >= (vol ratio)^(1/n) (prod diag)^(1/n) / 2.

    The mapped p-ball contains a box whose volume is the product of the
    diagonal entries, so comparing with q-ball coverings bounds e_{n+1}
    below.  When p = q the volume ratio is exactly one, and an all-equal
    diagonal short-circuits the geometric mean, so diag(d, ..., d) yields
    exactly d/2.
    """
    diag = m.diagonal
    if np.any(diag <= 0.0):
        raise ValueError("volumetric bound requires a strictly positive diagonal")
    ratio = ball_volume_root(m.n, m.p) / ball_volume_root(m.n, m.q)
    if np.all(diag == diag[0]):
        geomean = float(diag[0])
    else:
        geomean = float(np.exp(np.mean(np.log(diag))))
    return VolumetricBound(
        value=0.5 * ratio * geomean,
        n=m.n,
        volume_ratio_root=ratio,
        diagonal_geomean=geomean,
    )


def diagonal_floor(alpha: OrderFunction, n: int, r: float, p: float, q: float) -> float:
    """Proven floor for every diagonal entry:

    sigma_jj >= (n/r)^(1/p-1/q+1) * (1/C1) * (r/2n)^(a1+1), C1 = max(1, Gamma(a1+1))
    with a1 the supremum of alpha on [0, r].
    """
    a1 = alpha.supremum(0.0, r)
    c1 = max(1.0, gamma(a1 + 1.0))
    return (n / r) ** (1.0 / p - 1.0 / q + 1.0) / c1 * (r / (2.0 * n)) ** (a1 + 1.0)


def index_domination_report(sv_smooth, sv_rough) -> dict:
    """Soft check that more smoothing gives index-wise smaller singular values.

    Returns the number of indices where sv_smooth exceeds 1.01 * sv_rough
    and the worst relative excess.  Reported, not asserted: the
    underlying monotonicity is expected at desk scale but is not a theorem.
    """
    a = np.asarray(sv_smooth, dtype=float)
    b = np.asarray(sv_rough, dtype=float)
    k = min(a.size, b.size)
    a, b = a[:k], b[:k]
    excess = a / b - 1.0
    violated = excess > 0.01
    return {
        "checked": int(k),
        "violations": int(np.count_nonzero(violated)),
        "worst_excess": float(np.max(excess)) if k else 0.0,
    }


def _spectrum_text(values) -> str:
    """CSV text of a descending singular spectrum: columns k, sigma_k.

    A dense SVD of an n x n matrix resolves singular values only down to
    about n * eps * sigma_1, so values below that floor print as 0.0; their
    digits would be roundoff noise.
    """
    vals = np.asarray(values, dtype=float)
    floor = vals.size * np.finfo(float).eps * np.max(vals, initial=0.0)
    shown = np.where(vals >= floor, vals, 0.0)
    lines = ["k,sigma_k"]
    lines += [f"{k},{float(v)!r}" for k, v in enumerate(shown, start=1)]
    return "\n".join(lines) + "\n"


def spectrum_to_csv(values, path: str) -> None:
    """Write a singular spectrum as CSV with columns k, sigma_k (see _spectrum_text)."""
    atomic_write_text(path, _spectrum_text(values))
