"""Discretized operator matrices, singular values, and the volumetric entropy bound.

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
Distances are taken in units of h from the left edge of I_i, and every
entry is summed over the points in one fixed order, so an entry depends on
alpha only through its samples at the piece's nodes.  So a run of whole
cells with the same samples, such as the cells of a capped logarithmic
order on [1/e, 1], shares one row of moments: only the run's last row is
computed, and every other row of the run is that row shifted.  A constant
order is one run of n cells, and its matrix is exactly Toeplitz (entry
(i, j) depends on i - j alone, bit for bit).  The computed rows run in
blocks through one function, _moments, which forms the weights, checks
their range and sums the moments; the far moments are laid out
points-major, and their 8 point slabs are added in numpy's own pairwise
order, so every entry has the bits of a sum along the points axis.

Singular values of this matrix are the approximation numbers of the
discretized operator for p = q = 2.  approximation_numbers assembles only
the 2n-cell matrix and sums its 2 x 2 blocks into the n-cell one, which is
exact because each coarse cell is the union of two fine ones.  The volume
comparison of mapped balls gives a lower bound on the entropy numbers from
the matrix diagonal.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .core import _gauss_panels, atomic_write_text, csv_text, gamma
from .orders import OrderFunction

__all__ = [
    "OperatorMatrix",
    "ApproximationReport",
    "VolumetricBound",
    "assemble_matrix",
    "singular_values",
    "approximation_numbers",
    "ball_volume_root",
    "volumetric_entropy_lower",
]

# Outer rule on a unit piece, in local units of h.  The near columns use
# 8-point Gauss on panels graded 2^-24..2^-1 toward the left edge: the
# innermost panel [0, 2^-24] keeps the kernel corner at a panel edge, so only
# that panel sees a non-smooth integrand and its mass is O(2^-24) of the
# piece.  The other columns use one 8-point panel, whose nodes come last.
_GRADED = _gauss_panels(np.append(0.0, 2.0 ** -np.arange(24, -1, -1.0)), 8)
_PLAIN = _gauss_panels([0.0, 1.0], 8)
_CORNER = _GRADED[0].size
_NODES = np.append(_GRADED[0], _PLAIN[0])
_WEIGHTS = np.append(_GRADED[1], _PLAIN[1])
_TINY = np.finfo(float).tiny

#: pieces per block: gamma and the weights are evaluated once per block.
#: Its (pieces x 8 x cells) temporaries take 1 KiB per cell.  Timed on
#: PowerOffset and LogPowerOffset orders (one CPU, one BLAS thread,
#: interleaved): at n = 256, 32 ran 5% faster than 16 in 85-89% of 150
#: pairs and 64 ran 9-15% slower; at n = 2048 the three were within 10%
#: in no fixed order.  16 keeps the temporaries at half of 32's.
_BLOCK = 16

#: pieces per alpha.eval call, every node being evaluated up front: their
#: temporaries stay near 100 KiB each.  One call over all cells raised the
#: peak RSS of 60 approximation_numbers(., 16, 128) calls by 0.6 MB, and
#: 16 cells per call made a constant order's n = 256 assembly 10% slower.
_EVAL_CELLS = 64

#: largest matrix whose dense singular spectrum the package computes
_DENSE_CAP = 4096


@dataclass(frozen=True)
class OperatorMatrix:
    """Lower-triangular discretization of the operator on n cells of [0, r]."""

    r: float
    p: float
    q: float
    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ValueError(f"entries must be square, got shape {e.shape}")
        if not np.all(np.isfinite(e)):
            raise ValueError("matrix entries must be finite")
        # the strict upper triangle 128 rows at a time, without a copy of the
        # matrix: the columns right of the rows' diagonal block, then the
        # block's own upper part.  At n = 2048 np.triu of the whole matrix
        # took 21 ms and this 4 ms; from n = 128 to 256 the two are level.
        for r0 in range(0, e.shape[0], 128):
            r1 = r0 + 128
            if np.any(e[r0:r1, r1:] != 0.0) or np.any(np.triu(e[r0:r1, r0:r1], 1) != 0.0):
                raise ValueError("strict upper triangle must be exactly zero")
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def diagonal(self) -> np.ndarray:
        return np.diag(self.entries)

    def to_csv(self, path: str) -> None:
        fields = {"n": self.n, "p": self.p, "q": self.q, "r": self.r}
        header = json.dumps({"basis_tag": "normalized-indicator", **fields}, sort_keys=True)
        atomic_write_text(path, csv_text("# " + header, self.entries))


@dataclass(frozen=True)
class ApproximationReport:
    """Approximation numbers with the discretization-doubling check attached.

    values     a_1..a_n_max from the N_disc-cell discretization, the exact
               2 x 2 coarsening of the 2*N_disc-cell matrix
    n_disc     cell count actually used
    drift      max relative change against the 2*N_disc discretization
    converged  drift < 1%; when False the values are still usable but coarse
    """

    values: np.ndarray
    n_disc: int
    drift: float

    @property
    def converged(self) -> bool:
        return self.drift < 0.01


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
    Gauss.  Each entry is summed over the points in one fixed order
    (_moments), so it depends on alpha only through the samples at its
    nodes.

    Alpha is evaluated once at each of the 208 nodes of every piece,
    _EVAL_CELLS pieces per call.  A whole cell whose samples equal (exact
    ==, whatever the order's type) those of the next piece, also a whole
    cell, takes its moments from that piece.  So each run of such cells
    computes only its last row, the one with the largest span, and row m
    of the run is that row's first m + 1 moments reversed.  A constant
    order is one run of n cells, and its matrix is exactly lower-triangular
    Toeplitz with an exactly flat diagonal.  The computed pieces run in
    blocks of _BLOCK, one _moments call (gamma, the weights and their
    checks, the moments) per block, and every entry has the bits of the
    blocked loop over all pieces.

    Raises ValueError, naming n and the largest order sample, when the
    weights of a piece of unit width would not be positive normal doubles
    or a moment is not finite.
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

    # pieces (cell, lo, hi) in local units of h: I_i split at each breakpoint
    # inside it.  Each cell starts a piece at 0 and each cut starts another;
    # a piece ends where the next one starts, or at 1 when that opens a cell.
    starts = [(i, 0.0) for i in range(n)]
    for b in alpha.breakpoints:
        i = int(np.searchsorted(edges, b, side="right")) - 1
        if 0 <= i < n and edges[i] < b:
            starts.append((i, (b - edges[i]) / h))
    starts.sort()
    cell, lo = (np.array(col) for col in zip(*starts))
    hi = np.where(np.append(cell[1:] != cell[:-1], True), 1.0, np.append(lo[1:], 1.0))
    width = hi - lo
    # alpha once at every node t = e_i + h (lo + width x), _EVAL_CELLS
    # pieces per call, the nodes formed in place in the samples' rows
    samples = np.empty((cell.size, _NODES.size))
    for c in range(0, cell.size, _EVAL_CELLS):
        part = slice(c, c + _EVAL_CELLS)
        t = samples[part]
        np.multiply(width[part, None], _NODES, out=t)
        t += lo[part, None]
        t *= h
        t += edges[cell[part], None]
        t[...] = alpha.eval(t)

    # an entry depends on alpha only through its samples, so a whole cell
    # whose samples equal the next piece's, also a whole cell, holds that
    # piece's moments: each run of such cells computes only its last row
    whole = (lo == 0.0) & (hi == 1.0)
    same = whole[:-1] & whole[1:] & np.all(samples[:-1] == samples[1:], axis=1)
    computed = np.flatnonzero(np.append(~same, True))
    run_start = cell[np.append(0, computed[:-1] + 1)]
    cell, lo, width = cell[computed], lo[computed], width[computed]
    entries = np.zeros((n, n))
    for blk in range(0, cell.size, _BLOCK):
        rows = cell[blk : blk + _BLOCK]
        piece_width = width[blk : blk + _BLOCK, None]
        x = lo[blk : blk + _BLOCK, None] + piece_width * _NODES
        # the samples are indexed per block: a copy of all computed rows
        # made ExpOffset(0.5, 1, 1), whose cells 0..6 form a run, 3% slower
        a = samples[computed[blk : blk + _BLOCK]]
        mom = _moments(x, a, piece_width, h, int(rows[-1]), n)
        for row, i, start in zip(mom, rows.tolist(), run_start[blk : blk + _BLOCK].tolist()):
            # the run's other cells are whole, so their rows are assigned
            # (+= made a constant order 40% slower); the piece's own row is
            # added to, since a cut cell has more pieces
            for m in range(start, i):
                entries[m, : m + 1] = row[m::-1]
            entries[i, : i + 1] += row[i::-1]
    entries *= prefactor
    return OperatorMatrix(r=r, p=p, q=q, entries=entries)


def _moments(x, a, width, h, span, n) -> np.ndarray:
    """Weighted kernel moment sums by distance d = 0..max(span, 2), per piece.

    x and a are (pieces x 208) nodes and order samples; the outer rule's
    weights are h^(a+1) width W / (a Gamma(a)).  The near columns d = 0, 1, 2
    sum over the 200 graded nodes along the points axis.  The far columns
    d >= 3 run points-major, as (pieces x 8 points x distances) arrays, so
    every ufunc loop runs along the distances, and add the 8 point slabs in
    numpy's own pairwise order: the bits of a sum along the points axis.

    Raises ValueError, naming n and the largest order sample, when a weight
    is not finite or is below the smallest normal double times its piece's
    width (a piece a few subnormals wide carries no mass), or a moment is
    not finite: a large order takes h^(a+1) / Gamma(a) below the doubles
    (the entries would print as zeros, or lose digits) and (d + x)^a above.
    """
    mom = np.empty((x.shape[0], max(span, 2) + 1))
    # the checks below catch every overflow and NaN, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        w = h ** (a + 1.0) * (width * _WEIGHTS) / (a * gamma(a))
        xc, ac, wc = x[:, :_CORNER], a[:, :_CORNER], w[:, :_CORNER]
        corner = np.power(xc, ac)
        first = np.power(1.0 + xc, ac)
        mom[:, 0] = np.sum(corner * wc, axis=1)
        mom[:, 1] = np.sum((first - corner) * wc, axis=1)
        mom[:, 2] = np.sum((np.power(2.0 + xc, ac) - first) * wc, axis=1)
        far = x[:, _CORNER:, None] + np.arange(2.0, mom.shape[1])
        np.power(far, a[:, _CORNER:, None], out=far)
        far = far[..., 1:] - far[..., :-1]
        far *= w[:, _CORNER:, None]
        left = far[:, 0] + far[:, 1]
        left += far[:, 2] + far[:, 3]
        right = far[:, 4] + far[:, 5]
        right += far[:, 6] + far[:, 7]
        np.add(left, right, out=mom[:, 3:])
    normal = np.all(np.min(w, axis=1, keepdims=True) >= _TINY * width)
    if normal and np.max(w) < math.inf and np.all(np.isfinite(mom)):
        return mom
    raise ValueError(
        f"order samples up to {float(np.max(a))!r} at n = {n} take the matrix "
        "weights or kernel moments out of the normal double range"
    )


def _check_dense_size(n: int) -> None:
    """Raise ValueError when an n x n spectrum is past the dense cap."""
    if n > _DENSE_CAP:
        raise ValueError(f"dense spectrum capped at n = {_DENSE_CAP}")


def singular_values(m: OperatorMatrix) -> np.ndarray:
    """Full singular spectrum of the assembled matrix, descending."""
    _check_dense_size(m.n)
    return np.linalg.svd(m.entries, compute_uv=False)


def approximation_numbers(
    alpha: OrderFunction,
    n_max: int,
    n_disc: int | None = None,
    r: float = 1.0,
) -> ApproximationReport:
    """Approximation numbers a_1..a_n_max of the operator on L2[0, r].

    For p = q = 2 the approximation numbers equal singular values, so they
    are read off the n_disc-cell discretization.  Only the 2 * n_disc-cell
    matrix is assembled.  Coarse cell I_i is the union of fine cells J_2i
    and J_2i+1, so the n_disc-cell matrix is exactly half of each 2 x 2
    block sum of the fine one (the prefactor ratio 2^(1/p - 1/q + 1) is 2
    at p = q = 2).  The drift still compares the two discretizations: it is
    the maximum relative change between their spectra over the returned
    range, and must be below 1% for the converged flag.  Other (p, q) pairs
    have no dense desk-scale route and are served by the entropy-bound
    formulas instead.
    """
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got {n_max}")
    if n_disc is None:
        n_disc = max(8 * n_max, 256)
    if n_disc < 8 * n_max:
        raise ValueError(f"need n_disc >= 8*n_max = {8 * n_max}, got {n_disc}")
    if 2 * n_disc > _DENSE_CAP:
        raise ValueError(f"n_disc capped at {_DENSE_CAP // 2} so the doubled check stays dense")
    fine = assemble_matrix(alpha, 2 * n_disc, r=r)
    # the fine SVD runs before the coarse matrix exists, so the peak memory
    # stays that of the fine SVD
    sv2 = singular_values(fine)[:n_max]
    # (a00 + a01) + (a10 + a11) per 2 x 2 block: the same bits as
    # reshape(n, 2, n, 2).sum(axis=(1, 3)), in a tenth of its time
    pairs = fine.entries[:, 0::2] + fine.entries[:, 1::2]
    blocks = pairs[0::2] + pairs[1::2]
    coarse = OperatorMatrix(r=r, p=2.0, q=2.0, entries=0.5 * blocks)
    sv = singular_values(coarse)[:n_max]
    drift = float(np.max(np.abs(sv / sv2 - 1.0)))
    return ApproximationReport(values=sv, n_disc=n_disc, drift=drift)


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


def _spectrum_text(values) -> str:
    """CSV text of a descending singular spectrum: columns k, sigma_k.

    A dense SVD of an n x n matrix resolves singular values only down to
    about n * eps * sigma_1, so values below that floor print as 0.0; their
    digits would be roundoff noise.
    """
    vals = np.asarray(values, dtype=float)
    floor = vals.size * np.finfo(float).eps * np.max(vals, initial=0.0)
    shown = np.where(vals >= floor, vals, 0.0)
    return csv_text("k,sigma_k", enumerate(shown, start=1))
