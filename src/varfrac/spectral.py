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
blocks through _moments, which forms the weights, checks their range and
sums each moment with the bits of a sum along the points axis.

Row i's moments depend on i only through alpha near t_i = i h, so for a
smooth order each moment column is a smooth function of t.  From n =
_CHEB_MIN_N up, an order with no breakpoint and no run is first tried from
_CHEB virtual rows at Chebyshev-Lobatto points in t, every row being read
off their barycentric interpolant in log(M(t, d) / M(0, d)); the try
stands only when the Chebyshev coefficient tail of every column is within
_CHEB_TAIL, and otherwise gives way to the computed rows, bit for bit.

Singular values of this matrix are the approximation numbers of the
discretized operator for p = q = 2.  approximation_numbers assembles only
the 2n-cell matrix and sums its 2 x 2 blocks into the n-cell one, which is
exact because each coarse cell is the union of two fine ones.  The n-cell
values come from a dense SVD; the 2n-cell matrix, which only the doubling
check reads, gives its top values to a Golub-Kahan-Lanczos solve with a
residual certificate.  The volume comparison of mapped balls gives a lower
bound on the entropy numbers from the matrix diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _gauss_panels, csv_text, gamma
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

#: Chebyshev-Lobatto points in t at which the interpolated assembly
#: computes its virtual rows.  At n = 256, PowerOffset(0.5, 1, 2) was
#: 6.8e-11 off the direct rows from 17 points and 2.4e-14, 2.8e-14 and
#: 2.2e-14 from 25, 33 and 65, with tails of 1.2e-9, 9.3e-14, 5.9e-15 and
#: 4.4e-15: 33 is the fewest whose tail certifies it.
_CHEB = 33

#: smallest n that tries the interpolated assembly.  Timed on one CPU, one
#: BLAS thread, interleaved medians, against the direct rows: an accepted
#: PowerOffset(0.5, 1, 2) took 0.97x at n = 48, 0.78x at 64, 0.63x at 96,
#: 0.54x at 128, 0.39x at 256, 0.30x at 512 and 0.21x at 1024; a failed
#: try of PowerOffset(0.5, 1, 0.5) took 1.39x at 64, 1.24x at 96, 1.20x at
#: 128, 1.11x at 256 and 1.01x at 1024.  From 128 up a success saves more
#: than twice what a failure costs.
_CHEB_MIN_N = 128

#: largest coefficient tail the interpolated assembly accepts.  The tail is
#: taken of log(M(t, d) / M(0, d)), so it tracks the entries' relative
#: error; the tail of M itself, over each column's largest value, read
#: 5.6e-15 for PowerOffset(3, 3, 1) at n = 512, whose entries it left
#: 6.6e-8 off.  Over 1400 PowerOffset cases (alpha0 and lam in 0.05..3,
#: gamma in 0.1..3, n in 64..1024) the accepted ones were within 2.7e-13
#: of the direct rows entry by entry, and within 1.4e-13 for alpha0,
#: lam <= 1.5 and n in 128..512.  PowerOffset(0.5, 1, 2) reads 5.1e-15
#: at n = 128, 5.9e-15 at 256, 1.1e-14 at 512 and 2.5e-14 at 1024, and
#: falls back at 2048 (5.9e-14).
_CHEB_TAIL = 3e-14

#: tail of the 17 even-indexed points past which the try gives up before
#: the other 16 rows.  Over those 1400 cases the accepted ones read up to
#: 1.4e-7 there, and 71% of the rejected ones passed 1e-5.  A failed try
#: of PowerOffset(0.5, 1, 0.5) then took 1.20x the direct rows instead of
#: 1.34x at n = 128 and 1.11x instead of 1.19x at 256.
_CHEB_HOPELESS = 1e-5

# the Lobatto points on [0, 1], ascending and symmetric about an exact 1/2,
# and their barycentric weights
_CHEB_X = 0.5 + 0.5 * np.sin(np.pi * np.arange(1 - _CHEB, _CHEB, 2) / (2 * _CHEB - 2))
_CHEB_W = (-1.0) ** np.arange(_CHEB)
_CHEB_W[[0, -1]] *= 0.5

#: largest matrix whose dense singular spectrum the package computes
_DENSE_CAP = 4096

#: Lanczos start cos(golden angle * i), and the certificate's relative bound
_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
_CERTIFY = 1e-12
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class OperatorMatrix:
    """Lower-triangular discretization of the operator on n equal cells.

    chebyshev_tail is the coefficient tail of an interpolated assembly
    (assemble_matrix), 0.0 when the rows were computed directly.  The
    square, finite and lower-triangular checks guard library callers that
    pass in entries of their own.
    """

    p: float
    q: float
    entries: np.ndarray
    chebyshev_tail: float = 0.0

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


@dataclass(frozen=True)
class ApproximationReport:
    """Approximation numbers with the discretization-doubling check attached.

    values     a_1..a_n_max from the N_disc-cell discretization, the exact
               2 x 2 coarsening of the 2*N_disc-cell matrix
    n_disc     cell count actually used
    drift      max relative change against the 2*N_disc discretization
    lanczos_steps     Golub-Kahan-Lanczos steps behind the 2*N_disc values
    lanczos_residual  their largest certified residual, relative to sigma_1
    chebyshev_tail    the 2*N_disc matrix's OperatorMatrix.chebyshev_tail:
                      0.0 when its rows were computed directly
    converged  drift < 1%; when False the values are still usable but coarse
    """

    values: np.ndarray
    n_disc: int
    drift: float
    lanczos_steps: int = 0
    lanczos_residual: float = 0.0
    chebyshev_tail: float = 0.0

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
    checks, the moments) per block, and every computed entry has the bits
    of the blocked loop over all pieces.

    When n >= _CHEB_MIN_N, the order declares no breakpoint and no two
    cells share their samples, the rows are first interpolated from _CHEB
    virtual rows (_interpolated_entries).  Those entries are the blocked
    loop's to about 1e-13 relative, not bit for bit, and the matrix's
    chebyshev_tail is their coefficient tail.  A try that fails its tail
    check falls back to the computed rows above, with their bits, and a
    chebyshev_tail of 0.0.

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
        t = np.multiply(width[part, None], _NODES, out=samples[part])
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
    if n >= _CHEB_MIN_N and not alpha.breakpoints and not np.any(same):
        got = _interpolated_entries(alpha, n, h)
        if got is not None:
            entries, tail = got
            entries *= prefactor
            return OperatorMatrix(p=p, q=q, entries=entries, chebyshev_tail=tail)
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
    return OperatorMatrix(p=p, q=q, entries=entries)


def _interpolated_entries(alpha: OrderFunction, n: int, h: float):
    """The n-cell rows interpolated from _CHEB virtual rows: (entries, tail), or None.

    Entry (i, j) is the moment M(t_i, i - j) of the row at t_i = i h, and
    M(t, d) depends on t only through alpha on [t, t + h].  Virtual rows
    sit at the Chebyshev-Lobatto points t_c of [0, (n - 1) h]: _moments
    with x = _NODES, unit width and span n - 1, in two calls of 17 and 16.
    Each column is interpolated as log(M(t, d) / M(0, d)), so the
    interpolant's absolute error is the entries' relative error, however
    far a column's magnitude runs in t.  Every row i takes its moments
    from the barycentric interpolant through the virtual rows, one
    (rows x _CHEB) @ (_CHEB x distances) product per 64 rows (Trefethen,
    Approximation Theory and Approximation Practice, 2013).

    The 17 even-indexed points, a Lobatto set of their own, are the first call:
    when their coefficient tail (_chebyshev_tail) passes _CHEB_HOPELESS,
    or a virtual row leaves the doubles, the try returns None before the
    other 16 rows.  The result stands only when the tail of all _CHEB
    points is within _CHEB_TAIL (Aurentz and Trefethen, Chopping a
    Chebyshev series, ACM TOMS 43, 2017); otherwise, and when a moment is
    not positive (a NaN tail), it returns None too.  The entries lack the
    prefactor.
    """
    s = (n - 1) * _CHEB_X
    a = alpha.eval(h * (s[:, None] + _NODES))
    x = np.broadcast_to(_NODES, (_CHEB, _NODES.size))
    mom = np.empty((_CHEB, n))
    with np.errstate(divide="ignore", invalid="ignore"):
        try:
            mom[::2] = _moments(x[::2], a[::2], 1.0, h, n - 1, n)
            if not _chebyshev_tail(np.log(mom[::2] / mom[0])) <= _CHEB_HOPELESS:
                return None
            mom[1::2] = _moments(x[1::2], a[1::2], 1.0, h, n - 1, n)
        except ValueError:
            # a virtual row's samples are no cell's, so its weights can leave
            # the normal doubles where the cells' do not: the direct rows decide
            return None
        logs = np.log(mom / mom[0])
    tail = _chebyshev_tail(logs)
    if not tail <= _CHEB_TAIL:
        return None
    diff = np.arange(n, dtype=float)[:, None] - s
    with np.errstate(divide="ignore", invalid="ignore"):
        lagrange = _CHEB_W / diff
        lagrange /= np.sum(lagrange, axis=1, keepdims=True)
    # a row at a point takes that point's row
    hit = np.flatnonzero(np.any(diff == 0.0, axis=1))
    lagrange[hit] = diff[hit] == 0.0
    # 64 rows at a time, exp in place: at n = 256 the traced heap peak of
    # the assembly was 1555 KiB, against 1775 KiB for the direct rows; 128
    # rows took 1715 KiB, and 128 with a separate exp 1906 KiB, which raised
    # the peak RSS of approximation_numbers(., 16, 128) by 0.4 MB
    entries = np.zeros((n, n))
    for r0 in range(0, n, 64):
        rows = lagrange[r0 : r0 + 64] @ logs[:, : r0 + 64]
        np.exp(rows, out=rows)
        rows *= mom[0, : r0 + 64]
        for i, row in enumerate(rows, start=r0):
            entries[i, : i + 1] = row[i::-1]
    return entries, tail


def _chebyshev_tail(values: np.ndarray) -> float:
    """Coefficient tail of the interpolants through values at Lobatto points.

    values holds one column per interpolant, its rows at the m + 1 Lobatto
    points.  Each column's Chebyshev coefficients are its DCT-I; the tail is
    the largest magnitude among the last three of any column.
    """
    m = values.shape[0] - 1
    dct = np.cos(np.pi / m * np.arange(m - 2, m + 1)[:, None] * np.arange(m + 1)) * (2.0 / m)
    dct[:, [0, -1]] *= 0.5
    dct[-1] *= 0.5
    return float(np.max(np.abs(dct @ values)))


def _moments(x, a, width, h, span, n) -> np.ndarray:
    """Weighted kernel moment sums by distance d = 0..max(span, 2), per piece.

    x and a are (pieces x 208) nodes and order samples; the outer rule's
    weights are h^(a+1) width W / (a Gamma(a)).  One loop over the near
    columns d = 0, 1, 2 sums (d + x)^a less the previous column's power (0
    before d = 0) over the 200 graded nodes.  The far columns d >= 3 run
    points-major, as (pieces x 8 points x distances) arrays, so every ufunc
    loop runs along the distances, and add the 8 point slabs in numpy's own
    pairwise order: the bits of a sum along the points axis.

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
        near = 0.0
        for d in range(3):
            edge, near = near, np.power(d + xc, ac)
            mom[:, d] = np.sum((near - edge) * wc, axis=1)
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


def _reorthogonalize(w: np.ndarray, basis: np.ndarray) -> float:
    """Classical Gram-Schmidt of w against the orthonormal rows of basis, in place.

    A second pass runs when the first took more than half of w's squared
    norm (Kahan-Parlett): the first pass's roundoff is then no longer small
    against what is left.  Returns the squared norm of the result.
    """
    before = w @ w
    w -= (basis @ w) @ basis
    after = w @ w
    if after < 0.5 * before:
        w -= (basis @ w) @ basis
        after = w @ w
    return after


def _top_singular_values(a: np.ndarray, k: int) -> tuple[np.ndarray, int, float]:
    """Top k singular values of the square matrix a, certified: (values, steps, residual).

    Golub-Kahan-Lanczos from the fixed start cos(golden angle * i): with
    v_1 that start, A V_m = U_m B_m for the upper bidiagonal B_m, and the
    top k singular values of B_m are the returned ones.  Each new u and v
    is reorthogonalized against all earlier ones (_reorthogonalize).
    Reorthogonalizing the v alone, with u_i = A v_i / ||A v_i|| in the
    certificate, does not do: that u_i carries an error of about
    eps sigma_1 / sigma_i, so for Constant(3) at n = 1024, k = 64 even the
    dense SVD's own vectors read 5.4e-11, and the v-only run was still
    uncertified at m = n (and at n = 512, k = 32).

    The Ritz residuals beta_m |X[m-1, i]| (X the left singular vectors of
    B_m) are read at m = 2k + 8 and then every k/2 steps.  Once they are
    all within 1e-12 sigma_1, the certificate is formed explicitly: for the
    unit Ritz vectors u_i = U X e_i and v_i = V Y e_i, the largest of
    ||A v_i - sigma_i u_i|| and ||A^T u_i - sigma_i v_i||, over sigma_1,
    must be within 1e-12 too; it bounds the distance from sigma_i to a
    singular value of a, and it is returned as the residual.  At m = n the
    Krylov space is the whole space and a failed certificate raises
    ArithmeticError.

    A step m whose incoming beta is zero starts from cos(m golden angle * i)
    orthogonalized against V_{m-1}: step 1 (beta starts at zero; u_0 is a
    zeroed row of U) and each step after a beta below n eps ||B||, an
    invariant Krylov space.  One start finds one copy of a repeated
    singular value, so diag(d, ..., d) gives d k times only through such
    restarts; the operator matrices' top values are simple.
    """
    n = a.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}, got {k}")
    check = min(2 * k + 8, n)
    # the bases grow by doubling, up to n rows; zeroed first rows make us[-1] u_0 = 0
    vs, us = np.zeros((check, n)), np.zeros((check, n))
    alphas, betas = [], []
    beta, scale = 0.0, 0.0
    for m in range(1, n + 1):
        if m > vs.shape[0]:
            grow = np.empty((min(vs.shape[0], n - vs.shape[0]), n))
            vs, us = np.concatenate((vs, grow)), np.concatenate((us, grow))
        if beta == 0.0:
            w = np.cos(_GOLDEN_ANGLE * m * np.arange(n))
            v = w / math.sqrt(_reorthogonalize(w, vs[: m - 1]))
        else:
            v = w / beta
        vs[m - 1] = v
        p = a @ v
        p -= beta * us[m - 2]
        alpha = math.sqrt(_reorthogonalize(p, us[: m - 1]))
        u = np.divide(p, alpha, out=us[m - 1])
        w = u @ a
        w -= alpha * v
        beta = math.sqrt(_reorthogonalize(w, vs[:m]))
        alphas.append(alpha)
        scale = max(scale, alpha, beta)
        if beta <= n * _EPS * scale:
            beta = 0.0
        if m == check or m == n:
            x, s, yt = np.linalg.svd(np.diag(alphas) + np.diag(betas, 1))
            if m == n or beta * np.max(np.abs(x[-1, :k])) <= _CERTIFY * s[0]:
                rv = yt[:k] @ vs[:m]
                ru = x[:, :k].T @ us[:m]
                rv /= np.linalg.norm(rv, axis=1, keepdims=True)
                ru /= np.linalg.norm(ru, axis=1, keepdims=True)
                sk = s[:k, None]
                res = np.maximum(
                    np.linalg.norm(rv @ a.T - sk * ru, axis=1),
                    np.linalg.norm(ru @ a - sk * rv, axis=1),
                )
                residual = float(np.max(res)) / float(s[0])
                if residual <= _CERTIFY:
                    return s[:k], m, residual
                if m == n:
                    raise ArithmeticError(
                        f"top-{k} singular values of an n = {n} matrix not certified: "
                        f"residual {residual:.1e} after {n} steps"
                    )
            check += max(k // 2, 1)
        betas.append(beta)


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
    at p = q = 2).  The values are the first n_max of the coarse matrix's
    dense SVD.  The drift still compares the two discretizations: it is the
    maximum relative change between their spectra over the returned range,
    and must be below 1% for the converged flag.  The fine matrix's first
    n_max singular values come from _top_singular_values, certified to a
    residual of 1e-12 sigma_1, so the drift moves only in its last digits
    against a dense SVD of the fine matrix; the report carries the Lanczos
    steps and the residual.  Other (p, q) pairs have no dense desk-scale
    route and are served by the entropy-bound formulas instead.
    """
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got {n_max}")
    if n_disc is None:
        n_disc = max(8 * n_max, 256)
    if n_disc < 8 * n_max:
        raise ValueError(f"need n_disc >= 8*n_max = {8 * n_max}, got {n_disc}")
    if 2 * n_disc > _DENSE_CAP:
        raise ValueError(
            f"n_disc capped at {_DENSE_CAP // 2} so the doubling check's assembled "
            f"matrix stays within {_DENSE_CAP} x {_DENSE_CAP}"
        )
    fine = assemble_matrix(alpha, 2 * n_disc, r=r)
    e = fine.entries
    # (a00 + a01) + (a10 + a11) per 2 x 2 block: the same bits as
    # reshape(n, 2, n, 2).sum(axis=(1, 3)), in a tenth of its time at
    # n = 256.  The temporaries are quarter-size, so with the coarse SVD's
    # copy the peak stays 1.5 times the fine matrix
    blocks = e[0::2, 0::2] + e[0::2, 1::2]
    blocks += e[1::2, 0::2] + e[1::2, 1::2]
    blocks *= 0.5
    coarse = OperatorMatrix(p=2.0, q=2.0, entries=blocks)
    sv = singular_values(coarse)[:n_max]
    sv2, steps, residual = _top_singular_values(e, n_max)
    drift = float(np.max(np.abs(sv / sv2 - 1.0)))
    return ApproximationReport(
        values=sv,
        n_disc=n_disc,
        drift=drift,
        lanczos_steps=steps,
        lanczos_residual=residual,
        chebyshev_tail=fine.chebyshev_tail,
    )


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
