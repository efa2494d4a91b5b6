"""Discretized operator matrices, their spectra and the volumetric entropy bound."""

import dataclasses
import math
from itertools import pairwise

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import varfrac.spectral as spectral
from varfrac.core import K0, gamma
from varfrac.orders import (
    Constant,
    ExpOffset,
    LogPower,
    LogPowerOffset,
    OrderFunction,
    PowerOffset,
    ReciprocalLog,
    Rescaled,
    Shifted,
    Tabulated,
)
from varfrac.spectral import (
    ApproximationReport,
    OperatorMatrix,
    VolumetricBound,
    approximation_numbers,
    assemble_matrix,
    ball_volume_root,
    _spectrum_text,
    singular_values,
    volumetric_entropy_lower,
)


# a non-monotone table with nodes inside cells 0 and 6 and on the edge 0.25
# at n = 8
SPLIT_TABLE = ((0.0, 0.1, 0.11, 0.25, 0.5, 0.77, 1.0), (0.4, 0.6, 0.5, 0.9, 1.2, 0.8, 1.5))

# the orders test_matches_row_closure_property draws
CLOSURE_ORDERS = st.one_of(
    st.floats(0.05, 3.0).map(Constant),
    st.builds(PowerOffset, st.floats(0.05, 1.5), st.floats(0.05, 1.5), st.floats(0.1, 3.0)),
    st.builds(ExpOffset, st.floats(0.05, 1.5), st.floats(0.05, 1.5), st.floats(0.25, 3.0)),
)


def diag_matrix(d, p=2.0, q=2.0) -> OperatorMatrix:
    d = np.asarray(d, dtype=float)
    return OperatorMatrix(p=p, q=q, entries=np.diag(d))


# orders the assembly is compared on against the slow references below
REFERENCE_ORDERS = [
    Constant(0.05),
    Constant(0.7),
    PowerOffset(0.5, 1.0, 1.0),
    LogPowerOffset(0.5, 1.0, 1.0),
    ReciprocalLog(),
]


def graded_rule(points: int = 8):
    """assemble_matrix's corner rule on a unit cell: `points`-point Gauss on
    25 panels graded 2^-24..2^-1 toward the left edge; (offsets, weights)."""
    xg, wg = np.polynomial.legendre.leggauss(points)
    rel = np.concatenate(([0.0], 2.0 ** -np.arange(24, -1, -1, dtype=float)))
    half = 0.5 * (rel[1:] - rel[:-1])
    mid = 0.5 * (rel[1:] + rel[:-1])
    return (mid[:, None] + half[:, None] * xg).ravel(), (half[:, None] * wg).ravel()


def breakpoint_rows(alpha, n: int) -> set:
    """Rows whose cell I_i has a breakpoint of alpha strictly inside it."""
    return {int(b * n) for b in alpha.breakpoints if 0.0 < b * n % 1.0}


def reference_row(alpha, n: int, i: int, points: int = 8, r=1.0, p=2.0, q=2.0):
    """Row i by the slow absolute-coordinate loop, summed over axis 0.

    I_i is split at each breakpoint of alpha inside it and the graded rule
    (graded_rule) runs on every piece, for every column, with the textbook
    moments ((t - u)^a - (t - v)_+^a) / a formed from absolute distances.
    """
    h = r / n
    prefactor = (n / r) ** (1.0 / p - 1.0 / q + 1.0)
    edges = h * np.arange(n + 1)
    offs, wts = graded_rule(points)
    cuts = sorted((b - edges[i]) / h for b in alpha.breakpoints if edges[i] < b < edges[i + 1])
    row = np.zeros(i + 1)
    for lo, hi in zip([0.0, *cuts], [*cuts, 1.0]):
        t = edges[i] + h * (lo + (hi - lo) * offs)
        a = np.asarray(alpha.eval(t))[:, None]
        tc = t[:, None]
        upper = np.power(tc - edges[None, : i + 1], a)
        lower = np.power(np.clip(tc - edges[None, 1 : i + 2], 0.0, None), a)
        weights = (h * (hi - lo) * wts / gamma(a[:, 0]))[:, None]
        row += prefactor * np.sum(weights * (upper - lower) / a, axis=0)
    return row


def reference_entries(alpha, n: int, points: int = 8):
    """reference_row for every row: the slow reference matrix."""
    out = np.zeros((n, n))
    for i in range(n):
        out[i, : i + 1] = reference_row(alpha, n, i, points)
    return out


def closure_entries(alpha, n: int, r: float = 1.0, p: float = 2.0, q: float = 2.0):
    """The per-row closure assemble_matrix used before the corner-aware rule:
    graded_rule for every column, local-coordinate edge powers, moments by
    -np.diff with an appended zero row, weighted and summed along the points
    axis; no breakpoint split."""
    h = r / n
    prefactor = (n / r) ** (1.0 / p - 1.0 / q + 1.0)
    edges = h * np.arange(n + 1)
    offs, wts = graded_rule()

    def row(i: int) -> np.ndarray:
        a = np.asarray(alpha.eval(edges[i] + h * offs))
        dist = np.arange(i, -1, -1, dtype=float)[:, None] + offs
        powers = np.power(dist, a)
        moments = -np.diff(powers, axis=0, append=0.0)
        weights = h ** (a + 1.0) * wts / (a * gamma(a))
        return prefactor * np.sum(moments * weights, axis=1)

    out = np.zeros((n, n))
    for i in range(n):
        out[i, : i + 1] = row(i)
    return out


def blocked_entries(alpha, n: int, r: float = 1.0, p: float = 2.0, q: float = 2.0):
    """assemble_matrix's loop without runs of equal samples: every piece in
    blocks of 16, alpha evaluated per block, and the far moments summed
    along the points axis of (pieces x distances x 8) arrays.  The slow
    reference the assembly must match bit for bit."""
    nodes, weights, corner_nodes = spectral._NODES, spectral._WEIGHTS, spectral._CORNER
    h = r / n
    prefactor = (n / r) ** (1.0 / p - 1.0 / q + 1.0)
    edges = h * np.arange(n + 1)
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
    for blk in range(0, cell.size, 16):
        rows = cell[blk : blk + 16]
        base = lo[blk : blk + 16, None]
        width = hi[blk : blk + 16, None] - base
        x = base + width * nodes
        a = np.asarray(alpha.eval(edges[rows, None] + h * x))
        w = h ** (a + 1.0) * (width * weights) / (a * gamma(a))
        span = max(int(rows[-1]), 2)
        mom = np.empty((rows.size, span + 1))
        xc, ac, wc = x[:, :corner_nodes], a[:, :corner_nodes], w[:, :corner_nodes]
        corner = np.power(xc, ac)
        first = np.power(1.0 + xc, ac)
        mom[:, 0] = np.sum(corner * wc, axis=1)
        mom[:, 1] = np.sum((first - corner) * wc, axis=1)
        mom[:, 2] = np.sum((np.power(2.0 + xc, ac) - first) * wc, axis=1)
        xf = x[:, None, corner_nodes:]
        af, wf = a[:, None, corner_nodes:], w[:, None, corner_nodes:]
        far = np.arange(2.0, span + 1.0)[:, None] + xf
        np.power(far, af, out=far)
        far = far[:, 1:] - far[:, :-1]
        far *= wf
        mom[:, 3:] = np.sum(far, axis=2)
        for k, i in enumerate(rows.tolist()):
            entries[i, : i + 1] += mom[k, i::-1]
    entries *= prefactor
    return entries


def direct_entries(alpha, n: int) -> np.ndarray:
    """assemble_matrix's entries with the interpolated rows switched off: the
    direct rows, which must have blocked_entries' bits for every order and n."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_interpolated_entries", lambda alpha, n, h: None)
        return assemble_matrix(alpha, n).entries


def max_relative_error(got, want, rows=None) -> float:
    """Largest |got/want - 1| over the lower triangle, optionally on some rows only."""
    n = got.shape[0]
    keep = np.tri(n, dtype=bool)
    if rows is not None:
        keep[[i for i in range(n) if i not in rows]] = False
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.abs(got / want - 1.0)
    return float(np.max(rel[keep], initial=0.0))


def constant_order_column(a: float, n: int) -> np.ndarray:
    """Exact sigma_{d,0}, d = 0..n-1, for Constant(a) on [0, 1] with p = q = 2:
    n h^(a+1) / Gamma(a+2) times the second difference of d_+^(a+1).

    The second difference is d^c ((1 + u)^c + (1 - u)^c - 2), c = a + 1 and
    u = 1/d; for d >= 2 it is summed as the even binomial series
    2 d^c sum_k binom(c, 2k) u^(2k), whose terms shrink by u^2 <= 1/4, so
    nothing cancels.
    """
    c = a + 1.0
    d = np.arange(2, max(n, 2), dtype=float)
    u2 = d**-2.0
    series = np.zeros_like(d)
    coef, power = 1.0, np.ones_like(d)
    for k in range(1, 40):
        coef *= (c - 2 * k + 2) * (c - 2 * k + 1) / ((2 * k - 1) * (2 * k))
        power *= u2
        series += coef * power
    second = np.concatenate(([1.0, 2.0**c - 2.0], 2.0 * d**c * series))[:n]
    h = 1.0 / n
    return n * h**c / math.gamma(a + 2.0) * second


class TestAssembly:
    def test_two_cell_identity_order(self):
        m = assemble_matrix(Constant(1.0), 2)
        assert m.entries[0, 0] == pytest.approx(0.25, abs=1e-9)
        assert m.entries[1, 1] == pytest.approx(0.25, abs=1e-9)
        assert m.entries[1, 0] == pytest.approx(0.5, abs=1e-9)
        assert m.entries[0, 1] == 0.0

    def test_strict_upper_triangle_is_exact_zero(self):
        m = assemble_matrix(PowerOffset(0.5, 1.0, 1.0), 12)
        assert np.all(np.triu(m.entries, 1) == 0.0)

    def test_constant_order_diagonal_is_flat(self):
        # cells are translates of each other for a constant order
        d = assemble_matrix(Constant(0.7), 8).diagonal
        assert np.max(np.abs(d - d[0])) == 0.0

    @pytest.mark.parametrize("value", [0.05, 0.7, 1.0, 2.5])
    @pytest.mark.parametrize("n", [2, 3, 8, 65])
    def test_constant_order_is_exactly_toeplitz(self, value, n):
        # every subdiagonal is flat, including the width-1 row 0
        e = assemble_matrix(Constant(value), n).entries
        for k in range(n):
            band = np.diag(e, -k)
            assert np.all(band == band[0]), f"subdiagonal {k}"

    @pytest.mark.parametrize("alpha", REFERENCE_ORDERS, ids=repr)
    def test_matches_absolute_coordinate_reference(self, alpha):
        n = 64
        got = assemble_matrix(alpha, n).entries
        want = reference_entries(alpha, n)
        assert np.array_equal(got == 0.0, want == 0.0)
        low = np.tril_indices(n)
        assert np.max(np.abs(got[low] / want[low] - 1.0)) <= 1e-13

    @pytest.mark.parametrize("alpha", REFERENCE_ORDERS, ids=repr)
    @pytest.mark.parametrize("n", [1, 2, 65, 128, 512])
    def test_in_place_loop_matches_row_closure_bitwise(self, alpha, n):
        # the all-graded closure is the slow reference; it ignores
        # breakpoints, so the rows with one inside their cell are left out
        rows = set(range(n)) - breakpoint_rows(alpha, n)
        got = assemble_matrix(alpha, n).entries
        assert max_relative_error(got, closure_entries(alpha, n), rows) <= 1e-12

    @given(alpha=CLOSURE_ORDERS, n=st.integers(1, 96))
    @settings(max_examples=40, deadline=None)
    def test_matches_row_closure_property(self, alpha, n):
        got = assemble_matrix(alpha, n).entries
        assert max_relative_error(got, closure_entries(alpha, n)) <= 1e-12

    @pytest.mark.parametrize("alpha", [LogPowerOffset(0.5, 1.0, 1.0), ReciprocalLog()], ids=repr)
    @pytest.mark.parametrize("n", [64, 1024])
    def test_breakpoint_row_matches_split_reference(self, alpha, n):
        # the row whose cell holds e^-1, against 64-point Gauss per graded
        # panel on each side of the breakpoint
        (i,) = breakpoint_rows(alpha, n)
        got = assemble_matrix(alpha, n).entries[i, : i + 1]
        want = reference_row(alpha, n, i, points=64)
        assert np.max(np.abs(got / want - 1.0)) <= 1e-12

    @pytest.mark.parametrize("interpolation", ["linear", "step"])
    def test_tabulated_breakpoints_match_split_reference(self, interpolation):
        # two nodes inside cell 0, one on the edge 0.25, one inside cell 6
        alpha = Tabulated(*SPLIT_TABLE, interpolation)
        got = assemble_matrix(alpha, 8).entries
        assert max_relative_error(got, reference_entries(alpha, 8)) <= 1e-13

    @pytest.mark.parametrize("interpolation", ["linear", "step"])
    @pytest.mark.parametrize("wrapper", ["rescaled", "shifted"])
    def test_wrapped_table_matches_direct_table(self, wrapper, interpolation):
        # the wrappers pass on the inner breakpoints (scaled by Rescaled);
        # without them the table's kinks fall inside cells and move entries
        # by ~1e-3
        nodes, values = SPLIT_TABLE
        inner = Tabulated(nodes, values, interpolation)
        if wrapper == "rescaled":
            alpha = Rescaled(inner, 0.5)
            direct = Tabulated((0.0, 0.2, 0.22, 0.5, 1.0), values[:5], interpolation)
        else:
            alpha = Shifted(inner, 0.3)
            direct = Tabulated(nodes, tuple(v + 0.3 for v in values), interpolation)
        got = assemble_matrix(alpha, 8).entries
        want = assemble_matrix(direct, 8).entries
        assert max_relative_error(got, want) <= 1e-13

    @pytest.mark.parametrize("value", [0.3, 0.7, 1.0, 1.4, 2.5])
    @pytest.mark.parametrize("n", [64, 1024])
    def test_constant_order_matches_closed_form(self, value, n):
        got = assemble_matrix(Constant(value), n).entries
        col = constant_order_column(value, n)
        want = np.tril(col[np.subtract.outer(np.arange(n), np.arange(n)) % n])
        assert max_relative_error(got, want) <= 1e-12

    @pytest.mark.xfail(
        strict=True,
        reason="8-point Gauss on the innermost graded panel [0, 2^-24] does not "
        "resolve x^0.05: the diagonal is off by 8.8e-12 and the subdiagonal "
        "by 1.2e-10",
    )
    def test_small_constant_order_corner_matches_closed_form(self):
        got = assemble_matrix(Constant(0.05), 64).entries[:2, 0]
        want = constant_order_column(0.05, 64)[:2]
        assert np.max(np.abs(got / want - 1.0)) <= 1e-12

    @pytest.mark.xfail(
        strict=True,
        reason="the order rises steeply inside cell 0, where the graded corner "
        "rule is 1.83e-11 off the 64-point reference",
    )
    def test_steep_order_corner_entry_matches_reference(self):
        alpha = ExpOffset(0.5, 0.05, 2.34)
        got = assemble_matrix(alpha, 8).entries[0, 0]
        want = reference_row(alpha, 8, 0, points=64)[0]
        assert abs(got / want - 1.0) <= 1e-13

    @pytest.mark.xfail(
        strict=True,
        reason="the far moment (d + x)^a - (d - 1 + x)^a loses about eps * d / a: "
        "the entry at d = 952 is 1.41e-12 off the closed form",
    )
    def test_small_constant_order_far_column_matches_closed_form(self):
        got = assemble_matrix(Constant(0.05), 1024).entries[952, 0]
        want = constant_order_column(0.05, 1024)[952]
        assert abs(got / want - 1.0) <= 1e-12

    def test_diagonal_floor_holds(self):
        # proven floor at r = 1, p = q = 2: sigma_jj >= n / C1 * (1/2n)^(a1+1),
        # C1 = max(1, Gamma(a1+1)), a1 = alpha(1) the supremum of a
        # non-decreasing order
        for alpha in (Constant(0.5), PowerOffset(0.5, 1.0, 1.0)):
            a1 = alpha.eval(1.0)
            c1 = max(1.0, math.gamma(a1 + 1.0))
            for n in (4, 16, 64):
                m = assemble_matrix(alpha, n)
                assert np.min(m.diagonal) >= n / c1 * (1.0 / (2.0 * n)) ** (a1 + 1.0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            assemble_matrix(Constant(1.0), 0)
        with pytest.raises(ValueError):
            assemble_matrix(Constant(1.0), 4, r=1.5)
        with pytest.raises(ValueError):
            assemble_matrix(Constant(1.0), 4, p=0.5)

    def test_matrix_validation(self):
        with pytest.raises(ValueError):
            OperatorMatrix(p=2.0, q=2.0, entries=np.ones((2, 3)))
        with pytest.raises(ValueError):
            OperatorMatrix(p=2.0, q=2.0, entries=np.ones((2, 2)))
        bad = np.array([[1.0, 0.0], [math.nan, 1.0]])
        with pytest.raises(ValueError):
            OperatorMatrix(p=2.0, q=2.0, entries=bad)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_entries_are_rejected(self, value):
        e = np.tril(np.ones((3, 3)))
        e[2, 1] = value
        with pytest.raises(ValueError, match="finite"):
            OperatorMatrix(p=2.0, q=2.0, entries=e)

    def test_fields(self):
        # the grid's endpoint is not a field: only assemble_matrix reads r
        names = [f.name for f in dataclasses.fields(OperatorMatrix)]
        assert names == ["p", "q", "entries", "chebyshev_tail"]

    @pytest.mark.parametrize("n", [2, 128, 129, 300])
    @pytest.mark.parametrize("corner", ["first-row", "last-column"])
    def test_single_upper_entry_is_rejected(self, n, corner):
        # the check runs 128 rows at a time: past n = 128, (0, n-1) sits right
        # of row 0's diagonal block; (n-2, n-1) does too at n = 129, and lies
        # inside the last diagonal block at n = 300
        e = np.tril(np.ones((n, n)))
        e[(0, n - 1) if corner == "first-row" else (n - 2, n - 1)] = 1e-300
        with pytest.raises(ValueError, match="strict upper triangle"):
            OperatorMatrix(p=2.0, q=2.0, entries=e)

    @pytest.mark.parametrize("n", [2, 129, 300])
    def test_negative_zero_upper_entries_are_accepted(self, n):
        e = np.tril(np.ones((n, n)))
        e[np.triu_indices(n, 1)] = -0.0
        m = OperatorMatrix(p=2.0, q=2.0, entries=e)
        assert np.signbit(m.entries[0, n - 1]) and np.signbit(m.entries[n - 2, n - 1])

    @pytest.mark.parametrize("shape", [(3, 2), (4,), (2, 2, 2)])
    def test_non_square_entries_are_rejected(self, shape):
        with pytest.raises(ValueError, match="square"):
            OperatorMatrix(p=2.0, q=2.0, entries=np.zeros(shape))

    def test_size_is_the_entries_side(self):
        m = assemble_matrix(Constant(0.7), 5)
        assert m.n == m.entries.shape[0] == 5
        assert diag_matrix([1.0, 2.0, 3.0]).n == 3


class TestSpectrum:
    def test_diag_spectrum(self):
        sv = singular_values(diag_matrix([3.0, 2.0, 1.0]))
        assert np.allclose(sv, [3.0, 2.0, 1.0], atol=1e-14)

    def test_identity_order_matches_volterra_spectrum(self):
        # classic singular values 2/((2k-1) pi), matched within 1% for k <= 20
        sv = singular_values(assemble_matrix(Constant(1.0), 512))
        k = np.arange(1, 21)
        exact = 2.0 / ((2.0 * k - 1.0) * math.pi)
        assert np.max(np.abs(sv[:20] / exact - 1.0)) <= 0.01

    def test_spectrum_csv_format(self):
        assert _spectrum_text([0.5, 0.25]) == "k,sigma_k\n1,0.5\n2,0.25\n"

    def test_spectrum_csv_prints_sub_roundoff_values_as_zero(self):
        # floor = 3 * eps * 0.5: 1e-20 is below it, 1e-14 above
        assert _spectrum_text([0.5, 1e-14, 1e-20]) == "k,sigma_k\n1,0.5\n2,1e-14\n3,0.0\n"


class TestApproximationNumbers:
    def test_operator_norm_bounded_by_gamma_minimum(self):
        for alpha in (Constant(0.5), Constant(1.0), PowerOffset(0.5, 1.0, 1.0)):
            rep = approximation_numbers(alpha, 4, 256)
            assert rep.values[0] <= 1.0 / K0 + 0.05
            assert rep.converged and rep.drift < 0.01

    def test_values_non_increasing(self):
        rep = approximation_numbers(Constant(0.8), 16, 256)
        assert np.all(np.diff(rep.values) <= 1e-12)

    def test_decay_rate_tracks_order(self):
        rep = approximation_numbers(Constant(1.0), 32, 512)
        n = np.arange(1, 33, dtype=float)
        slope = np.polyfit(np.log(n[7:]), np.log(rep.values[7:]), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.05)

    def test_converged_flips_at_one_percent_drift(self):
        def report(drift):
            return ApproximationReport(values=np.ones(2), n_disc=16, drift=drift)

        assert report(math.nextafter(0.01, 0.0)).converged
        assert not report(0.01).converged
        assert not report(math.inf).converged

    def test_rejects_bad_discretization(self):
        with pytest.raises(ValueError):
            approximation_numbers(Constant(1.0), 0)
        with pytest.raises(ValueError):
            approximation_numbers(Constant(1.0), 64, n_disc=128)
        with pytest.raises(ValueError):
            approximation_numbers(Constant(1.0), 8, n_disc=3000)


# the orders the top-k singular values are checked on: constants down to
# 0.05, whose values decay slowest, and the worked families
TOP_K_ORDERS = st.one_of(
    st.floats(0.05, 3.0).map(Constant),
    st.builds(PowerOffset, st.floats(0.05, 1.5), st.floats(0.05, 1.5), st.floats(0.1, 3.0)),
    st.builds(LogPowerOffset, st.floats(0.05, 1.5), st.floats(0.05, 1.5), st.floats(0.1, 3.0)),
    st.builds(ExpOffset, st.floats(0.05, 1.5), st.floats(0.05, 1.5), st.floats(0.25, 3.0)),
    st.builds(LogPower, st.floats(0.1, 1.0)),
    st.just(ReciprocalLog()),
)


class TestTopSingularValues:
    @given(alpha=TOP_K_ORDERS, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_dense_svd(self, alpha, data):
        n = data.draw(st.integers(16, 512), label="n")
        k = data.draw(st.integers(1, n // 16), label="k")
        e = assemble_matrix(alpha, n).entries
        got, steps, residual = spectral._top_singular_values(e, k)
        want = np.linalg.svd(e, compute_uv=False)[:k]
        assert np.max(np.abs(got / want - 1.0)) <= 1e-10
        assert residual <= 1e-12 and 2 * k + 8 <= steps <= n

    @given(
        levels=st.lists(st.floats(0.1, 10.0), min_size=1, max_size=2, unique=True),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_diagonal_with_repeated_entries(self, levels, data):
        # the Krylov space of a start is invariant after one step per
        # distinct entry (beta = 0), so every further copy of an entry
        # comes from a restart
        counts = data.draw(
            st.lists(st.integers(1, 100), min_size=len(levels), max_size=len(levels))
            .filter(lambda c: sum(c) >= 16),
            label="counts",
        )
        d = data.draw(st.permutations(np.repeat(levels, counts).tolist()), label="entries")
        k = data.draw(st.integers(1, len(d) // 16), label="k")
        got, _, residual = spectral._top_singular_values(np.diag(d), k)
        want = np.sort(d)[::-1][:k]
        assert np.max(np.abs(got / want - 1.0)) <= 1e-10
        assert residual <= 1e-12

    @pytest.mark.parametrize("n, k", [(512, 32), (1024, 64)])
    def test_fast_decay_certifies(self, n, k):
        # sigma_k / sigma_1 is 1e-5 and 1.4e-6: with u_i = A v_i / ||A v_i||
        # in the certificate these ran to m = n uncertified
        e = assemble_matrix(Constant(3.0), n).entries
        got, steps, residual = spectral._top_singular_values(e, k)
        want = np.linalg.svd(e, compute_uv=False)[:k]
        assert np.max(np.abs(got / want - 1.0)) <= 1e-10
        assert residual <= 1e-12 and steps < n // 2

    def test_scaled_identity_restarts_every_step(self):
        got, steps, _ = spectral._top_singular_values(np.diag(np.full(64, 0.3)), 4)
        assert got == pytest.approx([0.3] * 4, rel=1e-14)
        assert steps == 16

    def test_uncertified_after_n_steps_raises(self, monkeypatch):
        monkeypatch.setattr(spectral, "_CERTIFY", 0.0)
        with pytest.raises(ArithmeticError, match=r"after 16 steps"):
            spectral._top_singular_values(assemble_matrix(Constant(0.7), 16).entries, 1)

    @pytest.mark.parametrize("k", [0, 17])
    def test_rejects_k_outside_the_matrix(self, k):
        with pytest.raises(ValueError, match=r"need 1 <= k <= 16"):
            spectral._top_singular_values(np.eye(16), k)

    def test_report_carries_the_certificate(self):
        rep = approximation_numbers(PowerOffset(0.5, 1.0, 2.0), 16, 128)
        assert 40 <= rep.lanczos_steps <= 256 and 0.0 < rep.lanczos_residual <= 1e-12
        fine = assemble_matrix(PowerOffset(0.5, 1.0, 2.0), 256)
        dense = singular_values(fine)[:16]
        assert rep.drift == pytest.approx(float(np.max(np.abs(rep.values / dense - 1.0))), rel=1e-10)

    @pytest.mark.parametrize("alpha", [PowerOffset(0.5, 1.0, 2.0), Constant(1.0)], ids=repr)
    def test_report_says_how_the_matrix_was_built(self, alpha):
        # the 256-cell matrix of the first is interpolated, of the second not
        rep = approximation_numbers(alpha, 16, 128)
        assert rep.chebyshev_tail == assemble_matrix(alpha, 256).chebyshev_tail
        assert (rep.chebyshev_tail > 0.0) == isinstance(alpha, PowerOffset)


def coarse_svd_input(monkeypatch, alpha, n_disc) -> np.ndarray:
    """The n_disc-cell matrix approximation_numbers hands to singular_values.

    The singular values are skipped: the patched singular_values records
    each matrix and returns a flat spectrum, and the fine level's top-k
    values are flat too.  The dense SVD runs on the coarse matrix alone.
    """
    seen = []

    def record(m):
        seen.append(m)
        return np.ones(m.n)

    monkeypatch.setattr(spectral, "singular_values", record)
    monkeypatch.setattr(spectral, "_top_singular_values", lambda e, k: (np.ones(k), 0, 0.0))
    approximation_numbers(alpha, 1, n_disc)
    assert [m.n for m in seen] == [n_disc]
    return seen[0].entries


# orders with breakpoints inside the cells: a Tabulated profile on [0, 1]
# with one to four inner nodes, linear or step
TABULATED_ORDERS = st.builds(
    lambda inner, values, interpolation: Tabulated(
        (0.0, *sorted(inner), 1.0), tuple(values[: len(inner) + 2]), interpolation
    ),
    st.lists(st.floats(0.01, 0.99), min_size=1, max_size=4, unique=True),
    st.lists(st.floats(0.2, 2.5), min_size=6, max_size=6),
    st.sampled_from(["linear", "step"]),
)


# orders that are the same on every cell: a constant, wrapped or tabulated
FLAT_ORDERS = st.one_of(
    st.floats(0.05, 3.0).map(Constant),
    st.builds(Shifted, st.floats(0.05, 1.5).map(Constant), st.floats(0.05, 1.5)),
    st.builds(Rescaled, st.floats(0.05, 3.0).map(Constant), st.floats(0.05, 1.0)),
    st.builds(
        lambda inner, value: Tabulated((0.0, *sorted(inner), 1.0), (value,) * (len(inner) + 2)),
        st.lists(st.floats(0.01, 0.99), max_size=3, unique=True),
        st.floats(0.05, 3.0),
    ),
)

# orders equal to a constant on [e^-1, 1], so the cells there form one run
CAPPED_LOG_ORDERS = st.one_of(
    st.builds(LogPowerOffset, st.floats(0.05, 1.5), st.floats(0.05, 1.5), st.floats(0.1, 3.0)),
    st.builds(LogPower, st.floats(0.1, 1.0)),
    st.just(ReciprocalLog()),
)

# orders whose samples repeat from cell to cell in runs: tables drawing
# their values from three levels, so neighbouring values are often equal,
# and wrapped capped-log orders
RUN_ORDERS = st.one_of(
    st.builds(
        lambda inner, values, interpolation: Tabulated(
            (0.0, *sorted(inner), 1.0), tuple(values[: len(inner) + 2]), interpolation
        ),
        st.lists(st.floats(0.01, 0.99), min_size=1, max_size=4, unique=True),
        st.lists(st.sampled_from([0.3, 0.9, 1.6]), min_size=6, max_size=6),
        st.sampled_from(["linear", "step"]),
    ),
    st.builds(Shifted, CAPPED_LOG_ORDERS, st.floats(0.05, 1.5)),
    st.builds(Rescaled, CAPPED_LOG_ORDERS, st.floats(0.4, 1.0)),
)

# the orders the fixed-size bit identity runs on: one run, runs beside
# blocked and cut cells, no runs
BIT_ORDERS = [
    Constant(0.05),
    Constant(2.5),
    PowerOffset(0.5, 1.0, 2.0),
    ExpOffset(0.5, 1.0, 1.0),
    LogPowerOffset(0.5, 1.0, 1.0),
    LogPowerOffset(0.3, 0.5, 1.0),
    ReciprocalLog(),
    LogPower(0.5),
    Tabulated((0.0, 0.3, 0.61, 1.0), (0.8, 0.8, 0.8, 0.8)),
    Tabulated((0.0, 0.3, 0.6, 1.0), (0.5, 0.9, 0.9, 1.2)),
    Tabulated(*SPLIT_TABLE, "step"),
    Tabulated((0.0, 0.25, 0.5, 0.75, 1.0), (0.5, 0.5, 0.9, 0.9, 1.2), "step"),
]


def moments_calls(monkeypatch) -> list:
    """Record (pieces, span) of each spectral._moments call from now on."""
    calls = []
    inner = spectral._moments

    def record(x, a, width, h, span, n):
        calls.append((x.shape[0], span))
        return inner(x, a, width, h, span, n)

    monkeypatch.setattr(spectral, "_moments", record)
    return calls


class TestAssemblyPaths:
    @given(alpha=st.one_of(CLOSURE_ORDERS, TABULATED_ORDERS, FLAT_ORDERS), n=st.integers(1, 96))
    @settings(max_examples=60, deadline=None)
    def test_matches_blocked_loop_bitwise_property(self, alpha, n):
        assert np.array_equal(direct_entries(alpha, n), blocked_entries(alpha, n))

    @pytest.mark.parametrize("alpha", BIT_ORDERS, ids=repr)
    @pytest.mark.parametrize("n", [1, 2, 3, 256, 1024])
    def test_matches_blocked_loop_bitwise(self, alpha, n):
        assert np.array_equal(direct_entries(alpha, n), blocked_entries(alpha, n))

    def test_constant_order_computes_one_row(self, monkeypatch):
        calls = moments_calls(monkeypatch)
        assemble_matrix(Constant(0.7), 64)
        assert calls == [(1, 63)]

    def test_variable_order_runs_in_blocks(self, monkeypatch):
        calls = moments_calls(monkeypatch)
        assemble_matrix(PowerOffset(0.5, 1.0, 2.0), 64)
        assert calls == [(16, 15), (16, 31), (16, 47), (16, 63)]

    def test_smooth_order_interpolates_from_virtual_rows(self, monkeypatch):
        # the 17 even-indexed Lobatto points in one call, then the other 16,
        # each at span n - 1
        calls = moments_calls(monkeypatch)
        m = assemble_matrix(PowerOffset(0.5, 1.0, 2.0), 256)
        assert calls == [(17, 255), (16, 255)]
        assert 0.0 < m.chebyshev_tail <= spectral._CHEB_TAIL

    def test_order_with_runs_takes_the_direct_rows(self, monkeypatch):
        # exp(-1/t) rounds away on cells 0..4, which form a run, so the
        # interpolation is not tried
        calls = moments_calls(monkeypatch)
        m = assemble_matrix(ExpOffset(0.5, 1.0, 1.0), 256)
        assert calls == [(16, 20 + 16 * k) for k in range(15)] + [(11, 255)]
        assert m.chebyshev_tail == 0.0

    def test_rough_order_gives_up_after_17_virtual_rows(self, monkeypatch):
        # t^0.5 is not smooth at 0: the 17-point tail is past _CHEB_HOPELESS,
        # and the direct rows follow
        calls = moments_calls(monkeypatch)
        m = assemble_matrix(PowerOffset(0.5, 1.0, 0.5), 256)
        assert calls == [(17, 255)] + [(16, 15 + 16 * k) for k in range(16)]
        assert m.chebyshev_tail == 0.0

    def test_virtual_row_out_of_range_takes_the_direct_rows(self, monkeypatch):
        # a virtual row's samples are no cell's, so its weights can leave
        # the normal doubles where the cells' do not: the direct rows decide
        inner = spectral._moments

        def first_call_raises(x, a, width, h, span, n):
            monkeypatch.setattr(spectral, "_moments", inner)
            raise ValueError("out of range")

        monkeypatch.setattr(spectral, "_moments", first_call_raises)
        alpha = PowerOffset(0.5, 1.0, 2.0)
        m = assemble_matrix(alpha, 128)
        assert m.chebyshev_tail == 0.0
        assert np.array_equal(m.entries, blocked_entries(alpha, 128))

    @pytest.mark.parametrize("n", [256, 512])
    def test_wide_order_interpolates_to_relative_accuracy(self, n):
        # alpha from 2 to 4: the diagonal spans 6 orders of magnitude at
        # n = 256.  An interpolant of the moments themselves, checked against
        # each column's largest value, read a tail of 1.2e-15 there and left
        # entries 4e-12 off; interpolated in logs, every entry keeps its digits
        alpha = PowerOffset(2.0, 2.0, 1.0)
        m = assemble_matrix(alpha, n)
        assert 0.0 < m.chebyshev_tail <= spectral._CHEB_TAIL
        assert max_relative_error(m.entries, blocked_entries(alpha, n)) <= 1e-12

    @given(
        alpha=st.one_of(
            st.builds(
                PowerOffset,
                st.floats(0.05, 1.5),
                st.floats(0.05, 1.5),
                st.one_of(st.sampled_from([1.0, 2.0, 3.0]), st.floats(0.1, 3.0)),
            ),
            st.builds(ExpOffset, st.floats(0.05, 1.5), st.floats(0.05, 1.5), st.floats(0.25, 3.0)),
        ),
        n=st.integers(spectral._CHEB_MIN_N, 512),
    )
    @example(alpha=PowerOffset(0.5, 1.0, 2.0), n=256)
    # the largest entry error of a grid of accepted orders: 1.4e-13
    @example(alpha=PowerOffset(0.05, 0.05, 3.0), n=128)
    @settings(max_examples=20, deadline=None)
    def test_interpolated_rows_property(self, alpha, n):
        # either the direct rows, bit for bit, or within 1e-12 of them entry
        # by entry and 1e-13 in the top 16 singular values
        m = assemble_matrix(alpha, n)
        want = blocked_entries(alpha, n)
        if m.chebyshev_tail == 0.0:
            assert np.array_equal(m.entries, want)
            return
        assert max_relative_error(m.entries, want) <= 1e-12
        got_sv = np.linalg.svd(m.entries, compute_uv=False)[:16]
        want_sv = np.linalg.svd(want, compute_uv=False)[:16]
        assert np.max(np.abs(got_sv / want_sv - 1.0)) <= 1e-13

    @given(alpha=RUN_ORDERS, n=st.integers(1, 96))
    @settings(max_examples=60, deadline=None)
    def test_runs_match_blocked_loop_bitwise_property(self, alpha, n):
        assert np.array_equal(direct_entries(alpha, n), blocked_entries(alpha, n))

    def test_capped_log_order_computes_one_row_per_run(self, monkeypatch):
        # at n = 64, e^-1 cuts cell 23: cells 0..22 and the two pieces of
        # cell 23 are computed, and the run 24..63 by its last row
        calls = moments_calls(monkeypatch)
        assemble_matrix(LogPowerOffset(0.3, 0.5, 1.0), 64)
        assert calls == [(16, 15), (10, 63)]

    def test_capped_log_order_at_n_256(self, monkeypatch):
        # cells 0..93, the two pieces of cell 94, and the run 95..255
        calls = moments_calls(monkeypatch)
        assemble_matrix(LogPowerOffset(0.3, 0.5, 1.0), 256)
        assert sum(pieces for pieces, _ in calls) == 97
        assert calls[-1] == (1, 255)

    @pytest.mark.parametrize(
        "alpha, n, chunks",
        [
            # then the interpolation's 33 virtual rows in one call
            (PowerOffset(0.5, 1.0, 2.0), 200, (64, 64, 64, 8, 33)),
            # the node at 0.3 splits cell 19 of 64, so 65 pieces
            (Tabulated((0.0, 0.3, 1.0), (0.5, 0.9, 0.7)), 64, (64, 1)),
        ],
        ids=["whole-cells", "one-cut"],
    )
    def test_order_evaluated_once_per_node(self, monkeypatch, alpha, n, chunks):
        # 64 pieces per call, and no node twice
        seen = []

        def counted(self, t):
            seen.append(np.size(t))
            return OrderFunction.eval(self, t)

        monkeypatch.setattr(type(alpha), "eval", counted)
        assemble_matrix(alpha, n)
        assert seen == [k * spectral._NODES.size for k in chunks]


class TestLargeOrders:
    # h^(a+1) W / (a Gamma(a)) leaves the normal doubles at n = 256: at
    # a = 80 the weights are subnormal, from 100 up they are zero
    @pytest.mark.parametrize("value", [80.0, 100.0, 130.0, 200.0])
    def test_constant_order_past_the_doubles_is_rejected(self, value):
        with pytest.raises(ValueError, match=rf"up to {value!r} at n = 256"):
            assemble_matrix(Constant(value), 256)

    def test_rejection_in_a_block_names_the_largest_sample(self, monkeypatch):
        # the node 0.5 is a cell edge, so cells 0..127 and 128..255 form two
        # runs, whose last rows share one block; the large value sits on the
        # second run only
        calls = moments_calls(monkeypatch)
        alpha = Tabulated((0.0, 0.5, 1.0), (0.5, 100.0, 100.0), "step")
        with pytest.raises(ValueError, match=r"up to 100\.0 at n = 256"):
            assemble_matrix(alpha, 256)
        assert calls == [(2, 255)]

    def test_approximation_numbers_reject_instead_of_nan_drift(self):
        with pytest.raises(ValueError, match=r"at n = 1024"):
            approximation_numbers(Constant(100.0), 64)

    @pytest.mark.parametrize("n", [1, 4, 256])
    def test_zero_mass_piece_at_the_origin_still_assembles(self, n):
        # a node at 1e-300 cuts a piece whose weights are subnormal, but the
        # unit-width weights are normal, and the piece adds nothing
        flat = assemble_matrix(Tabulated((0.0, 1.0), (0.5, 0.5)), n)
        cut = assemble_matrix(Tabulated((0.0, 1e-300, 1.0), (0.5, 0.5, 0.5)), n)
        assert np.array_equal(cut.entries, flat.entries)

    def test_order_60_still_assembles(self):
        m = assemble_matrix(Constant(60.0), 256)
        assert np.all(np.diag(m.entries) > 0.0)

    def test_overflowing_moment_is_rejected(self):
        # h = 1 keeps the weights normal at a = 150, but (d + x)^150
        # overflows once d + x passes about 113.5
        a = np.full((1, spectral._NODES.size), 150.0)
        with pytest.raises(ValueError, match=r"up to 150\.0 at n = 7"):
            spectral._moments(spectral._NODES[None], a, 1.0, 1.0, 200, 7)


class TestBlockCoarsening:
    def test_assembles_once_per_call(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return assemble_matrix(*args, **kwargs)

        monkeypatch.setattr(spectral, "assemble_matrix", counted)
        approximation_numbers(PowerOffset(0.5, 1.0, 1.0), 4, 64)
        assert calls == [128]

    @pytest.mark.parametrize("value", [0.05, 0.7, 1.0, 2.5])
    @pytest.mark.parametrize("n", [8, 65])
    def test_constant_order_coarse_matrix_is_exactly_toeplitz(self, monkeypatch, value, n):
        e = coarse_svd_input(monkeypatch, Constant(value), n)
        for k in range(n):
            band = np.diag(e, -k)
            assert np.all(band == band[0]), f"subdiagonal {k}"
        assert np.all(np.triu(e, 1) == 0.0)

    @pytest.mark.parametrize("value", [0.3, 0.7, 1.0, 1.4, 2.5])
    @pytest.mark.parametrize("n", [64, 1024])
    def test_constant_order_coarse_matrix_matches_closed_form(self, monkeypatch, value, n):
        got = coarse_svd_input(monkeypatch, Constant(value), n)
        col = constant_order_column(value, n)
        want = np.tril(col[np.subtract.outer(np.arange(n), np.arange(n)) % n])
        assert max_relative_error(got, want) <= 1e-12

    @given(
        alpha=st.one_of(
            CLOSURE_ORDERS,
            st.builds(
                LogPowerOffset, st.floats(0.05, 1.5), st.floats(0.05, 1.5), st.floats(0.1, 3.0)
            ),
            st.just(ReciprocalLog()),
            TABULATED_ORDERS,
        ),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_values_match_direct_assembly(self, alpha, data):
        n_disc = data.draw(st.integers(8, 96), label="n_disc")
        n_max = data.draw(st.integers(1, n_disc // 8), label="n_max")
        got = approximation_numbers(alpha, n_max, n_disc).values
        want = singular_values(assemble_matrix(alpha, n_disc))[:n_max]
        if np.max(np.abs(got / want - 1.0)) <= 1e-12:
            return
        # they differ where the direct n_disc-cell assembly loses digits:
        # orders near 0.05 at the kernel corner, and orders that rise
        # steeply inside a wide cell.  The coarsened matrix must then be the
        # closer of the two to the 64-point reference matrix.
        with pytest.MonkeyPatch.context() as mp:
            coarse = coarse_svd_input(mp, alpha, n_disc)
        ref = reference_entries(alpha, n_disc, points=64)
        direct = assemble_matrix(alpha, n_disc).entries
        assert max_relative_error(coarse, ref) < max_relative_error(direct, ref)

    @pytest.mark.xfail(
        strict=True,
        reason="the order rises from 0.25 to 2.5 across [0.4375, 0.5]: the spectra "
        "differ by 4.66e-12, and the coarsened matrix is 4.13e-11 off the 64-point "
        "reference against 7.29e-12 for the direct one",
    )
    def test_steep_linear_table_counterexample(self):
        # the counterexample hypothesis found for test_values_match_direct_assembly,
        # asserted as that property asserts it.  The property's own source is
        # left as it is: hypothesis keys its stored examples by that source.
        alpha = Tabulated((0.0, 0.25, 0.4375, 0.5, 1.0), (1.0, 1.0, 0.25, 2.5, 1.0), "linear")
        got = approximation_numbers(alpha, 1, 8).values
        want = singular_values(assemble_matrix(alpha, 8))[:1]
        if np.max(np.abs(got / want - 1.0)) <= 1e-12:
            return
        with pytest.MonkeyPatch.context() as mp:
            coarse = coarse_svd_input(mp, alpha, 8)
        ref = reference_entries(alpha, 8, points=64)
        direct = assemble_matrix(alpha, 8).entries
        assert max_relative_error(coarse, ref) < max_relative_error(direct, ref)


class TestVolumetric:
    def test_equal_diagonal_same_exponents_is_half_diagonal(self):
        for d in (1.0, 0.3, 7.5):
            bound = volumetric_entropy_lower(diag_matrix([d] * 5))
            assert bound.value == d / 2.0

    def test_two_cell_identity_order(self):
        m = assemble_matrix(Constant(1.0), 2)
        assert volumetric_entropy_lower(m).value == pytest.approx(0.125, abs=1e-9)

    # at (0.7, 8) exp(mean(log d)) happens to round back to d; the other
    # cases round off, so only the all-equal short-cut keeps them exact
    @pytest.mark.parametrize("value, n", [(0.7, 8), (0.3, 8), (0.7, 65), (2.5, 65)])
    def test_constant_order_takes_equal_diagonal_shortcut(self, value, n):
        m = assemble_matrix(Constant(value), n)
        bound = volumetric_entropy_lower(m)
        assert bound.diagonal_geomean == m.diagonal[0]
        assert bound.value == m.diagonal[0] / 2.0

    def test_p2_qinf_four_dim_ones(self):
        bound = volumetric_entropy_lower(diag_matrix([1.0] * 4, p=2.0, q=math.inf))
        exact = (math.pi**2 / 32.0) ** 0.25 / 2.0
        assert bound.value == pytest.approx(exact, rel=1e-12)
        assert bound.value == pytest.approx(0.3745, abs=0.005)

    def test_scales_linearly(self):
        base = volumetric_entropy_lower(diag_matrix([1.0, 2.0, 4.0])).value
        scaled = volumetric_entropy_lower(diag_matrix([3.0, 6.0, 12.0])).value
        assert scaled == pytest.approx(3.0 * base, rel=1e-12)

    def test_rejects_nonpositive_diagonal(self):
        with pytest.raises(ValueError):
            volumetric_entropy_lower(diag_matrix([1.0, 0.0]))

    def test_ball_volume_root_values(self):
        assert ball_volume_root(3, math.inf) == 2.0
        # unit 2-ball in dimension 2 has volume pi
        assert ball_volume_root(2, 2.0) == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    def test_ball_volume_root_no_overflow(self):
        assert math.isfinite(ball_volume_root(10**6, 2.0))

    def test_ball_volume_root_matches_gammaln_formula(self):
        special = pytest.importorskip("scipy.special")
        for n in (1, 2, 7, 100, 10**6):
            for p in (1.0, 1.5, 2.0, 7.0):
                want = 2.0 * math.gamma(1.0 + 1.0 / p) * math.exp(
                    -float(special.gammaln(n / p + 1.0)) / n
                )
                assert ball_volume_root(n, p) == pytest.approx(want, rel=1e-14)
