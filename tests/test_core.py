"""Operator evaluation core: product integration, norms, maximal function,
Besov norm, averaging projection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from varfrac.core import (
    _LANCZOS_COEFFS,
    GAMMA_MIN_LOCATION,
    K0,
    GridFunction,
    NumericalError,
    _blocks,
    _gauss_panels,
    _lanczos_sum,
    _sorted_unique,
    besov_norm,
    csv_text,
    gamma,
    lp_norm,
    maximal_values,
    project_average,
    q_values,
    read_table,
    rl_values,
)
from varfrac.orders import (
    Constant,
    LogPowerOffset,
    OrderFunction,
    PowerOffset,
    ReciprocalLog,
    Tabulated,
)

ONE = GridFunction((0.0, 1.0), (1.0, 1.0))
RAMP = GridFunction((0.0, 1.0), (0.0, 1.0))


def closed_form_rl(alpha: float, k: int, t):
    """R^alpha s^k = Gamma(k+1) t^(alpha+k) / Gamma(alpha+k+1)."""
    t = np.asarray(t, dtype=float)
    return math.gamma(k + 1) * t ** (alpha + k) / math.gamma(alpha + k + 1)


# Gamma's three Lanczos regimes drawn alike: Horner in x, Horner in 1/x, and
# the power taken as a square
_GAMMA_ARGS = (
    st.floats(0.0, 5.0, exclude_min=True, exclude_max=True)
    | st.floats(5.0, 140.0, exclude_max=True)
    | st.floats(140.0, 171.62)
)


class TestGamma:
    def test_at_one(self):
        assert gamma(1.0) == 1.0

    def test_half_is_sqrt_pi(self):
        assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    def test_global_minimum_value(self):
        # ten published digits of the minimum over (0, inf)
        assert K0 == pytest.approx(0.8856031944, abs=5e-11)
        assert gamma(GAMMA_MIN_LOCATION) == K0

    def test_minimum_is_locally_minimal(self):
        for dx in (-1e-4, 1e-4):
            assert gamma(GAMMA_MIN_LOCATION + dx) >= K0

    def test_rejects_nonpositive(self):
        for x in (0.0, -1.0):
            with pytest.raises(ValueError):
                gamma(x)

    def test_vectorized_matches_scalar(self):
        x = np.linspace(0.1, 5.0, 50)
        assert np.allclose(gamma(x), [math.gamma(v) for v in x], rtol=1e-13)

    def test_matches_scipy(self):
        special = pytest.importorskip("scipy.special")
        x = np.concatenate((np.geomspace(1e-4, 171.6, 4001), [GAMMA_MIN_LOCATION, 0.5, 1.0]))
        assert np.max(np.abs(gamma(x) / special.gamma(x) - 1.0)) <= 2e-15
        assert K0 == special.gamma(GAMMA_MIN_LOCATION)
        big = np.array([171.625, 172.0, 200.0, 1e6, math.inf])
        assert np.all(special.gamma(big) == math.inf)
        assert np.all(gamma(big) == math.inf)

    def test_overflow_gives_inf(self):
        assert gamma(200.0) == math.inf
        got = gamma(np.array([[1.0, 171.7], [1e300, 2.0]]))
        assert got.shape == (2, 2)
        assert np.array_equal(got, [[1.0, math.inf], [math.inf, 1.0]])

    def test_rejects_nonpositive_array_element(self):
        with pytest.raises(ValueError):
            gamma(np.array([1.0, 0.0, 2.0]))

    @given(x=_GAMMA_ARGS)
    @settings(max_examples=300, deadline=None)
    def test_matches_math_gamma_within_4_ulp(self, x):
        # one ulp is eps relative to the value; the gap is numpy's SIMD exp
        # and pow against the C library's (3.8 ulp at most in 4M draws)
        try:
            want = math.gamma(x)
        except OverflowError:  # below about 5.6e-309, where 1/x overflows
            want = math.inf
        got = gamma(x)
        assert got == want or abs(got - want) <= 4.0 * np.finfo(float).eps * want

    @given(x=st.floats(1e-20, 5.0, exclude_max=True) | st.floats(5.0, 171.62))
    @settings(max_examples=200, deadline=None)
    def test_lanczos_sum_is_scalar_horner(self, x):
        # the complex-packed sweep against CPython's two real Horner sweeps,
        # over the arguments gamma passes to it (below 1e-20 it takes 1/x)
        num = [complex(c).real for c in _LANCZOS_COEFFS]
        den = [complex(c).imag for c in _LANCZOS_COEFFS]
        n = d = 0.0
        if x < 5.0:
            for cn, cd in zip(num[::-1], den[::-1]):
                n, d = n * x + cn, d * x + cd
        else:
            for cn, cd in zip(num, den):
                n, d = n / x + cn, d / x + cd
        assert _lanczos_sum(np.array([x]), x >= 5.0)[0] == n / d

    def test_exact_at_integers(self):
        k = np.arange(1, 24)
        want = [float(math.factorial(j - 1)) for j in k]
        assert np.array_equal(gamma(k.astype(float)), want)
        assert [gamma(float(j)) for j in k] == want

    @given(x=st.floats(171.625, 1e300))
    @settings(max_examples=50, deadline=None)
    def test_inf_past_double_range(self, x):
        assert gamma(x) == math.inf
        assert np.all(gamma(np.array([x, 2.0 * x, 1.0]))[:2] == math.inf)

    @given(
        xs=st.lists(
            _GAMMA_ARGS | st.integers(1, 30).map(float) | st.floats(171.6, 1e6),
            min_size=1,
            max_size=24,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_array_is_elementwise_scalar(self, xs):
        # each branch runs for a whole array when its least or greatest
        # element calls for it, so no element depends on its neighbours
        got = gamma(np.array(xs))
        assert np.array_equal(got, [gamma(x) for x in xs])

    def test_keeps_shape(self):
        assert type(gamma(2.5)) is float
        assert type(gamma(np.array(2.5))) is float
        assert gamma(np.full(3, 2.5)).shape == (3,)
        got = gamma(np.array([[0.5, 1.0, 7.5], [150.0, 200.0, 1e-30]]))
        assert got.shape == (2, 3)
        assert got[0, 1] == 1.0 and got[1, 1] == math.inf and got[1, 2] == 1.0 / 1e-30
        assert gamma(np.zeros((0, 2))).shape == (0, 2)


class TestRlValues:
    def test_identity_order_gives_primitive(self):
        assert rl_values(Constant(1.0), ONE, [0.75])[0] == pytest.approx(
            0.75, abs=1e-14
        )

    def test_half_order_endpoint(self):
        val = rl_values(Constant(0.5), ONE, [1.0])[0]
        assert val == pytest.approx(2.0 / math.sqrt(math.pi), abs=1e-13)

    def test_ramp_input(self):
        assert rl_values(Constant(1.0), RAMP, [1.0])[0] == pytest.approx(
            0.5, abs=1e-14
        )

    def test_target_zero_is_zero(self):
        assert rl_values(Constant(0.5), ONE, [0.0])[0] == 0.0

    @pytest.mark.parametrize(
        "alpha", [Constant(0.5), Tabulated((0.0, 0.5, 1.0), (0.4, 1.3, 0.8))]
    )
    def test_no_target_inside_the_range_gives_exact_zeros(self, alpha):
        # R at t = 0 and Q at t = r integrate over an empty interval
        f = GridFunction((0.0, 0.25, 0.75), (1.0, -2.0, 3.0))
        for got in (rl_values(alpha, f, [0.0, 0.0]), q_values(alpha, f, [0.75, 0.75])):
            assert got.tolist() == [0.0, 0.0]

    def test_tiny_step_cell_ending_at_target(self):
        # (t-u)^a - (t-v)^a with v = t: no cancellation as the cell shrinks
        t, a, h = 1.0, 0.25, 2.0**-43
        f = GridFunction((0.0, t - h, t), (0.0, 1.0, 1.0), "step")
        val = rl_values(Constant(a), f, [t])[0]
        assert val == pytest.approx(h**a / math.gamma(a + 1.0), rel=1e-10)

    @pytest.mark.parametrize("interpretation", ["linear", "step"])
    def test_inserting_a_node_leaves_values_unchanged(self, interpretation):
        f = GridFunction((0.0, 0.7, 1.0), (1.0, -0.5, 2.0), interpretation)
        mid = float(f(0.3))
        split = GridFunction((0.0, 0.3, 0.7, 1.0), (1.0, mid, -0.5, 2.0), interpretation)
        t = np.linspace(0.0, 1.0, 41)
        for alpha in (Constant(0.6), PowerOffset(0.5, 1.0, 2.0)):
            whole = rl_values(alpha, f, t)
            assert np.max(np.abs(whole - rl_values(alpha, split, t))) <= 1e-14

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("k", [0, 1])
    def test_closed_form_oracle(self, alpha, k):
        f = ONE if k == 0 else RAMP
        t = np.linspace(0.0, 1.0, 257)
        got = rl_values(Constant(alpha), f, t)
        assert np.max(np.abs(got - closed_form_rl(alpha, k, t))) <= 1e-10

    def test_rejects_targets_outside_interval(self):
        for targets in ([1.2], [0.5, math.nan]):
            with pytest.raises(ValueError):
                rl_values(Constant(0.5), ONE, targets)

    def test_nonpositive_order_at_target_raises(self):
        class Dipping(OrderFunction):
            def _eval_array(self, t):
                return 0.5 - t

        with pytest.raises(NumericalError):
            rl_values(Dipping(), ONE, [0.75])

    @given(
        a=st.floats(-2.0, 2.0),
        b=st.floats(-2.0, 2.0),
        t=st.floats(0.05, 1.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, a, b, t):
        f = GridFunction((0.0, 0.4, 1.0), (1.0, -0.5, 2.0))
        g = GridFunction((0.0, 0.7, 1.0), (0.0, 1.5, -1.0))
        alpha = PowerOffset(0.5, 1.0, 1.0)
        nodes = np.union1d(f.nodes, g.nodes)
        h = GridFunction(nodes, a * f(nodes) + b * g(nodes))
        combined = rl_values(alpha, h, [t])[0]
        split = a * rl_values(alpha, f, [t])[0] + b * rl_values(alpha, g, [t])[0]
        assert combined == pytest.approx(split, rel=1e-10, abs=1e-10)

    @given(t=st.floats(0.0, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_positivity(self, t):
        f = GridFunction((0.0, 0.3, 0.31, 1.0), (0.0, 0.0, 2.0, 0.5), "step")
        assert rl_values(PowerOffset(0.5, 1.0, 2.0), f, [t])[0] >= 0.0


class TestQValues:
    def test_identity_order(self):
        assert q_values(Constant(1.0), ONE, [0.25])[0] == pytest.approx(
            0.75, abs=1e-14
        )

    def test_half_order_at_left_end(self):
        assert q_values(Constant(0.5), ONE, [0.0])[0] == pytest.approx(
            2.0 / math.sqrt(math.pi), abs=1e-13
        )

    def test_time_reversal_matches_rl(self):
        # Q f = S R S f with (S f)(t) = f(1 - t)
        alpha = Constant(0.75)
        f = GridFunction((0.0, 0.5, 1.0), (1.0, 2.0, 0.5))
        rev = GridFunction((0.0, 0.5, 1.0), (0.5, 2.0, 1.0))
        t = np.asarray([0.2, 0.6, 0.9])
        direct = q_values(alpha, f, t)
        reversed_route = rl_values(alpha, rev, 1.0 - t)
        assert np.allclose(direct, reversed_route, atol=1e-12)


class TestLpNorm:
    def test_constant(self):
        assert lp_norm(ONE, 2.0) == pytest.approx(1.0, abs=1e-15)

    def test_ramp_sup(self):
        assert lp_norm(RAMP, math.inf) == pytest.approx(1.0, abs=1e-15)

    def test_ramp_l2(self):
        assert lp_norm(RAMP, 2.0) == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-14)

    def test_general_exponent_against_closed_form(self):
        p = 3.7
        assert lp_norm(RAMP, p) == pytest.approx((1.0 / (p + 1.0)) ** (1.0 / p), rel=1e-10)

    def test_step_function(self):
        f = GridFunction((0.0, 0.5, 1.0), (2.0, 0.0, 0.0), "step")
        assert lp_norm(f, 1.0) == pytest.approx(1.0, abs=1e-14)
        assert lp_norm(f, 2.0) == pytest.approx(math.sqrt(2.0), abs=1e-14)

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            lp_norm(ONE, 0.5)


class TestGaussPanels:
    @pytest.mark.parametrize("points", [8, 16])
    def test_matches_leggauss_mapped_onto_each_panel(self, points):
        # the affine map of numpy's rule onto [e_k, e_k+1], bit for bit
        edges = np.append(0.0, 2.0 ** -np.arange(24, -1, -1.0))
        xg, wg = np.polynomial.legendre.leggauss(points)
        half = 0.5 * (edges[1:] - edges[:-1])
        mid = 0.5 * (edges[1:] + edges[:-1])
        x, w = _gauss_panels(edges, points)
        assert np.array_equal(x, mid[:, None] + half[:, None] * xg)
        assert np.array_equal(w, half[:, None] * wg)


class TestMaximalFunction:
    def test_constant_interior(self):
        assert maximal_values(ONE, [0.5])[0] == pytest.approx(1.0, abs=1e-12)

    def test_constant_at_right_edge(self):
        # window [1-r, 1+r] sees support on half its length
        assert maximal_values(ONE, [1.0])[0] == pytest.approx(0.5, abs=1e-12)

    def test_half_indicator(self):
        f = GridFunction((0.0, 0.5, 1.0), (1.0, 0.0, 0.0), "step")
        assert maximal_values(f, [0.75])[0] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_dominates_every_window_average(self):
        f = GridFunction((0.0, 0.3, 0.6, 1.0), (0.5, 2.0, 0.1, 0.1), "step")
        t = 0.45
        m = maximal_values(f, [t])[0]
        for r in np.linspace(1e-3, 1.0, 200):
            avg = f.integrate(max(t - r, 0.0), min(t + r, 1.0)) / (2.0 * r)
            assert m >= avg - 1e-12


class TestBesov:
    def test_constant_norm_is_one(self):
        assert besov_norm(ONE, 2.0, 0.5, [0.1, 0.5, 1.0]) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_ramp_sup_norm(self):
        val = besov_norm(RAMP, math.inf, 0.5, [0.25, 0.5, 1.0])
        assert val == pytest.approx(2.0, abs=1e-12)

    def test_rejects_bad_smoothness(self):
        with pytest.raises(ValueError):
            besov_norm(ONE, 2.0, 1.5, [0.5])


class TestProjectAverage:
    def test_preserves_constants(self):
        g = project_average(3.0 * ONE, 4)
        assert np.allclose(g.values[:-1], 3.0, atol=1e-14)

    def test_ramp_two_cells(self):
        g = project_average(RAMP, 2)
        assert np.allclose(g.values[:-1], [0.25, 0.75], atol=1e-14)

    def test_square_single_cell(self):
        t = np.linspace(0.0, 1.0, 1025)
        f = GridFunction(t, t**2)
        g = project_average(f, 1)
        assert g.values[0] == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_idempotent_on_aligned_steps(self):
        f = GridFunction((0.0, 0.25, 0.5, 0.75, 1.0), (1.0, 3.0, 2.0, 5.0, 5.0), "step")
        g = project_average(f, 4)
        assert np.allclose(g.values, f.values, atol=1e-14)

    def test_rejects_nonpositive_cell_count(self):
        with pytest.raises(ValueError):
            project_average(ONE, 0)


class TestGridFunction:
    def test_csv_round_trip(self, tmp_path):
        f = GridFunction((0.0, 0.3, 1.0), (1.0, -2.0, 0.5), "step")
        path = tmp_path / "f.csv"
        f.to_csv(str(path))
        g = GridFunction.from_csv(str(path))
        assert g.interpretation == "step"
        assert np.array_equal(g.nodes, f.nodes)
        assert np.array_equal(g.values, f.values)

    def test_csv_headerless_with_directive(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("\n# written by hand\n0,1\n# interpretation=step\n0.5,3\n\n1,3\n")
        g = GridFunction.from_csv(str(path))
        assert g.interpretation == "step"
        assert np.array_equal(g.nodes, [0.0, 0.5, 1.0])
        assert np.array_equal(g.values, [1.0, 3.0, 3.0])

    def test_csv_late_non_numeric_row_names_line(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("node,value\n0,1\n0.5,oops\n1,2\n")
        with pytest.raises(ValueError, match=r"f\.csv:3:"):
            GridFunction.from_csv(str(path))

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_csv_non_finite_value_rejected(self, tmp_path, value):
        path = tmp_path / "f.csv"
        path.write_text(f"0,1\n0.5,{value}\n1,2\n")
        with pytest.raises(ValueError, match="values must be finite"):
            GridFunction.from_csv(str(path))

    def test_abs_inserts_crossing_nodes(self):
        f = GridFunction((0.0, 1.0), (-1.0, 1.0))
        g = abs(f)
        assert g(0.5) == pytest.approx(0.0, abs=1e-15)
        assert lp_norm(g, 1.0) == pytest.approx(0.5, abs=1e-14)

    @pytest.mark.parametrize(
        "nodes", [(math.nan, 0.5, 1.0), (0.0, math.nan, 1.0), (0.0, 0.5, math.nan)]
    )
    def test_rejects_nan_node(self, nodes):
        with pytest.raises(ValueError, match="nodes"):
            GridFunction(nodes, (1.0, 2.0, 1.0))


class TestCsvText:
    def test_field_rules(self):
        rows = [(1, np.float64(0.1), None), (2, 1e-300, 3.0)]
        assert csv_text("k,x,y", rows) == "k,x,y\n1,0.1,\n2,1e-300,3.0\n"

    def test_head_only(self):
        assert csv_text("# a=b\nx,y", []) == "# a=b\nx,y\n"

    def test_round_trips_through_read_table(self, tmp_path):
        values = np.array([[0.1, 1.0 / 3.0], [np.pi, 5e-324]])
        path = tmp_path / "t.csv"
        path.write_text(csv_text("x,y", values))
        table, _ = read_table(str(path))
        assert np.array_equal(table, values)


class TestReadTable:
    def test_comment_and_header_rows_are_skipped(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# any comment\nx,y\n# kind=test\n3,0\n0,2\n")
        table, directives = read_table(str(path))
        assert np.array_equal(table, [[3.0, 0.0], [0.0, 2.0]])
        assert directives == {"kind": "test"}

    @pytest.mark.parametrize(
        "text, message",
        [("0,1,2\n1,2\n", r"t\.csv:1: need 2 columns, got 3"),
         ("0,1\n\n1\n", r"t\.csv:3: need 2 columns, got 1")],
        ids=["first-row-wide", "later-row-narrow"],
    )
    def test_row_of_other_width_names_line(self, tmp_path, text, message):
        # every data row needs 2 fields, the first one included
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            read_table(str(path))

    def test_no_data_rows_gives_two_empty_columns(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# a header and no data rows\nx,y\n")
        table, _ = read_table(str(path))
        assert table.shape == (0, 2)


class TestSortedUnique:
    """``_sorted_unique`` is ``np.unique`` on NaN-free floats, value for value."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(allow_nan=False), max_size=40),
        st.lists(st.integers(0, 39), max_size=40),
    )
    def test_matches_np_unique(self, values, repeats):
        # repeats copy drawn entries, so equal values are common, and the
        # draw order leaves the input unsorted
        x = np.array(values + [values[i] for i in repeats if i < len(values)], dtype=float)
        got = _sorted_unique(x)
        want = np.unique(x)
        assert got.shape == want.shape
        assert np.all(got == want)

    def test_flattens_like_np_unique(self):
        x = np.array([[3.0, 1.0], [1.0, -0.0], [0.0, 3.0]])
        assert np.all(_sorted_unique(x) == np.unique(x))


# -- slow references ----------------------------------------------------------
# The per-target loops that rl_values, q_values and maximal_values ran before
# they became blocked (targets x nodes) sweeps: every target merges a 256-cell
# graded mesh with f's nodes and integrates the kernel cell by cell in the
# global form f(s) = c0 + c1*s; the maximal function takes one target at a
# time over its unique positive radii.


def _ref_mesh(f, lo, hi, singular_at, n_cells=256, grading=2.0):
    j = np.arange(n_cells + 1) / n_cells
    if singular_at == "right":
        graded = hi - (hi - lo) * (1.0 - j) ** grading
    else:
        graded = lo + (hi - lo) * j**grading
    inner = f.nodes[(f.nodes > lo) & (f.nodes < hi)]
    mesh = np.unique(np.concatenate((graded, inner, [lo, hi])))
    keep = np.concatenate(([True], np.diff(mesh) > 0.0))
    return mesh[keep]


def _ref_cell_coeffs(f, mesh):
    u, v = mesh[:-1], mesh[1:]
    lo, hi = f.domain
    mid = (u + v) / 2.0
    inside = (mid >= lo) & (mid <= hi)
    if f.interpretation == "step":
        c0 = np.where(inside, f(u), 0.0)
        return c0, np.zeros_like(c0)
    fu, fv = f(u), f(v)
    with np.errstate(invalid="ignore"):
        c1 = np.where(inside, (fv - fu) / (v - u), 0.0)
    c0 = np.where(inside, fu - c1 * u, 0.0)
    return c0, c1


def ref_rl_values(alpha, f, targets):
    ts = np.clip(np.atleast_1d(np.asarray(targets, dtype=float)), 0.0, 1.0)
    out = np.empty(ts.size)
    for i, t in enumerate(ts):
        if t == 0.0:
            out[i] = 0.0
            continue
        a = alpha.eval(t)
        if a <= 0.0:
            raise NumericalError(f"order is nonpositive at target t={t}: alpha={a}")
        mesh = _ref_mesh(f, 0.0, t, "right")
        c0, c1 = _ref_cell_coeffs(f, mesh)
        big, small = t - mesh[:-1], t - mesh[1:]
        m0 = (big**a - small**a) / a
        m1 = t * m0 - (big ** (a + 1.0) - small ** (a + 1.0)) / (a + 1.0)
        out[i] = (np.dot(c0, m0) + np.dot(c1, m1)) / math.gamma(a)
    return out


def ref_q_values(alpha, f, targets):
    r = f.domain[1]
    ts = np.clip(np.atleast_1d(np.asarray(targets, dtype=float)), 0.0, r)
    out = np.empty(ts.size)
    for i, t in enumerate(ts):
        if t == r:
            out[i] = 0.0
            continue
        a = alpha.eval(t)
        if a <= 0.0:
            raise NumericalError(f"order is nonpositive at target t={t}: alpha={a}")
        mesh = _ref_mesh(f, t, r, "left")
        c0, c1 = _ref_cell_coeffs(f, mesh)
        big, small = mesh[1:] - t, mesh[:-1] - t
        m0 = (big**a - small**a) / a
        m1 = t * m0 + (big ** (a + 1.0) - small ** (a + 1.0)) / (a + 1.0)
        out[i] = (np.dot(c0, m0) + np.dot(c1, m1)) / math.gamma(a)
    return out


def _ref_one_sided_limits(g, t):
    a, b = g.domain
    right = float(g(t)) if a <= t < b else 0.0
    if not a < t <= b:
        return 0.0, right
    if g.interpretation == "linear":
        return float(g(t)), right
    idx = int(np.searchsorted(g.nodes, t, side="left")) - 1
    return float(g.values[max(idx, 0)]), right


def ref_maximal_values(f, targets):
    g = abs(f)
    mass_at = lambda t, r: g.cumulative_at(t + r) - g.cumulative_at(t - r)  # noqa: E731
    ts = np.atleast_1d(np.asarray(targets, dtype=float))
    out = np.empty(ts.size)
    for i, t in enumerate(ts):
        best = sum(_ref_one_sided_limits(g, t)) / 2.0
        radii = np.unique(np.abs(g.nodes - t))
        radii = radii[radii > 0.0]
        if radii.size:
            best = max(best, float(np.max(mass_at(t, radii) / (2.0 * radii))))
            r0, r1 = radii[:-1], radii[1:]
            if r0.size:
                n0, n1 = mass_at(t, r0), mass_at(t, r1)
                nm = mass_at(t, (r0 + r1) / 2.0)
                with np.errstate(divide="ignore", invalid="ignore"):
                    aa = 2.0 * (n0 - 2.0 * nm + n1) / (r1 - r0) ** 2
                    bb = (n1 - n0) / (r1 - r0) - aa * (r0 + r1)
                    cc = n0 - aa * r0 * r0 - bb * r0
                    rstar = np.sqrt(cc / aa)
                ok = np.isfinite(rstar) & (rstar > r0) & (rstar < r1)
                if np.any(ok):
                    rs = rstar[ok]
                    best = max(best, float(np.max(mass_at(t, rs) / (2.0 * rs))))
        out[i] = best
    return out


_orders = st.one_of(
    st.floats(1e-3, 3.0).map(Constant),
    st.builds(PowerOffset, st.floats(1e-3, 1.5), st.floats(0.05, 1.5), st.floats(0.25, 3.0)),
    st.builds(LogPowerOffset, st.floats(1e-3, 1.5), st.floats(0.05, 1.5), st.floats(0.25, 3.0)),
    st.just(ReciprocalLog()),
)


@st.composite
def _grid_functions(draw, kinds=("linear", "step")):
    """Linear or step f on [lo, hi] inside [0, 1], often the whole interval.

    Step nodes are free floats.  Linear nodes sit on a 512-cell grid of
    [lo, hi]: a linear cell much shorter than its distance d to the target
    loses about eps * d / h of its slope term in both implementations (see
    test_short_linear_cell_far_from_target), so there the two disagree by
    roundoff of a wrong answer and the reference is no oracle.
    """
    lo = draw(st.sampled_from([0.0, 0.0, 0.1, 0.37]))
    hi = draw(st.sampled_from([1.0, 1.0, 0.6, 0.83]))
    kind = draw(st.sampled_from(kinds))
    if kind == "step":
        inner = np.asarray(draw(st.lists(st.floats(lo, hi), max_size=30)))
    else:
        inner = lo + (hi - lo) * np.asarray(draw(st.lists(st.integers(1, 511), max_size=30))) / 512
    nodes = np.unique(np.concatenate(([lo, hi], inner)))
    values = draw(st.lists(st.floats(-2.0, 2.0), min_size=nodes.size, max_size=nodes.size))
    return GridFunction(nodes, values, kind)


@st.composite
def _targets(draw, r):
    """Both ends of [0, r] and free points, which may fall outside f's support."""
    free = draw(st.lists(st.floats(0.0, r), min_size=1, max_size=60))
    return np.concatenate(([0.0, r], free))


def _assert_matches_reference(got, ref, f):
    floor = 1e-12 * max(1.0, float(np.max(np.abs(f.values))))
    assert np.all(np.abs(got - ref) <= 1e-10 * np.abs(ref) + floor)


class TestBlockedSweepsAgainstReference:
    @given(alpha=_orders, f=_grid_functions(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_rl_values(self, alpha, f, data):
        ts = np.concatenate((data.draw(_targets(1.0)), f.nodes))
        _assert_matches_reference(rl_values(alpha, f, ts), ref_rl_values(alpha, f, ts), f)

    @given(alpha=_orders, f=_grid_functions(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_q_values(self, alpha, f, data):
        r = f.domain[1]
        ts = np.concatenate((data.draw(_targets(r)), f.nodes))
        # an order vanishing at 0 makes Q raise NumericalError at t = 0
        ts = ts[ts > 0.0] if alpha.eval(0.0) <= 0.0 else ts
        _assert_matches_reference(q_values(alpha, f, ts), ref_q_values(alpha, f, ts), f)

    @given(f=_grid_functions(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_maximal_values(self, f, data):
        ts = np.concatenate((data.draw(_targets(1.0)), f.nodes, (f.nodes[:-1] + f.nodes[1:]) / 2))
        ref = ref_maximal_values(f, ts)
        assert np.all(np.abs(maximal_values(f, ts) - ref) <= 1e-12 * np.maximum(ref, 1.0))

    @pytest.mark.xfail(
        strict=True,
        reason="a linear cell of width h at distance d loses eps*d/h of its slope term",
    )
    def test_short_linear_cell_far_from_target(self):
        # f rises 0 -> 1 over [0, 2^-52], then falls linearly to 0 at 1/8; at
        # t = 1/8 the exact value is 0.13298076013381 (50-digit quadrature)
        f = GridFunction((0.0, 2.0**-52, 0.125, 1.0), (0.0, 1.0, 0.0, 0.0))
        assert rl_values(Constant(0.5), f, [0.125])[0] == pytest.approx(
            0.13298076013381, rel=1e-6
        )

    def test_block_boundaries(self):
        # more targets than one block, in an order that is not sorted
        f = GridFunction(np.linspace(0.0, 1.0, 41), np.cos(7.0 * np.linspace(0.0, 1.0, 41)))
        ts = np.random.default_rng(3).permutation(np.linspace(0.0, 1.0, 301))
        alpha = PowerOffset(0.5, 1.0, 2.0)
        _assert_matches_reference(rl_values(alpha, f, ts), ref_rl_values(alpha, f, ts), f)
        _assert_matches_reference(q_values(alpha, f, ts), ref_q_values(alpha, f, ts), f)
        assert np.array_equal(maximal_values(f, ts), ref_maximal_values(f, ts))

    @pytest.mark.parametrize(
        "values, first",
        [((1.0, 0.9, 0.4, -0.2, -0.5), 0.9), ((-0.5, -0.1, 0.3, 0.8, 1.0), 0.1)],
    )
    @pytest.mark.parametrize("apply", [rl_values, q_values])
    def test_nonpositive_order_names_first_target(self, apply, values, first):
        class Tabled(OrderFunction):
            def _eval_array(self, t):
                return np.interp(t, np.linspace(0.0, 1.0, 5), values)

        ts = np.array([0.1, 0.9, 0.6, 0.95, 0.7])
        with pytest.raises(NumericalError) as new:
            apply(Tabled(), ONE, ts)
        ref = ref_rl_values if apply is rl_values else ref_q_values
        with pytest.raises(NumericalError) as old:
            ref(Tabled(), ONE, ts)
        assert str(new.value) == str(old.value)
        assert f"t={first}:" in str(new.value)


# The (targets x nodes) sweep of core._product_integral as it ran before it
# became triangular, kept verbatim: every target against every node, in the
# caller's target order.


def full_width_product_integral(
    alpha: OrderFunction, f: GridFunction, ts: np.ndarray, live: np.ndarray, right: bool
) -> np.ndarray:
    """Exact kernel integral of f's interpolant at the targets ts[live].

    Shared by R (right=False, kernel distance (t - s)_+) and Q (right=True,
    (s - t)_+).  The nodes are ordered from the far end of the kernel to the
    near end, mirrored for Q, so edge k is the far edge of cell k.  With
    d = the kernel distance at an edge, d^a is taken once per (target, edge)
    and cell k has the moments M0 = (d_k^a - d_{k+1}^a)/a and
    M1 = (d_k^(a+1) - d_{k+1}^(a+1))/(a+1).  A linear cell is written from
    its far edge, f = y_k + slope_k * (d_k - dist), so its integral is
    y_k*M0 + slope_k*(d_k*M0 - M1); a step cell has its constant in place of
    y_k and no slope term.  Cells beyond t have d = 0 at both edges and drop
    out; targets outside `live` (empty range) give 0.
    """
    out = np.zeros(ts.size)
    idx = np.flatnonzero(live)
    if idx.size == 0:
        return out
    a = np.asarray(alpha.eval(ts[idx]), dtype=float)
    bad = np.flatnonzero(a <= 0.0)
    if bad.size:
        k = bad[0]
        raise NumericalError(f"order is nonpositive at target t={ts[idx[k]]}: alpha={a[k]}")
    x, y, sign = f.nodes, f.values, 1.0
    if right:
        x, y, sign = x[::-1], y[::-1], -1.0
    if f.interpretation == "linear":
        level, slope = y[:-1], np.diff(y) / np.abs(np.diff(x))
    else:
        # a step cell holds its left node's value: the far edge for R, the near one for Q
        level, slope = (y[1:] if right else y[:-1]), np.zeros(x.size - 1)
    sloped = bool(np.any(slope))
    norm = gamma(a)
    for blk in _blocks(idx.size):
        ab = a[blk, None]
        d = np.maximum(sign * (ts[idx[blk], None] - x), 0.0)
        p = d**ab
        m0 = (p[:, :-1] - p[:, 1:]) / ab
        val = m0 @ level
        if sloped:
            p *= d
            m1 = (p[:, :-1] - p[:, 1:]) / (ab + 1.0)
            val += (d[:, :-1] * m0 - m1) @ slope
        out[idx[blk]] = val / norm[blk]
    return out


@st.composite
def _sweep_targets(draw, f, r):
    """47, 48, 49 or 97 targets of [0, r] around the block size of 48: both
    ends, points left of f's support when it starts past 0, repeats, and no
    particular order."""
    lo = f.domain[0]
    count = draw(st.sampled_from([47, 48, 49, 97]))
    pool = [0.0, r, lo, lo / 2.0] + draw(st.lists(st.floats(0.0, r), min_size=1, max_size=count))
    free = draw(st.lists(st.sampled_from(pool), min_size=count - 2, max_size=count - 2))
    return np.asarray(draw(st.permutations([0.0, r] + free)))


def _outcome(fn, *args):
    """fn's values, or the message of the NumericalError it raises."""
    try:
        return fn(*args)
    except NumericalError as exc:
        return str(exc)


class TestTrimmedSweepAgainstFullWidth:
    @pytest.mark.parametrize("kind", ["linear", "step"])
    @pytest.mark.parametrize("right", [False, True], ids=["R", "Q"])
    @given(alpha=_orders, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_full_width(self, kind, right, alpha, data):
        f = data.draw(_grid_functions(kinds=(kind,)))
        r = f.domain[1] if right else 1.0
        ts = data.draw(_sweep_targets(f, r))
        live = ts < r if right else ts > 0.0
        got = _outcome(q_values if right else rl_values, alpha, f, ts)
        ref = _outcome(full_width_product_integral, alpha, f, ts, live, right)
        if isinstance(ref, str) or isinstance(got, str):
            assert got == ref
            return
        floor = 1e-15 * float(np.max(np.abs(f.values)))
        assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref) + floor)
