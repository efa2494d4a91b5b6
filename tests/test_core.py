"""Operator evaluation core: product integration, norms, maximal function,
Besov norm, averaging projection."""

import bisect
import decimal
import heapq
import math
import sys
from fractions import Fraction

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
    _sign_changes,
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


# f on [0, 3/4], so Q's bound r = 3/4 differs from R's and the maximal
# function's bound 1
_ON_THREE_QUARTERS = GridFunction((0.0, 0.3, 0.75), (1.0, -0.5, 2.0))
_TARGET_CHECKED = {
    "rl_values": (lambda ts: rl_values(Constant(0.5), _ON_THREE_QUARTERS, ts), 1.0),
    "q_values": (lambda ts: q_values(Constant(0.5), _ON_THREE_QUARTERS, ts), 0.75),
    "maximal_values": (lambda ts: maximal_values(_ON_THREE_QUARTERS, ts), 1.0),
}


@pytest.mark.parametrize("name", sorted(_TARGET_CHECKED))
class TestTargetRange:
    """Targets within 1e-12 of [0, r] count as its endpoint; farther ones raise."""

    def test_just_outside_gives_the_endpoint_value(self, name):
        apply, hi = _TARGET_CHECKED[name]
        ts = np.array([-5e-13, 0.4, hi + 5e-13])
        got = apply(ts)
        assert ts.tolist() == [-5e-13, 0.4, hi + 5e-13]
        assert np.array_equal(got, apply(np.array([0.0, 0.4, hi])))

    @pytest.mark.parametrize("side", ["low", "high"])
    def test_farther_outside_raises(self, name, side):
        apply, hi = _TARGET_CHECKED[name]
        t = -2e-12 if side == "low" else hi + 2e-12
        with pytest.raises(ValueError, match="targets must lie within"):
            apply(np.array([0.4, t]))

    def test_targets_inside_are_left_unchanged(self, name):
        # the checked targets may alias the caller's array, which must not move
        apply, hi = _TARGET_CHECKED[name]
        ts = np.linspace(0.0, hi, 9)[::-1]
        before = ts.copy()
        apply(ts)
        assert np.array_equal(ts, before)


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

    def test_rejects_nan_exponent(self):
        with pytest.raises(ValueError, match="need p >= 1, got nan"):
            lp_norm(RAMP, math.nan)

    def test_non_integer_exponent_against_exact_value(self):
        rng = np.random.default_rng(0)
        nodes = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, 19)), [1.0]))
        f = GridFunction(nodes, rng.standard_normal(21))
        assert lp_norm(f, 1.5) == pytest.approx(ref_lp_norm(f, 1.5), rel=1e-13)

    def test_steep_sign_change_cell(self):
        # 5e-291 on the rising cell and 4.5e-290 on the one that changes sign
        f = GridFunction((0.0, 1e-300, 1e-299), (0.0, 1e10, -1e10))
        assert lp_norm(f, 1.0) == pytest.approx(5e-290, rel=1e-15)

    def test_abs_root_near_the_largest_double(self):
        # v0 - v1 overflows unscaled: both sweeps scale the values by a power of two first
        f = GridFunction((0.0, 1.0), (1.5e308, -1.5e308))
        assert lp_norm(f, 1.0) == 7.5e307
        ts = np.array([0.0, 0.25, 0.5, 1.0])
        ref = ref_maximal_values(f, ts)
        assert np.all(np.abs(maximal_values(f, ts) - ref) <= 1e-14 * ref)

    def test_sign_change_cells(self):
        f = GridFunction((0.0, 1.0), (-1.0, 1.0))
        assert lp_norm(f, 1.0) == pytest.approx(0.5, abs=1e-14)
        # two roots, one a few ulps from a node
        f = GridFunction(
            (0.0, 0.5995507812499999, 0.6), (0.3, -0.4162677602187288, 1.588355455010725)
        )
        for p in (1.0, 2.5):
            assert lp_norm(f, p) == pytest.approx(ref_lp_norm(f, p), rel=1e-15)
        # a sign change whose product of values underflows to -0.0
        f = GridFunction((0.0, 1.0), (1e-200, -1e-200))
        assert lp_norm(f, 1.0) == 5e-201

    def test_rejects_p_past_the_normal_doubles(self):
        # no power-of-two scaling keeps 1.5^3000 or 3^3000 a normal double
        for f in (GridFunction((0.0, 1.0), (1.5, 1.5)), GridFunction((0.0, 0.5, 1.0), (1, -3, 2))):
            with pytest.raises(ValueError, match="p = 3000"):
                lp_norm(f, 3000)

    def test_large_p_of_one_and_of_zero(self):
        assert lp_norm(ONE, 3000) == 1.0
        assert lp_norm(GridFunction((0.0, 1.0), (0.0, 0.0)), 3000) == 0.0


def ref_lp_norm(f: GridFunction, p: float) -> float:
    """The L_p norm of f, each cell integrated in closed form at 50 digits in
    decimal: |f|^p on a cell whose values keep their sign (a step cell holds
    its left value), and on each side of the root of one that changes sign."""
    dec = decimal.Decimal
    with decimal.localcontext(prec=50):
        q, total = dec(p), dec(0)
        for a, b, y0, y1 in zip(f.nodes[:-1], f.nodes[1:], f.values[:-1], f.values[1:]):
            y0, y1 = dec(y0), dec(y0 if f.interpretation == "step" else y1)
            h, u0, u1 = dec(b) - dec(a), abs(y0), abs(y1)
            if y0 * y1 < 0:
                total += h * (u0 ** (q + 1) + u1 ** (q + 1)) / ((q + 1) * (u0 + u1))
            elif u0 == u1:
                total += h * u0**q
            else:
                total += h * (u1 ** (q + 1) - u0 ** (q + 1)) / ((q + 1) * (u1 - u0))
        return float(total ** (1 / q))


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

    def test_step_window_a_few_ulps_wide(self):
        # right of t the value is 1.6268534072763456; left of t the first
        # cell is one ulp (2^-56) wide and nearly 0, so the sup is half the
        # right value, taken as r -> 0 and at the radius 2^-56
        f = GridFunction(
            (0.1, 0.10000000000000002, 0.12453517746465924, 0.3475263093588097,
             0.3909632030781792, 0.46373664400437253, 0.5787038666418773,
             0.9636328000277516, 1.0),
            (2.5105628674005618e-222, 1.6268534072763456, 1.5346281819174257,
             0.5888453867989507, 1.4995531889923643e-262, 4.6929165156675215e-204,
             1.804345002409849e-60, 4.451127327683208e-30, 1.8919339215707325),
            "step",
        )
        assert maximal_values(f, [0.10000000000000002])[0] == 0.8134267036381728

    def test_linear_sup_only_as_r_to_0(self):
        # at the peak of a hat every window average is 1 - r, so only the
        # r -> 0 limit of the linear sweep attains the sup
        f = GridFunction((0.0, 0.5, 1.0), (0.0, 1.0, 0.0))
        assert maximal_values(f, [0.5])[0] == 1.0

    @pytest.mark.parametrize("t", [math.nan, 1.5])
    def test_rejects_target_outside_unit_interval(self, t):
        with pytest.raises(ValueError, match=r"targets must lie within \[0, 1\]"):
            maximal_values(ONE, [t, 0.5])

    def test_linear_sup_at_a_stationary_radius(self):
        # draw 280 of a seeded scan of random linear inputs; the sup sits at
        # an interior stationary radius, 1.16026644916626027873... by a
        # 60-digit quadrature scan, and is not overshot
        rng = np.random.default_rng(1)
        for _ in range(281):
            k = rng.integers(2, 40)
            nodes = np.unique(np.concatenate(([0, 1], rng.integers(1, 512, k) / 512)))
            values = rng.uniform(-2, 2, nodes.size)
            ts = rng.uniform(0, 1, 40)
        t = 0.6308463252680989
        assert t in ts
        assert maximal_values(GridFunction(nodes, values), [t])[0] == 1.1602664491662602

    def test_subnormal_slopes_near_unit_values(self):
        # slopes of a few ulps of the smallest double beside values near 1:
        # the stationary-radius test must not divide by that curvature (the
        # suite turns numpy's overflow warning into an error)
        f = GridFunction(
            (0.0, 0.1875077157277849, 0.19510739845680503, 0.319681636282665,
             0.5776878925178592, 0.6725266339168693, 1.0),
            (0.0, 5e-324, -1e-310, 0.0, 1.0, 1.0, 3e-310),
        )
        _assert_maximal_values_exact(f, np.linspace(0.0, 1.0, 33))

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

    def test_rejects_nan_exponent(self):
        with pytest.raises(ValueError, match="need p >= 1, got nan"):
            besov_norm(RAMP, math.nan, 0.5, [0.25])


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
# The per-target loops that rl_values and q_values ran before they became
# blocked (targets x nodes) sweeps: every target merges a 256-cell graded mesh
# with f's nodes and integrates the kernel cell by cell in the global form
# f(s) = c0 + c1*s.  The maximal function's reference is exact instead: one
# target at a time, in rational arithmetic.


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


def _decimal(q):
    """A rational at the working precision of the decimal context."""
    return decimal.Decimal(q.numerator) / q.denominator


def exact_cell_integral(a, level, slope, far, near):
    """int_near^far D^(a-1) (level + slope (far - D)) dD in decimal, 0 <= near <= far.

    The moments M0 = (far^a - near^a)/a and M1 = (far^(a+1) - near^(a+1))/(a+1)
    give level*M0 + slope*(far*M0 - M1).  Each power is exp(a ln D) at the
    context's precision, so a cell h wide at distance d keeps about
    precision - log10(d/h) digits of its slope term."""
    powers = [(a * dist.ln()).exp() if dist else dist for dist in (far, near)]
    m0 = (powers[0] - powers[1]) / a
    if not slope:
        return level * m0
    m1 = (powers[0] * far - powers[1] * near) / (a + 1)
    return level * m0 + slope * (far * m0 - m1)


def exact_kernel_integrals(alpha, f, targets, right):
    """(R f)(t), or (Q f)(t) for right=True, at each target, for f's
    interpolant, at 40 digits in decimal; only the final 1/Gamma(a) is a
    float, `math.gamma` of the order as `alpha.eval` gives it.

    Every cell of f that the kernel reaches adds `exact_cell_integral` with
    its kernel distances: t - s for R, whose far edge is the cell's left
    node, and s - t for Q, whose far edge is its right node.  A linear cell
    runs from the far edge's value with the slope toward the near one; a step
    cell holds its left node's value."""
    dec = decimal.Decimal
    ts = np.asarray(targets, dtype=float)
    orders = np.asarray(alpha.eval(ts), dtype=float)
    xs = [dec(v) for v in f.nodes.tolist()]
    ys = [dec(v) for v in f.values.tolist()]
    out = np.zeros(ts.size)
    with decimal.localcontext(prec=40):
        for i, (t, a) in enumerate(zip(ts.tolist(), orders.tolist())):
            t, a = dec(t), dec(a)
            total = dec(0)
            for u, v, yu, yv in zip(xs, xs[1:], ys, ys[1:]):
                far, near = (v - t, u - t) if right else (t - u, t - v)
                if far <= 0:
                    continue
                if f.interpretation == "step":
                    level, slope = yu, 0
                else:
                    level, slope = (yv, (yu - yv) / (v - u)) if right else (yu, (yv - yu) / (v - u))
                total += exact_cell_integral(a, level, slope, far, max(near, dec(0)))
            if total:
                out[i] = float(total / dec(math.gamma(float(a))))
    return out


def ref_maximal_values(f, targets):
    """sup_{r>0} (1/2r) int_{t-r}^{t+r} |f| for each target, exactly.

    Each target sweeps the distances from t to the edges of |f| (f's nodes
    and, for a linear f, its sign changes) in Fractions: on the piece between
    two such radii M'(r) = |f|(t+r) + |f|(t-r) is linear, so the window mass
    M at each radius is a sum of exact trapezoids, and M/2r is compared
    exactly.  An interior maximum of M/r sits where M is concave and M/r
    still rises at the piece's near end; its radius is irrational, so its
    value is taken at 50 digits in decimal.
    """
    xs = [Fraction(v) for v in f.nodes.tolist()]
    ys = [Fraction(v) for v in f.values.tolist()]
    # |f| on cell k is starts[k] + slopes[k] (s - edges[k]); a linear f is
    # split at its exact sign changes
    edges, starts, slopes = [xs[0]], [], []
    for a, b, ya, yb in zip(xs, xs[1:], ys, ys[1:]):
        if f.interpretation == "step":
            yb = ya
        if ya * yb < 0:
            root = a + (b - a) * ya / (ya - yb)
            edges.append(root)
            starts += [abs(ya), Fraction(0)]
            slopes += [-abs(ya) / (root - a), abs(yb) / (b - root)]
        else:
            starts.append(abs(ya))
            slopes.append((abs(yb) - abs(ya)) / (b - a))
        edges.append(b)

    def line(k, t):
        # |f| of cell k, continued to t: its value there and its slope;
        # cells -1 and len(starts) are the zero extension
        if 0 <= k < len(starts):
            return starts[k] + slopes[k] * (t - edges[k]), slopes[k]
        return Fraction(0), Fraction(0)

    out = np.empty(len(targets))
    with decimal.localcontext(prec=50):
        for i, t in enumerate(np.asarray(targets, dtype=float).tolist()):
            t = Fraction(t)
            kr = bisect.bisect_right(edges, t) - 1
            kl = bisect.bisect_left(edges, t) - 1
            # the radii at which the window's right or left edge leaves its cell
            events = heapq.merge(
                ((e - t, 1) for e in edges[kr + 1 :]),
                ((t - e, -1) for e in edges[kl::-1] if kl >= 0),
            )
            a_r, s_r = line(kr, t)
            a_l, s_l = line(kl, t)
            best = (a_r + a_l) / 2  # the r -> 0 limit
            stationary = []
            r0 = m0 = 0
            for r1, side in events:
                if r1 > r0:
                    # M'(r) = |f|(t + r) + |f|(t - r) = a + beta r on (r0, r1)
                    a, beta = a_r + a_l, s_r - s_l
                    if beta < 0:
                        d0 = a + beta * r0
                        if m0 < d0 * r0:
                            rr = r0 * r0 + 2 * (m0 - d0 * r0) / beta  # r*^2, exactly
                            if rr < r1 * r1:
                                stationary.append((r0, m0, d0, beta, rr))
                    m0 += (r1 - r0) * (a + beta * (r0 + r1) / 2 if beta else a)
                    r0 = r1
                    if m0 > 2 * r1 * best:
                        best = m0 / (2 * r1)
                if side > 0:
                    kr += 1
                    a_r, s_r = line(kr, t)
                else:
                    kl -= 1
                    a_l, s_l = line(kl, t)
            top = _decimal(best)
            for r0, m0, d0, beta, rr in stationary:
                r0, m0, d0, beta, rs = map(_decimal, (r0, m0, d0, beta, rr))
                rs = rs.sqrt()
                dr = rs - r0
                top = max(top, (m0 + dr * (d0 + beta * dr / 2)) / (2 * rs))
            out[i] = float(top)
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


@st.composite
def _ulp_step_functions(draw):
    """A step f on [0, 1] with a run of nodes one to three ulps apart, and
    targets on that run and one ulp either side of each of its nodes."""
    x = draw(st.floats(0.01, 0.99))
    run = [x]
    for gap in draw(st.lists(st.integers(1, 3), min_size=1, max_size=6)):
        for _ in range(gap):
            x = np.nextafter(x, 2.0)
        run.append(x)
    free = draw(st.lists(st.floats(0.0, 1.0), max_size=8))
    nodes = np.unique(np.concatenate(([0.0, 1.0], run, free)))
    values = draw(st.lists(st.floats(-2.0, 2.0), min_size=nodes.size, max_size=nodes.size))
    run = np.asarray(run)
    ts = np.concatenate((run, np.nextafter(run, 0.0), np.nextafter(run, 2.0)))
    return GridFunction(nodes, values, "step"), ts


def _assert_maximal_values_exact(f, ts):
    """maximal_values within 1e-14 of the exact sup, relative to max(sup, 1).

    Targets at a subnormal distance from an edge of |f| are left out: a
    window mass over a subnormal width keeps only the bits of that width,
    whatever the method."""
    edges = f.nodes
    if f.interpretation == "linear":
        cross, dist = _sign_changes(edges, f.values)
        edges = np.append(edges, edges[cross] + dist)
    u = np.abs(edges - ts[:, None])
    ts = ts[np.all((u == 0.0) | (u >= sys.float_info.min), axis=1)]
    ref = ref_maximal_values(f, ts)
    assert np.all(np.abs(maximal_values(f, ts) - ref) <= 1e-14 * np.maximum(ref, 1.0))


def _assert_matches_reference(got, ref, f):
    floor = 1e-12 * max(1.0, float(np.max(np.abs(f.values))))
    assert np.all(np.abs(got - ref) <= 1e-10 * np.abs(ref) + floor)


class TestLpNormAgainstReference:
    @given(f=_grid_functions(), p=st.floats(1.0, 8.0))
    @settings(max_examples=100, deadline=None)
    def test_within_1e_15_of_exact(self, f, p):
        ref = ref_lp_norm(f, p)
        # a norm below the normal doubles is held to its grid, one subnormal ulp
        assert abs(lp_norm(f, p) - ref) <= max(1e-15 * ref, math.ulp(0.0))


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
        _assert_maximal_values_exact(f, ts)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_maximal_values_on_cells_a_few_ulps_wide(self, data):
        f, ts = data.draw(_ulp_step_functions())
        _assert_maximal_values_exact(f, np.concatenate((ts, data.draw(_targets(1.0)))))

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

    def test_block_boundaries(self, monkeypatch):
        # more targets than one block, in an order that is not sorted
        f = GridFunction(np.linspace(0.0, 1.0, 41), np.cos(7.0 * np.linspace(0.0, 1.0, 41)))
        ts = np.random.default_rng(3).permutation(np.linspace(0.0, 1.0, 301))
        alpha = PowerOffset(0.5, 1.0, 2.0)
        _assert_matches_reference(rl_values(alpha, f, ts), ref_rl_values(alpha, f, ts), f)
        _assert_matches_reference(q_values(alpha, f, ts), ref_q_values(alpha, f, ts), f)
        # the maximal function's rows are independent: one block, blocks of
        # fewer than 48 targets and one call per target give the same bits
        alone = np.concatenate([maximal_values(f, [t]) for t in ts])
        assert np.array_equal(maximal_values(f, ts), alone)
        monkeypatch.setattr("varfrac.core._SWEEP_ELEMENTS", 48 * f.nodes.size)
        assert np.array_equal(maximal_values(f, ts), alone)
        _assert_maximal_values_exact(f, ts)

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
# became triangular: every target against every node, in the caller's target
# order, in the program's arithmetic or, as the accuracy baseline, in the
# two-moment arithmetic it used before.


def full_width_product_integral(
    alpha: OrderFunction,
    f: GridFunction,
    ts: np.ndarray,
    live: np.ndarray,
    right: bool,
    second_moment: bool = False,
) -> np.ndarray:
    """Exact kernel integral of f's interpolant at the targets ts[live].

    Shared by R (right=False, kernel distance (t - s)_+) and Q (right=True,
    (s - t)_+).  The nodes are ordered from the far end of the kernel to the
    near end, mirrored for Q, so edge k is the far edge of cell k.  With
    d = the kernel distance at an edge, P = d^a is taken once per (target,
    edge) and dP_k = P_k - P_{k+1}.  A linear cell is written from its far
    edge, f = y_k + slope_k * (d_k - dist), so its integral is
    y_k*M0 + slope_k*(d_k*M0 - M1) with the moments M0 = dP_k/a and
    M1 = (d_k^(a+1) - d_{k+1}^(a+1))/(a+1).  The program's form,
    d_k*M0 - M1 = d_k*dP_k/(a(a+1)) - h_k*P_{k+1}/(a+1) with
    slope_k*h_k = y_{k+1} - y_k, never forms M1; `second_moment=True` takes
    the two moments instead, the formula before that.  A step cell has its
    constant in place of y_k and no slope term.  Cells beyond t have d = 0
    at both edges and drop out; targets outside `live` (empty range) give 0.
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
        level, jump = y[:-1], np.diff(y)
        slope = jump / np.abs(np.diff(x))
    else:
        # a step cell holds its left node's value: the far edge for R, the near one for Q
        level, jump = (y[1:] if right else y[:-1]), np.zeros(x.size - 1)
    sloped = bool(np.any(jump))
    norm = gamma(a)
    for blk in _blocks(idx.size):
        ab = a[blk]
        d = np.maximum(sign * (ts[idx[blk], None] - x), 0.0)
        p = d ** ab[:, None]
        dp = p[:, :-1] - p[:, 1:]
        if second_moment:
            m0 = dp / ab[:, None]
            val = m0 @ level
            if sloped:
                p *= d
                m1 = (p[:, :-1] - p[:, 1:]) / (ab[:, None] + 1.0)
                val += (d[:, :-1] * m0 - m1) @ slope
            out[idx[blk]] = val / norm[blk]
            continue
        val = dp @ level
        if sloped:
            val += ((d[:, :-1] * dp) @ slope - ab * (p[:, 1:] @ jump)) / (ab + 1.0)
        out[idx[blk]] = val / ab / norm[blk]
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


def _walk(seed):
    """A 257-node random walk on [0, 1], drawn like the benchmark's linear input."""
    rng = np.random.default_rng(seed)
    return GridFunction(np.linspace(0.0, 1.0, 257), 1.0 + np.cumsum(rng.normal(size=257)) / 16.0)


_EPS = np.finfo(float).eps


class TestProductIntegralAgainstExact:
    """rl_values and q_values against the 40-digit `exact_kernel_integrals`.

    A linear cell h wide at kernel distance d <= 1 carries about eps * d / h
    of its slope term in roundoff, the short-cell defect, so the error is held
    to 8 eps max|f| (1 + 1/h_min), h_min the shortest linear cell.  Over 1200
    random draws like these the worst was 1.84 of that bound's unit on step
    inputs and 0.51 on linear ones.

    The two-moment formula that the sweep replaced
    (`full_width_product_integral` with `second_moment=True`) rounds
    otherwise, so on one input either can be the closer: the sweep's worst
    error over an input's targets
    may pass the old formula's by 8 eps (max|f| + TV), TV the total variation
    of a linear f, the scale of the slope sums it forms.  The same draws read
    at most 3.1 of that unit, and median worst errors of 3.6 eps max|f|
    against 6.8 on the walks.  Inputs with a linear cell shorter than the
    walks' 1/256 are compared through the first bound only: there both forms
    lose eps * d / h at random (6.6 of that unit over the same draws).
    """

    @pytest.mark.parametrize("right", [False, True], ids=["R", "Q"])
    @given(alpha=_orders, f=_grid_functions() | st.integers(0, 2**32 - 1).map(_walk), data=st.data())
    @settings(max_examples=12, deadline=None)
    def test_within_roundoff_of_exact(self, right, alpha, f, data):
        r = f.domain[1] if right else 1.0
        free = data.draw(st.lists(st.floats(0.0, r), min_size=1, max_size=3))
        # the longest kernel, and a target that is live for every order
        ts = np.array([0.0 if right else r, r / 2.0] + free)
        if right and alpha.eval(0.0) <= 0.0:
            ts = ts[ts > 0.0]
        got = (q_values if right else rl_values)(alpha, f, ts)
        exact = exact_kernel_integrals(alpha, f, ts, right)
        err = np.max(np.abs(got - exact))
        size = float(np.max(np.abs(f.values)))
        linear = f.interpretation == "linear"
        width = 1.0 / float(np.min(np.diff(f.nodes))) if linear else 0.0
        # values below the normal doubles are held to their grid, a few subnormal ulps
        floor = 8.0 * math.ulp(0.0)
        assert err <= 8.0 * _EPS * size * (1.0 + width) + floor
        if width < 257.0:
            live = ts < r if right else ts > 0.0
            old = full_width_product_integral(alpha, f, ts, live, right, second_moment=True)
            tv = float(np.sum(np.abs(np.diff(f.values)))) if linear else 0.0
            assert err <= np.max(np.abs(old - exact)) + 8.0 * _EPS * (size + tv) + floor

    @pytest.mark.parametrize("a", [0.3, 0.5, 1.5, 2.5])
    def test_reference_matches_closed_forms(self, a):
        # R^a s^k and, mirrored, Q^a (1 - s)^k = (R^a s^k)(1 - t)
        ts = np.array([0.25, 0.5, 0.75, 1.0])
        for k, f in ((0, ONE), (1, RAMP)):
            want = closed_form_rl(a, k, ts)
            got = exact_kernel_integrals(Constant(a), f, ts, right=False)
            assert np.all(np.abs(got - want) <= 8.0 * _EPS * want)
            mirrored = GridFunction((0.0, 1.0), (1.0, 1.0 - k))
            got = exact_kernel_integrals(Constant(a), mirrored, 1.0 - ts, right=True)
            assert np.all(np.abs(got - want) <= 8.0 * _EPS * want)
