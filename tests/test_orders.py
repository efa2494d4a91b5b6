"""Order-profile families: evaluation, infima, regularity, rescaling."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from varfrac.orders import (
    Constant,
    ExpOffset,
    LogPower,
    LogPowerOffset,
    OrderFunctionError,
    PowerOffset,
    ReciprocalLog,
    Rescaled,
    Shifted,
    Tabulated,
)

E_INV = math.exp(-1.0)

FAMILIES = [
    Constant(0.7),
    PowerOffset(0.5, 1.0, 2.0),
    LogPowerOffset(0.5, 1.0, 1.0),
    ExpOffset(0.5, 1.0, 1.0),
    ReciprocalLog(),
    LogPower(0.5),
    Tabulated((0.0, 0.25, 1.0), (0.3, 0.8, 0.6)),
]


class TestEval:
    def test_power_offset_at_zero(self):
        assert PowerOffset(0.5, 1.0, 2.0).eval(0.0) == 0.5

    def test_constant(self):
        assert Constant(1.0).eval(0.7) == 1.0

    def test_reciprocal_log_closed_form(self):
        assert ReciprocalLog().eval(math.exp(-2.0)) == pytest.approx(0.5, abs=1e-15)

    def test_log_power_offset_formula(self):
        a = LogPowerOffset(0.5, 2.0, 1.0)
        t = math.exp(-4.0)
        assert a.eval(t) == pytest.approx(0.5 + 2.0 / 4.0, abs=1e-14)
        # |ln t| < 1 clamps to the plateau value alpha0 + lam
        assert a.eval(0.9) == pytest.approx(2.5, abs=1e-14)

    def test_exp_offset_formula(self):
        a = ExpOffset(0.5, 2.0, 1.0)
        assert a.eval(0.5) == pytest.approx(0.5 + math.exp(-4.0), abs=1e-15)
        assert a.eval(0.0) == 0.5

    def test_singular_families_at_zero(self):
        # right-limit convention at the endpoint
        assert ReciprocalLog().eval(0.0) == 0.0
        assert LogPower(0.5).eval(0.0) == 0.0

    def test_positive_on_open_interval(self):
        t = np.linspace(1e-9, 1.0 - 1e-9, 1001)
        for alpha in FAMILIES:
            lo, hi = alpha.domain
            inside = t[(t >= lo) & (t <= hi)]
            vals = alpha.eval(inside)
            assert np.all(np.isfinite(vals)) and np.all(vals > 0.0)

    def test_eval_outside_domain_raises(self):
        with pytest.raises(OrderFunctionError):
            Constant(0.5).eval(1.5)
        with pytest.raises(OrderFunctionError):
            Constant(0.5).eval(-0.2)

    def test_eval_deterministic(self):
        for alpha in FAMILIES:
            t = np.linspace(alpha.domain[0], alpha.domain[1], 37)
            a = alpha.eval(t)
            b = alpha.eval(t)
            assert np.array_equal(a, b)


class TestValidation:
    @pytest.mark.parametrize("bad", [0.0, -0.5, math.nan, math.inf])
    def test_offset_params_positive(self, bad):
        for cls in (PowerOffset, LogPowerOffset, ExpOffset):
            with pytest.raises(OrderFunctionError):
                cls(bad, 1.0, 1.0)
            with pytest.raises(OrderFunctionError):
                cls(0.5, bad, 1.0)
            with pytest.raises(OrderFunctionError):
                cls(0.5, 1.0, bad)

    def test_tabulated_needs_positive_values(self):
        with pytest.raises(OrderFunctionError):
            Tabulated((0.0, 1.0), (0.5, 0.0))

    def test_tabulated_needs_increasing_nodes(self):
        with pytest.raises(OrderFunctionError):
            Tabulated((0.0, 0.5, 0.5), (1.0, 1.0, 1.0))

    @pytest.mark.parametrize(
        "nodes", [(math.nan, 0.5, 1.0), (0.0, math.nan, 1.0), (0.0, 0.5, math.nan)]
    )
    def test_tabulated_rejects_nan_node(self, nodes):
        with pytest.raises(OrderFunctionError, match="nodes"):
            Tabulated(nodes, (0.5, 0.6, 0.7))

    def test_shifted_needs_positive_offset(self):
        with pytest.raises(OrderFunctionError):
            Shifted(Constant(0.5), 0.0)


class TestInfimum:
    def test_power_offset_full_interval(self):
        assert PowerOffset(0.5, 1.0, 2.0).infimum(0.0, 1.0) == 0.5

    def test_constant_subinterval(self):
        assert Constant(0.8).infimum(0.2, 0.9) == 0.8

    def test_reciprocal_log_window(self):
        val = ReciprocalLog().infimum(math.exp(-4.0), E_INV)
        assert val == pytest.approx(0.25, abs=1e-14)

    def test_empty_interval_raises(self):
        with pytest.raises(OrderFunctionError):
            Constant(0.5).infimum(0.5, 0.5)

    def test_supremum_mirrors_infimum(self):
        a = PowerOffset(0.5, 1.0, 1.0)
        assert a.supremum(0.0, 0.25) == pytest.approx(0.75, abs=1e-14)

    @given(
        a=st.floats(0.0, 0.9),
        width=st.floats(1e-6, 1.0),
        frac=st.floats(0.0, 1.0),
    )
    def test_infimum_below_every_probe(self, a, width, frac):
        b = min(a + width, 1.0)
        if b <= a:
            return
        t = a + frac * (b - a)
        for alpha in FAMILIES[:6]:
            assert alpha.infimum(a, b) <= alpha.eval(t) + 1e-12


class TestDyadicInfima:
    def test_constant(self):
        assert np.array_equal(Constant(0.5).dyadic_infima(3), [0.5] * 4)

    def test_reciprocal_log_closed_form(self):
        # I_2 = [1/8, 1/4]: increasing there, infimum at the left node
        vals = ReciprocalLog().dyadic_infima(2)
        assert vals[2] == pytest.approx(1.0 / (3.0 * math.log(2.0)), abs=1e-14)

    def test_power_offset(self):
        vals = PowerOffset(0.3, 1.0, 1.0).dyadic_infima(1)
        assert vals[1] == pytest.approx(0.55, abs=1e-14)

    @pytest.mark.parametrize(
        "alpha",
        [PowerOffset(0.5, 1.0, 2.0), LogPowerOffset(0.5, 1.0, 1.0), LogPower(0.5)],
    )
    def test_nonincreasing_for_monotone_families(self, alpha):
        vals = alpha.dyadic_infima(30)
        assert np.all(np.diff(vals) <= 1e-15)


class TestPhi:
    def test_reciprocal_log_identity_exact(self):
        t = np.geomspace(1e-12, E_INV * 0.999, 200)
        assert np.all(ReciprocalLog().phi(t) == 1.0)

    def test_constant(self):
        assert Constant(0.5).phi(math.exp(-2.0)) == pytest.approx(1.0, abs=1e-14)

    def test_log_power(self):
        assert LogPower(0.5).phi(math.exp(-4.0)) == pytest.approx(2.0, abs=1e-12)

    def test_rejects_boundary(self):
        with pytest.raises(OrderFunctionError):
            Constant(0.5).phi(0.0)
        with pytest.raises(OrderFunctionError):
            Constant(0.5).phi(1.0)


class TestRegularity:
    def test_constant_tight_band(self):
        rep = Constant(0.5).check_regularity(1.0, 1.0, np.linspace(0.01, 1.0, 200))
        assert rep.ok and rep.worst_ratio == 1.0

    def test_power_offset_doubling_band(self):
        rep = PowerOffset(0.5, 1.0, 1.0).check_regularity(
            0.5, 2.0, np.linspace(0.005, 1.0, 400)
        )
        assert rep.ok

    def test_reciprocal_log_violates_tight_band(self):
        grid = np.geomspace(1e-8, 1.0, 600)
        rep = ReciprocalLog().check_regularity(0.99, 1.01, grid)
        assert not rep.ok
        s, t = rep.worst_pair
        assert s <= t <= min(2.0 * s, 1.0) + 1e-15

    def test_band_validation(self):
        with pytest.raises(OrderFunctionError):
            Constant(0.5).check_regularity(1.5, 2.0, [0.5])
        with pytest.raises(OrderFunctionError):
            Constant(0.5).check_regularity(0.5, 2.0, [])


class TestRescale:
    def test_constant_invariant(self):
        a = Constant(0.5).rescale(0.5)
        assert a.eval(0.3) == 0.5

    def test_power_offset_point(self):
        assert PowerOffset(0.5, 1.0, 2.0).rescale(0.5).eval(1.0) == pytest.approx(
            0.75, abs=1e-15
        )

    def test_reciprocal_log_point(self):
        val = ReciprocalLog().rescale(E_INV).eval(E_INV)
        assert val == pytest.approx(0.5, abs=1e-15)

    def test_rejects_bad_factor(self):
        for r in (0.0, 1.5, -1.0):
            with pytest.raises(OrderFunctionError):
                Constant(0.5).rescale(r)

    @given(
        r1=st.floats(0.05, 1.0),
        r2=st.floats(0.05, 1.0),
        t=st.floats(0.0, 1.0),
    )
    def test_rescale_composes(self, r1, r2, t):
        alpha = PowerOffset(0.5, 1.0, 1.5)
        left = alpha.rescale(r1).rescale(r2).eval(t)
        right = alpha.rescale(r1 * r2).eval(t)
        assert left == pytest.approx(right, rel=1e-12, abs=1e-12)

    def test_rescaled_infimum_matches_dense_scan(self):
        alpha = LogPowerOffset(0.5, 1.0, 1.0).rescale(0.3)
        t = np.linspace(0.1, 0.9, 2001)
        assert alpha.infimum(0.1, 0.9) <= np.min(alpha.eval(t)) + 1e-12


class TestTabulated:
    def test_linear_interpolation(self):
        a = Tabulated((0.0, 0.5, 1.0), (1.0, 2.0, 1.0))
        assert a.eval(0.25) == pytest.approx(1.5, abs=1e-15)

    def test_step_takes_left_value(self):
        a = Tabulated((0.0, 0.5, 1.0), (1.0, 2.0, 3.0), interpolation="step")
        assert a.eval(0.25) == 1.0
        assert a.eval(0.75) == 2.0

    def test_outside_tabulated_range_raises(self):
        a = Tabulated((0.2, 0.8), (1.0, 1.0))
        with pytest.raises(OrderFunctionError):
            a.eval(0.1)

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "alpha.csv"
        path.write_text("t,alpha\n0.0,0.5\n0.5,0.75\n1.0,0.6\n")
        a = Tabulated.from_csv(str(path))
        assert a.eval(0.5) == 0.75
        assert a.infimum(0.0, 1.0) == 0.5

    def test_csv_without_header_keeps_first_sample(self, tmp_path):
        path = tmp_path / "alpha.csv"
        path.write_text("0,0.5\n0.5,0.6\n1,0.9\n")
        a = Tabulated.from_csv(str(path))
        assert a.domain == (0.0, 1.0)
        assert a.eval(0.0) == 0.5

    def test_csv_comment_lines(self, tmp_path):
        path = tmp_path / "alpha.csv"
        path.write_text("# order table\nt,alpha\n0,0.5\n# midpoint\n0.5,0.75\n1,0.6\n")
        assert Tabulated.from_csv(str(path)).nodes == (0.0, 0.5, 1.0)

    def test_csv_bad_rows_name_the_line(self, tmp_path):
        path = tmp_path / "alpha.csv"
        path.write_text("t,alpha\n0,0.5\nt,alpha\n1,0.6\n")
        with pytest.raises(OrderFunctionError, match=r"alpha\.csv:3:"):
            Tabulated.from_csv(str(path))
        path.write_text("t,alpha\n0,0.5\n1,0.6,0.7\n")
        with pytest.raises(OrderFunctionError, match=r"alpha\.csv:3:"):
            Tabulated.from_csv(str(path))


class TestShifted:
    def test_adds_offset_pointwise(self):
        a = Shifted(PowerOffset(0.5, 1.0, 1.0), 0.25)
        assert a.eval(0.5) == pytest.approx(1.25, abs=1e-15)
        assert a.infimum(0.0, 1.0) == pytest.approx(0.75, abs=1e-15)

    def test_rescaled_type_round_trip(self):
        assert isinstance(PowerOffset(0.5, 1.0, 1.0).rescale(0.5), Rescaled)
