"""Order-profile families: evaluation, validation, rescaling, tables, wrappers."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from varfrac.core import GridFunction
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

    @pytest.mark.parametrize(
        "alpha", FAMILIES + [Shifted(LogPower(0.5), 0.25), Rescaled(Constant(0.5), 0.5)], ids=repr
    )
    @pytest.mark.parametrize(
        "t", [math.nan, np.array([0.25, math.nan, 0.5])], ids=["scalar", "array"]
    )
    def test_eval_rejects_nan(self, alpha, t):
        with pytest.raises(OrderFunctionError, match="outside domain"):
            alpha.eval(t)

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
        for r in (0.0, 1.5, -1.0, math.nan):
            with pytest.raises(OrderFunctionError):
                Constant(0.5).rescale(r)

    def test_rescaled_rejects_bad_factor_before_multiplying(self):
        # 0.5 * 1.5 = 0.75 would be a valid scale
        with pytest.raises(OrderFunctionError):
            PowerOffset(0.5, 1.0, 2.0).rescale(0.5).rescale(1.5)

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


    @pytest.mark.parametrize("alpha", FAMILIES, ids=lambda a: type(a).__name__)
    def test_rescaled_eval_is_inner_at_scaled_argument(self, alpha):
        t = np.linspace(0.0, 1.0, 257)
        for r in (0.1, E_INV, 0.5, 1.0):
            assert np.array_equal(alpha.rescale(r).eval(t), alpha.eval(r * t))

    def test_rescaled_breakpoints_scale_inner(self):
        assert LogPower(0.5).rescale(0.5).breakpoints == (E_INV / 0.5,)
        # e^-1 / 0.3 > 1: the kink leaves the domain
        assert LogPower(0.5).rescale(0.3).breakpoints == ()
        table = Tabulated((0.0, 0.1, 0.4, 0.9, 1.0), (0.3, 0.5, 0.4, 0.6, 0.7))
        assert table.rescale(0.5).breakpoints == (0.2, 0.8)


NONMONOTONE = Tabulated((0.0, 0.1, 0.3, 1.0), (0.4, 0.9, 0.5, 0.8))


class TestNondecreasing:
    """The flag two_block_upper and formula_lower trust must be sound."""

    @pytest.mark.parametrize(
        "alpha",
        FAMILIES[:6]
        + [
            Tabulated((0.0, 0.25, 1.0), (0.3, 0.3, 0.6)),
            Tabulated((0.0, 0.25, 1.0), (0.3, 0.5, 0.6), "step"),
            Shifted(LogPower(0.5), 0.25),
            Rescaled(LogPowerOffset(0.5, 1.0, 1.0), 0.5),
        ],
        ids=lambda a: type(a).__name__,
    )
    def test_declared_flag_holds_on_dense_scan(self, alpha):
        assert alpha.nondecreasing
        lo, hi = alpha.domain
        t = np.sort(np.concatenate([np.linspace(lo, hi, 20001), alpha.breakpoints]))
        assert np.all(np.diff(alpha.eval(t)) >= 0.0)

    @pytest.mark.parametrize(
        "alpha",
        [NONMONOTONE, Shifted(NONMONOTONE, 0.3), Rescaled(NONMONOTONE, 0.5)],
        ids=["table", "shifted", "rescaled"],
    )
    def test_wrappers_keep_a_nonmonotone_table_flagged(self, alpha):
        # the dip of NONMONOTONE lies inside [0, 0.5], so each is seen by a scan
        t = np.linspace(*alpha.domain, 20001)
        assert np.any(np.diff(alpha.eval(t)) < 0.0)
        assert not alpha.nondecreasing


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

    def test_csv_reads_step_grid_function_file(self, tmp_path):
        path = tmp_path / "alpha.csv"
        GridFunction((0.0, 0.5, 1.0), (0.5, 1.5, 1.5), "step").to_csv(str(path))
        a = Tabulated.from_csv(str(path))
        assert a == Tabulated((0.0, 0.5, 1.0), (0.5, 1.5, 1.5), interpolation="step")
        assert a.eval(0.25) == 0.5
        assert a.eval(0.75) == 1.5

    def test_csv_bad_directive_rejected(self, tmp_path):
        path = tmp_path / "alpha.csv"
        path.write_text("# interpretation=cubic\n0,0.5\n1,0.6\n")
        with pytest.raises(OrderFunctionError, match="cubic"):
            Tabulated.from_csv(str(path))

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

    def test_breakpoints_are_inner(self):
        assert Shifted(NONMONOTONE, 0.3).breakpoints == (0.1, 0.3)
        assert Shifted(LogPower(0.5), 0.3).breakpoints == (E_INV,)

    def test_rescaled_type_round_trip(self):
        assert isinstance(PowerOffset(0.5, 1.0, 1.0).rescale(0.5), Rescaled)
