"""Boundedness and compactness diagnostics: norm criteria, endpoint
classification, witness sequences, and the semigroup/dilation identity checks."""

import json
import math

import numpy as np
import pytest

from varfrac.core import GridFunction, gamma
from varfrac.diagnostics import (
    TRUNCATION_EPSILONS,
    CompactnessVerdict,
    NormReport,
    classify_compactness,
    divergence_trend,
    l1_criterion_integral,
    l1_operator_norm,
    local_norm_bound,
    lp_to_linf_norm,
    verify_scaling,
    verify_semigroup,
    witness_separation,
)
from varfrac.orders import Constant, LogPower, PowerOffset, ReciprocalLog

ONE = GridFunction((0.0, 1.0), (1.0, 1.0))
COS3_NODES = np.linspace(0.0, 1.0, 257)
COS3 = GridFunction(COS3_NODES, np.cos(3.0 * COS3_NODES))


class TestReportTypes:
    def test_divergent_report_must_be_infinite(self):
        with pytest.raises(ValueError):
            NormReport(value=2.0, divergent=True, evidence=(), method="t")

    def test_finite_report_must_be_finite(self):
        with pytest.raises(ValueError):
            NormReport(value=math.inf, divergent=False, evidence=(), method="t")

    def test_json_uses_plain_types(self):
        rep = NormReport(
            value=np.float64(1.5),
            divergent=np.bool_(False),
            evidence=((np.float64(0.1), np.float64(2.0)),),
            method="t",
        )
        text = json.dumps(rep.to_dict())
        assert '"value": 1.5' in text and '"divergent": false' in text

    def test_noncompact_verdict_needs_positive_evidence(self):
        with pytest.raises(ValueError):
            CompactnessVerdict(
                verdict="NonCompact",
                endpoint="zero",
                limit_evidence=(0.5, 1e-9),
                phi_evidence=(1.0, 1.0),
            )

    def test_unknown_verdict_rejected(self):
        with pytest.raises(ValueError):
            CompactnessVerdict("Maybe", "zero", (1.0,), (1.0,))


class TestDivergenceTrend:
    def test_fixed_increments_flagged(self):
        assert divergence_trend([1.0, 2.0, 3.0, 4.0, 5.0])

    def test_geometric_collapse_not_flagged(self):
        # converging truncations: increments shrink by 8x per level
        assert not divergence_trend([1.0, 1.5, 1.5625, 1.5703, 1.5713])

    def test_short_sequence_not_flagged(self):
        assert not divergence_trend([1.0, 2.0, 3.0])

    def test_nonmonotone_not_flagged(self):
        assert not divergence_trend([1.0, 2.0, 1.5, 2.5, 3.0])


class TestL1Criterion:
    @pytest.mark.parametrize("a", [0.25, 1.0, 2.0])
    def test_constant_orders_integrate_to_one(self, a):
        rep = l1_criterion_integral(Constant(a))
        assert not rep.divergent
        assert rep.value == pytest.approx(1.0, abs=1e-8)

    def test_reciprocal_log_diverges(self):
        rep = l1_criterion_integral(ReciprocalLog())
        assert rep.divergent and rep.value == math.inf
        vals = np.asarray([v for _, v in rep.evidence])
        # strictly growing, and three refinement steps add at least 25%
        assert np.all(np.diff(vals) > 0.0)
        assert vals[3] >= 1.25 * vals[0]

    def test_log_power_half_converges(self):
        rep = l1_criterion_integral(LogPower(0.5))
        assert not rep.divergent and math.isfinite(rep.value)

    def test_evidence_follows_schedule(self):
        rep = l1_criterion_integral(Constant(0.5))
        assert tuple(e for e, _ in rep.evidence) == TRUNCATION_EPSILONS


class TestL1OperatorNorm:
    @pytest.mark.parametrize("a", [0.25, 0.5, 1.0, 2.0])
    def test_constant_orders(self, a):
        rep = l1_operator_norm(Constant(a))
        assert not rep.divergent
        assert rep.value == pytest.approx(1.0 / gamma(a + 1.0), abs=1e-6)

    def test_reciprocal_log_diverges(self):
        rep = l1_operator_norm(ReciprocalLog())
        assert rep.divergent


class TestLpToLinf:
    def test_identity_order_p2(self):
        rep = lp_to_linf_norm(Constant(1.0), 2.0)
        assert not rep.divergent
        assert rep.value == pytest.approx(1.0, rel=1e-9)

    def test_order_below_dual_exponent_unbounded(self):
        rep = lp_to_linf_norm(Constant(0.4), 2.0)
        assert rep.divergent
        # evidence carries the worst (location, margin) pair
        assert rep.evidence[-1][1] <= 0.0

    def test_offset_above_dual_exponent_bounded(self):
        rep = lp_to_linf_norm(PowerOffset(0.6, 1.0, 1.0), 2.0)
        assert not rep.divergent and math.isfinite(rep.value)

    def test_margin_decaying_to_zero_unbounded(self):
        # alpha(0) = 1/p exactly: suprema grow without bound toward 0
        rep = lp_to_linf_norm(PowerOffset(0.5, 1.0, 1.0), 2.0)
        assert rep.divergent

    def test_rejects_bad_exponent(self):
        for p in (1.0, math.inf):
            with pytest.raises(ValueError):
                lp_to_linf_norm(Constant(1.0), p)


class TestCompactness:
    def test_reciprocal_log_noncompact_with_flat_evidence(self):
        v = classify_compactness(ReciprocalLog(), "zero")
        assert v.verdict == "NonCompact"
        # t^(1/|ln t|) = exp(-1) identically once t < 1/e; the first dyadic
        # sample t = 1/2 sits on the plateau where alpha = 1
        ev = np.asarray(v.limit_evidence)[1:]
        assert np.max(np.abs(ev - math.exp(-1.0))) <= 1e-12

    def test_log_power_half_compact(self):
        assert classify_compactness(LogPower(0.5), "zero").verdict == "Compact"

    def test_power_offset_compact(self):
        assert classify_compactness(PowerOffset(0.5, 1.0, 2.0), "zero").verdict == "Compact"

    def test_endpoint_one_constant(self):
        v = classify_compactness(Constant(0.7), "one")
        assert v.verdict == "Compact" and v.endpoint == "one"

    def test_rejects_unknown_endpoint(self):
        with pytest.raises(ValueError):
            classify_compactness(Constant(1.0), "half")


class TestWitnesses:
    def test_identity_order_closed_form(self):
        # image of the dyadic witness is an exact ramp: norm 2^-(n+1)/sqrt(3)
        got = witness_separation(Constant(1.0), 2.0, 6)
        n = np.arange(1, 7)
        expected = 2.0 ** -(n + 1) / math.sqrt(3.0)
        assert np.allclose(got, expected, rtol=1e-12)
        assert np.allclose(got[1:] / got[:-1], 0.5, rtol=1e-12)

    def test_reciprocal_log_stays_bounded_below(self):
        vals = witness_separation(ReciprocalLog(), 2.0, 20)
        tail = vals[-10:]
        assert np.min(tail) >= 0.5 * np.max(tail)
        assert np.min(tail) > 0.0

    def test_power_offset_decays(self):
        vals = witness_separation(PowerOffset(0.5, 1.0, 2.0), 2.0, 20)
        assert vals[-1] < 0.1 * vals[0]

    def test_consistent_with_classification(self):
        for alpha in (ReciprocalLog(), PowerOffset(0.5, 1.0, 2.0)):
            verdict = classify_compactness(alpha, "zero").verdict
            vals = witness_separation(alpha, 2.0, 16)
            bounded_below = vals[-1] >= 0.25 * np.max(vals[-8:])
            assert bounded_below == (verdict == "NonCompact")

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            witness_separation(Constant(1.0), 2.0, 0)
        with pytest.raises(ValueError):
            witness_separation(Constant(1.0), 0.5, 4)


class TestSemigroup:
    def test_integer_orders_near_exact(self):
        assert verify_semigroup(Constant(1.0), 1.0, ONE) <= 1e-10

    def test_half_plus_half_fine_grid(self):
        assert verify_semigroup(Constant(0.5), 0.5, ONE, n_cells=8192) <= 1e-8

    def test_discrepancy_contracts_under_refinement(self):
        alpha = PowerOffset(0.5, 1.0, 2.0)
        errs = [verify_semigroup(alpha, 0.5, COS3, n) for n in (256, 512, 1024)]
        # monotone within slack, and at least 1.7x down per doubling
        assert errs[1] <= errs[0] / 1.7 and errs[2] <= errs[1] / 1.7

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError):
            verify_semigroup(Constant(1.0), 0.0, ONE)

    def test_rejects_single_cell(self):
        with pytest.raises(ValueError, match="n_cells"):
            verify_semigroup(Constant(1.0), 0.5, ONE, n_cells=1)
        with pytest.raises(ValueError, match="n_cells"):
            verify_scaling(Constant(1.0), 0.5, 2.0, 2.0, ONE, n_cells=1)


class TestScaling:
    def test_unit_factor_is_exact_zero(self):
        assert verify_scaling(Constant(0.5), 1.0, 2.0, 2.0, ONE) == 0.0

    def test_identity_order_half_factor(self):
        assert verify_scaling(Constant(1.0), 0.5, 2.0, 2.0, ONE) <= 1e-10

    def test_variable_order_contracts_off_grid(self):
        # 77 targets are not a subset of the sample nodes, so the reported
        # number is a genuine resampling error and must contract
        alpha = PowerOffset(0.5, 1.0, 1.0)
        targets = np.linspace(0.0, 1.0, 77)
        errs = [
            verify_scaling(alpha, 0.5, 2.0, 2.0, COS3, n, targets)
            for n in (256, 512, 1024)
        ]
        assert errs[1] <= errs[0] / 1.7 and errs[2] <= errs[1] / 1.7

    def test_rejects_bad_factor(self):
        for r in (0.0, 1.5):
            with pytest.raises(ValueError):
                verify_scaling(Constant(1.0), r, 2.0, 2.0, ONE)


class TestLocalNormBound:
    def test_constant_endpoint_zero(self):
        got = local_norm_bound(Constant(0.5), "zero", 0.25)
        assert got == pytest.approx(math.sqrt(0.5), rel=1e-12)

    def test_reciprocal_log_never_vanishes(self):
        for r in (0.1, 1e-3, 1e-6):
            assert local_norm_bound(ReciprocalLog(), "zero", r) >= math.exp(-1.0)

    def test_identity_order_endpoint_one(self):
        got = local_norm_bound(Constant(1.0), "one", 0.25, p=2.0)
        assert got == pytest.approx(math.sqrt(0.5), rel=1e-12)

    def test_compact_order_bound_vanishes(self):
        vals = [
            local_norm_bound(PowerOffset(0.5, 1.0, 2.0), "zero", r)
            for r in (0.5, 0.05, 0.005)
        ]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 0.1

    def test_endpoint_one_needs_exponent(self):
        with pytest.raises(ValueError):
            local_norm_bound(Constant(1.0), "one", 0.25)


class TestStabilityInvariants:
    def test_divergence_flags_stable_under_deeper_schedule(self):
        # verdict from the first four levels agrees with the full schedule
        for alpha, expect in ((ReciprocalLog(), True), (LogPower(0.5), False)):
            rep = l1_criterion_integral(alpha)
            vals = [v for _, v in rep.evidence]
            assert divergence_trend(vals[:4]) == expect
            assert divergence_trend(vals) == expect

    def test_semigroup_discrepancy_monotone_with_slack(self):
        alpha = PowerOffset(0.5, 1.0, 2.0)
        errs = [
            verify_semigroup(alpha, 0.5, COS3, n)
            for n in (256, 512, 1024, 2048)
        ]
        for coarse, fine in zip(errs, errs[1:]):
            assert fine <= 1.1 * coarse
