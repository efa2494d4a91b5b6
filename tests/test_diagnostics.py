"""Boundedness and compactness diagnostics: norm criteria, endpoint
classification, witness sequences, and the semigroup/dilation identity checks."""

import json
import math
import sys

import numpy as np
import pytest

import varfrac.diagnostics as diagnostics
from varfrac.core import GridFunction, gamma
from varfrac.diagnostics import (
    TRUNCATION_EPSILONS,
    CompactnessVerdict,
    _ladder_report,
    NormReport,
    classify_compactness,
    divergence_trend,
    l1_criterion_integral,
    l1_operator_norm,
    lp_to_linf_norm,
    verify_scaling,
    verify_semigroup,
    witness_separation,
)
from varfrac.orders import (
    Constant,
    ExpOffset,
    LogPower,
    LogPowerOffset,
    PowerOffset,
    ReciprocalLog,
)

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


class TestLadderReport:
    def test_flagged_ladder_reports_infinity(self):
        rep = _ladder_report([(1.0, 1.0), (0.5, 2.0), (0.25, 3.0), (0.125, 4.0)], 9.0, "m")
        assert rep.divergent and rep.value == math.inf
        assert rep.evidence == ((1.0, 1.0), (0.5, 2.0), (0.25, 3.0), (0.125, 4.0))

    def test_settled_ladder_reports_the_value(self):
        rep = _ladder_report([(1.0, 1.0), (0.5, 1.5), (0.25, 1.6), (0.125, 1.61)], 9.0, "m")
        assert not rep.divergent and rep.value == 9.0 and rep.method == "m"


# a large order's t^(a-1) has its mass next to t = 1: one 16-point Gauss
# panel on [1/2, 1] left both L1 criteria 1e-8 off at a = 100, so the panels
# are graded toward t = 1 as well
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

    def test_large_constant_order_integrates_to_one(self):
        assert l1_criterion_integral(Constant(100.0)).value == pytest.approx(1.0, rel=1e-12)


class TestL1OperatorNorm:
    @pytest.mark.parametrize("a", [0.25, 0.5, 1.0, 2.0])
    def test_constant_orders(self, a):
        rep = l1_operator_norm(Constant(a))
        assert not rep.divergent
        assert rep.value == pytest.approx(1.0 / gamma(a + 1.0), abs=1e-6)

    def test_large_constant_order(self):
        rep = l1_operator_norm(Constant(100.0))
        assert rep.value == pytest.approx(1.0 / math.gamma(101.0), rel=1e-12, abs=0.0)

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


# dyadic depths k of the samples t_k = 2^-k in classify_compactness
DEPTHS = np.arange(1, len(classify_compactness(Constant(1.0)).phi_evidence) + 1)


class TestPhiEvidence:
    """phi(t) = alpha(t)|ln t|, the weight whose divergence is compactness."""

    def test_reciprocal_log_identity(self):
        # phi = 1 identically below 1/e; the sample t = 1/2 sits on alpha = 1
        phi = np.asarray(classify_compactness(ReciprocalLog()).phi_evidence)
        assert phi[0] == pytest.approx(math.log(2.0), abs=1e-15)
        assert np.max(np.abs(phi[1:] - 1.0)) <= 1e-15

    def test_constant_grows_linearly_in_depth(self):
        phi = np.asarray(classify_compactness(Constant(0.5)).phi_evidence)
        np.testing.assert_allclose(phi, 0.5 * DEPTHS * math.log(2.0), rtol=1e-14)

    def test_log_power(self):
        # |ln t|^(-gamma) |ln t| = |ln t|^(1 - gamma) below 1/e
        phi = np.asarray(classify_compactness(LogPower(0.5)).phi_evidence)
        np.testing.assert_allclose(phi[1:], np.sqrt(DEPTHS[1:] * math.log(2.0)), rtol=1e-13)

    def test_endpoint_one_reads_alpha_at_one_minus_u(self):
        alpha = PowerOffset(0.5, 1.0, 1.0)
        phi = np.asarray(classify_compactness(alpha, "one").phi_evidence)
        u = 2.0**-DEPTHS
        want = alpha.eval(np.minimum(1.0 - u, 1.0)) * DEPTHS * math.log(2.0)
        np.testing.assert_allclose(phi, want, rtol=1e-14)

    @pytest.mark.parametrize(
        "alpha",
        [
            Constant(0.7),
            PowerOffset(0.5, 1.0, 2.0),
            LogPowerOffset(0.5, 1.0, 1.0),
            ExpOffset(0.5, 1.0, 1.0),
            ReciprocalLog(),
            LogPower(0.5),
        ],
        ids=lambda a: type(a).__name__,
    )
    @pytest.mark.parametrize("endpoint", ["zero", "one"])
    def test_limit_evidence_is_exp_of_minus_phi(self, alpha, endpoint):
        # t^alpha(t) = exp(-phi(t)): the two compactness tests are one test
        v = classify_compactness(alpha, endpoint)
        np.testing.assert_allclose(
            v.limit_evidence, np.exp(-np.asarray(v.phi_evidence)), rtol=1e-12, atol=0.0
        )


class TestWitnesses:
    def test_identity_order_closed_form(self):
        # image of the dyadic witness is an exact ramp: norm 2^-(n+1)/sqrt(3)
        got = witness_separation(Constant(1.0), 2.0, 6)
        n = np.arange(1, 7)
        expected = 2.0 ** -(n + 1) / math.sqrt(3.0)
        assert np.allclose(got, expected, rtol=1e-12)
        assert np.allclose(got[1:] / got[:-1], 0.5, rtol=1e-12)

    @pytest.mark.parametrize(
        "p, unit", [(2.0, 1.0 / math.sqrt(3.0)), (1.0, 0.5)], ids=["l2", "l1"]
    )
    def test_identity_order_closed_form_to_the_last_normal_norm(self, p, unit):
        # the Lp norm of the ramp is 2^-(n+1) (p+1)^(-1/p), a normal double
        # through n = 1020; at p = 2 its square leaves them from n = 510 on
        got = witness_separation(Constant(1.0), p, 1020)
        expected = np.ldexp(unit, -np.arange(2, 1022))
        assert np.all(np.abs(got - expected) <= 1e-14 * expected)

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

    @pytest.mark.parametrize("n_max", [1022, 1023, 10**6])
    def test_n_max_past_normal_left_end_rejected_before_work(self, monkeypatch, n_max):
        # I_n's left end 2^-(n+1) is normal up to n = 1021
        def never(*args, **kwargs):
            raise AssertionError("n_max is checked before any work")

        monkeypatch.setattr(diagnostics, "rl_values", never)
        with pytest.raises(ValueError, match="1021"):
            witness_separation(Constant(1.0), 1.0, n_max)

    def test_reciprocal_log_l1_stays_at_its_bound(self):
        # t^alpha(t) = e^-1 for this order: the norms stay just below it
        vals = witness_separation(ReciprocalLog(), 1.0, 1000)[505:]
        assert np.all((vals >= 0.366) & (vals <= math.exp(-1.0)))

    # order 1/2 at p = 1: the norms fall like 2^(-n/2), while R h_n grows
    # like 2^(n/2); a quadrature that overflowed there stopped at n = 678
    @pytest.mark.parametrize(
        "alpha, p",
        [(Constant(1.0), math.inf), (Constant(0.5), 1.0)],
        ids=["const1-sup", "const0.5-l1"],
    )
    def test_n_max_at_cap_runs(self, alpha, p):
        vals = witness_separation(alpha, p, 1021)
        assert vals.size == 1021 and vals[-1] >= sys.float_info.min

    @pytest.mark.parametrize(
        "alpha, p, n_max, first",
        [
            (ReciprocalLog(), 1.0, 1021, 1015),  # R h_n overflows in its matmul
            (Constant(1.0), 2.0, 1021, 1021),  # subnormal, 1.28e-308
            (Constant(1.0), 1.0, 1021, 1021),  # subnormal, 1.11e-308
        ],
        ids=["reclog-image-overflow", "const1-l2-subnormal", "const1-subnormal"],
    )
    def test_norm_outside_normal_doubles_rejected(self, alpha, p, n_max, first):
        # the suite runs with warnings as errors, so a numpy RuntimeWarning
        # would surface here instead of the ValueError
        with pytest.raises(ValueError, match=rf"at n = {first}, p = {p}\b"):
            witness_separation(alpha, p, n_max)
        assert witness_separation(alpha, p, first - 1)[-1] >= sys.float_info.min


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

    def test_off_node_targets_measure_resampling(self):
        # none of these targets is a node of cos3 or of the graded grid
        targets = np.linspace(0.0, 1.0, 65)[:-1] + 1.0 / 1024.0
        assert verify_scaling(Constant(0.5), 0.5, 2.0, 2.0, COS3, 4, targets) > 1e-6

    @pytest.mark.xfail(
        strict=True,
        reason="the default targets are all nodes of cos3, where the resampled "
        "function is read back exactly: 2.2e-16 at 4 cells, against 1.25e-2 at "
        "off-node targets",
    )
    def test_default_targets_measure_resampling(self):
        assert verify_scaling(Constant(0.5), 0.5, 2.0, 2.0, COS3, 4) > 1e-6


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
