"""Package namespace: the export list is the modules' own lists, once each."""

import varfrac

# the hand-written package export list that the module lists replaced, less
# the removed QuadratureConfig, kernel_moment, kernel_moment_right,
# family_order, rl_apply, q_apply, maximal_function, spectrum_to_csv,
# index_domination_report, carl_constant, carl_entropy_upper and
# diagonal_floor
EARLIER_EXPORTS = {
    "ApproximationReport", "CompactnessVerdict", "Constant", "EntropyEstimate",
    "ExpOffset", "GAMMA_MIN_LOCATION", "GridFunction", "IteratedBound", "K0",
    "LogPower", "LogPowerOffset", "NormReport", "NumericalError",
    "OperatorMatrix", "OrderFunction", "OrderFunctionError", "PartitionPlan",
    "PowerOffset", "RateFit", "ReciprocalLog", "Rescaled", "Shifted",
    "TRUNCATION_EPSILONS", "Tabulated", "VolumetricBound", "__version__",
    "approximation_numbers", "assemble_matrix", "ball_volume_root",
    "besov_norm", "build_example_estimate", "choose_r", "classify_compactness",
    "divergence_trend", "example1_partition", "fit_rate",
    "formula_lower", "gamma", "iterated_upper",
    "l1_criterion_integral", "l1_operator_norm", "local_norm_bound", "lp_norm",
    "lp_to_linf_norm", "maximal_values", "predict_rate",
    "project_average", "q_values", "rl_values",
    "singular_values", "two_block_upper", "verify_scaling",
    "verify_semigroup", "volumetric_entropy_lower", "witness_separation",
}


def test_every_export_resolves_once():
    assert len(varfrac.__all__) == len(set(varfrac.__all__))
    for name in varfrac.__all__:
        assert hasattr(varfrac, name), name


def test_exports_are_the_module_lists():
    modules = (
        varfrac.orders, varfrac.core, varfrac.diagnostics,
        varfrac.spectral, varfrac.entropy,
    )
    names = ["__version__", *(n for m in modules for n in m.__all__)]
    assert varfrac.__all__ == names
    for m in modules:
        for name in m.__all__:
            assert getattr(varfrac, name) is getattr(m, name)


def test_earlier_exports_are_kept():
    assert EARLIER_EXPORTS <= set(varfrac.__all__)
    assert {"FAMILIES", "family_name"} <= set(varfrac.__all__)
