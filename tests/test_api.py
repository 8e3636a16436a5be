"""The package's public names, recorded: adding or removing one is a
deliberate edit of this list, and the README says what replaces a removed
name."""

import bventropy

PUBLIC = [
    "BVEntropyError", "ClassParams", "FiniteMetricSpace", "Flux", "FunctionEnsemble",
    "Gauge", "Net", "RealInterval", "StepFunction", "WitnessFamily", "__version__",
    "affine_gap", "ball_count_bounds", "block_grid_ensemble", "build_family",
    "bv_budget_bits", "calibrate_gamma", "covering_number", "decode", "degeneracy",
    "dimension_report", "empirical_counts", "encode_bv", "encode_bvpsi", "entropy_scan",
    "evolve", "family_floor", "fit_exponent", "flux_gauge", "from_points",
    "from_witness_family", "gauge_check", "global_family", "l1_distance", "lattice",
    "line_points", "lower_bound_bits", "make_grid", "net_from_token", "packing_number",
    "probe_scales", "random_bv_ensemble", "random_bvpsi_ensemble", "read_codeword",
    "read_matrix_csv", "read_step", "right_continuous", "solution_entropy_bound",
    "support_check", "to_step_function", "tv", "tv_psi", "uniform_random",
    "upper_bound_bits", "validate_metric", "verify_packing", "write_codeword",
    "write_step",
]


def test_public_names_are_the_recorded_list():
    assert sorted(bventropy.__all__) == PUBLIC
