"""Metric-entropy toolkit: covering/packing numbers of finite metric spaces,
generalized-variation analysis of step functions, rate-certified compression,
packing witness families, empirical entropy scans, and scalar conservation
laws with flux-derived gauges."""

__version__ = "0.1.0"

import types

from .bv_codec import (
    Net,
    RealInterval,
    bv_budget_bits,
    decode,
    encode_bv,
    encode_bvpsi,
    net_from_token,
    read_codeword,
    upper_bound_bits,
    write_codeword,
)
from .claw import (
    Flux,
    affine_gap,
    calibrate_gamma,
    degeneracy,
    evolve,
    flux_gauge,
    make_grid,
    solution_entropy_bound,
    support_check,
    to_step_function,
)
from .entropy_estimator import (
    ClassParams,
    FunctionEnsemble,
    block_grid_ensemble,
    empirical_counts,
    entropy_scan,
    fit_exponent,
    from_witness_family,
    random_bv_ensemble,
    random_bvpsi_ensemble,
)
from .errors import BVEntropyError
from .gauge_variation import (
    Gauge,
    StepFunction,
    gauge_check,
    l1_distance,
    read_step,
    right_continuous,
    tv,
    tv_psi,
    write_step,
)
from .metric_core import (
    FiniteMetricSpace,
    ball_count_bounds,
    covering_number,
    dimension_report,
    from_points,
    lattice,
    line_points,
    packing_number,
    probe_scales,
    read_matrix_csv,
    uniform_random,
    validate_metric,
)
from .witness_lab import (
    WitnessFamily,
    build_family,
    family_floor,
    global_family,
    lower_bound_bits,
    verify_packing,
)

# every public name imported above
__all__ = ["__version__"] + sorted(
    name for name, obj in globals().items()
    if not name.startswith("_") and not isinstance(obj, types.ModuleType))
