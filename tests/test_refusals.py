"""Input refusals that no other test or benchmark workload reaches: each bad
input raises its own exception type with a message that names the fault."""

import dataclasses

import numpy as np
import pytest

from bventropy import cli
from bventropy.bv_codec import (
    RealInterval,
    adaptive_coarsen,
    choose_params,
    encode_bv,
    encode_bvpsi,
    net_from_token,
)
from bventropy.claw import Flux, affine_gap, solution_entropy_bound
from bventropy.errors import ConfigError, DomainMismatch
from bventropy.gauge_variation import Gauge, StepFunction, gauge_check, l1_distance
from bventropy.metric_core import covering_number, line_points
from bventropy.witness_lab import build_family, separation_factor, verify_packing


def _step():
    return StepFunction(np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0]))


def _metric(*argv):
    args = cli.build_parser().parse_args(["metric", "--out", "unused", *argv])
    return args.func(args)


def _empty_family():
    fam = build_family(1.0, 1.0, 0.002, Gauge.identity(), line_points(17, 1.0), 8, 1.0)
    return dataclasses.replace(fam, members=fam.members[:0])


def _constant_on(space):
    return StepFunction(np.array([0.0, 1.0]), np.array([0]), space)


REFUSALS = {
    "cover_count": (lambda: RealInterval(0.0, 1.0).cover_count(0),
                    ValueError, "alpha must be positive"),
    # also the decode of a codeword over a point cloud, which names no space
    "space_net": (lambda: net_from_token("space", 0.1),
                  ValueError, "space net needs the metric space"),
    "choose_params": (lambda: choose_params(1.0, 1.0, 0),
                      ValueError, "eps must be positive"),
    "adaptive_coarsen": (lambda: adaptive_coarsen(_step(), 0, Gauge.power(2), 1.0),
                         ValueError, "h must be positive"),
    "encode_bvpsi": (lambda: encode_bvpsi(_step(), Gauge.power(2), 1.0, -0.1),
                     ValueError, "eps must be positive"),
    # 3,032 grid cells on an interval 202 subnormal steps long: encode refuses
    # the cells its decode could not rebuild
    "encode_grid": (lambda: encode_bv(StepFunction([0.0, 1e-321], [0.0]), 10.0, 5e-324),
                    ValueError, "breakpoints must be strictly increasing"),
    "affine_gap": (lambda: affine_gap(Flux.burgers(1.0), 1.0, 3.0),
                   ValueError, "need 0 < h <= 2M"),
    "solution_entropy_bound": (lambda: solution_entropy_bound(
        0, 1.0, 1.0, 1.0, Flux.burgers(1.0), Gauge.power(2), 1.0),
        ValueError, "epsilon must be positive, got 0"),
    "metric_generator": (lambda: _metric("--generate", "foo:3"),
                         ConfigError, "unknown generator 'foo'"),
    "table_lengths": (lambda: Gauge.tabulated([0.0, 1.0, 2.0], [0.0, 1.0]),
                      ValueError, "table must be two equal-length"),
    "table_order": (lambda: Gauge.tabulated([0.0, 2.0, 1.0], [0.0, 1.0, 4.0]),
                    ValueError, "table abscissae must be strictly increasing"),
    "gauge_check_grid": (lambda: gauge_check(Gauge.identity(), [0, 1]),
                         ValueError, "probe grid needs at least 3 points"),
    "step_no_interval": (lambda: StepFunction([0.0], []),
                         ValueError, "need breakpoints 0 = b_0"),
    "l1_two_spaces": (lambda: l1_distance(_constant_on(line_points(3)),
                                          _constant_on(line_points(3))),
                      DomainMismatch, "value spaces differ"),
    "line_points": (lambda: line_points(0), ValueError, "need at least one point"),
    "cover_mode": (lambda: covering_number(line_points(3), None, 0.5, mode="fast"),
                   ValueError, "unknown mode 'fast'"),
    "separation_factor": (lambda: separation_factor(0),
                          ValueError, "needs a positive packing exponent"),
    "verify_empty_family": (lambda: verify_packing(_empty_family()),
                            ValueError, "empty family"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_refusal_names_its_fault(name):
    call, kind, prefix = REFUSALS[name]
    with pytest.raises(kind) as info:
        call()
    assert type(info.value) is kind and str(info.value).startswith(prefix), info.value
