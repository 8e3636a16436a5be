import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bventropy.gauge_variation as gv
from bventropy.claw import Flux, flux_gauge
from bventropy.errors import (
    DomainMismatch,
    InverseMismatch,
    NotConvex,
    NotPositive,
    NotVanishingAtZero,
)
from bventropy.gauge_variation import (
    Gauge,
    _chain_best,
    StepFunction,
    gauge_check,
    l1_distance,
    read_step,
    right_continuous,
    tv,
    tv_psi,
    write_step,
)
from bventropy.entropy_estimator import FunctionEnsemble
from bventropy.metric_core import from_points, line_points

from conftest import oracle_tv_psi, random_metric_space, random_step_function, tv_psi_chain


class TestGauge:
    def test_identity_admissible(self):
        assert gauge_check(Gauge.identity(), np.linspace(0, 2, 9)).ok

    def test_power_admissible(self):
        assert gauge_check(Gauge.power(2), np.linspace(0, 2, 9)).ok

    def test_tabulated_not_convex(self):
        g = Gauge.tabulated([0, 1, 2], [0, 1, 1.5])
        with pytest.raises(NotConvex):
            gauge_check(g, [0.0, 1.0, 2.0])

    def test_not_vanishing(self):
        g = Gauge.tabulated([0, 1, 2], [0.5, 1, 2])
        with pytest.raises(NotVanishingAtZero):
            gauge_check(g, [0.0, 1.0, 2.0])

    def test_not_positive(self):
        g = Gauge.tabulated([0, 1, 2], [0, 0, 1])
        with pytest.raises(NotPositive):
            gauge_check(g, [0.0, 1.0, 2.0])

    def test_inverse_round_trip(self):
        for g in (Gauge.identity(), Gauge.power(2), Gauge.power(3),
                  Gauge.tabulated([0, 0.5, 1, 2], [0, 0.2, 0.7, 2.2])):
            for v in (0.05, 0.3, 1.1):
                assert float(g(g.inv(v))) == pytest.approx(v, rel=1e-8)

    def test_inverse_mismatch(self):
        class Skewed(Gauge):
            def inv(self, v):
                return 1.01 * super().inv(v)

        with pytest.raises(InverseMismatch):
            gauge_check(Skewed("power", gamma=2.0), [0.0, 1.0, 2.0])

    def test_tabulated_inverse_beyond_table(self):
        g = Gauge.tabulated([0, 1, 2], [0, 1, 3])
        assert float(g.inv(5.0)) == pytest.approx(3.0)
        assert float(g.inv(0.0)) == 0.0

    def test_power_rejects_nan(self):
        with pytest.raises(ValueError):
            Gauge.power(float("nan"))

    def test_tabulated_extrapolation_linear(self):
        g = Gauge.tabulated([0, 1, 2], [0, 1, 3])
        assert float(g(3.0)) == pytest.approx(5.0)

    def test_scaling_inequality(self):
        # psi(s) <= (s/t) psi(t) for s < t follows from convexity + psi(0)=0
        g = Gauge.power(2)
        for s, t in [(0.2, 0.9), (0.5, 2.0)]:
            assert float(g(s)) <= s / t * float(g(t)) + 1e-12

    def test_parse_tokens(self):
        assert Gauge.parse("id").kind == "identity"
        assert Gauge.parse("pow:2").gamma == 2.0
        with pytest.raises(ValueError):
            Gauge.parse("nope")


class TestTableCheckedWhenBuilt:
    def test_admissible_table_keeps_its_report(self):
        g = Gauge.tabulated([0, 0.5, 1, 2], [0, 0.3, 1.0, 3.0])
        assert g.violation is None and g.report.ok
        assert g.certify() is g.report
        assert Gauge.power(2).certify() is None

    def test_two_sample_table(self):
        assert Gauge.tabulated([0, 1], [0, 2]).certify().ok

    def test_inadmissible_table_keeps_its_violation(self):
        # the chord slope drops from 0.8 to 0.2 at s = 0.5
        g = Gauge.tabulated([0, 0.5, 1, 2], [0, 0.4, 0.5, 3])
        assert isinstance(g.violation, NotConvex) and g.report is None
        with pytest.raises(NotConvex):
            g.certify()

    def test_parse_raises_the_violation(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,0\n0.5,0.4\n1,0.5\n2,3\n")
        with pytest.raises(NotConvex):
            Gauge.parse(f"table:{path}")
        path.write_text("0,0\n0.5,0.3\n1,1\n2,3\n")
        assert Gauge.parse(f"table:{path}").report.ok

    def test_inadmissible_table_runs_the_full_dp(self):
        # superadditivity fails, so extrema alone would miss the best chain
        g = Gauge.tabulated([0, 0.5, 1, 2], [0, 0.4, 0.5, 3])
        f = StepFunction(np.linspace(0.0, 1.0, 4), np.array([0.0, 0.5, 1.0]))
        assert tv_psi(f, g) == pytest.approx(0.8) == oracle_tv_psi(f, g)

    def test_flux_gauge_checks_once(self, monkeypatch):
        calls = []

        def counting(gauge, grid):
            calls.append(grid)
            return check(gauge, grid)

        check = gv.gauge_check
        monkeypatch.setattr(gv, "gauge_check", counting)
        fg = flux_gauge(Flux.cubic(1.0), 1.0, np.linspace(0.05, 2.0, 8))
        assert len(calls) == 1 and fg.report.ok


def _restrict(f: StepFunction, i: int) -> StepFunction:
    """f on [0, b_i], for a breakpoint index 0 < i <= k."""
    return StepFunction(f.breakpoints[:i + 1], f.values[:i], f.space)


class TestStepFunction:
    def test_validation(self):
        with pytest.raises(ValueError):
            StepFunction(np.array([0.0, 0.5, 0.4, 1.0]), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            StepFunction(np.array([0.1, 1.0]), np.array([1.0]))

    def test_file_round_trip(self, tmp_path):
        f = StepFunction(np.array([0, 0.25, 1.0]), np.array([0.5, -1.0]))
        path = tmp_path / "f.step"
        write_step(f, path)
        g = read_step(path)
        assert np.array_equal(f.breakpoints, g.breakpoints)
        assert np.array_equal(f.values, g.values)

    def test_restrict(self):
        f = StepFunction(np.array([0, 0.3, 0.6, 1.0]), np.array([1.0, 2.0, 3.0]))
        r = _restrict(f, 2)
        assert r.L == 0.6 and r.k == 2

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="values must be finite"):
            StepFunction(np.array([0, 0.3, 0.6, 1.0]), np.array([0.0, bad, 1.0]))
        with pytest.raises(ValueError, match="breakpoints must be finite"):
            StepFunction(np.array([0, 0.3, bad]), np.array([0.0, 1.0]))

    def test_read_nan_length_rejected(self, tmp_path):
        path = tmp_path / "f.step"
        path.write_text("nan,2\n0.0,0.0\n0.5,1.0\n")
        with pytest.raises(ValueError, match="finite"):
            read_step(path)

    @pytest.mark.parametrize("text,line", [
        ("1.0,2\n0.0\n0.5,1.0\n", 2),
        ("1.0,2\n0.0,0.0\n", 3),
        ("1.0\n0.0,0.0\n", 1),
    ])
    def test_read_malformed_row(self, tmp_path, text, line):
        path = tmp_path / "f.step"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"line {line}: expected two"):
            read_step(path)


class TestVariation:
    def test_tv_constant(self):
        assert tv(StepFunction.constant(1.0, 0.5)) == 0.0

    def test_tv_zigzag(self):
        f = StepFunction(np.array([0, 0.3, 0.6, 1.0]), np.array([0.0, 1.0, 0.0]))
        assert tv(f) == 2.0

    def test_tv_monotone(self):
        f = StepFunction(np.array([0, 0.3, 0.6, 1.0]), np.array([0.0, 1.0, 2.0]))
        assert tv(f) == 2.0

    def test_tv_psi_identity_reduces_to_tv(self, rng):
        for _ in range(30):
            f = random_step_function(rng)
            assert tv_psi(f, Gauge.identity()) == pytest.approx(tv(f), rel=1e-12)

    def test_tv_psi_square_chain_beats_steps(self):
        f = StepFunction(np.array([0, 0.3, 0.6, 1.0]), np.array([0.0, 1.0, 2.0]))
        assert tv_psi(f, Gauge.power(2)) == 4.0

    def test_tv_psi_square_zigzag(self):
        f = StepFunction(np.array([0, 0.3, 0.6, 1.0]), np.array([0.0, 1.0, 0.0]))
        assert tv_psi(f, Gauge.power(2)) == 2.0

    def test_oracle_equivalence(self, rng):
        gauges = [Gauge.identity(), Gauge.power(2),
                  Gauge.tabulated([0, 0.5, 1, 2], [0, 0.3, 1.0, 3.0])]
        for _ in range(25):
            space = line_points(int(rng.integers(3, 8)),
                                float(rng.uniform(0.5, 2.0)))
            f = random_step_function(rng, max_pieces=8, space=space)
            for g in gauges:
                assert tv_psi(f, g) == pytest.approx(oracle_tv_psi(f, g), rel=1e-12)

    def test_gauge_monotonicity(self, rng):
        # psi1 <= psi2 pointwise implies tv_psi1 <= tv_psi2
        g1, g2 = Gauge.power(2), Gauge.identity()   # s^2 <= s on [0,1]
        for _ in range(20):
            f = random_step_function(rng, lo=0.0, hi=1.0)
            assert tv_psi(f, g1) <= tv_psi(f, g2) + 1e-12

    def test_restriction_monotonicity(self, rng):
        g = Gauge.power(2)
        for _ in range(20):
            f = random_step_function(rng, max_pieces=8)
            if f.k < 2:
                continue
            assert tv_psi(_restrict(f, f.k // 2 + 1), g) <= tv_psi(f, g) + 1e-12

    def test_chain_witness(self):
        f = StepFunction(np.array([0, 0.3, 0.6, 1.0]), np.array([0.0, 1.0, 2.0]))
        val, chain = tv_psi_chain(f, Gauge.power(2))
        assert val == 4.0 and chain == [0, 2]


class TestRightContinuous:
    def test_fixed_point(self):
        f = right_continuous([0, 0.5, 1.0], [1.0, 2.0])
        assert f.k == 2

    def test_merges_equal_values(self):
        f = right_continuous([0, 0.3, 0.6, 1.0], [1.0, 1.0, 2.0])
        assert f.k == 2 and f.breakpoints[1] == 0.6

    def test_variation_not_increased(self):
        # a deviating sample point can only add variation; the representative
        # drops it
        g = Gauge.power(2)
        f = right_continuous([0, 0.5, 1.0], [1.0, 1.0])
        seq = StepFunction(np.linspace(0.0, 1.0, 4), np.array([1.0, 3.0, 1.0]))
        assert tv_psi(f, g) <= tv_psi(seq, g)


class TestL1Distance:
    def test_zero(self):
        f = StepFunction(np.array([0, 1.0]), np.array([0.3]))
        assert l1_distance(f, f) == 0.0

    def test_constants(self):
        f = StepFunction.constant(2.0, 0.0)
        g = StepFunction.constant(2.0, 1.0)
        assert l1_distance(f, g) == 2.0

    def test_shifted_indicators(self):
        f = StepFunction(np.array([0, 0.5, 1.0]), np.array([1.0, 0.0]))
        g = StepFunction(np.array([0, 0.25, 0.75, 1.0]), np.array([0.0, 1.0, 0.0]))
        assert l1_distance(f, g) == pytest.approx(0.5)

    def test_domain_mismatch(self):
        f = StepFunction.constant(1.0, 0.0)
        g = StepFunction.constant(2.0, 0.0)
        with pytest.raises(DomainMismatch):
            l1_distance(f, g)


# ---------------------------------------------------------------------------
# the chain DP on extrema only


REDUCED_GAUGES = (Gauge.power(1), Gauge.power(1.5), Gauge.power(2),
                  Gauge.tabulated([0, 0.5, 1, 2], [0, 0.3, 1.0, 3.0]))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12 * abs(b)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    steps=st.lists(st.integers(-3, 3), min_size=0, max_size=40),
    start=st.integers(-5, 5),
    g=st.sampled_from(REDUCED_GAUGES),
)
def test_reduced_chain_dp_matches_full_dp(steps, start, g):
    # zero steps make plateaus, repeated signs monotone runs, and the tenth
    # grid makes equal values and equal chain sums common
    vals = np.round(0.1 * np.cumsum([start] + steps), 1)
    f = StepFunction(np.linspace(0.0, 1.0, vals.size + 1), vals)
    value = tv_psi(f, g)
    assert _close(value, float(_chain_best(vals, g, None)[-1]))
    if f.k <= 9:
        assert _close(value, oracle_tv_psi(f, g))
    chain_value, chain = tv_psi_chain(f, g)
    assert chain_value == value
    assert chain[0] == 0 and chain[-1] == f.k - 1
    assert all(a < b for a, b in zip(chain, chain[1:]))
    total = sum(float(g(abs(vals[b] - vals[a]))) for a, b in zip(chain, chain[1:]))
    assert _close(total, value)


# ---------------------------------------------------------------------------
# one chain DP over a batch of rows


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2 ** 16), m=st.integers(1, 8), k=st.integers(1, 12),
    kind=st.sampled_from(["cloud", "real", "zigzag"]),
    g=st.sampled_from((Gauge.identity(),) + REDUCED_GAUGES),
)
def test_batched_chain_dp_matches_tv_psi(seed, m, k, kind, g):
    # An (m, k) matrix runs every row's program at once; each row must be the
    # 1-D program bit for bit, and equal tv_psi wherever tv_psi keeps every
    # index: point clouds, the identity gauge, and real rows whose every
    # interior value is a strict turning point (the zigzag kind).
    rng = np.random.default_rng(seed)
    space = None
    if kind == "cloud":
        space = random_metric_space(rng, int(rng.integers(1, 7)))
        vals = rng.integers(0, space.n, size=(m, k))
    elif kind == "real":
        vals = np.round(0.1 * np.cumsum(rng.integers(-3, 4, size=(m, k)), axis=1), 1)
    else:
        sign = (-1.0) ** np.arange(k)
        vals = np.cumsum(0.1 * rng.integers(1, 6, size=(m, k)) * sign, axis=1)
    batch = _chain_best(vals, g, space)
    assert batch.shape == (m, k)
    edges = np.linspace(0.0, 1.0, k + 1)
    for row, best in zip(vals, batch):
        assert np.array_equal(best, _chain_best(row, g, space))
        keep, _ = gv._chain(row, g, space)
        assert kind != "zigzag" or keep.size == k
        if keep.size == k:
            assert best[-1] == tv_psi(StepFunction(edges, row, space), g)


# ---------------------------------------------------------------------------
# one value distance for real values and point indices


def _real_and_indexed(rng, x, space):
    k = int(rng.integers(1, 13))
    idx = rng.integers(0, x.size, size=k)
    b = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, k - 1)), [1.0]])
    return StepFunction(b, x[idx]), StepFunction(b, idx, space)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2 ** 16), m=st.integers(1, 6))
def test_real_values_and_point_indices_agree(seed, m):
    # The Euclidean distance of points i and j of a one-dimensional cloud is
    # sqrt((x_i - x_j)^2) = |x_i - x_j|, the same float as for the real values
    # x_i and x_j, so each quantity must agree bit for bit; values on the
    # tenth grid make ties and zero jumps common.
    rng = np.random.default_rng(seed)
    x = np.round(rng.uniform(-1.0, 1.0, size=int(rng.integers(1, 9))), 1)
    space = from_points(x[:, None])
    reals, points = zip(*(_real_and_indexed(rng, x, space) for _ in range(m)))
    identity = Gauge.identity()
    for f, g in zip(reals, points):
        assert tv(f) == tv(g)
        assert tv_psi(f, identity) == tv_psi(g, identity)
        assert l1_distance(f, reals[0]) == l1_distance(g, points[0])
    ens_real, ens_points = FunctionEnsemble(reals), FunctionEnsemble(points)
    for i in range(m):
        assert np.array_equal(ens_real.distances_from(i), ens_points.distances_from(i))
