import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P

from bventropy.claw import (
    Flux,
    _Kernel,
    _random_data,
    _window_minimax,
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
from bventropy.errors import (
    DomainTooSmall,
    GaugeDegenerate,
    InfiniteDegeneracy,
    InvalidGrid,
    OutOfRange,
    UnstableConfig,
)
from bventropy import claw
from bventropy.gauge_variation import Gauge, right_continuous, tv, tv_psi

from conftest import (
    burgers_exact_rarefaction,
    burgers_exact_shock,
    oracle_window_minimax,
    reference_window_minimax,
)


# affine_gap(flux(M), M, 2 M k / 12) for k = 1..12, recorded with the
# per-window convex-hull implementation this search replaced
HULL_GAPS = {
    ('burgers', 0.5): [
        0.0004340277777777693, 0.001736111111111105, 0.00390625,
        0.006944444444444442, 0.010850694444444448, 0.015625,
        0.021267361111111112, 0.027777777777777773, 0.03515625,
        0.043402777777777776, 0.052517361111111105, 0.0625,
    ],
    ('burgers', 1.0): [
        0.0017361111111110772, 0.00694444444444442, 0.015625,
        0.02777777777777777, 0.04340277777777779, 0.0625, 0.08506944444444445,
        0.11111111111111109, 0.140625, 0.1736111111111111, 0.21006944444444442,
        0.25,
    ],
    ('cubic', 0.5): [
        6.0281635802469285e-06, 4.822530864197532e-05, 0.00016276041666666668,
        0.00038580246913580256, 0.0007535204475308645, 0.0013020833333333335,
        0.0020676601080246914, 0.0030864197530864196, 0.00439453125,
        0.006028163580246914, 0.00802348572530864, 0.010416666666666668,
    ],
    ('cubic', 1.0): [
        4.822530864197543e-05, 0.00038580246913580256, 0.0013020833333333335,
        0.0030864197530864204, 0.006028163580246916, 0.010416666666666668,
        0.01654128086419753, 0.024691358024691357, 0.03515625,
        0.048225308641975315, 0.06418788580246912, 0.08333333333333334,
    ],
    ('quartic', 0.5): [
        3.76760223765432e-07, 6.0281635802469116e-06, 3.0517578125e-05,
        9.645061728395058e-05, 0.0002354751398533951, 0.00048828125,
        0.0009046012972608028, 0.0015432098765432098, 0.002471923828125,
        0.003767602237654322, 0.0055161464361496906, 0.0078125,
    ],
    ('quartic', 1.0): [
        6.028163580246912e-06, 9.645061728395058e-05, 0.00048828125,
        0.0015432098765432094, 0.0037676022376543217, 0.0078125,
        0.014473620756172844, 0.024691358024691357, 0.03955078125,
        0.060281635802469154, 0.08825834297839505, 0.125,
    ],
}


def riemann_data(x, ul, ur):
    return np.where(x < 0.0, ul, ur)


def l1_error(sol, exact):
    return float(np.abs(sol.cells - exact(sol.x, sol.T)).sum() * sol.dx)


class TestFlux:
    def test_burgers_fprime_max(self):
        assert Flux.burgers(1.0).fprime_max == pytest.approx(1.0)

    def test_cubic_fprime_max(self):
        assert Flux.cubic(2.0).fprime_max == pytest.approx(4.0)

    def test_quartic_derivatives(self):
        f = Flux.quartic(1.0)
        assert f.df(0.5) == pytest.approx(0.5 ** 3)
        assert f.d2f(0.5) == pytest.approx(3 * 0.5 ** 2)

    def test_wgn(self):
        assert Flux.burgers().is_wgn()
        assert not Flux([0.0, 1.0], 1.0).is_wgn()

    def test_parse(self):
        assert Flux.parse("cubic", 2.0).name == "cubic"
        assert Flux.parse("poly:0;0;0.5", 1.0)(1.0) == pytest.approx(0.5)

    def test_not_finite_on_range(self):
        # f(1e300) overflowed with two RuntimeWarnings before any error
        with pytest.raises(ValueError, match="not finite on"):
            Flux.burgers(1e300)

    def test_constant_offset_builds(self):
        # a finite-difference check of f' rejected this flux; an offset moves
        # no flux difference, so the snapshot is the offset-5 flux's
        tvs = []
        for token in ("poly:1e6;0;1", "poly:5;0;1"):
            flux = Flux.parse(token, 1.0)
            x = make_grid(1.0, 1.0, 1.0, flux, 0.01)
            u0 = np.where(np.abs(x) <= 1.0, np.exp(-8.0 * x ** 2), 0.0)
            tvs.append(tv(to_step_function(evolve(u0, flux, 1.0, 0.01, x=x))))
        assert tvs[0] == pytest.approx(tvs[1], abs=1e-9)


def _interface_flux(flux: Flux, ul: float, ur: float) -> float:
    """The Godunov kernel on the two states ul, ur."""
    return float(_Kernel(flux, np.array([ul, ur])).fluxes()[0])


class TestGodunov:
    def test_consistency(self):
        f = Flux.burgers(1.0)
        assert _interface_flux(f, 0.3, 0.3) == pytest.approx(f(0.3))

    def test_shock_case(self):
        assert _interface_flux(Flux.burgers(1.0), 1.0, -1.0) == pytest.approx(0.5)

    def test_sonic_rarefaction(self):
        assert _interface_flux(Flux.burgers(1.0), -1.0, 1.0) == pytest.approx(0.0)

    # the scheme refuses states outside [-M, M] before the kernel sees them

    def test_out_of_range(self):
        f = Flux.burgers(1.0)
        x = make_grid(1.0, 1.0, 0.1, f, 0.02)
        with pytest.raises(OutOfRange, match="radius M"):
            evolve(np.where(np.abs(x) < 0.5, 2.0, 0.0), f, 0.1, 0.02, x=x)

    @pytest.mark.parametrize("ul, ur", [(math.nan, 0.0), (0.0, math.nan)])
    def test_nan_state(self, ul, ur):
        f = Flux.burgers(1.0)
        x = make_grid(1.0, 1.0, 0.1, f, 0.02)
        u0 = np.zeros_like(x)
        u0[x.size // 2 - 1:x.size // 2 + 1] = ul, ur
        with pytest.raises(OutOfRange, match="finite"):
            evolve(u0, f, 0.1, 0.02, x=x)


class TestEvolve:
    def test_zero_stays_zero(self):
        f = Flux.burgers(1.0)
        x = make_grid(1.0, 1.0, 1.0, f, 0.02)
        sol = evolve(np.zeros_like(x), f, 1.0, 0.02, x=x)
        assert np.all(sol.cells == 0.0)

    def test_cfl_cap(self):
        f = Flux.burgers(1.0)
        x = make_grid(1.0, 1.0, 0.1, f, 0.02)
        with pytest.raises(UnstableConfig):
            evolve(np.zeros_like(x), f, 0.1, 0.02, cfl=1.2, x=x)

    def test_nonpositive_cfl(self):
        # at cfl = 0 the time step is zero and the loop would never end
        f = Flux.burgers(1.0)
        x = make_grid(1.0, 1.0, 0.1, f, 0.02)
        with pytest.raises(UnstableConfig):
            evolve(np.zeros_like(x), f, 0.1, 0.02, cfl=0.0, x=x)

    def test_step_count_cap(self, monkeypatch):
        # cfl = 1e-300 asks for about 2e301 steps: refused before the first
        f = Flux.burgers(1.0)
        x = make_grid(1.0, 1.0, 1.0, f, 0.05)

        def refuse(flux, u):
            raise AssertionError("a step was taken")
        monkeypatch.setattr(claw, "_Kernel", refuse)
        with pytest.raises(InvalidGrid, match=f"more than {claw.MAX_STEPS} steps"):
            evolve(np.zeros_like(x), f, 1.0, 0.05, cfl=1e-300, x=x)

    def test_nonfinite_data(self):
        f = Flux.burgers(1.0)
        x = make_grid(1.0, 1.0, 0.1, f, 0.02)
        u0 = np.zeros_like(x)
        u0[x.size // 2] = np.nan
        with pytest.raises(OutOfRange):
            evolve(u0, f, 0.1, 0.02, x=x)

    @pytest.mark.parametrize("T", [math.inf, math.nan, -1.0])
    def test_bad_time(self, T):
        # an infinite T would never end; a NaN or negative T names no time
        f = Flux.burgers(1.0)
        x = make_grid(1.0, 1.0, 0.1, f, 0.02)
        with pytest.raises(InvalidGrid):
            evolve(np.zeros_like(x), f, T, 0.02, x=x)
        with pytest.raises(InvalidGrid):
            make_grid(1.0, 1.0, T, f, 0.02)
        assert issubclass(InvalidGrid, ValueError)     # the CLI exits 1

    @pytest.mark.parametrize("L", [math.inf, math.nan, 0.0, -2.0])
    def test_bad_half_width(self, L):
        # inf and nan used to raise a bare OverflowError or ValueError from
        # the cell count, and -2 returned an empty grid
        with pytest.raises(InvalidGrid, match="L must be positive and finite"):
            make_grid(L, 1.0, 0.1, Flux.burgers(1.0), 0.02)

    def test_centres_must_match_cells(self):
        f = Flux.burgers(1.0)
        x = make_grid(1.0, 1.0, 0.1, f, 0.02)
        with pytest.raises(InvalidGrid):
            evolve(np.zeros(10), f, 0.1, 0.02, x=x)

    @pytest.mark.parametrize("T", [0.0, 0.3])
    def test_fresh_cells(self, T):
        f = Flux.burgers(1.0)
        x = make_grid(1.0, 1.0, 0.3, f, 0.02)
        u0 = np.where(np.abs(x) <= 0.5, 0.8, 0.0)
        kept = u0.copy()
        sol = evolve(u0, f, T, 0.02, x=x)
        assert np.array_equal(u0, kept)
        assert sol.cells.flags.owndata and not np.shares_memory(sol.cells, u0)
        assert np.array_equal(sol.cells, u0) == (T == 0)

    def test_domain_too_small(self):
        f = Flux.burgers(1.0)
        x = (np.arange(-10, 10) + 0.5) * 0.1    # half width 1, too small
        u0 = np.where(np.abs(x) < 0.9, 1.0, 0.0)
        with pytest.raises(DomainTooSmall):
            evolve(u0, f, 5.0, 0.1, x=x)

    def test_shock_position(self):
        f = Flux.burgers(1.0)
        dx, T = 0.005, 0.5
        x = make_grid(0.5, 1.0, T, f, dx)
        # compact shock data: 1 on [-0.5, 0), 0 after; front moves at 1/2
        u0 = np.where((x >= -0.5) & (x < 0.0), 1.0, 0.0)
        sol = evolve(u0, f, T, dx, x=x)
        front = sol.x[np.flatnonzero(sol.cells > 0.5)[-1]]
        assert abs(front - T / 2) <= 2 * dx

    def test_max_principle_and_mass(self, rng):
        f = Flux.burgers(1.0)
        dx = 0.01
        x = make_grid(1.0, 1.0, 1.0, f, dx)
        u0 = np.where(np.abs(x) <= 1.0, rng.uniform(-1, 1) * np.ones_like(x), 0.0)
        mass0 = u0.sum() * dx
        sol = evolve(u0, f, 1.0, dx, x=x)
        assert np.abs(sol.cells).max() <= np.abs(u0).max() + 1e-12
        assert abs(sol.mass - mass0) <= 1e-10 * (1 + abs(mass0))

    def test_tv_diminishing(self):
        f = Flux.cubic(1.0)
        dx = 0.01
        x = make_grid(1.0, 1.0, 0.5, f, dx)
        u0 = np.where(np.abs(x) <= 1.0, np.sign(np.sin(6 * x)) * 0.8, 0.0)
        sol = evolve(u0, f, 0.5, dx, x=x)
        assert sol.max_tv_increase <= 1e-12


class TestSupportCheck:
    def test_zero_solution(self):
        f = Flux.burgers(1.0)
        x = make_grid(1.0, 1.0, 1.0, f, 0.02)
        sol = evolve(np.zeros_like(x), f, 1.0, 0.02, x=x)
        assert support_check(sol, 1.0, 1.0, 1.0, f)

    def test_burgers_cone(self):
        f = Flux.burgers(1.0)
        dx = 0.01
        x = make_grid(1.0, 1.0, 1.0, f, dx)
        u0 = np.where(np.abs(x) <= 1.0, 0.9, 0.0)
        sol = evolve(u0, f, 1.0, dx, x=x)
        assert support_check(sol, 1.0, 1.0, 1.0, f)

    def test_negative_control(self):
        f = Flux.burgers(1.0)
        x = make_grid(1.0, 1.0, 1.0, f, 0.02)
        cells = np.ones_like(x)     # artificially full support
        from bventropy.claw import GridSolution
        sol = GridSolution(0.02, x, cells, 1.0, float(cells.sum() * 0.02))
        assert not support_check(sol, 1.0, 1.0, 1.0, f)


class TestAffineGap:
    def test_affine_flux_zero(self):
        f = Flux([0.2, 0.7], 1.0)
        assert affine_gap(f, 1.0, 0.5) <= 1e-12

    def test_burgers_quadratic(self):
        f = Flux.burgers(1.0)
        for h in (0.2, 0.5, 1.0):
            assert affine_gap(f, 1.0, h) == pytest.approx(h * h / 16, rel=0.02)

    def test_cubic_straddles_inflection(self):
        f = Flux.cubic(1.0)
        gap = affine_gap(f, 1.0, 0.6)
        # window centered on the inflection is optimal; oracle value h^3/96
        assert gap == pytest.approx(0.6 ** 3 / 96, rel=0.05)

    @pytest.mark.parametrize("name, M", sorted(HULL_GAPS))
    def test_matches_hull_values(self, name, M):
        flux = getattr(Flux, name)(M)
        got = [affine_gap(flux, M, 2 * M * k / 12) for k in range(1, 13)]
        assert got == pytest.approx(HULL_GAPS[name, M], rel=1e-10, abs=0.0)


@settings(derandomize=True, deadline=None)
@given(
    coeffs=st.lists(st.integers(-1000, 1000), min_size=1, max_size=6),
    windows=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(1e-3, 2.0)),
                     min_size=1, max_size=4),
    pts=st.integers(9, 33),
)
def test_window_minimax_matches_oracle(coeffs, windows, pts):
    # polynomials of degree <= 5 with coefficients k/1000 in [-1, 1], sampled
    # on windows inside [-1, 1]; sum |c_k| bounds max |f| there and sets the
    # floor of the rounding in y - s x
    c = np.asarray(coeffs) / 1000.0
    starts = np.array([-1.0 + t * (2.0 - w) for t, w in windows])
    widths = np.array([w for _, w in windows])
    xs = np.linspace(starts, starts + widths, pts, axis=1)
    ys = P.polyval(xs, c)
    got = _window_minimax([lambda: (xs, ys)])[0]
    for row, value in enumerate(got):
        want = oracle_window_minimax(xs[row], ys[row])
        assert abs(value - want) <= 1e-12 * want + 1e-15 * np.abs(c).sum()


@st.composite
def sampled_windows(draw):
    """Rows of samples of one polynomial on windows of one width: a curved
    polynomial on [-1, 1], a near-affine one whose chord slopes agree to a few
    digits or to every bit, or the quartic x^4 / 4 on small windows near 0,
    where the rows are nearly flat."""
    kind = draw(st.sampled_from(["curved", "near_affine", "flat"]))
    rows, pts = draw(st.integers(1, 6)), draw(st.integers(3, 40))
    if kind == "curved":
        c = np.asarray(draw(st.lists(st.integers(-1000, 1000), min_size=1, max_size=6))) / 1e3
        width = draw(st.floats(1e-3, 2.0))
        starts = -1.0 + np.asarray(draw(st.lists(st.floats(0.0, 1.0), min_size=rows,
                                                 max_size=rows))) * (2.0 - width)
    elif kind == "near_affine":
        bend = 10.0 ** -draw(st.integers(4, 20))
        c = np.array([draw(st.floats(-1.0, 1.0)), draw(st.floats(-2.0, 2.0)), bend,
                      draw(st.sampled_from([0.0, -bend, bend]))])
        width = draw(st.floats(1e-2, 1.0))
        starts = np.asarray(draw(st.lists(st.floats(-1.0, 0.0), min_size=rows, max_size=rows)))
    else:
        c = np.array([0.0, 0.0, 0.0, 0.0, 0.25])
        width = 10.0 ** draw(st.floats(-4.0, -1.0))
        starts = np.asarray(draw(st.lists(st.floats(-0.02, 0.02), min_size=rows,
                                          max_size=rows))) - width / 2.0
    xs = np.linspace(starts, starts + width, pts, axis=1)
    return xs, P.polyval(xs, c)


@settings(derandomize=True, deadline=None)
@given(groups=st.lists(sampled_windows(), min_size=1, max_size=6))
def test_window_minimax_is_the_full_search(groups):
    # one batch of groups with their own step counts gives, float for float,
    # the search that reads every sample at every step, one group at a time
    got = _window_minimax([lambda group=group: group for group in groups])
    assert len(got) == len(groups)
    for (xs, ys), gaps in zip(groups, got):
        assert gaps.tobytes() == reference_window_minimax(xs, ys).tobytes()


class TestAffineGapInput:
    @pytest.mark.parametrize("name, M", [("burgers", 0.5), ("cubic", 1.0), ("quartic", 0.5)])
    def test_widths_at_once_are_the_widths_one_by_one(self, name, M):
        flux = getattr(Flux, name)(M)
        hs = np.linspace(0.05, 2.0 * M, 10)
        one_by_one = np.array([affine_gap(flux, M, float(h)) for h in hs])
        assert affine_gap(flux, M, hs).tobytes() == one_by_one.tobytes()

    @pytest.mark.parametrize("M", [math.inf, math.nan, 0.0, -1.0])
    def test_bad_radius(self, M):
        # M = inf gave nan after three RuntimeWarnings
        with pytest.raises(ValueError, match="M must be positive and finite"):
            affine_gap(Flux.cubic(0.5), M, 0.5)

    @pytest.mark.parametrize("h", [math.nan, math.inf, [0.1, math.nan]])
    def test_nonfinite_width(self, h):
        with pytest.raises(ValueError, match="finite"):
            affine_gap(Flux.cubic(0.5), 0.5, h)

    def test_gauge_bad_radius(self):
        # failed deep inside with "table entries must be finite"
        with pytest.raises(ValueError, match="M must be positive and finite"):
            flux_gauge(Flux.cubic(0.5), math.inf, [0.1, 0.2, 0.3])

    def test_width_below_sample_resolution(self):
        # divided 0 by 0 in the chord slopes and returned nan; the gauge then
        # failed with "table entries must be finite"
        with pytest.raises(ValueError, match="samples of its windows to be distinct"):
            affine_gap(Flux.cubic(1.0), 1.0, 1e-17)
        with pytest.raises(ValueError, match="samples of its windows to be distinct"):
            flux_gauge(Flux.cubic(1.0), 1.0, [1e-300, 1e-299, 1e-298])

    def test_gauge_nan_width(self):
        # passed the increasing-grid check, then surfaced as "need 0 < h <= 2M"
        with pytest.raises(ValueError, match="h_grid must be finite"):
            flux_gauge(Flux.cubic(0.5), 0.5, [0.1, math.nan, 0.3])


class TestFluxGauge:
    def test_burgers_cubic_gauge(self):
        fg = flux_gauge(Flux.burgers(1.0), 1.0, np.linspace(0.05, 1.0, 20))
        for xv in (0.4, 1.0, 1.6):
            assert float(fg.gauge(xv)) == pytest.approx(xv ** 3 / 64, rel=0.05)

    def test_affine_degenerate(self):
        f = Flux([0.0, 1.0], 1.0)
        with pytest.raises(GaugeDegenerate):
            flux_gauge(f, 1.0, np.linspace(0.05, 1.0, 10))

    def test_cubic_admissible(self):
        fg = flux_gauge(Flux.cubic(1.0), 1.0, np.linspace(0.05, 1.5, 20))
        assert fg.report.ok
        assert float(fg.gauge(1.0)) > 0

    @pytest.mark.parametrize("name", ["burgers", "cubic", "quartic"])
    def test_coarse_grid_admissible(self, name):
        # a three-width table once failed the inverse round trip near psi = 1e-7
        fg = flux_gauge(getattr(Flux, name)(0.5), 0.5, [0.05, 0.47, 0.89])
        assert fg.report.ok


class TestDegeneracy:
    def test_cubic(self):
        rep = degeneracy(Flux.cubic(1.0))
        assert rep.inflection_points == (0.0,)
        assert rep.p_f == 2

    def test_quartic(self):
        rep = degeneracy(Flux.quartic(1.0))
        assert rep.p_f == 3

    def test_burgers_empty(self):
        rep = degeneracy(Flux.burgers(1.0))
        assert rep.p_f is None

    def test_affine_infinite(self):
        with pytest.raises(InfiniteDegeneracy):
            degeneracy(Flux([0.0, 1.0], 1.0))


class TestEntropyBounds:
    def test_decreasing_in_T(self):
        f = Flux.burgers(1.0)
        fg = flux_gauge(f, 1.0, np.linspace(0.05, 1.0, 12))
        eps = 0.3
        # (1 + 1/T) decreases in T; with the same gauge argument the second
        # term shrinks, so compare at fixed spatial scale
        b1 = 2 * 1.0 * (1 + 1.0 / 1.0)
        b2 = 2 * 1.0 * (1 + 1.0 / 2.0)
        assert b2 < b1
        v = solution_entropy_bound(eps, 1.0, 1.0, 1.0, f, fg.gauge, 1.0)
        assert v > 0 and math.isfinite(v)

    def test_nonpositive_time(self):
        f = Flux.burgers(1.0)
        fg = flux_gauge(f, 1.0, np.linspace(0.05, 1.0, 12))
        with pytest.raises(OutOfRange):
            solution_entropy_bound(0.3, 1.0, 1.0, 0.0, f, fg.gauge, 1.0)
        with pytest.raises(OutOfRange):
            solution_entropy_bound(0.1, 1.0, 1.0, 0.0, Flux.cubic(1.0), Gauge.power(2), 1.0)

    def test_pf_variant_scaling(self):
        f = Flux.cubic(1.0)
        # the power form with p_f = 2: the gauge s^2 and gamma_lm_tilde = 1
        v1 = solution_entropy_bound(0.1, 1.0, 1.0, 1.0, f, Gauge.power(2), 1.0)
        v2 = solution_entropy_bound(0.05, 1.0, 1.0, 1.0, f, Gauge.power(2), 1.0)
        # halving eps roughly quadruples the leading term
        assert v2 / v1 == pytest.approx(4.0, rel=0.1)
        # ell = L + T max|f'| = 2, so the bound is
        # 2^5 LOG_TERM ell^2 (1 + 1/T) / eps^2 + log2(16 ell M / eps + 1)
        log_term = 3 * math.log2(5) + math.log2(5 * math.e)
        assert v1 == pytest.approx(25600 * log_term + math.log2(321), rel=1e-12)


class TestSnapshots:
    def test_to_step_function(self):
        f = Flux.burgers(1.0)
        dx = 0.01
        x = make_grid(1.0, 1.0, 0.5, f, dx)
        u0 = np.where(np.abs(x) <= 1.0, 0.5, 0.0)
        sol = evolve(u0, f, 0.5, dx, x=x)
        snap = to_step_function(sol)
        assert snap.breakpoints[0] == 0.0
        assert snap.L == pytest.approx(sol.x[-1] - sol.x[0] + dx)

    def test_calibrate(self, monkeypatch):
        monkeypatch.setattr(claw, "CALIBRATION_SAMPLES", 3)
        f = Flux.burgers(1.0)
        fg = flux_gauge(f, 1.0, np.linspace(0.05, 1.0, 12))
        rep = calibrate_gamma(f, 1.0, 1.0, 1.0, fg.gauge, dx=0.02)
        assert rep.gamma_lm > 0
        assert len(rep.samples) == 3

    @pytest.mark.parametrize("T", [0.0, -1.0])
    def test_calibrate_rejects_nonpositive_time(self, monkeypatch, T):
        # T = 0 used to evolve every sample, then divide by zero
        def refuse(*args, **kwargs):
            raise AssertionError("a sample was evolved before T was checked")
        monkeypatch.setattr(claw, "_evolve_rows", refuse)
        with pytest.raises(InvalidGrid, match="needs T > 0"):
            calibrate_gamma(Flux.burgers(1.0), 1.0, 1.0, T, Gauge.identity(), dx=0.02)

    @pytest.mark.parametrize("name", ["burgers", "cubic", "quartic"])
    def test_calibrate_samples_are_evolve_and_tv_psi(self, monkeypatch, name):
        # the samples are stepped as one array; each must be the sample's own
        # evolve measured whole
        monkeypatch.setattr(claw, "CALIBRATION_SAMPLES", 4)
        f = Flux.parse(name, 0.5)
        gauge = flux_gauge(f, 0.5, np.linspace(0.05, 1.0, 10)).gauge
        rep = calibrate_gamma(f, 1.0, 0.5, 1.0, gauge, dx=0.01, seed=3)
        rng = np.random.default_rng(3)
        x = make_grid(1.0, 0.5, 1.0, f, 0.01)
        want = tuple(tv_psi(to_step_function(evolve(_random_data(rng, x, 1.0, 0.5),
                                                     f, 1.0, 0.01, x=x)), gauge)
                     for _ in range(4))
        assert rep.samples == want and rep.gamma_lm == max(want) / 2.0


class TestNoThinning:
    """Snapshots above 4,096 cells are measured whole."""

    # the seed-0 sample read 0.0438314 on every other cell, 0.0438886 whole
    L, M, T, DX = 1.0, 1.0, 0.5, 4e-4

    def test_snapshot_keeps_every_cell(self):
        f = Flux.burgers(self.M)
        x = make_grid(self.L, self.M, self.T, f, self.DX)
        u0 = np.where(np.abs(x) <= self.L, self.M * np.exp(-8.0 * x ** 2), 0.0)
        sol = evolve(u0, f, self.T, self.DX, x=x)
        snap = to_step_function(sol)
        assert sol.cells.size > 4096 and snap.k > 4096
        centres = sol.x - sol.x[0] + self.DX / 2.0
        piece = np.searchsorted(snap.breakpoints, centres, side="right") - 1
        assert np.array_equal(snap.values[piece], sol.cells)

    def test_calibrate_gamma_samples_whole_snapshots(self, monkeypatch):
        monkeypatch.setattr(claw, "CALIBRATION_SAMPLES", 1)
        f = Flux.burgers(self.M)
        fg = flux_gauge(f, self.M, np.linspace(0.05, 2.0 * self.M, 10))
        rep = calibrate_gamma(f, self.L, self.M, self.T, fg.gauge, dx=self.DX, seed=0)
        rng = np.random.default_rng(0)
        x = make_grid(self.L, self.M, self.T, f, self.DX)
        assert x.size > 4096
        for sample in rep.samples:
            sol = evolve(_random_data(rng, x, self.L, self.M), f, self.T, self.DX, x=x)
            edges = np.append(x - self.DX / 2.0, x[-1] + self.DX / 2.0)
            whole = right_continuous(edges - edges[0], sol.cells)
            assert sample == tv_psi(whole, fg.gauge)


class TestConvergence:
    def test_shock_and_rarefaction(self):
        f = Flux.burgers(1.0)
        T = 0.4
        for exact, (ul, ur) in [
            (lambda x, t: burgers_exact_shock(x, t, 1.0, 0.0), (1.0, 0.0)),
            (lambda x, t: burgers_exact_rarefaction(x, t, 0.0, 1.0), (0.0, 1.0)),
        ]:
            errs = []
            for dx in (0.005, 0.0025, 0.00125):
                x = make_grid(1.0, 1.0, T, f, dx)
                # truncate the Riemann data to compact support away from the
                # measurement region
                u0 = np.where(np.abs(x) <= 1.0, riemann_data(x, ul, ur), 0.0)
                sol = evolve(u0, f, T, dx, cfl=0.9, x=x)
                # measure away from the waves emitted by the truncation edges
                mask = (sol.x >= -0.5) & (sol.x <= 0.8)
                errs.append(float(np.abs(sol.cells - exact(sol.x, T))[mask].sum() * dx))
            assert errs[0] / errs[1] >= 1.7
            assert errs[1] / errs[2] >= 1.7
