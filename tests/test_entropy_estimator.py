import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bventropy import gauge_variation, metric_core
from bventropy.entropy_estimator import (
    MATRIX_CAP,
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
from bventropy.errors import (
    DomainMismatch,
    EpsilonTooSmall,
    InsufficientRows,
    NetIncomplete,
    ScaleUnderflow,
    SeparationFailure,
)
from bventropy.gauge_variation import Gauge, StepFunction, l1_distance, tv, tv_psi
from bventropy.metric_core import line_points, packing_number
from bventropy.witness_lab import build_family

from conftest import (
    random_metric_space,
    random_step_function,
    reference_scan_counts,
    run_python,
)


def two_constants(d):
    return FunctionEnsemble([
        StepFunction.constant(1.0, 0.0),
        StepFunction.constant(1.0, d),
    ])


class TestEnsemble:
    def test_rejects_mixed_domains(self):
        with pytest.raises(DomainMismatch):
            FunctionEnsemble([
                StepFunction.constant(1.0, 0.0),
                StepFunction.constant(2.0, 0.0),
            ])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FunctionEnsemble([])

    def test_shared_layout_distances_match_l1(self, rng):
        ens = block_grid_ensemble(2, spacing=0.2, value_range=0.4)
        d = ens.distance_matrix()
        for i, j in [(0, 1), (2, 5), (3, 7)]:
            assert d[i, j] == pytest.approx(
                l1_distance(ens.members[i], ens.members[j]), rel=1e-12)

    def test_general_distances(self, rng):
        ens = random_bv_ensemble(8, 1.0, 1.0, seed=3)
        d = ens.distance_matrix()
        assert np.allclose(d, d.T)
        assert np.all(np.diag(d) == 0)


class TestEmpiricalCounts:
    def test_diameter_covers_all(self):
        ens = two_constants(1.0)
        cover, _ = empirical_counts(ens, 1.5)
        assert cover == 1

    def test_pair_below_epsilon(self):
        cover, pack = empirical_counts(two_constants(1.0), 0.4)
        assert cover == 2 and pack == 2

    def test_pair_strict_separation(self):
        _, pack = empirical_counts(two_constants(1.0), 1.5)
        assert pack == 1

    def test_strict_at_tie(self):
        # distance exactly epsilon: covered (closed ball), not packed (strict)
        cover, pack = empirical_counts(two_constants(1.0), 1.0)
        assert cover == 1 and pack == 1

    def test_certificates_raise(self, monkeypatch):
        # the matrix path's covers and packings are checked like metric's:
        # broken kernels, one center for every problem and a run that puts
        # constant 1 at 2.0 from constant 0, where it lies at 1.0
        monkeypatch.setattr(metric_core, "greedy_set_cover",
                            lambda covers, targets: np.zeros((*targets.shape[:-1], 1), int))
        with pytest.raises(NetIncomplete):
            empirical_counts(two_constants(1.0), 0.5)
        monkeypatch.undo()
        monkeypatch.setattr(metric_core, "farthest_first",
                            lambda rows, start, sep: ([0, 1], [math.inf, 2.0]))
        with pytest.raises(SeparationFailure):
            empirical_counts(two_constants(1.0), 1.5)


class TestScan:
    def test_singleton(self):
        ens = FunctionEnsemble([StepFunction.constant(1.0, 0.3)])
        res = entropy_scan(ens, [0.2, 0.1])
        assert all(r.cover_count == 1 and r.pack_count == 1 for r in res.rows)

    def test_grid_must_decrease(self):
        ens = two_constants(1.0)
        with pytest.raises(ValueError):
            entropy_scan(ens, [0.1, 0.2])

    def test_counts_monotone_in_epsilon(self):
        ens = block_grid_ensemble(1, spacing=0.02, value_range=0.6)
        res = entropy_scan(ens, [0.1, 0.05, 0.025])
        packs = [r.pack_count for r in res.rows]
        covers = [r.cover_count for r in res.rows]
        assert packs == sorted(packs)
        assert covers == sorted(covers)

    def test_sandwich_small_ensemble(self):
        # exact-verifiable sandwich on a small ensemble: greedy pack at 2e
        # <= greedy cover at e <= greedy pack at e holds because the
        # farthest-first set is both a cover and a packing
        ens = block_grid_ensemble(1, spacing=0.1, value_range=0.5)
        for eps in (0.2, 0.1, 0.05):
            c, p = empirical_counts(ens, eps)
            _, p2 = empirical_counts(ens, 2 * eps)
            assert p2 <= c <= p

    def test_bound_rows_filled(self):
        ens = block_grid_ensemble(1, spacing=0.05, value_range=0.5)
        params = ClassParams(L=1.0, V=1.0, gauge=Gauge.identity())
        res = entropy_scan(ens, [0.1, 0.05, 0.025], params)
        assert all(np.isfinite(r.rhs_bound_bits) for r in res.rows)
        assert all(np.isfinite(r.lhs_bound_bits) for r in res.rows)

    def test_bound_overflow_is_refused_before_the_traversal(self, monkeypatch):
        # the gamma-2 scan ran its whole traversal, then raised OverflowError
        def refuse(*args):
            raise AssertionError("traversal started")
        monkeypatch.setattr(FunctionEnsemble, "_rows", refuse)
        params = ClassParams(L=1.0, V=1.0, gauge=Gauge.power(2))
        with pytest.raises(EpsilonTooSmall, match="overflows a float"):
            entropy_scan(block_grid_ensemble(2), [0.1, 0.05, 1e-310], params)

    @pytest.mark.parametrize("gamma, eps", [(1, 5e-324), (2, 1e-200), (2, 1e-310)])
    def test_epsilon_the_bounds_cannot_take_is_named(self, monkeypatch, gamma, eps):
        # eps / 4L underflowed ("alpha must be positive"), psi(eps / 2L)
        # underflowed, or the covering count at eps / 4L overflowed: each
        # message named an internal quantity, not the scan's epsilon
        def refuse(*args):
            raise AssertionError("traversal started")
        monkeypatch.setattr(FunctionEnsemble, "_rows", refuse)
        params = ClassParams(L=1.0, V=1.0, gauge=Gauge.power(gamma) if gamma > 1
                             else Gauge.identity())
        with pytest.raises(EpsilonTooSmall, match=f"^scan epsilon {eps!r} is too small"):
            entropy_scan(block_grid_ensemble(gamma), [0.1, eps], params)

    def test_gauge_that_underflows_at_every_epsilon_is_named(self, monkeypatch):
        # psi(s) = s**1e300 is 0 at every scale below 1, psi(eps / 2L) at
        # eps = L included: no epsilon is at fault, so the error names the
        # gauge, before the traversal
        def refuse(*args):
            raise AssertionError("traversal started")
        monkeypatch.setattr(FunctionEnsemble, "_rows", refuse)
        params = ClassParams(L=1.0, V=1.0, gauge=Gauge.power(1e300))
        with pytest.raises(ScaleUnderflow, match=r"^gauge pow:1e\+300 gives psi\(0\.5\)"):
            entropy_scan(block_grid_ensemble(1), [0.1, 0.05], params)

    def test_determinism(self):
        ens = block_grid_ensemble(1, spacing=0.05, value_range=0.5)
        a = entropy_scan(ens, [0.1, 0.05, 0.025]).to_csv()
        b = entropy_scan(ens, [0.1, 0.05, 0.025]).to_csv()
        assert a == b

    def test_csv_format(self):
        ens = block_grid_ensemble(1, spacing=0.02, value_range=0.6)
        res = entropy_scan(ens, [0.1, 0.05, 0.025, 0.0125])
        text = res.to_csv()
        assert text.startswith("epsilon,cover_count,pack_count")
        assert "# exponent=" in text


class TestFitExponent:
    def _synthetic(self, gamma):
        rows = []
        for eps in (0.1, 0.05, 0.025, 0.0125):
            count = max(2, round((1.0 / eps) ** gamma))
            from bventropy.entropy_estimator import ScanRow, ScanResult
            rows.append(ScanRow(eps, count, count, 0.0, 0.0))
        from bventropy.entropy_estimator import ScanResult
        return ScanResult(rows=tuple(rows))

    def test_slope_one(self):
        expo, _ = fit_exponent(self._synthetic(1.0))
        assert expo == pytest.approx(1.0, abs=0.05)

    def test_slope_two(self):
        expo, _ = fit_exponent(self._synthetic(2.0))
        assert expo == pytest.approx(2.0, abs=0.05)

    def test_insufficient_rows(self):
        from bventropy.entropy_estimator import ScanRow, ScanResult
        res = ScanResult(rows=(ScanRow(0.1, 1, 1, 0.0, 0.0),))
        with pytest.raises(InsufficientRows):
            fit_exponent(res)


class TestGenerators:
    def test_random_bv_budget(self):
        ens = random_bv_ensemble(30, 1.0, 1.0, seed=5)
        for f in ens.members:
            assert tv(f) <= 1.0 + 1e-9

    def test_random_bvpsi_budget(self):
        g = Gauge.power(2)
        ens = random_bvpsi_ensemble(30, 1.0, 1.0, g, seed=5)
        for f in ens.members:
            assert tv_psi(f, g) <= 1.0 + 1e-9
        # psi = 10 s: 18 of the first 20 draws exceed V and are rescaled
        g = Gauge.tabulated([0, 1], [0, 10])
        for f in random_bvpsi_ensemble(20, 1.0, 1.0, g, seed=1).members:
            assert tv_psi(f, g) <= 1.0

    def test_infinite_epsilon_is_refused(self):
        # `scan --eps-grid inf,0.1` exited 1 with "math domain error"
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            entropy_scan(block_grid_ensemble(1), [math.inf, 0.1])

    @pytest.mark.parametrize("gamma", [0, -1])
    def test_block_grid_rejects_gamma_below_one(self, gamma):
        with pytest.raises(ValueError, match="gamma must be at least 1"):
            block_grid_ensemble(gamma)

    def test_from_witness_family(self):
        space = line_points(17, 1.0)
        fam = build_family(1.0, 1.0, 1 / 256, Gauge.identity(), space, 8, 1.0)
        ens = from_witness_family(fam)
        assert len(ens) == fam.size
        # family cardinality certifies at least the lemma's floor in bits
        from bventropy.witness_lab import family_floor
        assert len(ens) >= family_floor(1.0, 1.0, 1 / 256, 1.0, fam.gauge)


# ---------------------------------------------------------------------------
# common-refinement layout and one matrix per scan


def _layout_ensemble(kind, seed, m):
    rng = np.random.default_rng(seed)
    if kind == "real":
        return FunctionEnsemble([random_step_function(rng) for _ in range(m)])
    if kind == "cloud":
        space = random_metric_space(rng, 6)
        return FunctionEnsemble([random_step_function(rng, space=space)
                                 for _ in range(m)])
    eps = (1 / 64, 1 / 128, 1 / 256)[seed % 3]
    fam = build_family(1.0, 1.0, eps, Gauge.identity(), line_points(17, 1.0),
                       int(rng.integers(0, 17)), 1.0)
    return from_witness_family(fam)


@settings(max_examples=45, derandomize=True, deadline=None)
@given(kind=st.sampled_from(["real", "cloud", "witness"]),
       seed=st.integers(0, 2 ** 16), m=st.integers(1, 12))
def test_layout_matrix_matches_pairwise_l1(kind, seed, m):
    ens = _layout_ensemble(kind, seed, m)
    assert ens._layout is not None
    d = ens.distance_matrix()
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0.0)
    # witness families run to hundreds of members: check a sample of pairs
    picks = np.random.default_rng(seed).permutation(len(ens))[:12]
    for i in picks:
        row = ens.distances_from(i)
        for j in picks:
            exact = l1_distance(ens.members[i], ens.members[j])
            assert abs(d[i, j] - exact) <= 1e-12 * exact
            assert abs(row[j] - exact) <= 1e-12 * exact


@settings(max_examples=45, derandomize=True, deadline=None)
@given(kind=st.sampled_from(["real", "cloud", "witness"]),
       seed=st.integers(0, 2 ** 16), m=st.integers(1, 40))
def test_layout_rows_on_subsets_equal_full_rows(kind, seed, m):
    # every subset size, a single member included, on refinements of up to
    # hundreds of cells: an entry depends on its own member alone
    ens = _layout_ensemble(kind, seed, m)
    rng = np.random.default_rng(seed)
    i = int(rng.integers(len(ens)))
    row = ens.distances_from(i)
    rows = ens._rows()
    for k in range(1, min(len(ens), 12) + 1):
        cols = np.sort(rng.choice(len(ens), size=k, replace=False))
        assert rows(i, cols).tobytes() == row[cols].tobytes()


class TestOneMatrixPerScan:
    @pytest.mark.parametrize("layout", [True, False])
    def test_scan_reads_rows_from_one_matrix(self, monkeypatch, layout):
        ens = random_bv_ensemble(40, 1.0, 1.0, seed=8)
        if not layout:
            ens._layout = None          # matrix rows from per-pair l1_distance
        calls = []
        oracle = FunctionEnsemble._rows

        def counted(self):
            rows = oracle(self)
            return lambda i, cols: calls.append(i) or rows(i, cols)
        monkeypatch.setattr(FunctionEnsemble, "_rows", counted)
        res = entropy_scan(ens, [0.2, 0.1, 0.05, 0.025])
        assert len(calls) <= len(ens)
        for r in res.rows:
            assert (r.cover_count, r.pack_count) == empirical_counts(ens, r.epsilon)

    def test_above_cap_builds_no_matrix(self, monkeypatch):
        ens = block_grid_ensemble(2)
        assert len(ens) > MATRIX_CAP

        def refuse(self):
            raise AssertionError("distance matrix built above MATRIX_CAP")
        monkeypatch.setattr(FunctionEnsemble, "distance_matrix", refuse)
        calls = []
        oracle = FunctionEnsemble._rows

        def counted(self):
            rows = oracle(self)

            def sized(i, cols, reach):
                got = rows(i, cols, reach)
                calls.append((got[1] if type(got) is tuple else got).size)
                return got
            return sized
        monkeypatch.setattr(FunctionEnsemble, "_rows", counted)
        res = entropy_scan(ens, [0.1, 0.05, 0.025, 0.0125])
        assert [r.pack_count for r in res.rows] == [19, 63, 268, 862]
        assert all(r.cover_count == r.pack_count for r in res.rows)
        # one traversal, to the smallest epsilon: one row per member it picks
        assert len(calls) == res.rows[-1].pack_count
        # rows on the members a pick can still move: about 0.46M entries,
        # where full rows of the live members take 2.23M
        assert sum(calls) <= 600_000

    @staticmethod
    def row_inputs(monkeypatch, keep):
        # what every full row and every run of one is given to read its
        # columns from
        seen = []
        for name in ("l1_row", "_l1_run"):
            monkeypatch.setattr(gauge_variation, name,
                                lambda values, *rest, f=getattr(gauge_variation, name):
                                seen.append(keep(values)) or f(values, *rest))
        return seen

    def test_scan_gathers_once_per_drop(self, monkeypatch):
        ens = block_grid_ensemble(2)
        seen = self.row_inputs(monkeypatch, lambda values: values)
        res = entropy_scan(ens, [0.1, 0.05, 0.025, 0.0125])
        assert len(seen) == res.rows[-1].pack_count == 862
        # one full slice, then one gather per drop of dead members, not one per row
        assert 1 < len({id(values) for values in seen}) <= 13

    def test_scan_leaves_no_gathered_copy(self, monkeypatch):
        ens = block_grid_ensemble(2)
        held = dict(vars(ens))
        seen = self.row_inputs(monkeypatch, weakref.ref)
        entropy_scan(ens, [0.1, 0.05, 0.025, 0.0125])
        gc.collect()
        assert seen and all(ref() is None for ref in seen)
        assert vars(ens).keys() == held.keys()
        assert all(vars(ens)[k] is v for k, v in held.items())

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(kind=st.sampled_from(["real", "cloud", "witness"]),
           seed=st.integers(0, 2 ** 16), m=st.integers(1, 12),
           picks=st.lists(st.tuples(st.floats(0.0, 1.0), st.sampled_from([0.5, 1.0, 1.5])),
                          min_size=1, max_size=6))
    def test_scan_matches_per_epsilon_counts(self, kind, seed, m, picks):
        # grid points at or between the ensemble's own distances, ties included
        ens = _layout_ensemble(kind, seed, m)
        d = np.unique(ens.distance_matrix())[1:]
        if d.size == 0:
            d = np.array([0.1])
        grid = sorted({float(d[int(q * (d.size - 1))] * f) for q, f in picks}, reverse=True)
        res = entropy_scan(ens, grid)
        assert [(r.cover_count, r.pack_count) for r in res.rows] == \
            reference_scan_counts(ens, grid)

    def test_layout_over_budget_falls_back_to_rows(self):
        # 2,100 members with 12 pieces each and no shared breakpoint: the
        # refinement would hold about 48M entries
        rng = np.random.default_rng(12)
        tracemalloc.start()
        try:
            members = [StepFunction(np.concatenate([[0.0], np.sort(rng.uniform(0, 1, 11)),
                                                    [1.0]]), rng.uniform(0, 1, 12))
                       for _ in range(2100)]
            ens = FunctionEnsemble(members)
            row = ens.distances_from(0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ens._layout is None
        assert peak < 64 * 2 ** 20
        assert row[0] == 0.0
        assert row[7] == l1_distance(members[0], members[7])


class TestArrayEnsembles:
    """Block grids and witness families hand their value matrix over as it
    is; member step functions are built only when ``members`` is read."""

    def test_no_member_objects_until_read(self, monkeypatch):
        calls = []
        post = StepFunction.__post_init__
        monkeypatch.setattr(StepFunction, "__post_init__",
                            lambda self: calls.append(1) or post(self))
        fam = build_family(1.0, 1.0, 1 / 256, Gauge.identity(), line_points(17, 1.0), 8, 1.0)
        grid = block_grid_ensemble(2)
        ens = from_witness_family(fam)
        entropy_scan(ens, [0.1, 0.05])
        assert calls == []
        assert len(grid.members) == len(grid) == 81 ** 2 == len(calls)
        members = ens.members
        assert len(calls) == len(grid) + fam.size
        assert ens.members is members
        assert np.array_equal(members[5].values, fam.members[5])
        assert members[5].space is fam.space

    def test_matches_the_member_constructor(self):
        grid = block_grid_ensemble(2, spacing=0.1, value_range=0.6)
        fam = build_family(1.0, 1.0, 1 / 128, Gauge.identity(), line_points(17, 1.0), 5, 1.0)
        for ens in (grid, from_witness_family(fam)):
            again = FunctionEnsemble(ens.members)
            assert np.array_equal(again.distance_matrix(), ens.distance_matrix())
            assert np.array_equal(again.distances_from(3), ens.distances_from(3))

    @pytest.mark.parametrize("edges, values, match", [
        ([0.0, 0.5, 0.5, 1.0], [[0.0, 1.0, 2.0]], "strictly increasing"),
        ([0.1, 1.0], [[0.0]], "first breakpoint"),
        ([0.0, np.inf], [[0.0]], "breakpoints must be finite"),
        ([0.0, 1.0], [[0.0, 1.0]], "one value per interval"),
        ([0.0, 1.0], [[np.nan]], "values must be finite"),
    ])
    def test_checks_like_step_function(self, edges, values, match):
        with pytest.raises(ValueError, match=match):
            StepFunction(edges, values[0])
        with pytest.raises(ValueError, match=match):
            FunctionEnsemble.from_values(edges, values)

    def test_checks_point_indices(self):
        space = line_points(4, 1.0)
        with pytest.raises(ValueError, match="out of range"):
            FunctionEnsemble.from_values([0.0, 0.5, 1.0], [[0, 1], [2, 4]], space)

    @pytest.mark.parametrize("values", [np.zeros((0, 2)), np.zeros(2)])
    def test_needs_a_nonempty_matrix(self, values):
        with pytest.raises(ValueError, match="nonempty"):
            FunctionEnsemble.from_values([0.0, 0.5, 1.0], values)

    def test_gamma_three_grid_memory(self):
        # 531,441 members; one object each took 274 MB
        tracemalloc.start()
        try:
            ens = block_grid_ensemble(3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(ens) == 81 ** 3
        assert peak < 24 * 2 ** 20


NAN_CALLS = """
import math
from bventropy.entropy_estimator import block_grid_ensemble, empirical_counts, entropy_scan
from bventropy.metric_core import covering_number, farthest_first, line_points, packing_number
space = line_points(20)
pair = line_points(2).dist
for name, call in [
    ("entropy_scan", lambda: entropy_scan(block_grid_ensemble(1), [math.nan])),
    ("empirical_counts", lambda: empirical_counts(block_grid_ensemble(1), math.nan)),
    ("covering_number", lambda: covering_number(space, None, math.nan, mode="greedy")),
    ("packing_number", lambda: packing_number(space, None, math.nan, mode="greedy")),
    ("farthest_first", lambda: farthest_first(lambda i, cols: space.dist[i, cols], 0, math.nan)),
    ("negative_sep", lambda: farthest_first(lambda i, cols: pair[i, cols], 0, -1.0)),
]:
    try:
        call()
    except ValueError:
        print(name)
"""


class TestNanScale:
    """A NaN or negative scale used to loop forever in farthest-first; these
    calls run in a child process with a timeout."""

    def test_library_calls_raise(self):
        proc = run_python("-c", NAN_CALLS)
        assert proc.stdout.split() == ["entropy_scan", "empirical_counts", "covering_number",
                                       "packing_number", "farthest_first",
                                       "negative_sep"], proc.stderr

    def test_scan_subcommand_exits_1(self, tmp_path):
        proc = run_python("-m", "bventropy.cli", "scan", "--out", str(tmp_path / "s"),
                          "--gamma", "1", "--eps-grid", "0.1,nan")
        assert proc.returncode == 1
        assert len(proc.stderr.strip().splitlines()) == 1


class TestNonPositiveScale:
    def test_scan_checks_whole_grid_first(self, monkeypatch):
        ens = random_bv_ensemble(10, 1.0, 1.0, seed=2)

        def refuse(self):
            raise AssertionError("matrix built before the grid was checked")
        monkeypatch.setattr(FunctionEnsemble, "distance_matrix", refuse)
        for grid in ([0.1, 0.0], [0.1, -0.1], [np.nan], [0.1, np.nan]):
            with pytest.raises(ValueError):
                entropy_scan(ens, grid)

    @pytest.mark.parametrize("eps", [0.0, -1.0])
    def test_counts_reject(self, eps):
        with pytest.raises(ValueError):
            empirical_counts(two_constants(1.0), eps)
        with pytest.raises(ValueError):
            packing_number(line_points(5), None, eps, mode="greedy")
