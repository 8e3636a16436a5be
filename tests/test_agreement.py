"""Agreement of the greedy kernels and the chain DP with recorded outputs.

The digest below was recorded before the farthest-first, set-cover and
chain-DP copies were merged into one kernel each; any change to a count, a
witness, a CSV value or a chain shows up here.  A hypothesis property test
checks the two greedy kernels against their defining properties and, on
small spaces, against the exhaustive oracles; another checks that
farthest-first on the live set picks what the reference traversal, with a
full row per pick, picks, also where the value-matrix oracle returns only
the run of members a pick can move, whose entries must be the full row's;
and one more that the set cover, which finishes its one-point steps at
once, picks what the reference with one pick per step picks, or raises as
it does.

A second digest, recorded while the chain DP still ran over every cell and
snapshots were thinned above 4,096 cells, pins what the conservation-law
pipeline certifies about Godunov snapshots under their flux gauges.

A third digest, recorded while the scalar Godunov flux and the array kernel
were still two implementations, pins the Godunov scheme itself: the cells,
mass and largest TV increase of `evolve` and the interface flux between
each two states of a grid, for fluxes with zero, one and two critical
points.  Three hypothesis tests check the Godunov kernel against the
full-array reference in `conftest.py`, `evolve` and the batched stepper
against the reference step loop there, and the flux's Horner evaluation
against `P.polyval`, bit for bit.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P

from bventropy.bv_codec import encode_bvpsi
from bventropy.claw import (
    CFL,
    Flux,
    _Kernel,
    _evolve_rows,
    evolve,
    flux_gauge,
    make_grid,
    to_step_function,
)
from bventropy.entropy_estimator import (
    ClassParams,
    FunctionEnsemble,
    block_grid_ensemble,
    entropy_scan,
    from_witness_family,
    random_bv_ensemble,
    random_bvpsi_ensemble,
)
from bventropy.errors import NetIncomplete, SeparationFailure
from bventropy.gauge_variation import Gauge, StepFunction, tv_psi
from bventropy.metric_core import (
    covering_number,
    dimension_report,
    farthest_first,
    from_points,
    greedy_set_cover,
    line_points,
    packing_number,
)
from bventropy.witness_lab import build_family, verify_packing

from conftest import (
    oracle_cover,
    oracle_pack,
    random_metric_matrix,
    random_step_function,
    reference_evolve,
    reference_farthest_first,
    reference_godunov,
    reference_greedy_cover,
    run_python,
    tv_psi_chain,
)

GOLDEN = "9fe2780272c6a70dc4b93cc407a95b4c6bf75039f7e7e88f2aeba3a9078377c5"
SNAPSHOT_GOLDEN = "625cf0e4c2fd56f5265b53d4a88b15918f745968aeb73202749820005afc8dee"
EVOLVE_GOLDEN = "c192595cf8f1b56f44351c9135016c7a004b9273afaf2d6c7db96a8e70609799"
EVOLVE_FLUXES = ("burgers", "cubic", "quartic", "poly:0;-0.3;0;1",
                 "poly:0.1;0.2;-0.5;0;0.8")
# zero coefficients of either sign: skipped adds, the top nonzero coefficient
# below the top, a -0.0 constant term and a constant flux
SIGNED_ZERO_FLUXES = ("poly:0;1;0", "poly:0;0;0;0;1", "poly:-0;0;1",
                      "poly:0;-0;0.5;-0", "poly:-0;1;-0;-1;0", "poly:0.5;0")


def _cover_pack_lines():
    rng = np.random.default_rng(404)
    for n, dim in ((12, 1), (30, 2), (60, 3)):
        space = from_points(rng.uniform(0.0, 1.0, size=(n, dim)))
        subsets = [None, np.arange(n)[::2], rng.permutation(n)[: n // 2 + 1]]
        for alpha in (0.05, 0.15, 0.4):
            for sub in subsets:
                for fn in (covering_number, packing_number):
                    yield fn(space, sub, alpha, mode="greedy").csv_row()
                    if n <= 16:
                        yield fn(space, sub, alpha, mode="exact").csv_row()
    for seed in range(3):
        space = random_metric_matrix(np.random.default_rng(seed), 9)
        for alpha in (0.3, 0.6):
            sub = np.random.default_rng(seed).permutation(9)[:5]
            for fn in (covering_number, packing_number):
                yield fn(space, sub, alpha, mode="greedy").csv_row()
                yield fn(space, sub, alpha, mode="exact").csv_row()
    yield dimension_report(line_points(12, 1.0), (0.1, 0.5)).csv_row()
    yield dimension_report(from_points(rng.uniform(0, 1, (40, 2))), (0.05, 0.4)).csv_row()


def _scan_lines():
    for gamma, spacing in ((1, 0.01), (2, 0.01)):
        ens = block_grid_ensemble(gamma, spacing=spacing)
        params = ClassParams(L=1.0, V=1.0, gauge=Gauge.power(gamma))
        yield entropy_scan(ens, [0.2, 0.1, 0.05, 0.025], params).to_csv()
    yield entropy_scan(random_bv_ensemble(100, 1.0, 1.0, seed=5),
                       [0.1, 0.05]).to_csv()
    yield entropy_scan(random_bvpsi_ensemble(100, 1.0, 1.0, Gauge.power(2), seed=6),
                       [0.1, 0.05]).to_csv()


def _witness_lines():
    for eps, center in ((1 / 256, 8), (1 / 128, 3)):
        fam = build_family(1.0, 1.0, eps, Gauge.identity(), line_points(17, 1.0),
                           center, 1.0)
        yield verify_packing(fam).csv_row()


def _chain_lines():
    rng = np.random.default_rng(77)
    gauges = (Gauge.identity(), Gauge.power(2), Gauge.power(1.5))
    for _ in range(60):
        k = int(rng.integers(1, 40))
        # rounded values make ties between chains common
        vals = np.round(rng.uniform(0.0, 1.0, size=k), 1)
        f = StepFunction(np.linspace(0.0, 1.0, k + 1), vals)
        for g in gauges:
            val, chain = tv_psi_chain(f, g)
            yield f"{val!r},{tv_psi(f, g)!r},{chain}"
    space = line_points(7, 1.0)
    for _ in range(10):
        vals = rng.integers(0, 7, size=12)
        f = StepFunction(np.linspace(0.0, 1.0, 13), vals, space)
        val, chain = tv_psi_chain(f, Gauge.power(2))
        yield f"{val!r},{chain}"


def test_golden_digest():
    h = hashlib.sha256()
    for part in (_cover_pack_lines, _scan_lines, _witness_lines, _chain_lines):
        for line in part():
            h.update(line.encode() + b"\n")
    assert h.hexdigest() == GOLDEN


def _snapshot_lines():
    # seeded piecewise-constant data on [-1, 1], evolved under each flux at
    # M = 0.5 and dx = 0.002, measured and encoded under the flux gauge
    rng = np.random.default_rng(2024)
    L, M, dx = 1.0, 0.5, 0.002
    for name in ("burgers", "cubic", "quartic"):
        flux = Flux.parse(name, M)
        gauge = flux_gauge(flux, M, np.linspace(0.05, 2.0 * M, 10)).gauge
        for T in (0.5, 1.0, 0.5, 1.0):
            x = make_grid(L, M, T, flux, dx)
            edges = np.concatenate([[-L], np.sort(rng.uniform(-L, L, 4)), [L]])
            levels = rng.choice((-1.0, 1.0), 5) * rng.uniform(0.25, 1.0, 5) * M
            u0 = np.zeros_like(x)
            for lo, hi, v in zip(edges[:-1], edges[1:], levels):
                u0[(x >= lo) & (x < hi)] = v
            snap = to_step_function(evolve(u0, flux, T, dx, x=x))
            V = tv_psi(snap, gauge)
            _, chain = tv_psi_chain(snap, gauge)
            bits = [encode_bvpsi(snap, gauge, V, eps).bit_length for eps in (0.1, 0.05)]
            yield f"{name},{T},{snap.k},{V!r},{chain},{bits}"


def test_snapshot_digest():
    h = hashlib.sha256()
    for line in _snapshot_lines():
        h.update(line.encode() + b"\n")
    assert h.hexdigest() == SNAPSHOT_GOLDEN


def _evolve_lines():
    # seeded piecewise-constant data on [-1, 1] with |u| <= M = 1, evolved by
    # the Godunov scheme; the interface flux is taken on a 9 x 9 grid of states
    rng = np.random.default_rng(7)
    L = 1.0
    for token in EVOLVE_FLUXES:
        flux = Flux.parse(token)
        for dx in (0.01, 0.004):
            for T in (0.3, 1.0):
                x = make_grid(L, flux.M, T, flux, dx)
                edges = np.concatenate([[-L], np.sort(rng.uniform(-L, L, 5)), [L]])
                levels = rng.uniform(-flux.M, flux.M, 6)
                u0 = np.zeros_like(x)
                for lo, hi, v in zip(edges[:-1], edges[1:], levels):
                    u0[(x >= lo) & (x < hi)] = v
                sol = evolve(u0, flux, T, dx, x=x)
                cells = hashlib.sha256(sol.cells.tobytes()).hexdigest()
                yield f"{token},{dx},{T},{cells},{sol.max_tv_increase!r},{sol.mass!r}"
        states = np.linspace(-flux.M, flux.M, 9)
        pairs = np.stack(np.meshgrid(states, states, indexing="ij"), axis=-1).reshape(-1, 2)
        yield ",".join(repr(float(F)) for F in _Kernel(flux, pairs).fluxes()[:, 0])


def test_evolve_digest():
    h = hashlib.sha256()
    for line in _evolve_lines():
        h.update(line.encode() + b"\n")
    assert h.hexdigest() == EVOLVE_GOLDEN


def _states(flux: Flux) -> list:
    # each critical point exactly and its float neighbours, both zeros and a
    # coarse grid; drawing a state twice gives ties
    c = flux.critical_points
    return [float(v) for v in np.concatenate([
        np.linspace(-flux.M, flux.M, 9), c, np.nextafter(c, -np.inf),
        np.nextafter(c, np.inf), [0.0, -0.0]])]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(token=st.sampled_from(EVOLVE_FLUXES + SIGNED_ZERO_FLUXES), data=st.data())
def test_godunov_matches_reference(token, data):
    flux = Flux.parse(token)
    u = np.array(data.draw(st.lists(st.sampled_from(_states(flux)),
                                    min_size=2, max_size=40)))
    assert _Kernel(flux, u).fluxes().tobytes() == reference_godunov(flux, u).tobytes()


@settings(max_examples=150, derandomize=True, deadline=None)
@given(token=st.sampled_from(EVOLVE_FLUXES + SIGNED_ZERO_FLUXES),
       T=st.sampled_from((0.0, 0.013, 0.1)), data=st.data())
def test_evolve_matches_reference(token, T, data):
    # rows of drawn states between runs of zeros, tiny values and -0.0 wide
    # enough for the waves; evolve takes one row, the stepper all at once
    flux = Flux.parse(token)
    dx, pad = 0.05, 12
    n, m = data.draw(st.integers(1, 30)), data.draw(st.integers(1, 3))
    quiet = st.sampled_from((0.0, -0.0, 5e-324, -1e-13))
    rows = np.array([data.draw(st.lists(quiet, min_size=pad, max_size=pad))
                     + data.draw(st.lists(st.sampled_from(_states(flux)),
                                          min_size=n, max_size=n))
                     + data.draw(st.lists(quiet, min_size=pad, max_size=pad))
                     for _ in range(m)])
    x = (np.arange(rows.shape[1]) - rows.shape[1] / 2 + 0.5) * dx
    sols = [evolve(rows[0], flux, T, dx, x=x)] + _evolve_rows(rows, flux, T, dx, CFL, x)
    for row, sol in zip(np.concatenate([rows[:1], rows]), sols):
        cells, mass, max_tv_increase = reference_evolve(row, flux, T, dx)
        assert sol.cells.tobytes() == cells.tobytes()
        assert repr((sol.mass, sol.max_tv_increase)) == repr((mass, max_tv_increase))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(token=st.sampled_from(EVOLVE_FLUXES + SIGNED_ZERO_FLUXES),
       values=st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6))
def test_flux_horner_matches_polyval(token, values):
    flux = Flux.parse(token)
    for u in (values[0], np.float64(values[1]), np.array(values),
              np.array(values).reshape(2, 3)):
        for got, coeffs in ((flux(u), flux.coeffs), (flux.df(u), flux._d1)):
            want = P.polyval(u, coeffs)
            assert type(got) is type(want) and np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    n=st.integers(1, 9),
    dim=st.integers(1, 2),
    seed=st.integers(0, 2 ** 16),
    sep=st.floats(0.02, 0.8),
    start=st.integers(0, 8),
    grow=st.floats(1.0, 4.0),
)
def test_greedy_kernels_properties(n, dim, seed, sep, start, grow):
    rng = np.random.default_rng(seed)
    # coordinates on a 0.05 grid produce distance ties
    space = from_points(np.round(rng.uniform(0.0, 1.0, size=(n, dim)) * 20) / 20)
    start %= n
    chosen, radii = farthest_first(lambda i, cols, reach: space.dist[i, cols], start, sep)
    assert chosen[0] == start and len(set(chosen)) == len(chosen)
    # insertion radii: inf first, never increasing, each the pick's distance
    # to the earlier picks; a larger separation, a radius itself included,
    # stops the same run at the prefix of radii above it
    assert radii[0] == np.inf and len(radii) == len(chosen)
    assert all(a >= b for a, b in zip(radii, radii[1:]))
    for k in range(1, len(chosen)):
        assert radii[k] == space.dist[chosen[k], chosen[:k]].min()
    for wider in [sep * grow] + radii[1:]:
        keep = sum(r > wider for r in radii)
        assert farthest_first(lambda i, cols, reach: space.dist[i, cols], start, wider) == (
            chosen[:keep], radii[:keep])
    sub = space.dist[np.ix_(chosen, chosen)]
    assert np.all(sub[np.triu_indices(len(chosen), k=1)] > sep)
    assert np.all(space.dist[chosen].min(axis=0) <= sep)
    centers = list(covering_number(space, None, sep, "greedy").witness)
    assert np.all(space.dist[centers].min(axis=0) <= sep)
    # the farthest-first set is a strict packing and a closed cover, so it
    # is sandwiched by the exact counts: N <= |chosen| <= M
    assert oracle_cover(space, None, sep) <= len(chosen) <= oracle_pack(space, None, sep)
    assert len(centers) >= oracle_cover(space, None, sep)


def _traversal_case(kind, rng):
    """(oracle on column subsets, full-row oracle, start, number of points)
    for one kind of input to farthest-first."""
    if kind in ("dense", "batch"):
        # small integer distances: ties everywhere, sep often equal to one
        n = int(rng.integers(1, 200))
        d = np.triu(rng.integers(0, 5, size=(n, n)), 1).astype(float)
        d += d.T
        if kind == "dense":
            return (lambda i, cols, reach: d[i, cols]), d.__getitem__, int(rng.integers(n)), n
        masks = rng.random((int(rng.integers(1, 6)), n)) < 0.6
        masks[np.arange(masks.shape[0]), rng.integers(n, size=masks.shape[0])] = True
        return (lambda i, cols, reach: np.where(masks[:, cols], d[i][:, cols], -np.inf),
                lambda i: np.where(masks, d[i], -np.inf), masks.argmax(axis=1), n)
    if kind == "grid":
        gamma = int(rng.integers(1, 4))
        ens = block_grid_ensemble(gamma, value_range=0.6, spacing=(0.01, 0.04, 0.1)[gamma - 1])
    elif kind == "witness":
        # 125 to 729 members on three blocks
        ens = from_witness_family(build_family(1.0, 1.0, 1 / 256, Gauge.identity(),
                                               line_points(17, 1.0), int(rng.integers(17)), 1.0))
    else:
        # many cells on the common refinement, or no layout at all
        ens = FunctionEnsemble([random_step_function(rng) for _ in range(rng.integers(1, 30))])
        if kind == "pairwise":
            ens._layout = None
    return ens._rows(), ens.distances_from, int(rng.integers(len(ens))), len(ens)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(kind=st.sampled_from(["dense", "batch", "grid", "witness", "refinement", "pairwise"]),
       seed=st.integers(0, 2 ** 16), q=st.floats(0.0, 1.0), half=st.booleans())
def test_live_set_traversal_matches_reference(kind, seed, q, half):
    rows, full, start, n = _traversal_case(kind, np.random.default_rng(seed))
    seen = []

    def counted(i, cols, reach):
        got = rows(i, cols, reach)
        seen.append((got[1] if type(got) is tuple else got).shape[-1])
        return got
    # a separation equal to a distance that occurs, or half of one; witness
    # families run to their smallest distance, so that the live set is compacted
    first = full(start)
    dist = np.unique(first[np.isfinite(first)])
    sep = float(dist[min(1, dist.size - 1) if kind == "witness" else int(q * (dist.size - 1))])
    sep *= 0.5 if half else 1.0
    got = farthest_first(counted, start, sep)
    if kind == "batch":
        got = _rows_as_lists(got[0]), _rows_as_lists(got[1], got[0] >= 0)
    assert got == reference_farthest_first(full, start, sep)
    if kind == "witness" and n > 1:
        assert min(seen) < n


def test_batch_traversal_keeps_every_point():
    # A batch's rows are dense, so it neither checks for dead points nor
    # narrows a row; one problem on the same matrix drops its dead points.
    d = from_points(np.random.default_rng(11).uniform(0.0, 1.0, size=(300, 2))).dist
    seen = {"batch": [], "one": []}

    def rows(kind):
        def run(i, cols, reach):
            seen[kind].append(cols)
            return d[i][..., cols]
        return run
    starts, sep = np.array([0, 5, 7, 5]), 0.3
    chosen, radii = farthest_first(rows("batch"), starts, sep)
    assert all(cols == slice(None) for cols in seen["batch"])
    assert (_rows_as_lists(chosen), _rows_as_lists(radii, chosen >= 0)) == \
        reference_farthest_first(d.__getitem__, starts, sep)
    assert farthest_first(rows("one"), 0, sep) == reference_farthest_first(d.__getitem__, 0, sep)
    assert any(type(cols) is np.ndarray for cols in seen["one"])


def _rows_as_lists(rows, keep=None):
    """A batch result of the kernels, padded rows, as one list per problem."""
    keep = rows >= 0 if keep is None else keep
    return [row[k].tolist() for row, k in zip(rows, keep)]


def _keyed_layout(rng, m, cells, key, widest, sort=True):
    """(edges, members x cells values) on a few repeated levels.  The cell
    ``key`` is the narrowest or the widest, and the members are sorted by
    it; unsorted, the first member is above the second in every cell."""
    spacing = float(rng.choice([0.1, 1 / 3, 0.01, 2.0 ** -20]))
    values = rng.integers(0, int(rng.integers(1, 6)), size=(m, cells)) * spacing
    if sort:
        values = values[np.argsort(values[:, key], kind="stable")]
    else:
        values[0] = values.max() + spacing
    widths = rng.uniform(1.0, 2.0, size=cells)
    widths[key] = 3.0 if widest else 0.5
    return np.concatenate([[0.0], np.cumsum(widths)]), values


@settings(max_examples=80, derandomize=True, deadline=None)
@given(kind=st.sampled_from(["sorted", "unsorted", "witness"]),
       seed=st.integers(0, 2 ** 16), m=st.integers(1, 60), cells=st.integers(1, 4),
       widest=st.booleans(), q=st.floats(0.0, 1.0), between=st.booleans())
def test_windowed_traversal_matches_reference(kind, seed, m, cells, widest, q, between):
    # the value-matrix oracle's runs against full rows: separations at and
    # between the ensemble's distances, on repeated levels, so that radii
    # and distances tie on a run's edge
    rng = np.random.default_rng(seed)
    if kind == "witness":
        ens = from_witness_family(build_family(1.0, 1.0, 1 / 128, Gauge.identity(),
                                               line_points(9, 1.0), int(rng.integers(9)), 1.0))
    else:
        ens = FunctionEnsemble.from_values(*_keyed_layout(
            rng, max(m, 2) if kind == "unsorted" else m, cells,
            int(rng.integers(cells)), widest, sort=kind == "sorted"))
    dist = np.unique(ens.distance_matrix())
    k = int(q * (dist.size - 1))
    sep = float((dist[k] + dist[min(k + 1, dist.size - 1)]) / 2 if between else dist[k])
    rows, runs = ens._rows(), []

    def counted(i, cols, reach):
        got = rows(i, cols, reach)
        runs.append(type(got) is tuple)
        return got
    start = int(rng.integers(len(ens)))
    assert farthest_first(counted, start, sep) == \
        reference_farthest_first(ens.distances_from, start, sep)
    if kind != "sorted":
        assert not any(runs)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2 ** 16), m=st.integers(1, 40), cells=st.integers(1, 12),
       widest=st.booleans(), subset=st.booleans(), q=st.floats(0.0, 1.0),
       nudge=st.sampled_from([-1, 0, 1, None]))
def test_oracle_runs_hold_the_full_row_floats(seed, m, cells, widest, subset, q, nudge):
    # a run of any width, 0 and 1 included, at a reach equal to a distance,
    # one float either side of it, or the least positive float
    rng = np.random.default_rng(seed)
    ens = FunctionEnsemble.from_values(*_keyed_layout(rng, m, cells, int(rng.integers(cells)),
                                                      widest))
    i = int(rng.integers(m))
    cols = (np.sort(rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False))
            if subset else slice(None))
    want = ens.distances_from(i)[cols]
    d = float(np.unique(want)[int(q * (np.unique(want).size - 1))])
    reach = (math.ulp(0.0) if nudge is None
             else max(math.ulp(0.0), math.nextafter(d, nudge * math.inf) if nudge else d))
    got = ens._rows()(i, cols, reach)
    run, row = got if type(got) is tuple else (slice(None), got)
    assert row.tobytes() == want[run].tobytes()
    assert np.all(np.delete(want, np.arange(want.size)[run]) >= reach)


@pytest.mark.parametrize("cols, width", [([0, 1, 4], 0), ([0, 1, 2, 4], 1),
                                         ([0, 1, 2, 3, 4], 2)])
def test_oracle_runs_of_width_zero_and_one(cols, width):
    # twelve cells, the first the widest and the only sorted one: at the
    # least positive reach a run holds the members whose key equals member
    # 3's; a lone column's twelve terms are added in order, as in the full row
    rng = np.random.default_rng(5)
    values = rng.uniform(0.0, 1.0, size=(5, 12))
    values[:, 0] = [0.0, 0.1, 0.2, 0.2, 0.5]
    ens = FunctionEnsemble.from_values(np.linspace(0.0, 1.0, 13) ** 0.5, values)
    cols = np.array(cols)
    run, row = ens._rows()(3, cols, math.ulp(0.0))
    assert run.stop - run.start == width
    assert row.tobytes() == ens.distances_from(3)[cols][run].tobytes()


def test_oracle_run_keeps_a_member_rounding_brings_below_reach():
    # fl(reach / 3) lies below reach / 3, and member 0 lies just below
    # fl(1 - fl(reach / 3)), where 1 - v rounds down onto fl(reach / 3): its
    # entry is below reach, so the run must hold it
    ens = FunctionEnsemble.from_values([0.0, 3.0], [[-0.030638647378365528], [1.0]])
    reach = 3.091915942135097
    assert ens.distances_from(1)[0] < reach
    got = ens._rows()(1, slice(None), reach)
    assert 0 in range(2)[got[0] if type(got) is tuple else slice(None)]


def test_a_run_without_its_pick_is_refused():
    # a run that leaves out its own pick never lowers that pick's distance:
    # the pick came back at every step, and the picks grew without end
    space = line_points(5)

    def rows(i, cols, reach):
        return space.dist[i, cols] if reach == math.inf else (slice(0, 0), np.empty(0))
    with pytest.raises(SeparationFailure, match="took 5 steps"):
        farthest_first(rows, 0, 0.1)


SKIPPING_SCAN = """
import sys
import numpy as np
from bventropy import cli, entropy_estimator

full = entropy_estimator.l1_row_oracle


def skipping(*layout):
    rows = full(*layout)
    return lambda i, cols, reach=float("inf"): (rows(i, cols, reach) if reach == float("inf")
                                                else (slice(0, 0), np.empty(0)))


entropy_estimator.l1_row_oracle = skipping
sys.exit(cli.main(["scan", "--out", sys.argv[1], "--gamma", "2", "--eps-grid", "0.1"]))
"""


def test_scan_on_a_run_without_its_pick_exits_2(tmp_path):
    proc = run_python("-c", SKIPPING_SCAN, str(tmp_path / "s"))
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and "left out its own pick" in lines[0], proc.stderr


def _cover_or_error(cover, covers, targets):
    try:
        if cover is greedy_set_cover:       # a table of one scale
            batch = np.ones((1, covers.shape[1]), bool) if targets is None else targets
            rows = _rows_as_lists(cover(covers[None], batch[None])[0])
            return rows if targets is not None else rows[0]
        return cover(covers, targets) if targets is not None else cover(covers)
    except NetIncomplete:
        return NetIncomplete


@settings(max_examples=150, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2 ** 16), batch=st.integers(0, 6),
       dup=st.booleans(), hole=st.booleans())
def test_greedy_cover_matches_reference(seed, batch, dup, hole):
    rng = np.random.default_rng(seed)
    cands, points = int(rng.integers(1, 30)), int(rng.integers(1, 50))
    covers = rng.random((cands, points)) < rng.uniform(0.02, 0.4)
    covers[rng.integers(0, cands, points), np.arange(points)] = True
    if dup:
        # repeated candidates: every tie between them goes to the lowest index
        covers = covers[rng.integers(0, cands, 2 * cands)]
    if hole:
        covers[:, rng.integers(points)] = False
    # rows of every density finish at different steps; batch 0 is one problem
    targets = (rng.random((batch, points)) < rng.uniform(0.0, 1.0, (batch, 1))
               if batch else None)
    got = _cover_or_error(greedy_set_cover, covers, targets)
    assert got == _cover_or_error(reference_greedy_cover, covers, targets)
    if hole and targets is None:
        assert got is NetIncomplete
