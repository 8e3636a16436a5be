import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bventropy.errors import (
    AsymmetricMatrix,
    EmptyWindow,
    ExactModeTooLarge,
    NetIncomplete,
    NonzeroDiagonal,
    ScaleViolation,
    SeparationFailure,
    TriangleViolation,
)
from bventropy import metric_core
from bventropy.metric_core import (
    LOG7_2,
    ball_count_bounds,
    covering_number,
    dimension_report,
    from_points,
    lattice,
    line_points,
    packing_number,
    probe_scales,
    validate_metric,
)

from conftest import (
    oracle_cover,
    oracle_pack,
    random_metric_matrix,
    reference_dimension_report,
    reference_exact_cover,
)


class TestValidation:
    def test_single_point(self):
        space = validate_metric([[0.0]])
        assert space.n == 1

    def test_two_points(self):
        space = validate_metric([[0, 1], [1, 0]])
        assert space.n == 2 and space.diameter == 1.0

    def test_triangle_violation_reports_triple(self):
        with pytest.raises(TriangleViolation) as exc:
            validate_metric([[0, 1, 3], [1, 0, 1], [3, 1, 0]])
        assert exc.value.triple == (0, 2, 1)

    def test_asymmetric(self):
        with pytest.raises(AsymmetricMatrix):
            validate_metric([[0, 1], [2, 0]])

    def test_nonzero_diagonal(self):
        with pytest.raises(NonzeroDiagonal):
            validate_metric([[1, 1], [1, 0]])

    @pytest.mark.parametrize("scale", [1e-300, 1e-12, 1.0, 1e300])
    def test_slacks_scale_with_the_entries(self, scale):
        # every check allows 1e-9 relative to the entries, none an absolute 1e-9
        def m(d01, d12, d11=0.0, d10=None):
            d10 = d01 if d10 is None else d10
            return scale * np.array([[0.0, d01, d01], [d10, d11, d12], [d01, d12, 0.0]])

        with pytest.raises(TriangleViolation) as exc:
            validate_metric(m(1e-11, 5e-10))
        assert exc.value.triple == (1, 2, 0)
        ok = m(1e-11, 2e-11)
        assert validate_metric(ok).dist.tolist() == ok.tolist()
        with pytest.raises(AsymmetricMatrix):
            validate_metric(m(1e-11, 2e-11, d10=1.000001e-11))
        with pytest.raises(NonzeroDiagonal):
            validate_metric(m(1e-11, 2e-11, d11=1e-16))
        with pytest.raises(ValueError, match="negative"):
            validate_metric(m(1e-11, -1e-16))

    def test_entries_near_the_float_limit(self):
        # the mean of d and its transpose overflowed to inf, with a warning
        d = [[0.0, 1e308, 1e308], [1e308, 0.0, 1.5e308], [1e308, 1.5e308, 0.0]]
        assert validate_metric(d).dist.tolist() == d

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite(self, bad):
        # a NaN distance is neither within alpha nor beyond it
        with pytest.raises(ValueError, match="non-finite"):
            validate_metric([[0, bad, 1], [bad, 0, 1], [1, 1, 0]])

    def test_non_square(self):
        with pytest.raises(ValueError):
            validate_metric([[0, 1, 2], [1, 0, 1]])


class TestCoverPack:
    # E = {0,1,2,3} equally spaced on a segment of length 3
    @pytest.fixture
    def line4(self):
        return line_points(4, 3.0)

    def test_cover_alpha_1(self, line4):
        assert covering_number(line4, None, 1.0).count == 2

    def test_cover_alpha_half(self, line4):
        assert covering_number(line4, None, 0.5).count == 4

    def test_cover_diameter(self, line4):
        assert covering_number(line4, None, line4.diameter).count == 1

    def test_pack_alpha_1(self, line4):
        assert packing_number(line4, None, 1.0).count == 2

    def test_pack_alpha_2(self, line4):
        res = packing_number(line4, None, 2.0)
        assert res.count == 2 and set(res.witness) == {0, 3}

    def test_pack_singleton(self, line4):
        assert packing_number(line4, [2], 0.1).count == 1

    @pytest.mark.parametrize("mode", ["exact", "greedy"])
    @pytest.mark.parametrize("subset", [[-1], [8], [0.5], np.ones(8, bool), [[0, 1]]],
                             ids=["negative", "past-end", "float", "mask", "2-D"])
    def test_subset_must_be_indices(self, mode, subset):
        # an all-true mask read as indices names point 1 eight times: a cover
        # count of 1 at alpha = 0.05, where the whole space needs 8
        space = line_points(8, 1.0)
        for count in (covering_number, packing_number):
            with pytest.raises(ValueError, match="subset"):
                count(space, subset, 0.05, mode)

    def test_exact_cap(self):
        space = line_points(20, 1.0)
        with pytest.raises(ExactModeTooLarge):
            covering_number(space, None, 0.1, mode="exact")
        with pytest.raises(ExactModeTooLarge):
            packing_number(space, None, 0.1, mode="exact")

    def test_certificates_raise(self, line4, monkeypatch):
        # the cover and separation checks stay on under python -O
        # broken kernels, in their own shapes: one center for every problem,
        # and a run that puts point 1 at 2.0 from point 0, where it lies at 1.0
        monkeypatch.setattr(metric_core, "greedy_set_cover",
                            lambda covers, targets: np.zeros((*targets.shape[:-1], 1), int))
        monkeypatch.setattr(metric_core, "farthest_first",
                            lambda rows, start, sep: ([0, 1], [math.inf, 2.0]))
        with pytest.raises(NetIncomplete):
            covering_number(line4, None, 1.0, mode="greedy")
        with pytest.raises(SeparationFailure):
            packing_number(line4, None, 1.0, mode="greedy")

    def test_cover_witness_covers(self, line4):
        res = covering_number(line4, None, 1.0)
        for p in range(4):
            assert min(line4.dist[c, p] for c in res.witness) <= 1.0

    def test_against_oracles(self, rng):
        for _ in range(15):
            space = random_metric_matrix(rng, int(rng.integers(3, 8)))
            for alpha in space.pairwise_distances():
                a = float(alpha)
                assert covering_number(space, None, a).count == oracle_cover(space, None, a)
                assert packing_number(space, None, a).count == oracle_pack(space, None, a)

    def test_greedy_brackets_exact(self, rng):
        for _ in range(10):
            space = random_metric_matrix(rng, 7)
            for a in space.pairwise_distances():
                a = float(a)
                assert (covering_number(space, None, a, mode="greedy").count
                        >= covering_number(space, None, a).count)
                assert (packing_number(space, None, a, mode="greedy").count
                        <= packing_number(space, None, a).count)

    def test_monotone_in_alpha(self, rng):
        space = random_metric_matrix(rng, 8)
        alphas = space.pairwise_distances()
        covers = [covering_number(space, None, float(a)).count for a in alphas]
        packs = [packing_number(space, None, float(a)).count for a in alphas]
        assert covers == sorted(covers, reverse=True)
        assert packs == sorted(packs, reverse=True)


class TestDimensions:
    def test_single_point(self):
        space = validate_metric([[0.0]])
        with pytest.raises(EmptyWindow):
            dimension_report(space, (0.1, 1.0))

    def test_two_points(self):
        space = validate_metric([[0, 1], [1, 0]])
        rep = dimension_report(space, (0.4, 0.6))
        assert rep.d == 1 and rep.p == 1
        assert rep.p_tilde == pytest.approx(math.log(2) / math.log(7))

    def test_p_zero_beyond_diameter(self):
        space = validate_metric([[0, 1], [1, 0]])
        rep = dimension_report(space, (0.6, 2.0))
        assert rep.p == 0

    def test_line16(self):
        space = line_points(16, 1.0)
        spacing = 1.0 / 15
        rep = dimension_report(space, (spacing, 0.5))
        assert 1 <= rep.d <= 3

    def test_empty_window(self):
        space = line_points(4, 3.0)
        with pytest.raises(EmptyWindow):
            probe_scales(space, (100.0, 200.0))
        with pytest.raises(EmptyWindow):
            probe_scales(space, (1.0, 0.5))

    def test_scale_thinning(self):
        space = line_points(40, 1.0)
        scales = probe_scales(space, (0.01, 1.0), max_scales=16)
        assert scales.size <= 16

    @pytest.mark.parametrize("cap", [0, -1, 1.5, "4", None])
    def test_scale_cap_below_one(self, cap):
        # no scale at all would read d = 0, p = log2(n) from nothing; a cap
        # that is no integer, None included, is refused, not rounded or compared
        space = line_points(8, 1.0)
        with pytest.raises(ValueError, match="max_scales"):
            dimension_report(space, (0.1, 0.5), max_scales=cap)
        with pytest.raises(ValueError, match="max_scales"):
            probe_scales(space, (0.1, 0.5), max_scales=cap)


class TestBallCountBounds:
    def test_example_cover(self):
        lo, hi = ball_count_bounds(2.0, 1.0, d=1, p=1)
        assert hi == 4.0
        assert lo == pytest.approx(0.5 ** LOG7_2)

    def test_zero_exponents(self):
        lo, hi = ball_count_bounds(2.0, 1.0, d=0, p=0)
        assert lo == 1.0 and hi == 1.0

    def test_example_upper_64(self):
        _, hi = ball_count_bounds(4.0, 1.0, d=2, p=1)
        assert hi == 64.0

    def test_scale_violation(self):
        with pytest.raises(ScaleViolation):
            ball_count_bounds(1.0, 1.0, d=1, p=1)

    def test_packing_pair(self):
        lo, hi = ball_count_bounds(2.0, 1.0, d=1, p=1, packing=True)
        assert lo == pytest.approx(1.0)
        assert hi == 8.0


class TestSandwich:
    def test_sandwich_exact(self, rng):
        # M_{2a} <= N_a <= M_a on random small spaces at all distance scales
        for _ in range(20):
            space = random_metric_matrix(rng, int(rng.integers(2, 9)))
            for alpha in space.pairwise_distances():
                a = float(alpha)
                n_a = covering_number(space, None, a).count
                m_a = packing_number(space, None, a).count
                m_2a = packing_number(space, None, 2 * a).count
                assert m_2a <= n_a <= m_a


def test_from_points_1d():
    space = from_points([0.0, 1.0, 3.0])
    assert space.dist[0, 2] == 3.0


@pytest.mark.parametrize("points, match", [
    ([[1e308], [-1e308]], "overflow"),                 # the difference overflows
    ([[0.0, 0.0], [1.5e308, 1.5e308]], "overflow"),    # each difference fits, the norm not
])
def test_from_points_refuses_distances_out_of_float_range(points, match):
    with pytest.raises(ValueError, match=match):
        from_points(points)


def test_from_points_underflow_no_longer_miscounts():
    # Squares of the raw differences underflowed: 1e-170 apart read as 0,
    # so one 1e-171-ball covered three distinct points, and 3e-162 read as
    # 3.14e-162, so the 3e-162 cover took 3 balls, not 1.  Each pair is
    # scaled by a power of two first, so every distance below is exact.
    sqrt2 = math.sqrt(2.0)
    table = [   # points, first row of distances, alpha, exact cover count
        ([[0.0], [1e-170], [2e-170]], [0.0, 1e-170, 2e-170], 1e-171, 3),
        ([[0.0], [3e-162], [6e-162]], [0.0, 3e-162, 6e-162], 3e-162, 1),
        ([[0.0], [1e-150], [2e-150]], [0.0, 1e-150, 2e-150], 1e-151, 3),
        ([[0.0], [5e-324]], [0.0, 5e-324], 5e-324, 1),
        ([[0.0, 0.0], [2.0 ** -565, 2.0 ** -565]], [0.0, math.ldexp(sqrt2, -565)], 1e-171, 2),
        ([[1e200], [-1e200]], [0.0, 2e200], 2e200, 1),
    ]
    for points, row, alpha, count in table:
        space = from_points(points)
        assert space.dist[0].tolist() == row, points
        assert covering_number(space, None, alpha, "exact").count == count, points


def test_spaces_compare_by_identity():
    # Equal matrices are still two spaces: == neither raises nor looks inside.
    a, b = line_points(3), line_points(3)
    assert a == a and not a != a
    assert a != b and not a == b
    assert {a: 1, b: 2}[a] == 1 and len({a, b, a}) == 2


def test_csv_row():
    res = covering_number(line_points(4, 3.0), None, 1.0)
    row = res.csv_row()
    assert row.startswith("1.0,2,exact,")


# ---------------------------------------------------------------------------
# the batched dimension sweep against the per-ball loop


def _sweep_space(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "line":
        return line_points(n, 1.0)
    if kind == "lattice":
        return lattice(2, max(2, int(round(math.sqrt(n)))))
    if kind == "grid":
        # coordinates on a 0.1 grid: tie distances and many equal balls
        return from_points(np.round(rng.uniform(0.0, 1.0, size=(n, 2)) * 10) / 10)
    return from_points(rng.uniform(0.0, 1.0, size=(n, 2)))


def _check_sweep_table(space, scales):
    """The sweep's table holds one row per ball B(x, 2a) of every point x at
    each scale a, in (scale, x) order, with the witnesses of the public greedy
    per-ball calls.  Returns its chunks."""
    every, chunks, lo = np.arange(space.n), [], 0
    for covers, packs in zip(metric_core._table(space, every, scales, "greedy", False, True),
                             metric_core._table(space, every, scales, "greedy", True, True)):
        assert covers.shape[:2] == packs.shape[:2] == (covers.shape[0], space.n)
        chunks.append((np.repeat(np.arange(lo, lo + len(covers)), space.n),
                       np.tile(every, len(covers)), covers.reshape(-1, covers.shape[-1]),
                       packs.reshape(-1, packs.shape[-1])))
        lo += len(covers)
    s, x = (np.concatenate(column) for column in list(zip(*chunks))[:2])
    for k in range(len(scales)):
        assert x[s == k].tolist() == list(range(space.n))
    assert np.all(np.diff(s) >= 0)
    for chunk in chunks:
        for k, center, centers, points in zip(*chunk):
            ball = space.ball(center, 2.0 * scales[k])
            assert tuple(centers[centers >= 0].tolist()) == covering_number(
                space, ball, scales[k], "greedy").witness
            assert tuple(points[points >= 0].tolist()) == packing_number(
                space, ball, scales[k], "greedy").witness
    return chunks


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    kind=st.sampled_from(["line", "lattice", "grid", "uniform"]),
    greedy=st.booleans(),
    size=st.integers(0, 23),
    seed=st.integers(0, 2 ** 16),
    lo=st.floats(0.0, 0.8),
    width=st.floats(1.0, 4.0),
)
def test_dimension_sweep_matches_per_ball_loop(kind, greedy, size, seed, lo, width):
    n = 17 + size if greedy else 2 + size % 11
    space = _sweep_space(kind, n, seed)
    d = space.pairwise_distances()
    a = float(d[int(lo * (d.size - 1))])
    window = (a, width * a)
    rep = dimension_report(space, window, max_scales=6)
    assert rep.mode == ("greedy" if space.n > 16 else "exact")
    assert rep == reference_dimension_report(space, window, max_scales=6)
    _check_sweep_table(space, np.array(rep.scales))


@settings(max_examples=24, derandomize=True, deadline=None)
@given(
    kind=st.sampled_from(["uniform", "grid"]),
    greedy=st.booleans(),
    size=st.integers(0, 23),
    seed=st.integers(0, 2 ** 16),
    lo=st.floats(0.0, 1.0),
)
def test_dimension_sweep_where_most_balls_coincide(kind, greedy, size, seed, lo):
    # Every point is its own problem, so the sweep must hold where most
    # problems are equal: windows up to the diameter, whose top scales make
    # every ball the whole space, and points on a 0.1 grid of fewer
    # positions than points, so that some coincide.
    n = 17 + size if greedy else 5 + size % 12
    rng = np.random.default_rng(seed)
    if kind == "grid":
        side = max(2, math.isqrt(n // 2))
        cells = np.concatenate([np.arange(side * side),
                                rng.integers(0, side * side, n - side * side)])
        space = from_points(np.stack(np.divmod(rng.permutation(cells), side), axis=1) / 10)
        assert space.pairwise_distances().size and np.any(space.dist + np.eye(n) == 0)
    else:
        space = from_points(rng.uniform(0.0, 1.0, size=(n, 2)))
    d = space.pairwise_distances()
    window = (float(d[int(lo * (d.size - 1))]) / 2.0, space.diameter)
    with pytest.MonkeyPatch.context() as mp:
        log = _record_exact_searches(mp)
        rep = dimension_report(space, window, max_scales=8)
    assert rep.mode == ("greedy" if greedy else "exact")
    assert np.all(space.dist <= 2.0 * rep.scales[-1])     # the top balls are the space
    if not greedy:
        _check_stop_rules(log, rep, space.n)
    assert rep == reference_dimension_report(space, window, max_scales=8)
    _check_sweep_table(space, np.array(rep.scales))


def test_batched_certificates_raise(monkeypatch):
    space = line_points(20, 1.0)
    # one pick per (scale, ball) problem, padded rows as the kernel returns them
    monkeypatch.setattr(metric_core, "greedy_set_cover",
                        lambda covers, targets: np.zeros((*targets.shape[:-1], 1), int))
    with pytest.raises(NetIncomplete):
        dimension_report(space, (0.05, 0.5))
    monkeypatch.undo()
    monkeypatch.setattr(metric_core, "farthest_first",
                        lambda rows, start, sep: (np.tile([0, 1], (len(start), 1)),
                                                  np.tile([math.inf, 0.0], (len(start), 1))))
    with pytest.raises(SeparationFailure):
        dimension_report(space, (0.05, 0.5))


def _record_exact_searches(monkeypatch):
    """Wrap the sweep's exact (scale, ball) problems: each logs its ball's
    greedy count and the exact count it found.  The searches themselves are
    counted."""
    log = {"cover": [], "pack": [], "_exact_cover": 0, "_exact_pack": 0}
    table = metric_core._table

    def recorded(space, k, alphas, mode, pack, balls=False):
        for found in table(space, k, alphas, mode, pack, balls):
            if mode == "exact":
                greedy = next(table(space, k, alphas, "greedy", pack))
                log["pack" if pack else "cover"].append(
                    (int(np.count_nonzero(greedy >= 0)), int(np.count_nonzero(found >= 0))))
            yield found

    def counted(name, search):
        def run(*args):
            log[name] += 1
            return search(*args)
        return run
    for name in ("_exact_cover", "_exact_pack"):
        monkeypatch.setattr(metric_core, name, counted(name, getattr(metric_core, name)))
    monkeypatch.setattr(metric_core, "_table", recorded)
    return log


def _check_stop_rules(log, rep, n):
    """Covers ran in descending greedy count U, each while U > 2**ceil(log2 M)
    for the largest exact count M before it; packings in ascending greedy
    count l, each while l < 2**floor(log2 m) for the smallest m before it.
    Their extremes give d and p."""
    assert (log["_exact_cover"], log["_exact_pack"]) == (len(log["cover"]), len(log["pack"]))
    top, low = 1, n
    assert [u for u, _ in log["cover"]] == sorted((u for u, _ in log["cover"]), reverse=True)
    for u, exact in log["cover"]:
        assert exact <= u > 1 << (top - 1).bit_length()
        top = max(top, exact)
    assert [ell for ell, _ in log["pack"]] == sorted(ell for ell, _ in log["pack"])
    for ell, exact in log["pack"]:
        assert exact >= ell < 1 << (low.bit_length() - 1)
        low = min(low, exact)
    assert (rep.d, rep.p) == ((top - 1).bit_length(), low.bit_length() - 1)


def test_exact_searches_only_where_d_or_p_can_move(monkeypatch):
    space, window = lattice(2, 4, 1.0), (1.0, 3.0)
    log = _record_exact_searches(monkeypatch)
    rep = dimension_report(space, window)
    assert rep.mode == "exact"
    balls = sum(len({row.tobytes() for row in space.dist <= 2.0 * a}) for a in rep.scales)
    assert 0 < log["_exact_cover"] < balls and 0 < log["_exact_pack"] < balls
    _check_stop_rules(log, rep, space.n)
    monkeypatch.undo()
    assert rep == reference_dimension_report(space, window)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(
    kind=st.sampled_from(["line", "lattice", "grid", "uniform", "graph"]),
    size=st.integers(0, 14),
    seed=st.integers(0, 2 ** 16),
    lo=st.floats(0.0, 0.5),
    width=st.floats(2.0, 64.0),
)
def test_exact_sweep_at_full_scale_cap(kind, size, seed, lo, width):
    # 2 to 16 points, most often near 16, with windows wide enough to reach
    # the 64-scale cap
    n = 16 - size
    space = (random_metric_matrix(np.random.default_rng(seed), n) if kind == "graph"
             else _sweep_space(kind, n, seed))
    d = space.pairwise_distances()
    a = float(d[int(lo * (d.size - 1))]) / 2.0
    window = (a, width * a)
    with pytest.MonkeyPatch.context() as mp:
        log = _record_exact_searches(mp)
        rep = dimension_report(space, window)
    assert rep.mode == "exact" and len(rep.scales) <= 64
    _check_stop_rules(log, rep, space.n)
    assert rep == reference_dimension_report(space, window)


@pytest.mark.parametrize("n, window, cap, scales, chunks", [
    (16, None, 240, 240, 4),            # exact: every scale, in chunks of 64
    (40, (0.05, 0.4), 64, 64, 7),       # greedy: the 64-scale cap, in chunks of 10
])
def test_dimension_sweep_across_chunks(n, window, cap, scales, chunks):
    space = _sweep_space("uniform", n, 0)
    if window is None:                  # every pairwise distance and its half
        window = (space.pairwise_distances()[0] / 2.0, space.diameter)
    with pytest.MonkeyPatch.context() as mp:
        log = _record_exact_searches(mp)
        rep = dimension_report(space, window, max_scales=cap)
    assert rep.mode == ("exact" if n <= 16 else "greedy") and len(rep.scales) == scales
    assert len(_check_sweep_table(space, np.array(rep.scales))) == chunks
    if rep.mode == "exact":
        _check_stop_rules(log, rep, space.n)
    assert rep == reference_dimension_report(space, window, max_scales=cap)


def test_dimension_sweep_memory():
    # 600 points in the plane: a (balls x candidates x points) boolean array
    # for one scale would alone take 600**3 bytes = 216 MB; the sweep keeps
    # each step to (balls x points) arrays of a few MB.
    space = from_points(np.random.default_rng(7).uniform(0.0, 1.0, size=(600, 2)))
    tracemalloc.start()
    try:
        rep = dimension_report(space, (0.1, 0.11), max_scales=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.mode == "greedy" and len(rep.scales) == 1
    assert peak < 32e6


# ---------------------------------------------------------------------------
# the pruned exact cover and counts over a sequence of scales


@settings(max_examples=120, derandomize=True, deadline=None)
@given(
    kind=st.sampled_from(["uniform", "grid", "line", "graph"]),
    n=st.integers(1, 14),
    seed=st.integers(0, 2 ** 16),
    q=st.floats(0.0, 1.0),
    half=st.booleans(),
    part=st.booleans(),
)
def test_exact_cover_matches_combinations(kind, n, seed, q, half, part):
    # scales at a distance that occurs (ties) or half of one, on the whole
    # space or on a subset in no particular order
    rng = np.random.default_rng(seed)
    space = random_metric_matrix(rng, n) if kind == "graph" else _sweep_space(kind, n, seed)
    d = space.pairwise_distances()
    alpha = float(d[int(q * (d.size - 1))]) * (0.5 if half else 1.0) if d.size else 1.0
    subset = rng.permutation(n)[:int(rng.integers(1, n + 1))] if part else None
    k = np.arange(n) if subset is None else subset
    masks, target = metric_core._bitmasks(space.dist[:, k] <= alpha), (1 << k.size) - 1
    assert metric_core._exact_cover(masks, target) == reference_exact_cover(masks, target)
    assert covering_number(space, subset, alpha, "exact").count == \
        oracle_cover(space, subset, alpha)


def test_exact_cover_refuses_an_uncovered_point():
    for masks in ([0b001, 0b010], [0, 0b1000], []):
        with pytest.raises(NetIncomplete):
            metric_core._exact_cover(masks, 0b111)


def test_exact_cover_at_twice_the_cap():
    # 32 points: combinations took 17 s at alpha = 1; the pruned search a
    # few ms at each scale, with a cover no larger than the greedy one
    space = metric_core.uniform_random(32, 10.0, 1, 2)
    for alpha in (1.0, 2.0, 3.0):
        centers = metric_core._exact_cover(metric_core._bitmasks(space.dist <= alpha),
                                           (1 << 32) - 1)
        assert np.all(space.dist[centers].min(axis=0) <= alpha)
        assert len(centers) <= covering_number(space, None, alpha, "greedy").count


@pytest.mark.parametrize("mode", ["exact", "greedy"])
@pytest.mark.parametrize("subset", [None, [9, 2, 5, 2, 11]], ids=["space", "subset"])
def test_scale_sequence_matches_scalar_calls(mode, subset):
    space = metric_core.uniform_random(12, 1.0, 3, 2)
    d = space.pairwise_distances()
    # repeated scales, a tie, a half distance, the diameter, beyond it and inf
    alphas = [float(d[3]), float(d[3]), float(d[20]) / 2, space.diameter, 2 * space.diameter,
              float(d[0]), 0.3, math.inf]
    for count in (covering_number, packing_number):
        each = [count(space, subset, a, mode) for a in alphas]
        assert each[-1].count == 1
        assert count(space, subset, alphas, mode) == each
        assert count(space, subset, np.array(alphas), mode) == each
        assert count(space, subset, tuple(alphas[:1]), mode) == each[:1]
        assert count(space, subset, [], mode) == []
        assert [r.csv_row() for r in count(space, subset, alphas, mode)] == [
            r.csv_row() for r in each]


def test_balls_are_solved_greedily_over_every_point():
    space, scales = metric_core.line_points(5, 1.0), np.array([0.3])
    for k, mode in ((np.arange(5), "exact"), (np.arange(4), "greedy")):
        for pack in (False, True):
            with pytest.raises(ValueError, match="greedily, over every point"):
                next(metric_core._table(space, k, scales, mode, pack, balls=True))


def test_scale_sequence_across_chunks():
    # 40 points take 10 scales a chunk; 39 scales make four chunks
    space = metric_core.uniform_random(40, 1.0, 5, 2)
    alphas = space.pairwise_distances()[::20]
    assert alphas.size == 39 and metric_core._SWEEP_ENTRIES // 40 ** 2 == 10
    for count in (covering_number, packing_number):
        assert count(space, None, alphas, "greedy") == [
            count(space, None, a, "greedy") for a in alphas]


def _refuse(*args, **kwargs):
    raise AssertionError("a search ran before every scale was checked")


@pytest.mark.parametrize("mode", ["exact", "greedy"])
@pytest.mark.parametrize("bad", [0.0, -0.5, math.nan])
def test_bad_scale_anywhere_is_refused_before_any_work(monkeypatch, mode, bad):
    space = line_points(8, 1.0)
    for name in ("_bitmasks", "greedy_set_cover", "farthest_first"):
        monkeypatch.setattr(metric_core, name, _refuse)
    for count in (covering_number, packing_number):
        with pytest.raises(ValueError) as scalar:
            count(space, None, bad, mode)
        for at in range(3):
            alphas = [0.2, 0.3, 0.4]
            alphas[at] = bad
            with pytest.raises(ValueError) as batch:
                count(space, None, alphas, mode)
            assert str(batch.value) == str(scalar.value) == "alpha must be positive"
        with pytest.raises(ValueError, match="1-D sequence"):
            count(space, None, [[0.2, 0.3]], mode)
        # the subset, mode and cap are checked as for one scale
        with pytest.raises(ValueError, match="subset"):
            count(space, [8], [0.2, 0.3], mode)
        with pytest.raises(ValueError, match="subset must be nonempty"):
            count(space, [], [], mode)
    with pytest.raises(ExactModeTooLarge):
        covering_number(line_points(17, 1.0), None, [], "exact")


def test_sequence_over_every_distance_of_a_large_lattice():
    # 256 points: every chunk holds one scale, so the 119 scales of a metric
    # run without --alpha keep the memory of one scalar call
    space = lattice(2, 16)
    alphas = space.pairwise_distances()
    assert alphas.size == 119
    tracemalloc.start()
    try:
        covers = covering_number(space, None, alphas, "greedy")
        packs = packing_number(space, None, alphas, "greedy")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1e6
    assert covers == [covering_number(space, None, a, "greedy") for a in alphas]
    assert packs == [packing_number(space, None, a, "greedy") for a in alphas]
