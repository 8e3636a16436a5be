import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bventropy import metric_core, witness_lab
from bventropy.entropy_estimator import from_witness_family
from bventropy.errors import DegenerateBall, SeparationFailure
from bventropy.gauge_variation import Gauge, l1_distance, l1_row, tv_psi
from bventropy.metric_core import from_points, line_points, validate_metric
from bventropy.witness_lab import (
    SeparationReport,
    WitnessFamily,
    ball_packing,
    build_family,
    family_floor,
    global_family,
    lower_bound_bits,
    _greedy_extract,
    separation_factor,
    verify_packing,
)

from conftest import eta, reference_farthest_first, reference_verify_packing, run_python

LOG2_7 = np.log2(7.0)


def member_row(fam, i):
    """L1 distances from member i to every member, as extraction reads them."""
    return l1_row(np.ascontiguousarray(fam.members.T), fam.members[i],
                  np.diff(fam.block_edges), fam.space)


def pair_distance(fam, i, j):
    """The pair check's own float: L / N1 times the block sum."""
    return float(fam.L / fam.N1 * fam.space.dist[fam.members[i], fam.members[j]].sum())


@pytest.mark.parametrize("name, L, epsilon", [
    ("L", 0.0, 0.01), ("L", -1.0, 0.01), ("L", math.inf, 0.01), ("L", math.nan, 0.01),
    ("epsilon", 1.0, 0.0), ("epsilon", 1.0, -0.01), ("epsilon", 1.0, math.inf),
    ("epsilon", 1.0, math.nan),
])
@pytest.mark.parametrize("builder", ["global", "center"])
def test_families_check_scales_up_front(builder, name, L, epsilon):
    # L = 0 raised ZeroDivisionError; an infinite epsilon built a one-member
    # family with h = inf, and NaN failed later in packing_number or the gauge
    space = line_points(17, 1.0)
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
        if builder == "global":
            global_family(L, 1.0, epsilon, Gauge.identity(), space, 1.0)
        else:
            build_family(L, 1.0, epsilon, Gauge.identity(), space, 0, 1.0)


@pytest.mark.parametrize("p_tilde", [0.0, -1.0, math.nan])
def test_family_refuses_packing_exponent_not_above_zero(p_tilde):
    # 0 raised ZeroDivisionError, and witness clamped it to 1e-9, where
    # 2 ** (2 / p_tilde) overflowed
    with pytest.raises(ValueError, match="p_tilde above 0"):
        build_family(1.0, 1.0, 0.002, Gauge.identity(), line_points(17, 1.0), 8, p_tilde)


class TestBallPacking:
    def test_fine_line(self):
        space = line_points(1024, 1.0)
        points = ball_packing(space, 512, 0.25, 1.0)
        assert points.size >= 4
        sep = separation_factor(1.0) * 0.25
        d = space.dist[np.ix_(points, points)]
        off = d[np.triu_indices(points.size, k=1)]
        assert np.all(off > sep)

    def test_degenerate(self):
        space = validate_metric([[0, 1], [1, 0]])
        with pytest.raises(DegenerateBall):
            ball_packing(space, 0, 0.5, 1.0)

    def test_whole_space_when_h_large(self):
        space = line_points(64, 1.0)
        # the ball is the whole space; the packing is taken at the stated
        # separation 2^-4 * 10 = 0.625, which fits only the two endpoints
        points = ball_packing(space, 0, 10.0, 1.0)
        assert points.size == 2
        assert space.dist[points[0], points[1]] > separation_factor(1.0) * 10.0


class TestEta:
    def test_identical(self):
        assert eta([1, 2, 3], [1, 2, 3]) == 0

    def test_one_diff(self):
        assert eta(["a", "b", "a"], ["a", "a", "a"]) == 1

    def test_all_diff(self):
        assert eta([0, 1, 2, 3, 4], [5, 6, 7, 8, 9]) == 5


class TestBuildFamily:
    def test_parameter_formulas(self):
        # psi = id, L = V = 1, p_tilde = 1, eps = 1/256:
        # h = 2^6/256 = 0.25, N1 = floor(1 / psi(0.5)) + 1 = 3
        space = line_points(17, 1.0)
        fam = build_family(1.0, 1.0, 1 / 256, Gauge.identity(), space, 8, 1.0)
        assert fam.h == pytest.approx(0.25)
        assert fam.N1 == 3

    def test_members_respect_budget(self):
        space = line_points(17, 1.0)
        fam = build_family(1.0, 1.0, 1 / 256, Gauge.identity(), space, 8, 1.0)
        for f in from_witness_family(fam).members:
            assert tv_psi(f, fam.gauge) <= 1.0 + 1e-9

    def test_constant_family_when_n1_is_1(self):
        space = line_points(33, 1.0)
        # a large gauge value forces N1 = 1
        g = Gauge.tabulated([0, 0.1, 10], [0, 5, 500])
        fam = build_family(1.0, 1.0, 0.001, g, space, 16, 1.0)
        assert fam.N1 == 1

    def test_sampling_cap(self, monkeypatch):
        monkeypatch.setattr(witness_lab, "DEFAULT_SAMPLE_SIZE", 200)
        space = line_points(257, 1.0)
        fam = build_family(1.0, 4.0, 1 / 1024, Gauge.identity(), space, 128,
                           1.0, seed=7)
        assert fam.mode == "sampled"
        assert fam.size == 200
        # sampled members are unique
        assert len({tuple(r) for r in fam.members}) == fam.size

    def test_words_past_the_work_bound_are_sampled(self):
        # 201 values on 2 blocks are 40,401 words, too many to list within
        # MAX_FAMILY_WORK, so the family samples 4,096 of them
        fam = build_family(1.0, 1.0, 0.0005, Gauge.identity(), line_points(257, 1.0), 128,
                           metric_core.LOG7_2)
        assert fam.N1 == 2 and fam.A_h.size ** 2 == 40_401
        assert fam.mode == "sampled" and fam.size == witness_lab.DEFAULT_SAMPLE_SIZE == 4096
        assert len({tuple(r) for r in fam.members}) == fam.size


class TestVerifyPacking:
    @pytest.fixture
    def fam(self):
        space = line_points(17, 1.0)
        return build_family(1.0, 1.0, 1 / 256, Gauge.identity(), space, 8, 1.0)

    def test_full_enumeration_separation(self, fam):
        rep = verify_packing(fam)
        assert rep.pairs_checked == fam.size * (fam.size - 1) // 2
        assert rep.min_distance > 0

    def test_floor_met(self, fam):
        rep = verify_packing(fam)
        assert fam.size >= rep.theoretical_floor

    def test_extraction_is_valid_packing(self, fam):
        rep = verify_packing(fam)
        assert rep.extracted_packing_size >= 1
        # independent check of the extracted packing distances
        chosen = _greedy_extract(fam, fam.target_separation)
        assert len(chosen) == rep.extracted_packing_size
        for a in range(len(chosen)):
            row = member_row(fam, chosen[a])
            for b in range(a + 1, len(chosen)):
                assert row[chosen[b]] > fam.target_separation

    def test_single_member(self):
        space = line_points(17, 1.0)
        fam = build_family(1.0, 1.0, 1 / 256, Gauge.identity(), space, 8, 1.0)
        small = type(fam)(
            L=fam.L, V=fam.V, epsilon=fam.epsilon, h=fam.h, N1=fam.N1,
            gauge=fam.gauge, space=fam.space, A_h=fam.A_h,
            members=fam.members[:1], p_tilde=fam.p_tilde, mode=fam.mode,
        )
        rep = verify_packing(small)
        assert rep.extracted_packing_size == 1

    def test_extraction_matches_reference_traversal(self, fam, monkeypatch):
        # 2 eps at twice the least pair distance: verify_packing reaches the
        # extraction, whose live set shrinks on the way
        fam = dataclasses.replace(fam, epsilon=verify_packing(fam).min_distance)
        calls = []
        monkeypatch.setattr("bventropy.witness_lab._greedy_extract",
                            lambda f, sep: calls.append(sep) or _greedy_extract(f, sep))
        rep = verify_packing(fam)
        want = reference_farthest_first(lambda i: member_row(fam, i), 0, fam.target_separation)
        assert calls == [fam.target_separation]
        assert _greedy_extract(fam, fam.target_separation) == want[0]
        assert rep.extracted_packing_size == len(want[0]) < fam.size

    def test_pairwise_matches_l1(self, fam):
        # block-sum and shared-cell row distances equal the generic
        # step-function L1 distance
        members = from_witness_family(fam).members
        for i, j in [(0, 1), (2, 5), (10, 20)]:
            exact = l1_distance(members[i], members[j])
            assert pair_distance(fam, i, j) == pytest.approx(exact, rel=1e-12)
            assert member_row(fam, i)[j] == pytest.approx(exact, rel=1e-12)

    def test_csv_row(self, fam):
        rep = verify_packing(fam)
        row = rep.csv_row()
        assert row.count(",") == 8


class TestSampledVerify:
    """``verify_packing`` checks every pair of a sampled family: the report
    holds the least distance over all pairs, and a failure names the first
    failing pair in row order."""

    @pytest.fixture
    def fam(self, monkeypatch):
        monkeypatch.setattr(witness_lab, "DEFAULT_SAMPLE_SIZE", 200)
        space = line_points(257, 1.0)
        return build_family(1.0, 4.0, 1 / 1024, Gauge.identity(), space, 128,
                            1.0, seed=7)

    def test_exact_minimum_over_all_pairs(self, fam):
        # 200 members on 33 blocks: hardly two differ in one block only, so
        # the minimum comes from the row loop
        rep = verify_packing(fam)
        m = fam.size
        assert rep.pairs_checked == m * (m - 1) // 2
        assert rep.min_distance == min(pair_distance(fam, i, j)
                                       for i in range(m) for j in range(i + 1, m))
        assert rep == reference_verify_packing(fam)

    def test_planted_pair_names_first_failure(self, fam):
        # a copy of member i at j is at distance 0; the row loop names the
        # first pair in row order that breaks the per-block bound
        members = fam.members.copy()
        members[150] = members[40]
        bad = dataclasses.replace(fam, members=members)
        per_block = separation_factor(bad.p_tilde) * bad.L * bad.h / bad.N1
        first = next((a, b) for a in range(bad.size) for b in range(a + 1, bad.size)
                     if pair_distance(bad, a, b)
                     <= per_block * eta(bad.members[a], bad.members[b]) * (1 - 1e-12))
        assert first == (40, 150)
        with pytest.raises(SeparationFailure, match=r"^pair \(40,150\):"):
            verify_packing(bad)

    def test_large_family_exact_minimum(self):
        # 6,561 members: every one of the 21.5 million pairs is certified,
        # and the minimum equals the least block sum over all of them
        fam = build_family(1, 1, 0.002, Gauge.identity(), line_points(33, 1.0), 16, 1)
        rep = verify_packing(fam)
        m = fam.size
        assert m == 6561 and rep.pairs_checked == m * (m - 1) // 2
        least = math.inf
        for lo in range(0, m, 128):
            rows = fam.members[lo:lo + 128]
            d = fam.L / fam.N1 * fam.space.dist[rows[:, None], fam.members[None]].sum(axis=2)
            d[np.arange(rows.shape[0]), np.arange(lo, lo + rows.shape[0])] = np.inf
            least = min(least, float(d.min()))
        assert rep.min_distance == least
        assert rep.extracted_packing_size == m


def _separation_outcome(verify, fam):
    try:
        return verify(fam)
    except SeparationFailure as exc:
        return type(exc), str(exc)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2 ** 16), n1=st.integers(1, 5),
       spread=st.sampled_from([0.5, 0.99, 1.0]), reach=st.sampled_from([0.3, 1.0, 3.0]),
       fault=st.sampled_from([None, None, None, "duplicate", "close"]))
def test_alphabet_certificate_matches_pairwise_reference(seed, n1, spread, reach, fault):
    """Families on random alphabets, enumerated or sampled.  per_block N1 / L
    is ``spread`` times the alphabet's least distance delta (1.0 leaves no
    margin), and 2 eps is ``reach`` times (L / N1) delta.  The faults are a
    repeated row, or per_block N1 / L at 1.5 delta with a planted pair of
    members that differ in one block by the two values delta apart."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 16))
    space = (line_points(n, 1.0), from_points(rng.uniform(0.0, 1.0, (n, 1))),
             from_points(rng.uniform(0.0, 1.0, (n, 2))))[seed % 3]
    alphabet = rng.choice(n, size=int(rng.integers(2, min(n, 7) + 1)), replace=False)
    if alphabet.size ** n1 <= 300 and rng.random() < 0.5:
        members = alphabet[np.array(list(itertools.product(range(alphabet.size), repeat=n1)))]
    else:
        draws = alphabet[rng.integers(0, alphabet.size, (int(rng.integers(1, 150)), n1))]
        _, first = np.unique(draws, axis=0, return_index=True)
        members = draws[np.sort(first)]
    rho = space.dist[np.ix_(alphabet, alphabet)] + np.diag(np.full(alphabet.size, np.inf))
    a, b = np.unravel_index(rho.argmin(), rho.shape)
    if fault == "close":
        spread = 1.5
        members = np.vstack([members[:1], members])
        members[0, 0], members[1, 0] = alphabet[a], alphabet[b]
    elif fault == "duplicate":
        members = np.vstack([members, members[rng.integers(members.shape[0])]])
    p_tilde, L = float(rng.choice([0.5, 1.0, 2.0])), float(rng.uniform(0.5, 2.0))
    fam = WitnessFamily(
        L=L, V=1.0, epsilon=reach * L / n1 * float(rho.min()) / 2.0,
        h=spread * float(rho.min()) / separation_factor(p_tilde), N1=n1,
        gauge=Gauge.identity(), space=space, A_h=alphabet, members=members,
        p_tilde=p_tilde, mode="sampled",
    )
    got = _separation_outcome(verify_packing, fam)
    assert got == _separation_outcome(reference_verify_packing, fam)
    assert (fault is None) == isinstance(got, SeparationReport)


class TestGlobalFamily:
    def test_p_zero_constants(self):
        space = line_points(65, 1.0)
        fam = global_family(1.0, 1.0, 0.01, Gauge.identity(), space, 0.0)
        assert fam.mode == "constants" and fam.N1 == 1
        # constants at a 4 eps packing are pairwise > 2 eps apart in L1
        for i in range(min(fam.size, 10)):
            d = np.delete(member_row(fam, i), i)
            assert np.all(d > fam.target_separation)

    def test_p_zero_constants_verify_at_two_eps(self):
        # there is no separation factor at p_tilde = 0: each pair of
        # constants is checked against 2 eps
        fam = global_family(1.0, 1.0, 0.01, Gauge.identity(), line_points(65, 1.0), 0.0)
        rep = verify_packing(fam)
        m = fam.size
        assert rep.pairs_checked == m * (m - 1) // 2
        assert rep.min_distance == min(pair_distance(fam, i, j)
                                       for i in range(m) for j in range(i + 1, m))
        assert rep.min_distance > fam.target_separation
        assert rep.extracted_packing_size == m and rep.theoretical_floor == 1.0
        # two constants 1/64 apart break the 2 eps = 1/50 bound
        close = dataclasses.replace(fam, members=np.array([[0], [1], [32]]))
        with pytest.raises(SeparationFailure, match=r"^pair \(0,1\):"):
            verify_packing(close)

    def test_cross_center_separation(self, monkeypatch):
        monkeypatch.setattr(witness_lab, "DEFAULT_SAMPLE_SIZE", 30)
        space = line_points(257, 1.0)
        fam = global_family(1.0, 2.0, 1 / 512, Gauge.identity(), space, 1.0)
        assert fam.mode == "global"
        assert fam.size > 30      # more than one center contributed

    def test_members_respect_budget(self, monkeypatch):
        monkeypatch.setattr(witness_lab, "DEFAULT_SAMPLE_SIZE", 20)
        space = line_points(257, 1.0)
        fam = global_family(1.0, 2.0, 1 / 512, Gauge.identity(), space, 1.0)
        for f in from_witness_family(fam).members[:50]:
            assert tv_psi(f, fam.gauge) <= fam.V + 1e-9

    def test_isolated_center_contributes_its_constant(self):
        # point 17 lies 99 away: its ball is itself, so its one-point
        # alphabet gives the single member [17, 17]
        space = from_points(np.r_[np.linspace(0, 1, 17), 100.0])
        fam = global_family(1.0, 1.0, 1 / 256, Gauge.identity(), space, 1.0)
        assert fam.N1 == 2 and fam.size == 82
        assert [r.tolist() for r in fam.members if 17 in r] == [[17, 17]]
        rep = verify_packing(fam)
        assert rep.family_size == 82 and rep.min_distance > fam.target_separation


class TestLowerBoundBits:
    def test_example(self):
        v = lower_bound_bits(1.0, 256.0, 1.0, Gauge.identity(), 1.0)
        assert v == pytest.approx(1.0 / (2 * LOG2_7), rel=1e-12)

    def test_p_zero(self):
        assert lower_bound_bits(0.1, 1.0, 1.0, Gauge.identity(), 0.0, 2.5) == 2.5

    def test_power_variant(self):
        # gamma = 2, eps = 0.1, L = V = p = 1 and diameter 1
        v = lower_bound_bits(0.1, 1.0, 1.0, Gauge.power(2.0), 1.0,
                             1.0 * math.log(max(1.0 * 1.0 / (516 * 0.1), 1.0), 7))
        lead = 1.0 / (2 ** 17 * LOG2_7) / 0.01
        assert v == pytest.approx(lead)   # log term vanishes at this diameter


def test_family_floor_matches_exponent():
    g = Gauge.identity()
    expect = 2.0 ** (1.0 * 1.0 / (2.0 * float(g(2 ** 6 * 2 / 256))))
    assert family_floor(1.0, 1.0, 1 / 256, 1.0, g) == pytest.approx(expect)


def test_family_floor_past_float_range_is_inf():
    # One member on 23,438 blocks: the exponent is far above 1024.
    fam = build_family(1, 3000, 0.001, Gauge.identity(),
                       from_points([0, 1e-6, 0.5, 10]), 0, 1.0)
    assert verify_packing(fam).theoretical_floor == math.inf


def test_member_matrix_sample_above_row_count_returns():
    # 3 values on 4 blocks are 81 rows, fewer than the 100 asked for; the
    # sampler drew forever.  The child's timeout bounds the wait.
    proc = run_python("-c", (
        "import numpy as np\n"
        "from bventropy import witness_lab\n"
        "witness_lab.DEFAULT_SAMPLE_SIZE = 100\n"
        "rows, mode = witness_lab._member_matrix(np.arange(3), 4, seed=0)\n"
        "print(len({tuple(r) for r in rows.tolist()}), rows.shape[1], mode)\n"))
    assert proc.stdout.split() == ["81", "4", "enumerated"], proc.stderr


def test_l1_row_ignores_memory_order():
    # vals[:, idx] is F-ordered, vals.take(idx, axis=1) C-ordered; both rows
    # must sum each column's cells in the same order, bit for bit
    fam = build_family(1, 1, 1 / 256, Gauge.identity(), line_points(17, 1.0), 8, 1.0)
    vals, w = np.ascontiguousarray(fam.members.T), np.diff(fam.block_edges)
    assert vals.shape == (3, 729)
    idx = np.sort(np.random.default_rng(0).choice(729, 465, replace=False))
    assert vals[:, idx].flags.f_contiguous and not vals[:, idx].flags.c_contiguous
    for i in (0, 100, 728):
        want = l1_row(vals.take(idx, axis=1), vals[:, i], w, fam.space)
        assert l1_row(vals[:, idx], vals[:, i], w, fam.space).tobytes() == want.tobytes()
        assert l1_row(np.asfortranarray(vals), vals[:, i], w, fam.space)[idx].tobytes() == \
            want.tobytes()
