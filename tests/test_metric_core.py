import math

import numpy as np
import pytest

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
    line_points,
    packing_number,
    probe_scales,
    validate_metric,
)

from conftest import oracle_cover, oracle_pack, random_metric_matrix


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

    def test_exact_cap(self):
        space = line_points(20, 1.0)
        with pytest.raises(ExactModeTooLarge):
            covering_number(space, None, 0.1, mode="exact")
        with pytest.raises(ExactModeTooLarge):
            packing_number(space, None, 0.1, mode="exact")

    def test_certificates_raise(self, line4, monkeypatch):
        # the cover and separation checks stay on under python -O
        monkeypatch.setattr(metric_core, "_greedy_cover", lambda space, k, alpha: [0])
        monkeypatch.setattr(metric_core, "_greedy_pack", lambda space, k, alpha: [0, 1])
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


def test_csv_row():
    res = covering_number(line_points(4, 3.0), None, 1.0)
    row = res.csv_row()
    assert row.startswith("1.0,2,exact,")
