import dataclasses
import hashlib
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bventropy.bv_codec import (
    BitReader,
    Codeword,
    Net,
    QuantizerGrid,
    RealInterval,
    adaptive_coarsen,
    bv_budget_bits,
    choose_params,
    decode,
    encode_bv,
    encode_bvpsi,
    net_from_token,
    quantize_positions,
    read_codeword,
    upper_bound_bits,
    write_codeword,
    _pack_bits,
)
from bventropy import bv_codec, metric_core
from bventropy.entropy_estimator import random_bv_ensemble, random_bvpsi_ensemble
from bventropy.errors import (
    BudgetViolation, CorruptStream, EpsilonTooLarge, EpsilonTooSmall, NetIncomplete,
    NetTooLarge,
)
from bventropy.gauge_variation import Gauge, StepFunction, l1_distance, tv, tv_psi
from bventropy.metric_core import from_points

from conftest import reference_decode, random_step_function

LOG2_5E = math.log2(5 * math.e)


class TestChooseParams:
    def test_example(self):
        assert choose_params(1.0, 1.0, 0.5) == (5, 0.25)

    def test_error_split(self):
        N1, h2 = choose_params(1.0, 1.0, 0.5)
        assert 1.0 / (2 * N1) + h2 == pytest.approx(0.35)
        assert 1.0 / (2 * N1) + h2 < 0.5

    def test_h2_floor(self):
        N1, h2 = choose_params(2.0, 1.0, 1.0)
        assert (N1, h2) == (5, 0.25)
        assert h2 >= 1.0 / (2 * 2.0)

    def test_epsilon_too_large(self):
        with pytest.raises(EpsilonTooLarge):
            choose_params(1.0, 1.0, 0.6)

    @pytest.mark.parametrize("eps", [1e-320, 3e-309, 5e-324])
    def test_epsilon_whose_grid_overflows(self, eps):
        # floor(inf) raised OverflowError, which is no ValueError
        with pytest.raises(EpsilonTooSmall, match="overflows a float"):
            choose_params(1.0, 1.0, eps)
        assert issubclass(EpsilonTooSmall, ValueError)

    def test_interval_count_that_overflows(self):
        assert RealInterval(0.0, 1.0).cover_count(1e-300) == math.ceil(1.0 / 2e-300)
        # ceil(inf) raised OverflowError
        with pytest.raises(EpsilonTooSmall, match=r"covering count of \[0.0, 1.0\]"):
            RealInterval(0.0, 1.0).entropy_bits(2.5e-311)


def _rho_sharp(x: float, y: float, h2: float) -> int:
    """The encoder's discrete jump radius of two reals."""
    return int(bv_codec._rho_sharp_from_dist(np.array([abs(x - y)]), h2)[0])


def _quantize(f: StepFunction, grid: QuantizerGrid, net: Net) -> StepFunction:
    """f snapped to a net centre per grid cell, as the encoder snaps it."""
    positions = quantize_positions(f, grid, net)
    return StepFunction(grid.edges, net.centers[positions], net.space)


def _jump_profile(fs: StepFunction, h2: float) -> np.ndarray:
    """The encoder's cumulative discrete-jump counter across grid cells."""
    return bv_codec._profile(bv_codec._rho_sharp_from_dist(fs.jump_sizes(), h2))


class TestRhoSharp:
    def test_equal(self):
        assert _rho_sharp(0.3, 0.3, 0.1) == 0

    def test_fractional(self):
        # distance ratio 2.5 lands in (2, 3]
        assert _rho_sharp(0.0, 0.25, 0.1) == 3

    def test_boundary_inclusive(self):
        # ratio exactly 3 stays in (2, 3]
        assert _rho_sharp(0.0, 0.3, 0.1) == 3

    def test_minimum_one(self):
        assert _rho_sharp(0.0, 1e-12, 0.1) == 1


def _interval_net(lo, hi, h2):
    """The uniform h2-net of [lo, hi], as a codeword's token names it."""
    return net_from_token(f"uniform:{lo!r}:{hi!r}", h2)


class TestNetAndQuantize:
    def test_uniform_net_covers(self):
        net = _interval_net(0.0, 1.0, 0.1)
        _, d = net.nearest_many(np.linspace(0, 1, 101))
        assert d.max() <= 0.1 + 1e-12

    def test_constant_at_center_is_exact(self):
        net = _interval_net(0.0, 1.0, 0.25)
        grid = QuantizerGrid(1.0, 4)
        f = StepFunction.constant(1.0, float(net.centers[0]))
        fs = _quantize(f, grid, net)
        assert np.all(fs.values == net.centers[0])

    def test_tie_goes_to_lower_index(self):
        net = _interval_net(0.0, 1.0, 0.25)
        # boundary between centers 0.25 and 0.75 is at 0.5: both at distance 0.25
        pos, d = net.nearest_many(np.array([0.5, 0.5000001]))
        assert pos.tolist() == [0, 1] and d[0] == pytest.approx(0.25)

    def test_net_incomplete(self):
        net = _interval_net(0.0, 1.0, 0.05)
        grid = QuantizerGrid(1.0, 4)
        f = StepFunction.constant(1.0, 5.0)   # far outside the interval
        with pytest.raises(NetIncomplete):
            _quantize(f, grid, net)

    def test_far_interval_ends_are_covered(self):
        # Centres near 1e6 are rounded by up to an ulp (1.2e-10), more than
        # the 1e-9 relative slack on this radius; the low end raised
        # NetIncomplete.
        iv = RealInterval(1e6, 1e6 + 1.0)
        net = _interval_net(iv.lo, iv.hi, 0.018145161290322582)
        assert not net._closed_form
        f = StepFunction(np.array([0.0, 0.5, 1.0]), np.array([iv.lo, iv.hi]))
        fs = _quantize(f, QuantizerGrid(1.0, 4), net)
        assert fs.values.tolist() == [net.centers[0]] * 2 + [net.centers[-1]] * 2

    def test_net_size_is_capped(self, monkeypatch):
        monkeypatch.setattr(bv_codec, "MAX_NET_SIZE", 1000)
        h2 = 0.5 / 1000
        assert _interval_net(0.0, 1.0, h2 * (1 + 1e-9)).size == 1000
        with pytest.raises(NetTooLarge):
            _interval_net(0.0, 1.0, h2 * (1 - 1e-9))
        with pytest.raises(NetTooLarge):
            _interval_net(-1e308, 1e308, 1.0)

    def test_centers_are_read_only(self):
        space = from_points(np.random.default_rng(4).uniform(0.0, 1.0, size=(20, 2)))
        nets = (_interval_net(0.0, 1.0, 0.1), net_from_token("space", 0.3, space))
        assert nets[0]._closed_form and nets[1].space is space
        for net in nets:
            with pytest.raises(ValueError):
                net.centers[0] = net.centers[-1]
        # the caller's own array stays writable
        mine = np.linspace(0.0, 1.0, 5)
        Net(0.1, mine)
        mine[0] = 0.5

    def test_jump_snaps_to_boundary(self):
        net = _interval_net(0.0, 1.0, 0.05)
        grid = QuantizerGrid(1.0, 4)
        f = StepFunction(np.array([0.0, 0.6, 1.0]), np.array([0.05, 0.95]))
        fs = _quantize(f, grid, net)
        # jump inside a cell moves to a cell edge; error bounded by h1 * jump
        assert l1_distance(fs, f) <= grid.h1 * 0.9 + f.L * net.h2 + 1e-12


def _dense_rho_sharp(net):
    c = net.centers
    return bv_codec._rho_sharp_from_dist(np.abs(c[:, None] - c[None, :]), net.h2)


def _no_matrix(self):
    raise AssertionError("no codec path may build the net-by-net matrix")


def _count_covers(monkeypatch) -> list:
    """The space of each ``covering_number`` call the codec makes."""
    calls = []

    def counted(space, *args, **kwargs):
        calls.append(space)
        return metric_core.covering_number(space, *args, **kwargs)

    monkeypatch.setattr(bv_codec, "covering_number", counted)
    return calls


def _cloud_function(space, seed: int) -> StepFunction:
    idx = np.random.default_rng(seed).integers(0, space.n, 6)
    return StepFunction(np.linspace(0.0, 1.0, 7), idx, space)


class TestNetMemo:
    """Encoder and decoder share one builder that keeps the last net."""

    def test_cloud_round_trip_builds_one_net(self, monkeypatch):
        calls = _count_covers(monkeypatch)
        space = from_points(np.random.default_rng(21).uniform(0.0, 1.0, size=(60, 2)))
        f = _cloud_function(space, 22)
        eps = 0.1 * tv(f)
        cw = encode_bv(f, tv(f), eps)
        net = net_from_token(cw.net_token, cw.h2, space)
        got = decode(cw, net)
        assert calls == [space]
        assert got.values.tolist() == reference_decode(cw, net).values.tolist()
        assert l1_distance(got, f) <= eps

    def test_equal_spaces_share_no_net(self, monkeypatch):
        calls = _count_covers(monkeypatch)
        pts = np.random.default_rng(23).uniform(0.0, 1.0, size=(40, 2))
        spaces = (from_points(pts), from_points(pts))
        nets = []
        for space in spaces:
            f = _cloud_function(space, 24)
            cw = encode_bv(f, tv(f), 0.1 * tv(f))
            nets.append(net_from_token(cw.net_token, cw.h2, space))
        assert calls == list(spaces)
        assert nets[0] is not nets[1]
        assert nets[0].space is spaces[0] and nets[1].space is spaces[1]
        assert nets[0].centers.tolist() == nets[1].centers.tolist()

    def test_signed_zero_intervals_keep_their_tokens(self):
        # The two intervals compare and hash equal; their tokens differ.
        f = StepFunction(np.array([0.0, 0.5, 1.0]), np.array([0.2, 0.7]))
        tokens = [encode_bv(f, 1.0, 0.1, value_space=RealInterval(lo, 1.0)).net_token
                  for lo in (-0.0, 0.0)]
        assert tokens == ["uniform:-0.0:1.0", "uniform:0.0:1.0"]

    @pytest.mark.parametrize("cast, token", [(np.float64, "uniform:0.0:1.0"),
                                             (np.int64, "uniform:0:1")])
    def test_numpy_scalar_bounds_act_as_python_bounds(self, cast, token, tmp_path):
        # np.float64(0.0) used to spell itself "np.float64(0.0)" in the token
        f = StepFunction(np.array([0.0, 0.5, 1.0]), np.array([0.2, 0.7]))
        iv = RealInterval(cast(0), cast(1))
        assert (type(iv.lo), type(iv.hi)) == (type(cast(0).item()),) * 2
        cw = encode_bv(f, 1.0, 0.1, value_space=iv)
        twin = encode_bv(f, 1.0, 0.1, value_space=RealInterval(cast(0).item(), cast(1).item()))
        assert cw == twin and cw.net_token == token
        write_codeword(cw, tmp_path / "c.bvc")
        back = read_codeword(tmp_path / "c.bvc")
        assert back == cw
        assert l1_distance(decode(back, net_from_token(back.net_token, back.h2)), f) <= 0.1

    def test_numpy_negative_zero_keeps_its_sign(self):
        f = StepFunction(np.array([0.0, 0.5, 1.0]), np.array([0.2, 0.7]))
        iv = RealInterval(np.float64(-0.0), np.float64(1.0))
        assert encode_bv(f, 1.0, 0.1, value_space=iv).net_token == "uniform:-0.0:1.0"

    def test_warm_memo_changes_no_codeword(self):
        space = from_points(np.random.default_rng(25).uniform(0.0, 1.0, size=(30, 2)))
        g = _cloud_function(space, 26)
        f = StepFunction(np.array([0.0, 0.3, 0.6, 1.0]), np.array([0.1, 0.9, 0.4]))
        # Repeats that hit the memo, between intervals that spell the same
        # values differently and a space net at the same h2.
        cases = [(f, 1.5, 0.05, RealInterval(0, 1)), (f, 1.5, 0.05, RealInterval(0.0, 1.0)),
                 (f, 1.5, 0.05, RealInterval(0.0, 1.0)), (g, tv(g), 0.1 * tv(g), None),
                 (g, tv(g), 0.1 * tv(g), None), (f, 1.5, 0.05, RealInterval(0, 1)),
                 (f, 1.5, 0.02, RealInterval(0, 1))]

        def run(cold: bool) -> list:
            out = []
            for fn, V, eps, vs in cases:
                if cold:
                    bv_codec._build_net.cache_clear()
                cw = encode_bv(fn, V, eps, value_space=vs)
                if cold:
                    bv_codec._build_net.cache_clear()
                fd = decode(cw, net_from_token(cw.net_token, cw.h2, fn.space))
                out.append((cw, fd.values.tolist()))
            return out

        cold = run(True)
        assert run(False) == cold
        assert cold[0][0].net_token == "uniform:0:1"
        assert cold[1][0].net_token == "uniform:0.0:1.0"
        assert bv_codec._build_net.cache_info().currsize == 1


class TestIntervalNetShells:
    """Closed-form (and, far from the origin, on-demand) shells and radii,
    and the on-demand shells of a point-cloud net, against the dense matrix
    of discrete radii."""

    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-3.0, -1.0), (1e6, 1e6 + 1.0)])
    def test_match_dense_matrix(self, lo, hi, monkeypatch):
        net = _interval_net(lo, hi, (hi - lo) / 100.0)
        dense = _dense_rho_sharp(net)
        monkeypatch.setattr(Net, "rho_sharp_matrix", _no_matrix)
        for pos in range(net.size):
            for k in range(2 * net.size + 1):
                assert net.shell(pos, k) == np.flatnonzero(dense[pos] == k).tolist()

        p = np.random.default_rng(3).integers(0, net.size, 500)
        fs = StepFunction(np.linspace(0.0, 1.0, p.size + 1), net.centers[p])
        radii = bv_codec._rho_sharp_from_dist(fs.jump_sizes(), net.h2)
        assert np.array_equal(radii, dense[p[:-1], p[1:]])
        assert np.array_equal(_jump_profile(fs, net.h2)[1:],
                              np.cumsum(radii) + np.arange(radii.size))

    @pytest.mark.parametrize("frac", [0.04, 0.1])
    def test_cloud_net_matches_dense_matrix(self, frac, monkeypatch):
        space = from_points(np.random.default_rng(11).uniform(0.0, 1.0, size=(80, 2)))
        f = StepFunction(np.linspace(0.0, 1.0, 9),
                         np.random.default_rng(12).integers(0, space.n, 8), space)
        monkeypatch.setattr(Net, "rho_sharp_matrix", _no_matrix)
        cw = encode_bv(f, tv(f), frac * tv(f))
        net = net_from_token(cw.net_token, cw.h2, space)
        got = decode(cw, net)
        dense = bv_codec._rho_sharp_from_dist(space.dist[np.ix_(net.centers, net.centers)],
                                              net.h2)
        assert 10 < net.size < space.n
        for pos in range(net.size):
            for k in range(dense.max() + 2):
                assert net.shell(pos, k) == np.flatnonzero(dense[pos] == k).tolist()
        monkeypatch.undo()
        assert np.array_equal(net.rho_sharp_matrix(), dense)
        assert got.values.tolist() == reference_decode(cw, net).values.tolist()


# A closed-form interval net, and two nets that take each shell from an
# on-demand row: an interval far enough from the origin to leave the closed
# form, and a small point cloud.
SHELL_SPACES = (RealInterval(0.0, 1.0), RealInterval(1e6, 1e6 + 1.0),
                from_points(np.random.default_rng(5).uniform(0.0, 1.0, size=(12, 2))))


def _shell_case(space, values, pieces, frac):
    """A step function with values drawn from ``space``, its codeword at
    eps = frac * V, and the net the decoder rebuilds."""
    bp = np.linspace(0.0, 1.0, pieces + 1)
    if isinstance(space, RealInterval):
        f = StepFunction(bp, space.lo + np.asarray(values[:pieces]) * space.diameter)
        cw = encode_bv(f, max(tv(f), 0.1), frac * max(tv(f), 0.1), value_space=space)
    else:
        f = StepFunction(bp, (np.asarray(values[:pieces]) * (space.n - 1)).round(), space)
        cw = encode_bv(f, max(tv(f), 0.1), frac * max(tv(f), 0.1))
    return f, cw, net_from_token(cw.net_token, cw.h2, space)


def _decode_or_error(cw, net, decoder):
    try:
        return decoder(cw, net).values.tolist()
    except CorruptStream:
        return CorruptStream


class TestOneShellRule:
    """``decode`` against the dense-matrix reference decoder, and the
    encoder's use of the same shells."""

    @pytest.mark.parametrize("space", SHELL_SPACES, ids=["closed", "far", "cloud"])
    def test_radius_zero_shell_is_the_centre(self, space):
        net = _shell_case(space, [0.5], 1, 0.2)[2]
        assert all(net.shell(p, 0) == [p] for p in range(net.size))

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(space=st.sampled_from(SHELL_SPACES),
           values=st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8),
           pieces=st.integers(1, 8), frac=st.sampled_from([0.05, 0.1, 0.25, 0.5]))
    def test_decode_matches_reference(self, space, values, pieces, frac):
        f, cw, net = _shell_case(space, values, pieces, frac)
        assert decode(cw, net).values.tolist() == reference_decode(cw, net).values.tolist()
        payload = np.frombuffer(cw.payload, dtype=np.uint8)
        variants = [dataclasses.replace(cw, bit_length=n) for n in range(cw.bit_length)]
        for bit in range(cw.bit_length):
            flipped = payload.copy()
            flipped[bit // 8] ^= 0x80 >> (bit % 8)
            variants.append(dataclasses.replace(cw, payload=flipped.tobytes()))
        for bad in variants:
            assert _decode_or_error(bad, net, decode) == _decode_or_error(
                bad, net, reference_decode)

    # Long runs of radius-0 steps, which decode takes in one read each.
    @pytest.mark.parametrize("space", SHELL_SPACES, ids=["closed", "far", "cloud"])
    def test_long_runs_and_their_truncations(self, space):
        f, cw, net = _shell_case(space, [0.1, 0.9, 0.4, 0.6], 4, 0.002)
        assert cw.N1 > 700
        assert decode(cw, net).values.tolist() == reference_decode(cw, net).values.tolist()
        bits = BitReader(cw.payload, cw.bit_length)._bits
        run_ends = [i for i in range(1, cw.bit_length) if bits[i - 1:i + 1] == b"10"]
        assert len(run_ends) >= 3
        for n in run_ends + [cw.bit_length - 1, 1, 0]:
            bad = dataclasses.replace(cw, bit_length=n)
            assert _decode_or_error(bad, net, decode) == _decode_or_error(
                bad, net, reference_decode) == CorruptStream

    @pytest.mark.parametrize("N1", [1, 2, 500])
    @pytest.mark.parametrize("extra", [0, 1, 64])
    def test_all_ones_payload(self, N1, extra):
        # Start at centre 4 of 5, then nothing but stays, some of them too many.
        net = net_from_token("uniform:0.0:1.0", 0.1)
        widths = [3] + [1] * (N1 - 1 + extra)
        payload = _pack_bits([4] + [1] * (N1 - 1 + extra), widths)
        cw = Codeword(1.0, N1, 0.1, "uniform:0.0:1.0", "id", payload, sum(widths))
        got = _decode_or_error(cw, net, decode)
        assert got == _decode_or_error(cw, net, reference_decode)
        assert got == (CorruptStream if extra else [net.centers[4]] * N1)

    def test_decode_looks_up_one_shell_per_jump(self, monkeypatch):
        calls = []
        shell = Net.shell
        monkeypatch.setattr(Net, "shell",
                            lambda self, pos, k: calls.append(k) or shell(self, pos, k))
        f = StepFunction(np.linspace(0.0, 1.0, 6), np.array([0.1, 0.5, 0.5, 0.9, 0.2]))
        cw = encode_bv(f, 1.5, 0.0011, value_space=RealInterval(0.0, 1.0))
        encoded, calls[:] = list(calls), []
        fd = decode(cw, net_from_token(cw.net_token, cw.h2))
        assert 2000 <= cw.N1 <= 2100
        assert calls == encoded and 0 not in calls
        assert len(calls) == np.count_nonzero(np.diff(fd.values)) > 0

    def test_encoder_rejects_a_step_outside_its_shell(self, monkeypatch):
        shell = Net.shell
        monkeypatch.setattr(Net, "shell",
                            lambda self, pos, k: shell(self, pos, k)[:-1])
        f = StepFunction(np.array([0, 0.5, 1.0]), np.array([0.2, 0.8]))
        with pytest.raises(CorruptStream):
            encode_bv(f, 1.0, 0.2, value_space=RealInterval(0, 1))


class TestJumpProfile:
    def test_constant(self):
        fs = StepFunction(np.linspace(0, 1, 4), np.array([0.5, 0.5, 0.5]))
        assert list(_jump_profile(fs, 0.1)) == [0, 0, 1]

    def test_single_unit_jump(self):
        fs = StepFunction(np.linspace(0, 1, 4), np.array([0.5, 0.6, 0.6]))
        assert list(_jump_profile(fs, 0.1)) == [0, 1, 2]

    def test_single_piece(self):
        fs = StepFunction(np.array([0.0, 1.0]), np.array([0.5]))
        assert list(_jump_profile(fs, 0.1)) == [0]


class TestBitstream:
    def test_gamma_round_trip(self):
        # 5 in 4 bits, the gamma codes of 1 and 7, then 0 in 3 bits
        assert bv_codec._gamma_width(np.array([1, 7])).tolist() == [1, 5]
        r = BitReader(_pack_bits([5, 1, 7, 0], [4, 1, 5, 3]), 13)
        assert r.read(4) == 5
        assert r.read_gamma() == 1
        assert r.read_gamma() == 7
        assert r.read(3) == 0
        assert r.exhausted

    def test_truncation_detected(self):
        r = BitReader(_pack_bits([3], [8]), 8)
        r.read(4)
        with pytest.raises(CorruptStream):
            r.read(5)

    def test_gamma_prefix_too_long(self):
        # a 70-bit zero prefix, in two fields of at most 63 bits
        with pytest.raises(CorruptStream):
            BitReader(_pack_bits([0, 0, 1], [35, 35, 1]), 71).read_gamma()

    def test_pack_bits_layout(self):
        packed = _pack_bits([5, 0, 1, 300, 2], [3, 4, 1, 9, 0])
        assert packed == bytes([0b10100001, 0b10010110, 0])
        r = BitReader(packed, 17)
        assert [r.read(n) for n in (3, 4, 1, 9, 0)] == [5, 0, 1, 300, 0]
        assert r.exhausted
        assert _pack_bits([], []) == _pack_bits([7], [0]) == b""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.lists(st.integers(0, 63).flatmap(
        lambda w: st.tuples(st.integers(0, 2 ** w - 1), st.just(w))), max_size=40))
    def test_pack_bits_matches_bit_strings(self, fields):
        bits = "".join(format(v, f"0{w}b") if w else "" for v, w in fields)
        bits += "0" * (-len(bits) % 8)
        expect = bytes(int(bits[i:i + 8], 2) for i in range(0, len(bits), 8))
        assert _pack_bits([v for v, _ in fields], [w for _, w in fields]) == expect

    def test_read_ones_stops_at_zero_limit_and_end(self):
        r = BitReader(_pack_bits([1, 1, 1, 0, 1, 1], [1] * 6), 6)
        assert (r.read_ones(2), r.read_ones(5), r.read_ones(5)) == (2, 1, 0)
        assert r.read(1) == 0
        assert (r.read_ones(0), r.read_ones(5), r.exhausted) == (0, 2, True)


class TestEncodeBv:
    def test_constant_function(self):
        f = StepFunction.constant(1.0, 0.4)
        cw = encode_bv(f, 1.0, 0.2, value_space=RealInterval(0, 1))
        net = net_from_token(cw.net_token, cw.h2)
        dec = decode(cw, net)
        assert l1_distance(dec, f) <= 0.2

    def test_budget_violation(self):
        f = StepFunction(np.array([0, 0.5, 1.0]), np.array([0.0, 1.0]))
        with pytest.raises(BudgetViolation):
            encode_bv(f, 0.5, 0.1)

    def test_round_trip_ensemble(self, rng):
        interval = RealInterval(0.0, 1.0)
        for _ in range(40):
            f = random_step_function(rng)
            V = max(tv(f), 0.5)
            eps = 0.15
            cw = encode_bv(f, V, eps, value_space=interval)
            net = net_from_token(cw.net_token, cw.h2)
            dec = decode(cw, net)
            assert l1_distance(dec, f) <= eps
            # decoding is lossless on the snapped function
            grid = cw.grid()
            fs = _quantize(f, grid, net)
            assert np.array_equal(dec.values, fs.values)

    def test_bits_within_budget(self, rng):
        interval = RealInterval(0.0, 1.0)
        for _ in range(25):
            f = random_step_function(rng)
            V = max(tv(f), 1.0)
            eps = 0.1
            cw = encode_bv(f, V, eps, value_space=interval)
            H = interval.entropy_bits(eps / 2.0)
            assert cw.bit_length <= bv_budget_bits(1.0, V, eps, 1, H)

    def test_file_round_trip(self, tmp_path):
        f = StepFunction(np.array([0, 0.4, 1.0]), np.array([0.2, 0.8]))
        cw = encode_bv(f, 1.0, 0.2, value_space=RealInterval(0, 1))
        path = tmp_path / "c.bvc"
        write_codeword(cw, path)
        back = read_codeword(path)
        assert back.bit_length == cw.bit_length
        assert back.payload[: (cw.bit_length + 7) // 8] == cw.payload
        net = net_from_token(back.net_token, back.h2)
        assert np.array_equal(decode(back, net).values,
                              decode(cw, net).values)

    def test_magic_check(self, tmp_path):
        path = tmp_path / "bad.bvc"
        path.write_bytes(b"NOPE" + b"\0" * 40)
        with pytest.raises(CorruptStream):
            read_codeword(path)

    def test_header_without_cells_is_corrupt(self, tmp_path):
        # decode refused it only because the start index left bits over
        f = StepFunction(np.array([0, 0.4, 1.0]), np.array([0.2, 0.8]))
        cw = encode_bv(f, 1.0, 0.2, value_space=RealInterval(0, 1))
        write_codeword(dataclasses.replace(cw, N1=0), tmp_path / "c.bvc")
        with pytest.raises(CorruptStream, match="bad header"):
            read_codeword(tmp_path / "c.bvc")

    def test_corrupt_rank(self):
        f = StepFunction(np.array([0, 0.5, 1.0]), np.array([0.2, 0.8]))
        cw = encode_bv(f, 1.0, 0.2, value_space=RealInterval(0, 1))
        net = net_from_token(cw.net_token, cw.h2)
        bad = Codeword(cw.L, cw.N1, cw.h2, cw.net_token, cw.gauge_token,
                       cw.payload, max(cw.bit_length - 3, 1))
        with pytest.raises(CorruptStream):
            decode(bad, net)

    def test_trailing_bits_rejected(self):
        f = StepFunction(np.array([0, 0.5, 1.0]), np.array([0.2, 0.8]))
        cw = encode_bv(f, 1.0, 0.2, value_space=RealInterval(0, 1))
        net = net_from_token(cw.net_token, cw.h2)
        padded = dataclasses.replace(cw, payload=cw.payload + b"\0\0",
                                     bit_length=cw.bit_length + 16)
        with pytest.raises(CorruptStream):
            decode(padded, net)

    def test_profile_cap_raises(self, monkeypatch):
        monkeypatch.setattr(bv_codec, "gamma_budget", lambda N1, h2, V: 1)
        f = StepFunction(np.array([0, 0.5, 1.0]), np.array([0.2, 0.8]))
        with pytest.raises(BudgetViolation):
            encode_bv(f, 1.0, 0.2, value_space=RealInterval(0, 1))

    def test_acceptance_ensemble_codewords_unchanged(self):
        # SHA-256 over (bit_length, payload) of every acceptance-4 codeword,
        # recorded with the dense-matrix encoder: codewords must not change.
        iv = RealInterval(0.0, 1.0)
        g2 = Gauge.power(2)
        bv = random_bv_ensemble(200, 1.0, 1.0, seed=11)
        bvpsi = random_bvpsi_ensemble(200, 1.0, 1.0, g2, seed=12)
        h = hashlib.sha256()
        for eps in (0.05, 0.1, 0.2):
            for f in bv.members:
                cw = encode_bv(f, 1.0, eps, value_space=iv)
                h.update(struct.pack("<I", cw.bit_length) + cw.payload)
            for f in bvpsi.members:
                cw = encode_bvpsi(f, g2, 1.0, eps, value_space=iv)
                h.update(struct.pack("<I", cw.bit_length) + cw.payload)
        assert h.hexdigest() == (
            "55e2b0e8b015c01bbafed8dc6fe0468b71c04bc60d0d68fb66a9d3a5a083796a")

    def test_fine_eps_memory(self):
        # At eps = 1e-4 the net has 7,501 centres: a net-by-net matrix would
        # take 450 MB.
        f = random_bv_ensemble(1, 1.0, 1.0, seed=4).members[0]
        tracemalloc.start()
        try:
            cw = encode_bv(f, 1.0, 1e-4, value_space=RealInterval(0.0, 1.0))
            dec = decode(cw, net_from_token(cw.net_token, cw.h2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6
        assert l1_distance(dec, f) <= 1e-4


class TestAdaptiveCoarsen:
    def test_fixed_point(self):
        f = StepFunction(np.array([0, 0.5, 1.0]), np.array([0.0, 1.0]))
        fh, cert = adaptive_coarsen(f, 0.5, Gauge.identity(), tv(f))
        assert np.array_equal(fh.values, f.values)
        assert cert.l1_error == 0.0

    def test_flattens_below_tolerance(self):
        f = StepFunction(np.array([0, 0.5, 1.0]), np.array([0.0, 1.0]))
        fh, cert = adaptive_coarsen(f, 2.0, Gauge.identity(), 1.0)
        assert fh.k == 1 and fh.values[0] == 0.0
        assert cert.l1_error == pytest.approx(0.5)
        assert cert.l1_error <= f.L * 2.0

    def test_constant(self):
        f = StepFunction.constant(1.0, 0.7)
        fh, cert = adaptive_coarsen(f, 0.1, Gauge.power(2), 1.0)
        assert fh.k == 1 and cert.cells == 1

    def test_budget_below_variation_raises(self):
        f = StepFunction(np.array([0, 0.5, 1.0]), np.array([0.0, 1.0]))
        with pytest.raises(BudgetViolation):
            adaptive_coarsen(f, 0.5, Gauge.identity(), 0.1)

    def test_certificate_bounds(self, rng):
        g = Gauge.power(2)
        for _ in range(25):
            f = random_step_function(rng)
            V = max(tv_psi(f, g), 0.1)
            h = float(rng.uniform(0.05, 0.5))
            fh, cert = adaptive_coarsen(f, h, g, V)
            assert cert.cells - 1 <= V / float(g(h)) + 1e-9
            assert tv(fh) <= cert.V_h * (1 + 1e-9) + 1e-12
            assert l1_distance(fh, f) <= f.L * h * (1 + 1e-9)


class TestEncodeBvPsi:
    def test_admissible_range(self):
        # psi = s^2, L = V = 1: cap is 2 sqrt(1/4) = 1
        f = StepFunction.constant(1.0, 0.5)
        with pytest.raises(EpsilonTooLarge):
            encode_bvpsi(f, Gauge.power(2), 1.0, 1.5)

    def test_variation_above_budget_is_refused(self):
        # one jump of 1 has psi-variation 1 under psi = s^2
        f = StepFunction(np.array([0, 0.5, 1.0]), np.array([0.0, 1.0]))
        with pytest.raises(BudgetViolation,
                           match=r"^generalized variation 1\.0 exceeds budget 0\.5$"):
            encode_bvpsi(f, Gauge.power(2), 0.5, 0.01)

    def test_round_trip(self, rng):
        g = Gauge.power(2)
        interval = RealInterval(0.0, 1.0)
        for _ in range(25):
            f = random_step_function(rng)
            V = max(tv_psi(f, g), 0.25)
            eps = 0.25
            cw = encode_bvpsi(f, g, V, eps, value_space=interval)
            net = net_from_token(cw.net_token, cw.h2)
            assert l1_distance(decode(cw, net), f) <= eps

    def test_bits_within_m1(self, rng):
        g = Gauge.power(2)
        interval = RealInterval(0.0, 1.0)
        for _ in range(15):
            f = random_step_function(rng)
            if tv_psi(f, g) > 1.0:
                continue
            eps = 0.2
            cw = encode_bvpsi(f, g, 1.0, eps, value_space=interval)
            H = interval.entropy_bits(eps / 4.0)
            assert cw.bit_length <= upper_bound_bits(1.0, 1.0, eps, g, 1, H)


class TestBudgetEvaluators:
    def test_plain_bv_formula(self):
        # L = V = 1, eps = 0.5, d = 1, H = 1: [3d + log2(5e)] 2LV/eps + H
        v = bv_budget_bits(1.0, 1.0, 0.5, 1, 1.0)
        assert v == pytest.approx((3 + LOG2_5E) * 4 + 1)

    def test_m1_formula(self):
        # psi = id, L = V = 1, eps = 0.5, d = 1, H = 1
        v = upper_bound_bits(1.0, 1.0, 0.5, Gauge.identity(), 1, 1.0)
        assert v == pytest.approx((3 + LOG2_5E) * 2 / 0.25 + 1)

    def test_m2_formula(self):
        # the power form: gamma = 1, L = V = M = 1, eps = 0.5, d = 1
        v = upper_bound_bits(1.0, 1.0, 0.5, Gauge.power(1.0), 1, math.log2(8 / 0.5 + 1))
        assert v == pytest.approx(4 * (3 + LOG2_5E) * 2 + math.log2(17))

    def test_vanishing_variation_limit(self):
        small = upper_bound_bits(1.0, 1e-12, 0.5, Gauge.identity(), 1, 1.0)
        assert small == pytest.approx(1.0, abs=1e-9)

    def test_m3_formula(self):
        # the Euclidean form: values in R^2, L = V = M = 1, eps = 0.5
        v = upper_bound_bits(1.0, 1.0, 0.5, Gauge.identity(), 2 * math.log2(5),
                             2 * math.log2(8 / 0.5 + 1))
        expect = (6 * math.log2(5) + LOG2_5E) * 2 / 0.25 + 2 * math.log2(17)
        assert v == pytest.approx(expect)
