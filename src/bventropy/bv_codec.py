"""Certified lossy coding of bounded-variation step functions.

The encoder snaps a function onto a uniform time grid and a radius-h2 net of
the value space, then writes a self-describing bitstream: a fixed-width start
index followed, per grid step, by an Elias-gamma coded discrete jump radius
and the rank of the next net point inside the shell at exactly that radius.
Decoding is lossless on the snapped function, so the end-to-end L1 error is
the quantization error, which the parameter choice keeps below the requested
accuracy.

On an interval net the centres form a lattice, so nearest centres, jump
radii and shell ranks have closed forms: encoding and decoding cost O(N1)
time and memory, and no net-by-net matrix is ever built.  Nor is one built
for any other net: a shell takes one row of discrete radii, computed from
the current centre when the step jumps.  One ``_pack_bits`` call packs the
bits, which ``BitReader`` unpacks in bulk.  Both sides take their shells from
``Net.shell``, and only at the steps that jump: a radius-0 shell is ``[pos]``
with a 0-bit rank, so a run of stays is a run of 1 bits, read in one call.

Nets come only from ``net_from_token``, which keeps the last net it built:
the net a codeword names is fixed by its token, h2 and, for a finite metric
space, the space itself (compared by identity), so a decode right after its
encode reuses the encoder's net instead of running the greedy cover again.
One net is kept at most, and its centres are read-only.

Generalized-variation inputs are first coarsened by the adaptive partition
that advances while the function stays within h of its value at the current
partition point; the coarsened function is plain-BV with a certified budget.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetViolation,
    CorruptStream,
    EpsilonTooLarge,
    EpsilonTooSmall,
    NetIncomplete,
    NetTooLarge,
)
from .gauge_variation import (Gauge, StepFunction, _step_arrays, l1_distance, tv, tv_psi,
                              value_distance)
from .metric_core import covering_number

LOG2_5E = math.log2(5.0 * math.e)


# ---------------------------------------------------------------------------
# value spaces and nets


@dataclass(frozen=True)
class RealInterval:
    """Closed real interval with the absolute-value metric."""

    lo: float
    hi: float

    def __post_init__(self):
        # A numpy scalar bound becomes its Python twin, whose repr the token spells.
        for name, v in (("lo", self.lo), ("hi", self.hi)):
            object.__setattr__(self, name, v.item() if isinstance(v, np.generic) else v)
        if not (math.isfinite(self.lo) and self.lo <= self.hi < math.inf):
            raise ValueError(f"need finite lo <= hi, got [{self.lo}, {self.hi}]")

    @property
    def diameter(self) -> float:
        return self.hi - self.lo

    def cover_count(self, alpha: float) -> int:
        """Optimal closed-ball covering count at radius alpha (uniform grid)."""
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        if (count := self.diameter / (2.0 * alpha)) == math.inf:
            raise EpsilonTooSmall(f"the covering count of [{self.lo}, {self.hi}] at radius "
                                  f"{alpha} overflows a float")
        return max(1, math.ceil(count))

    def entropy_bits(self, alpha: float) -> float:
        return math.log2(self.cover_count(alpha))


# Largest uniform net, shared by encoder and decoder: 10**7 centres are 80 MB.
MAX_NET_SIZE = 10 ** 7


def _uniform_size(interval: RealInterval, h2: float) -> int:
    """Centre count of the uniform h2-net of ``interval``, at most MAX_NET_SIZE."""
    if not interval.diameter / (2.0 * h2) <= MAX_NET_SIZE:
        raise NetTooLarge(f"a uniform net of [{interval.lo}, {interval.hi}] at radius "
                          f"{h2} needs more than MAX_NET_SIZE = {MAX_NET_SIZE} centres")
    return interval.cover_count(h2)


# Interval nets use the closed-form radius 2|i - j| only while the rounding
# error of |c_i - c_j| / h2 stays far below the 1e-9 slack of
# _rho_sharp_from_dist: max|c| / h2 < 1e5 keeps it under 1e-10.
_CLOSED_FORM_MAX_RATIO = 1e5


class Net:
    """h2-covering of a value space, the codec alphabet; built by ``net_from_token``."""

    def __init__(self, h2, centers, space=None):
        self.h2 = float(h2)
        self.space = space
        # Read-only, as the builder hands one net to every caller; a view, so
        # the array passed in stays writable.
        self.centers = np.asarray(centers, dtype=float if space is None else int).view()
        self.centers.setflags(write=False)
        # True only for a uniform interval net within the precision bound.
        self._closed_form = False

    @property
    def size(self) -> int:
        return self.centers.size

    def nearest_many(self, values) -> tuple[np.ndarray, np.ndarray]:
        """Nearest-center position and distance for each value, lowest index
        on ties."""
        values = np.asarray(values)
        if self._closed_form:
            # The lattice index rounded from the value is within one of the
            # argmin; the same |c - v| arithmetic over its neighbours settles
            # ties exactly as a full scan would.
            est = np.rint((values - self.centers[0]) / (2.0 * self.h2))
            est = np.clip(np.nan_to_num(est), 0, self.size - 1).astype(int)
            cand = np.clip(est[:, None] + np.arange(-1, 2), 0, self.size - 1)
            d = np.abs(self.centers[cand] - values[:, None])
            best = np.argmin(d, axis=1)
            rows = np.arange(values.size)
            return cand[rows, best], d[rows, best]
        uniq, inverse = np.unique(values, return_inverse=True)
        pos = np.empty(uniq.size, dtype=int)
        dist = np.empty(uniq.size)
        for i, v in enumerate(uniq):
            d = value_distance(v, self.centers, self.space)
            pos[i] = np.argmin(d)
            dist[i] = d[pos[i]]
        return pos[inverse], dist[inverse]

    def rho_sharp_matrix(self) -> np.ndarray:
        """The net-by-net matrix of discrete radii (no codec path builds it)."""
        d = value_distance(self.centers[:, None], self.centers[None, :], self.space)
        return _rho_sharp_from_dist(d, self.h2)

    def shell(self, pos: int, k: int) -> list[int]:
        """Center positions at discrete radius exactly k from ``pos``, in
        ascending order.  This is the alphabet of both sides of the codec:
        the encoder writes a rank in it and the decoder reads one back."""
        if self._closed_form:
            half, odd = divmod(k, 2)
            if odd:
                return []
            ends = (pos - half, pos + half) if half else (pos,)
            return [p for p in ends if 0 <= p < self.size]
        # Every other net computes the one row on demand: a function jumps far
        # less often than its net has centres, so a full matrix costs more.
        row = _rho_sharp_from_dist(
            value_distance(self.centers[pos], self.centers, self.space), self.h2)
        return np.flatnonzero(row == k).tolist()


def _rho_sharp_from_dist(d, h2: float):
    """Discrete radii: 0 at distance 0, else q + 1 for d / h2 in (q, q + 1]."""
    ratio = np.asarray(d, dtype=float) / h2
    k = np.ceil(ratio - 1e-9).astype(int)
    k[np.asarray(d) > 0] = np.maximum(k[np.asarray(d) > 0], 1)
    return k


def _token_interval(token: str) -> RealInterval | None:
    # "uniform:lo:hi" names an interval net, "space" a metric-space net
    if token == "space":
        return None
    kind, *bounds = token.split(":")
    if kind != "uniform" or len(bounds) != 2:
        raise ValueError(f"unknown net token {token!r}")
    return RealInterval(*map(float, bounds))


def _net_token(value_space) -> str:
    if isinstance(value_space, RealInterval):
        return f"uniform:{value_space.lo!r}:{value_space.hi!r}"
    return "space"


def net_from_token(token: str, h2: float, space=None) -> Net:
    """The h2-net a codeword's token names: the uniform net of its interval,
    or the greedy cover of ``space``.  Every codec net is built here,
    and the last net built is kept, so a decode right after its encode
    reuses the encoder's net.  Its centres are read-only."""
    return _build_net(token, float(h2), space if token == "space" else None)


@functools.lru_cache(maxsize=1)
def _build_net(token: str, h2: float, space) -> Net:
    # The key fixes the net: the token spells the interval exactly (a float's
    # repr round-trips, and -0.0 and 0.0 get different tokens though their
    # intervals compare equal), and a space is keyed by identity.
    interval = _token_interval(token)
    if interval is None:
        if space is None:
            raise ValueError("space net needs the metric space to rebuild")
        return Net(h2, covering_number(space, None, h2, mode="greedy").witness, space)
    centers = interval.lo + h2 + 2.0 * h2 * np.arange(_uniform_size(interval, h2))
    net = Net(h2, centers)
    reach = max(abs(centers[0]), abs(centers[-1]))
    net._closed_form = bool(reach < _CLOSED_FORM_MAX_RATIO * h2)
    return net


# ---------------------------------------------------------------------------
# grids and parameter choice


@dataclass(frozen=True)
class QuantizerGrid:
    L: float
    N1: int

    @property
    def h1(self) -> float:
        return self.L / self.N1

    @property
    def midpoints(self) -> np.ndarray:
        return (2.0 * np.arange(self.N1) + 1.0) * self.h1 / 2.0

    @property
    def edges(self) -> np.ndarray:
        return np.linspace(0.0, self.L, self.N1 + 1)


def choose_params(L: float, V: float, eps: float) -> tuple[int, float]:
    """Grid resolution and net radius guaranteeing quantization error < eps.

    With ``N1 = floor(3LV / 2eps) + 2`` and ``h2 = V / (N1 - 1)`` both
    ``LV/(2 N1) + L h2 < eps`` and ``h2 >= eps / 2L`` hold.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if eps > L * V / 2.0 + 1e-12:
        raise EpsilonTooLarge(f"need eps <= L*V/2 = {L * V / 2.0}, got {eps}")
    if (cells := 3.0 * L * V / (2.0 * eps)) == math.inf:
        raise EpsilonTooSmall(f"the grid of 3LV/2eps cells overflows a float at eps = {eps}")
    N1 = int(math.floor(cells)) + 2
    h2 = V / (N1 - 1)
    return N1, h2


# ---------------------------------------------------------------------------
# quantization


def quantize_positions(f: StepFunction, grid: QuantizerGrid, net: Net) -> np.ndarray:
    """Net position of the nearest center to f at each grid midpoint."""
    t = grid.midpoints
    piece = np.searchsorted(f.breakpoints, t, side="right") - 1
    positions, d = net.nearest_many(f.values[np.clip(piece, 0, f.k - 1)])
    # Interval centres far from the origin sit up to an ulp off their lattice.
    ulp = 0.0 if net.space is not None else float(np.spacing(np.abs(net.centers).max()))
    far = d > net.h2 * (1 + 1e-9) + 2.0 * ulp
    if far.any():
        i = int(np.argmax(far))
        raise NetIncomplete(
            f"no net center within {net.h2} of f({t[i]}) (nearest at {d[i]})"
        )
    return positions


def _profile(radii: np.ndarray) -> np.ndarray:
    out = np.zeros(radii.size + 1, dtype=int)
    out[1:] = np.cumsum(radii) + np.arange(radii.size)
    return out


def gamma_budget(N1: int, h2: float, V: float) -> int:
    """Cap on the jump profile: 4*N1 - 4 + floor(V / h2)."""
    return 4 * N1 - 4 + int(math.floor(V / h2))


# ---------------------------------------------------------------------------
# bit-level plumbing


def _gamma_width(n):
    """Width of the Elias gamma code of each n >= 1 below 2**53: the value n
    written in 2*bit_length(n) - 1 bits, its leading zeros being the unary
    prefix.  frexp's exponent is the bit length."""
    return 2 * np.frexp(np.asarray(n, dtype=float))[1] - 1


def _pack_bits(values, widths) -> bytes:
    """MSB-first bytes of ``values[i]`` in ``widths[i]`` bits (0 to 63), in
    order, packed in one pass; 0 bits pad the last byte."""
    values, widths = np.asarray(values, dtype=np.int64), np.asarray(widths, dtype=np.int64)
    field = np.repeat(np.arange(widths.size), widths)
    shift = (np.cumsum(widths) - 1)[field] - np.arange(field.size)
    return np.packbits(((values[field] >> shift) & 1).astype(np.uint8)).tobytes()


class BitReader:
    """MSB-first bit reader over the first ``bit_length`` bits of a payload:
    fixed-width fields, gamma codes, and runs of 1 bits in one call."""

    def __init__(self, payload: bytes, bit_length: int):
        if not 0 <= bit_length <= 8 * len(payload):
            raise CorruptStream("declared bit length exceeds payload")
        bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8), count=bit_length)
        # ASCII digits, so int(..., 2) and bytes.find do the bit work.
        self._bits = (bits + ord("0")).tobytes()
        self._n = bit_length
        self._pos = 0

    def read(self, width: int) -> int:
        end = self._pos + width
        if end > self._n:
            raise CorruptStream("truncated bitstream")
        value = int(self._bits[self._pos:end], 2) if width else 0
        self._pos = end
        return value

    def read_ones(self, limit: int) -> int:
        """Consume up to ``limit`` consecutive 1 bits; return how many."""
        end = min(self._pos + limit, self._n)
        zero = self._bits.find(b"0", self._pos, end)
        count = (end if zero < 0 else zero) - self._pos
        self._pos += count
        return count

    def read_gamma(self) -> int:
        one = self._bits.find(b"1", self._pos, min(self._pos + 65, self._n))
        if one < 0:
            if self._pos + 65 <= self._n:
                raise CorruptStream("gamma prefix too long")
            raise CorruptStream("truncated bitstream")
        zeros = one - self._pos
        self._pos = one
        return self.read(zeros + 1)

    @property
    def exhausted(self) -> bool:
        return self._pos >= self._n


def _rank_width(count: int) -> int:
    return (count - 1).bit_length() if count > 1 else 0


# ---------------------------------------------------------------------------
# codewords


@dataclass(frozen=True)
class Codeword:
    L: float
    N1: int
    h2: float
    net_token: str
    gauge_token: str
    payload: bytes
    bit_length: int

    def grid(self) -> QuantizerGrid:
        return QuantizerGrid(self.L, self.N1)


MAGIC = b"BVC1"


def write_codeword(c: Codeword, path) -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<dIId", c.L, c.N1, 0, c.h2))     # 0: reserved net size
        for token in (c.gauge_token, c.net_token):
            raw = token.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
        fh.write(struct.pack("<I", c.bit_length))
        fh.write(c.payload)


def _read_exact(fh, n: int) -> bytes:
    raw = fh.read(n)
    if len(raw) != n:
        raise CorruptStream(f"truncated codeword: wanted {n} bytes, got {len(raw)}")
    return raw


def read_codeword(path) -> Codeword:
    with open(path, "rb") as fh:
        if fh.read(4) != MAGIC:
            raise CorruptStream("bad magic")
        L, N1, _reserved_net_size, h2 = struct.unpack("<dIId", _read_exact(fh, 24))
        tokens = []
        for _ in range(2):
            n = struct.unpack("<H", _read_exact(fh, 2))[0]
            try:
                tokens.append(_read_exact(fh, n).decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise CorruptStream(f"token is not UTF-8: {exc}") from exc
        bit_length = struct.unpack("<I", _read_exact(fh, 4))[0]
        payload = fh.read()
    if not (0 < L < math.inf and 0 < h2 < math.inf and N1 >= 1):
        raise CorruptStream(f"bad header: L = {L}, N1 = {N1}, h2 = {h2}")
    try:
        interval = _token_interval(tokens[1])
        if interval is not None:
            _uniform_size(interval, h2)
    except ValueError as exc:
        raise CorruptStream(f"bad net token: {exc}") from exc
    return Codeword(L, N1, h2, tokens[1], tokens[0], payload, bit_length)


# ---------------------------------------------------------------------------
# encoding / decoding


def _resolve_value_space(f: StepFunction, value_space):
    if value_space is not None:
        return value_space
    if f.space is not None:
        return f.space
    return RealInterval(float(f.values.min()), float(f.values.max()))


def encode_bv(
    f: StepFunction,
    V: float,
    eps: float,
    value_space=None,
    gauge_token: str = "id",
) -> Codeword:
    """Encode a step function with total variation at most V to accuracy eps."""
    L = f.L
    tvf = tv(f)
    if tvf > V * (1 + 1e-9) + 1e-12:
        raise BudgetViolation(f"tv(f) = {tvf} exceeds declared budget {V}")
    N1, h2 = choose_params(L, V, eps)
    grid = QuantizerGrid(L, N1)
    vs = _resolve_value_space(f, value_space)
    token = _net_token(vs)
    net = net_from_token(token, h2, vs)
    positions = quantize_positions(f, grid, net)

    c = net.centers[positions]
    _step_arrays(grid.edges, c, net.space)      # refuses what decode's step function would
    jumps = value_distance(c[:-1], c[1:], net.space)
    tv_sharp, tv_cap = float(jumps.sum()), 2 * (N1 - 1) * h2 + V + 1e-9
    if not tv_sharp <= tv_cap:
        raise BudgetViolation(f"quantized tv {tv_sharp} exceeds 2(N1-1)h2 + V = {tv_cap}")

    radii = _rho_sharp_from_dist(jumps, h2)
    profile = _profile(radii)
    if not np.all(np.diff(profile) >= 0):
        raise BudgetViolation("jump profile is not non-decreasing")
    cap = gamma_budget(N1, h2, V) - 1
    if not profile[-1] <= cap:
        raise BudgetViolation(f"jump profile {profile[-1]} exceeds its cap {cap}")

    # One (value, width) table: row 0 holds a 0-bit field, then the start
    # index; row i + 1 the gamma code of k + 1 for step i, then the rank of
    # the next position in the shell at radius k.  Distinct centres are at
    # positive distance, so a radius-0 shell is [pos] alone: a 0-bit rank.
    values = np.zeros((radii.size + 1, 2), dtype=np.int64)
    widths = np.zeros((radii.size + 1, 2), dtype=np.int64)
    values[0, 1], widths[0, 1] = positions[0], _rank_width(net.size)
    values[1:, 0], widths[1:, 0] = radii + 1, _gamma_width(radii + 1)
    for i in np.flatnonzero(radii).tolist():
        shell = net.shell(int(positions[i]), int(radii[i]))
        try:
            values[i + 1, 1] = shell.index(int(positions[i + 1]))
        except ValueError as exc:
            raise CorruptStream(f"step {i} leaves its shell at radius {radii[i]}") from exc
        widths[i + 1, 1] = _rank_width(len(shell))
    return Codeword(
        L=L, N1=N1, h2=h2, net_token=token, gauge_token=gauge_token,
        payload=_pack_bits(values.ravel(), widths.ravel()), bit_length=int(widths.sum()),
    )


def decode(c: Codeword, net: Net) -> StepFunction:
    """Reconstruct the snapped step function exactly from the bitstream.  A
    radius-0 step is the bit 1 with a 0-bit rank in ``[pos]``, so each run of
    stays is one ``read_ones``; a jump's gamma code starts with 0, so k >= 1."""
    r = BitReader(c.payload, c.bit_length)
    pos = r.read(_rank_width(net.size))
    if pos >= net.size:
        raise CorruptStream("start index out of range")
    starts, counts = [], []
    left = c.N1 - 1
    while True:
        stays = r.read_ones(left)
        starts.append(pos)
        counts.append(stays + 1)
        left -= stays
        if not left:
            break
        k = r.read_gamma() - 1
        shell = net.shell(pos, k)
        if not shell:
            raise CorruptStream(f"empty shell at radius {k}")
        rank = r.read(_rank_width(len(shell)))
        if rank >= len(shell):
            raise CorruptStream("shell rank out of range")
        pos = shell[rank]
        left -= 1
    if not r.exhausted:
        raise CorruptStream("bits left over after the last cell")
    return StepFunction(c.grid().edges, net.centers[np.repeat(starts, counts)], net.space)


# ---------------------------------------------------------------------------
# adaptive coarsening for generalized variation


@dataclass(frozen=True)
class CoarseningCertificate:
    h: float
    partition: np.ndarray
    V_h: float
    tv_coarse: float
    l1_error: float

    @property
    def cells(self) -> int:
        return self.partition.size - 1


def adaptive_coarsen(
    f: StepFunction, h: float, gauge: Gauge, V: float
) -> tuple[StepFunction, CoarseningCertificate]:
    """Coarsen f on the partition that advances while f stays within h of the
    value at the current partition point.

    The output is piecewise constant on the partition with certified bounds
    cells-1 <= V/psi(h), tv <= h V / psi(h), and L1 distance <= L h.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    keep, vals = [0], f.values.tolist()     # Python scalars: the same floats, faster
    for m in range(1, f.k):
        if value_distance(vals[m], vals[keep[-1]], f.space) > h:
            keep.append(m)
    cuts = np.concatenate([[0.0], f.breakpoints[keep[1:]], [f.L]])
    fh = StepFunction(cuts, f.values[keep], f.space)

    psi_h = gauge.positive(h)
    V_h = h * V / psi_h
    cert = CoarseningCertificate(
        h=h,
        partition=cuts,
        V_h=V_h,
        tv_coarse=tv(fh),
        l1_error=l1_distance(fh, f),
    )
    if not cert.cells - 1 <= V / psi_h + 1e-9:
        raise BudgetViolation(f"{cert.cells} cells exceed 1 + V/psi(h) = {1 + V / psi_h}")
    if not cert.tv_coarse <= V_h * (1 + 1e-9) + 1e-12:
        raise BudgetViolation(f"coarse tv {cert.tv_coarse} exceeds h V / psi(h) = {V_h}")
    if not cert.l1_error <= f.L * h * (1 + 1e-9):
        raise BudgetViolation(f"coarsening L1 error {cert.l1_error} exceeds L h = {f.L * h}")
    return fh, cert


def encode_bvpsi(
    f: StepFunction,
    gauge: Gauge,
    V: float,
    eps: float,
    value_space=None,
) -> Codeword:
    """Encode a function of generalized variation at most V to accuracy eps.

    Coarsens at h = eps/2L, then runs the plain-BV encoder at accuracy eps/2.
    The plain encoder receives the actual coarse variation as its budget
    (never above the certified worst case), which shrinks the stream while
    keeping every stated bound valid.
    """
    L = f.L
    vpsi = tv_psi(f, gauge)
    if vpsi > V * (1 + 1e-9) + 1e-12:
        raise BudgetViolation(f"generalized variation {vpsi} exceeds budget {V}")
    cap = 2.0 * L * float(gauge.inv(V / 4.0))
    if eps > cap * (1 + 1e-9):
        raise EpsilonTooLarge(f"need eps <= {cap}, got {eps}")
    if eps <= 0:
        raise ValueError("eps must be positive")
    h = eps / (2.0 * L)
    fh, cert = adaptive_coarsen(f, h, gauge, V)
    budget = max(cert.tv_coarse, eps / L)
    if not budget <= cert.V_h * (1 + 1e-9) + 1e-12:
        raise BudgetViolation(f"coarse budget {budget} exceeds h V / psi(h) = {cert.V_h}")
    vs = _resolve_value_space(f, value_space)
    return encode_bv(fh, budget, eps / 2.0, value_space=vs, gauge_token=gauge.token)


# ---------------------------------------------------------------------------
# closed-form bit budgets


def bv_budget_bits(L: float, V: float, eps: float, d: int, H: float) -> float:
    """Bit budget for plain-BV inputs: [3d + log2(5e)] 2LV/eps + H."""
    return (3.0 * d + LOG2_5E) * 2.0 * L * V / eps + H


def upper_bound_bits(
    L: float, V: float, eps: float, gauge: Gauge, d: float, H_quarter: float
) -> float:
    """Bit budget for generalized-variation inputs:
    [3d + log2(5e)] * 2V / psi(eps/2L) + H at scale eps/4L.

    ``d`` may be any non-negative real.  For values bounded by M, the power
    form is ``upper_bound_bits(L, V, eps, Gauge.power(g), d, d * log2(8LM/eps
    + 1))``; the Euclidean form (values in R^d) passes d * log2(5) for d."""
    return (3.0 * d + LOG2_5E) * 2.0 * V / gauge.positive(eps / (2.0 * L)) + H_quarter
