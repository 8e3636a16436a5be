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
time and memory, and no net-by-net matrix is ever built.  A net over a finite
metric space keeps a cached matrix of discrete radii, whose size is bounded
by the space's own distance matrix.  Bits are packed and unpacked in bulk
with numpy; decoding loops once per grid cell.

Generalized-variation inputs are first coarsened by the adaptive partition
that advances while the function stays within h of its value at the current
partition point; the coarsened function is plain-BV with a certified budget.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetViolation,
    CorruptStream,
    EpsilonTooLarge,
    NetIncomplete,
)
from .gauge_variation import Gauge, StepFunction, l1_distance, tv, tv_psi, value_distance
from .metric_core import CoverPackResult, FiniteMetricSpace, covering_number

LOG2_5E = math.log2(5.0 * math.e)


# ---------------------------------------------------------------------------
# value spaces and nets


@dataclass(frozen=True)
class RealInterval:
    """Closed real interval with the absolute-value metric."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.hi >= self.lo:
            raise ValueError("empty interval")

    @property
    def diameter(self) -> float:
        return self.hi - self.lo

    def cover_count(self, alpha: float) -> int:
        """Optimal closed-ball covering count at radius alpha (uniform grid)."""
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        return max(1, math.ceil(self.diameter / (2.0 * alpha)))

    def entropy_bits(self, alpha: float) -> float:
        return math.log2(self.cover_count(alpha))


# Interval nets use the closed-form radius 2|i - j| only while the rounding
# error of |c_i - c_j| / h2 stays far below the 1e-9 slack of
# _rho_sharp_from_dist: max|c| / h2 < 1e5 keeps it under 1e-10.
_CLOSED_FORM_MAX_RATIO = 1e5


class Net:
    """h2-covering of a value space, used as the codec alphabet."""

    def __init__(self, h2, centers, space=None, token="net"):
        self.h2 = float(h2)
        self.space = space
        self.token = token
        if space is None:
            self.centers = np.asarray(centers, dtype=float)
        else:
            self.centers = np.asarray(centers, dtype=int)
        self._rho_sharp = None
        # True only for a uniform interval net within the precision bound.
        self._closed_form = False

    @property
    def size(self) -> int:
        return self.centers.size

    @classmethod
    def uniform(cls, interval: RealInterval, h2: float) -> "Net":
        m = interval.cover_count(h2)
        centers = interval.lo + h2 + 2.0 * h2 * np.arange(m)
        token = f"uniform:{interval.lo!r}:{interval.hi!r}"
        net = cls(h2, centers, None, token)
        reach = max(abs(centers[0]), abs(centers[-1]))
        net._closed_form = bool(reach < _CLOSED_FORM_MAX_RATIO * net.h2)
        return net

    @classmethod
    def greedy_cover(cls, space: FiniteMetricSpace, h2: float) -> "Net":
        res: CoverPackResult = covering_number(space, None, h2, mode="greedy")
        return cls(h2, np.array(res.witness, dtype=int), space, "space")

    def nearest(self, value) -> tuple[int, float]:
        """Position of the nearest center, lowest index on ties."""
        pos, d = self.nearest_many(np.array([value]))
        return int(pos[0]), float(d[0])

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
        if self._rho_sharp is None:
            d = value_distance(self.centers[:, None], self.centers[None, :], self.space)
            self._rho_sharp = _rho_sharp_from_dist(d, self.h2)
        return self._rho_sharp

    def _rho_sharp_row(self, pos: int) -> np.ndarray:
        # Interval nets compute a row on demand instead of building the
        # net-by-net matrix; finite-space nets read the cached matrix.
        if self.space is not None:
            return self.rho_sharp_matrix()[pos]
        d = value_distance(self.centers[pos], self.centers, None)
        return _rho_sharp_from_dist(d, self.h2)

    def shell(self, pos: int, k: int) -> np.ndarray:
        """Center positions at discrete radius exactly k from ``pos``."""
        if not self._closed_form:
            return np.flatnonzero(self._rho_sharp_row(pos) == k)
        half, odd = divmod(k, 2)
        if odd:
            return np.empty(0, dtype=int)
        ends = (pos - half, pos + half) if half else (pos,)
        return np.array([p for p in ends if 0 <= p < self.size], dtype=int)

    def shell_ranks(self, src, dst, k) -> tuple[np.ndarray, np.ndarray]:
        """Rank of each ``dst[i]`` in the shell of radius ``k[i]`` around
        ``src[i]``, and the size of that shell."""
        if self._closed_form:
            half = k // 2
            lower = src - half >= 0
            upper = src + half < self.size
            sizes = np.where(k == 0, 1, lower.astype(int) + upper)
            ranks = ((dst > src) & lower).astype(int)
            return ranks, sizes
        ranks = np.empty(k.size, dtype=int)
        sizes = np.empty(k.size, dtype=int)
        for i, (p, q, r) in enumerate(zip(src, dst, k)):
            shell = self.shell(int(p), int(r))
            ranks[i] = np.searchsorted(shell, q)
            sizes[i] = shell.size
        return ranks, sizes


def _rho_sharp_from_dist(d, h2: float):
    ratio = np.asarray(d, dtype=float) / h2
    k = np.ceil(ratio - 1e-9).astype(int)
    k[np.asarray(d) > 0] = np.maximum(k[np.asarray(d) > 0], 1)
    return k


def rho_sharp(x, y, h2: float, space: FiniteMetricSpace | None = None) -> int:
    """Discrete jump radius: 0 for equal points, else q+1 for a distance
    ratio in (q, q+1]."""
    if h2 <= 0:
        raise ValueError("h2 must be positive")
    return int(_rho_sharp_from_dist(np.array([value_distance(x, y, space)]), h2)[0])


def net_from_token(token: str, h2: float, space=None) -> Net:
    if token.startswith("uniform:"):
        _, lo, hi = token.split(":")
        return Net.uniform(RealInterval(float(lo), float(hi)), h2)
    if token == "space":
        if space is None:
            raise ValueError("space net needs the metric space to rebuild")
        return Net.greedy_cover(space, h2)
    raise ValueError(f"unknown net token {token!r}")


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
    N1 = int(math.floor(3.0 * L * V / (2.0 * eps))) + 2
    h2 = V / (N1 - 1)
    return N1, h2


# ---------------------------------------------------------------------------
# quantization


def quantize_positions(f: StepFunction, grid: QuantizerGrid, net: Net) -> np.ndarray:
    """Net position of the nearest center to f at each grid midpoint."""
    t = grid.midpoints
    piece = np.searchsorted(f.breakpoints, t, side="right") - 1
    positions, d = net.nearest_many(f.values[np.clip(piece, 0, f.k - 1)])
    far = d > net.h2 * (1 + 1e-9)
    if far.any():
        i = int(np.argmax(far))
        raise NetIncomplete(
            f"no net center within {net.h2} of f({t[i]}) (nearest at {d[i]})"
        )
    return positions


def quantize(f: StepFunction, grid: QuantizerGrid, net: Net) -> StepFunction:
    """Snap f to a piecewise-constant function with net values per grid cell."""
    positions = quantize_positions(f, grid, net)
    values = net.centers[positions]
    return StepFunction(grid.edges, values, net.space)


def jump_profile(fs: StepFunction, h2: float) -> np.ndarray:
    """Cumulative discrete-jump counter across grid cells (non-decreasing)."""
    if h2 <= 0:
        raise ValueError("h2 must be positive")
    return _profile(_rho_sharp_from_dist(fs.jump_sizes(), h2))


def _profile(radii: np.ndarray) -> np.ndarray:
    out = np.zeros(radii.size + 1, dtype=int)
    out[1:] = np.cumsum(radii) + np.arange(radii.size)
    return out


def gamma_budget(N1: int, h2: float, V: float) -> int:
    """Cap on the jump profile: 4*N1 - 4 + floor(V / h2)."""
    return 4 * N1 - 4 + int(math.floor(V / h2))


# ---------------------------------------------------------------------------
# bit-level plumbing


def _bit_length(n) -> np.ndarray:
    """int.bit_length of each entry of a nonnegative integer array below 2**53."""
    return np.frexp(np.asarray(n, dtype=float))[1]


def _gamma_width(n):
    """Width of the Elias gamma code of n >= 1: the value n written in
    2*bit_length(n) - 1 bits, its leading zeros being the unary prefix."""
    return 2 * _bit_length(n) - 1


class BitWriter:
    """MSB-first bit packer: fields queue up as (value, width) arrays and are
    packed in one pass with ``np.packbits``."""

    def __init__(self):
        self._values: list[np.ndarray] = []
        self._widths: list[np.ndarray] = []
        self._n = 0

    def write(self, value: int, width: int) -> None:
        self.write_fields([value], [width])

    def write_fields(self, values, widths) -> None:
        """Append ``values[i]`` in ``widths[i]`` bits, in order."""
        widths = np.asarray(widths, dtype=np.int64)
        self._values.append(np.asarray(values, dtype=np.int64))
        self._widths.append(widths)
        self._n += int(widths.sum())

    def write_gamma(self, n: int) -> None:
        """Elias gamma code for n >= 1."""
        if n < 1:
            raise ValueError("gamma code needs n >= 1")
        self.write(n, int(_gamma_width(n)))

    @property
    def bit_length(self) -> int:
        return self._n

    def to_bytes(self) -> bytes:
        if not self._n:
            return b""
        values = np.concatenate(self._values)
        widths = np.concatenate(self._widths)
        field = np.repeat(np.arange(widths.size), widths)
        shift = (np.cumsum(widths) - 1)[field] - np.arange(self._n)
        bits = (values[field] >> shift) & 1
        return np.packbits(bits.astype(np.uint8)).tobytes()


class BitReader:
    """MSB-first bit reader over the first ``bit_length`` bits of a payload."""

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
        fh.write(struct.pack("<d", c.L))
        fh.write(struct.pack("<I", c.N1))
        net_size = 0
        fh.write(struct.pack("<I", net_size))
        fh.write(struct.pack("<d", c.h2))
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
    return Codeword(L, N1, h2, tokens[1], tokens[0], payload, bit_length)


# ---------------------------------------------------------------------------
# encoding / decoding


def _resolve_value_space(f: StepFunction, value_space):
    if value_space is not None:
        return value_space
    if f.space is not None:
        return f.space
    return RealInterval(float(f.values.min()), float(f.values.max()))


def _build_net(value_space, h2: float) -> Net:
    if isinstance(value_space, RealInterval):
        return Net.uniform(value_space, h2)
    return Net.greedy_cover(value_space, h2)


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
    net = _build_net(_resolve_value_space(f, value_space), h2)
    positions = quantize_positions(f, grid, net)

    fsharp = StepFunction(grid.edges, net.centers[positions], net.space)
    tv_sharp, tv_cap = tv(fsharp), 2 * (N1 - 1) * h2 + V + 1e-9
    if not tv_sharp <= tv_cap:
        raise BudgetViolation(f"quantized tv {tv_sharp} exceeds 2(N1-1)h2 + V = {tv_cap}")

    radii = _rho_sharp_from_dist(fsharp.jump_sizes(), h2)
    profile = _profile(radii)
    if not np.all(np.diff(profile) >= 0):
        raise BudgetViolation("jump profile is not non-decreasing")
    cap = gamma_budget(N1, h2, V) - 1
    if not profile[-1] <= cap:
        raise BudgetViolation(f"jump profile {profile[-1]} exceeds its cap {cap}")

    src, dst = positions[:-1], positions[1:]
    ranks, sizes = net.shell_ranks(src, dst, radii)
    w = BitWriter()
    w.write(int(positions[0]), _rank_width(net.size))
    # Per step: the gamma code of k + 1, then the shell rank in
    # bit_length(size - 1) bits, which is _rank_width(size) for size >= 1.
    w.write_fields(
        np.column_stack([radii + 1, ranks]).ravel(),
        np.column_stack([_gamma_width(radii + 1), _bit_length(sizes - 1)]).ravel(),
    )
    return Codeword(
        L=L, N1=N1, h2=h2, net_token=net.token, gauge_token=gauge_token,
        payload=w.to_bytes(), bit_length=w.bit_length,
    )


def decode(c: Codeword, net: Net) -> StepFunction:
    """Reconstruct the snapped step function exactly from the bitstream."""
    r = BitReader(c.payload, c.bit_length)
    pos = r.read(_rank_width(net.size))
    if pos >= net.size:
        raise CorruptStream("start index out of range")
    positions = [pos]
    for _ in range(c.N1 - 1):
        k = r.read_gamma() - 1
        shell = net.shell(pos, k)
        if shell.size == 0:
            raise CorruptStream(f"empty shell at radius {k}")
        rank = r.read(_rank_width(shell.size))
        if rank >= shell.size:
            raise CorruptStream("shell rank out of range")
        pos = int(shell[rank])
        positions.append(pos)
    if not r.exhausted:
        raise CorruptStream("bits left over after the last cell")
    grid = c.grid()
    return StepFunction(grid.edges, net.centers[positions], net.space)


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
    cuts = [0.0]
    vals = []
    j = 0
    while True:
        anchor = f.values[j]
        vals.append(anchor)
        nxt = None
        for m in range(j + 1, f.k):
            if f.rho(f.values[m], anchor) > h:
                nxt = m
                break
        if nxt is None:
            cuts.append(f.L)
            break
        cuts.append(float(f.breakpoints[nxt]))
        j = nxt
    fh = StepFunction(np.asarray(cuts), np.asarray(vals), f.space)

    psi_h = float(gauge(h))
    V_h = h * V / psi_h
    cert = CoarseningCertificate(
        h=h,
        partition=np.asarray(cuts),
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
    L: float, V: float, eps: float, gauge: Gauge, d: int, H_quarter: float
) -> float:
    """Bit budget for generalized-variation inputs:
    [3d + log2(5e)] * 2V / psi(eps/2L) + H at scale eps/4L."""
    return (3.0 * d + LOG2_5E) * 2.0 * V / float(gauge(eps / (2.0 * L))) + H_quarter


def power_budget_bits(
    gamma: float, L: float, V: float, eps: float, d: int, M: float
) -> float:
    """Power-gauge budget: 2^(g+1) [3d + log2(5e)] L^g V / eps^g + entropy term."""
    return (
        2.0 ** (gamma + 1.0) * (3.0 * d + LOG2_5E) * L ** gamma * V / eps ** gamma
        + d * math.log2(8.0 * L * M / eps + 1.0)
    )


def euclidean_budget_bits(
    L: float, M: float, V: float, eps: float, gauge: Gauge, d: int
) -> float:
    """Budget for d-dimensional bounded values:
    [3 d log2(5) + log2(5e)] 2V / psi(eps/2L) + d log2(8LM/eps + 1)."""
    return (
        (3.0 * d * math.log2(5.0) + LOG2_5E) * 2.0 * V / float(gauge(eps / (2.0 * L)))
        + d * math.log2(8.0 * L * M / eps + 1.0)
    )
