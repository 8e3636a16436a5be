"""Packing witness families: many well-separated functions of bounded
generalized variation.

A family lives on an equal-block partition of [0, L].  Block values are drawn
from a strictly separated point set inside a ball of the value space, so two
members that differ in many blocks are far apart in L1.  The family size
certifies a lower bound on the packing number of the variation class, and the
minimum pairwise distance is verifiable exactly because members share blocks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateBall,
    InfeasibleConstraint,
    LengthMismatch,
    SeparationFailure,
)
from .gauge_variation import Gauge, StepFunction, tv_psi
from .metric_core import FiniteMetricSpace, farthest_first, packing_number

LOG2_7 = math.log2(7.0)

ENUMERATION_CAP = 10 ** 6
DEFAULT_SAMPLE_SIZE = 4096


@dataclass(frozen=True)
class BallPacking:
    """Strictly separated points inside a ball of the value space."""

    points: np.ndarray          # space indices
    center: int
    h: float
    separation: float
    scale_deficiency: bool      # too few points to meet the dimension target

    @property
    def size(self) -> int:
        return self.points.size


def separation_factor(p_tilde: float) -> float:
    """Separation-to-radius ratio 2^-(2 + 2/p_tilde) used by the families."""
    if p_tilde <= 0:
        raise ValueError("needs a positive packing exponent")
    return 2.0 ** (-(2.0 + 2.0 / p_tilde))


def ball_packing(
    space: FiniteMetricSpace, center: int, h: float, p_tilde: float
) -> BallPacking:
    """Greedy packing of the closed ball B(center, h) at the separation
    prescribed by the packing exponent."""
    if not 0 <= center < space.n:
        raise ValueError(f"center {center} is not a point of the {space.n}-point space")
    ball = space.ball(center, h)
    if ball.size <= 1:
        raise DegenerateBall(f"ball of radius {h} around {center} is a single point")
    sep = separation_factor(p_tilde) * h
    res = packing_number(space, ball, sep, mode="greedy")
    points = np.array(res.witness, dtype=int)
    target = 2 ** (math.floor(p_tilde) + 2)
    return BallPacking(
        points=points, center=center, h=h, separation=sep,
        scale_deficiency=points.size < target,
    )


def eta(delta, delta_tilde) -> int:
    """Number of coordinates where two index vectors differ."""
    a = np.asarray(delta)
    b = np.asarray(delta_tilde)
    if a.shape != b.shape:
        raise LengthMismatch(f"shapes {a.shape} vs {b.shape}")
    return int(np.count_nonzero(a != b))


@dataclass(frozen=True)
class WitnessFamily:
    """Functions on equal blocks of [0, L] with values from a ball packing."""

    L: float
    V: float
    epsilon: float
    h: float
    N1: int
    gauge: Gauge = field(repr=False)
    space: FiniteMetricSpace = field(repr=False)
    A_h: np.ndarray                   # usable value points (space indices)
    members: np.ndarray               # (m, N1) space indices
    p_tilde: float
    mode: str                         # enumerated | sampled | global | constants
    seed: int = 0
    scale_deficiency: bool = False

    @property
    def size(self) -> int:
        return self.members.shape[0]

    @property
    def target_separation(self) -> float:
        return 2.0 * self.epsilon

    @property
    def block_edges(self) -> np.ndarray:
        return np.linspace(0.0, self.L, self.N1 + 1)

    def member_function(self, i: int) -> StepFunction:
        return StepFunction(self.block_edges, self.members[i], self.space)

    def member_distance(self, i: int, j: int) -> float:
        """Exact L1 distance; members share blocks, so it is a plain sum."""
        d = self.space.dist[self.members[i], self.members[j]]
        return float(self.L / self.N1 * d.sum())

    def distances_from(self, i: int) -> np.ndarray:
        d = self.space.dist[self.members[i][None, :], self.members]
        return self.L / self.N1 * d.sum(axis=1)

def _member_matrix(ah: np.ndarray, N1: int, cap: int, sample: int, seed: int):
    total = ah.size ** N1
    if total <= cap:
        combos = np.array(list(itertools.product(range(ah.size), repeat=N1)), dtype=int)
        return ah[combos], "enumerated"
    rng = np.random.default_rng(seed)
    seen = set()
    rows = []
    while len(rows) < sample:
        draw = tuple(int(v) for v in rng.integers(0, ah.size, size=N1))
        if draw not in seen:
            seen.add(draw)
            rows.append(draw)
    return ah[np.array(rows, dtype=int)], "sampled"


def build_family(
    L: float,
    V: float,
    epsilon: float,
    gauge: Gauge,
    space: FiniteMetricSpace,
    center: int,
    p_tilde: float,
    seed: int = 0,
    cap: int = ENUMERATION_CAP,
    sample_size: int = DEFAULT_SAMPLE_SIZE,
) -> WitnessFamily:
    """Family around one value-space center.

    Uses ball radius h = 2^(4 + 2/p_tilde) eps / L and the largest block count
    allowed by the variation budget: every member makes at most N1 - 1 jumps
    of size at most 2h, so its generalized variation stays within V.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if not L > 0:
        raise ValueError(f"L must be positive, got {L}")
    h = 2.0 ** (4.0 + 2.0 / p_tilde) * epsilon / L
    N1 = int(math.floor(V / float(gauge(2.0 * h)))) + 1
    if (N1 - 1) * float(gauge(2.0 * h)) > V * (1 + 1e-9):
        raise InfeasibleConstraint(
            f"(N1-1) psi(2h) = {(N1 - 1) * float(gauge(2.0 * h))} exceeds V = {V}"
        )
    packing = ball_packing(space, center, h, p_tilde)
    members, mode = _member_matrix(packing.points, N1, cap, sample_size, seed)
    fam = WitnessFamily(
        L=L, V=V, epsilon=epsilon, h=h, N1=N1, gauge=gauge, space=space,
        A_h=packing.points, members=members, p_tilde=p_tilde, mode=mode,
        seed=seed, scale_deficiency=packing.scale_deficiency,
    )
    _check_budgets(fam)
    return fam


def _check_budgets(fam: WitnessFamily) -> None:
    # Independent recomputation of the variation of every member.
    for i in range(fam.size):
        v = tv_psi(fam.member_function(i), fam.gauge)
        if v > fam.V * (1 + 1e-9) + 1e-12:
            raise InfeasibleConstraint(
                f"member {i} has generalized variation {v} > budget {fam.V}"
            )


@dataclass(frozen=True)
class SeparationReport:
    epsilon: float
    h: float
    N1: int
    family_size: int
    pairs_checked: int
    min_distance: float
    extracted_packing_size: int
    theoretical_floor: float
    mode: str
    seed: int

    CSV_HEADER = (
        "epsilon,h,N1,family_size,min_pair_distance,"
        "extracted_size,theoretical_floor,mode,seed"
    )

    def csv_row(self) -> str:
        return (
            f"{self.epsilon},{self.h},{self.N1},{self.family_size},"
            f"{self.min_distance},{self.extracted_packing_size},"
            f"{self.theoretical_floor},{self.mode},{self.seed}"
        )


def family_floor(
    p_tilde: float, V: float, epsilon: float, L: float, gauge: Gauge
) -> float:
    """Guaranteed cardinality 2^(p_tilde V / 2 psi(2 * 2^(4+2/p_tilde) eps/L))."""
    arg = 2.0 ** (4.0 + 2.0 / p_tilde) * 2.0 * epsilon / L
    return 2.0 ** (p_tilde * V / (2.0 * float(gauge(arg))))


_PAIR_CHUNK = 4096      # sampled pairs checked per block


def verify_packing(
    fam: WitnessFamily, pair_cap: int = 2 * 10 ** 6, seed: int = 0
) -> SeparationReport:
    """Check pairwise separation and extract a packing at 2 eps.

    Each pair must satisfy the exact bound
    distance > separation_factor * (L h / N1) * (number of differing blocks);
    any failure is an implementation bug, not a tolerance issue.  Up to
    ``pair_cap`` pairs, every pair i < j is checked, a row at a time; above
    it, ``pair_cap`` pairs drawn from ``seed`` are, with i == j skipped.
    """
    m = fam.size
    if m == 0:
        raise ValueError("empty family")
    per_block = separation_factor(fam.p_tilde) * fam.L * fam.h / fam.N1
    if m * (m - 1) // 2 <= pair_cap:
        blocks = ((np.full(m - 1 - i, i), np.arange(i + 1, m)) for i in range(m - 1))
    else:
        rng = np.random.default_rng(seed)
        draws = (rng.integers(0, m, size=(min(_PAIR_CHUNK, pair_cap - s), 2))
                 for s in range(0, pair_cap, _PAIR_CHUNK))
        blocks = (ij[ij[:, 0] != ij[:, 1]].T for ij in draws)
    min_dist = math.inf
    checked = 0
    for I, J in blocks:
        a, b = fam.members[I], fam.members[J]
        d = fam.L / fam.N1 * fam.space.dist[a, b].sum(axis=1)
        k = (a != b).sum(axis=1)
        bad = np.flatnonzero(d <= per_block * k * (1 - 1e-12))
        if bad.size:
            t = bad[0]
            raise SeparationFailure(
                f"pair ({I[t]},{J[t]}): distance {d[t]} <= {per_block * k[t]} "
                f"with {k[t]} differing blocks"
            )
        min_dist = min(min_dist, float(d.min(initial=math.inf)))
        checked += I.size

    extracted = _greedy_extract(fam, fam.target_separation)
    return SeparationReport(
        epsilon=fam.epsilon, h=fam.h, N1=fam.N1, family_size=m,
        pairs_checked=checked,
        min_distance=min_dist if math.isfinite(min_dist) else 0.0,
        extracted_packing_size=len(extracted),
        theoretical_floor=family_floor(fam.p_tilde, fam.V, fam.epsilon, fam.L, fam.gauge),
        mode=fam.mode, seed=fam.seed,
    )


def _greedy_extract(fam: WitnessFamily, separation: float) -> list[int]:
    """Farthest-first member selection at strict separation."""
    return farthest_first(fam.distances_from, 0, separation)


def global_family(
    L: float,
    V: float,
    epsilon: float,
    gauge: Gauge,
    space: FiniteMetricSpace,
    p_tilde: float,
    seed: int = 0,
    cap: int = ENUMERATION_CAP,
    sample_size: int = DEFAULT_SAMPLE_SIZE,
) -> WitnessFamily:
    """Union of per-center families over a packing of the whole value space.

    Members attached to different centers are automatically 2 eps apart: the
    centers are more than h2 apart while values stray at most h from their
    center, and L (h2 - 2h) = 2 eps by the parameter choice.  With a
    degenerate packing exponent the family falls back to constant functions
    at a 4 eps / L packing of the space.
    """
    if p_tilde <= 0:
        pts = packing_number(space, None, 4.0 * epsilon / L, mode="greedy").witness
        members = np.array(pts, dtype=int)[:, None]
        return WitnessFamily(
            L=L, V=V, epsilon=epsilon, h=epsilon / L, N1=1, gauge=gauge,
            space=space, A_h=np.array(pts, dtype=int), members=members,
            p_tilde=0.0, mode="constants", seed=seed,
        )

    h = 2.0 ** (5.0 + 2.0 / p_tilde) * epsilon / L
    h2 = (2.0 + 2.0 ** (6.0 + 2.0 / p_tilde)) * epsilon / L
    centers = packing_number(space, None, h2, mode="greedy").witness
    N1 = int(math.floor(V / float(gauge(2.0 * h)))) + 1

    blocks = []
    for c in centers:
        try:
            packing = ball_packing(space, int(c), h, p_tilde)
        except DegenerateBall:
            packing = BallPacking(
                points=np.array([int(c)]), center=int(c), h=h,
                separation=separation_factor(p_tilde) * h, scale_deficiency=True,
            )
        part, _ = _member_matrix(
            packing.points, N1, max(cap // max(len(centers), 1), 1),
            sample_size, seed + int(c),
        )
        blocks.append(part)
    members = np.concatenate(blocks, axis=0)
    fam = WitnessFamily(
        L=L, V=V, epsilon=epsilon, h=h, N1=N1, gauge=gauge, space=space,
        A_h=np.unique(members), members=members, p_tilde=p_tilde,
        mode="global", seed=seed,
    )
    _check_budgets(fam)
    _check_cross_centers(fam, blocks)
    return fam


def _check_cross_centers(fam: WitnessFamily, blocks) -> None:
    target = fam.target_separation
    offset = 0
    starts = []
    for part in blocks:
        starts.append(offset)
        offset += part.shape[0]
    for a in range(len(blocks)):
        for b in range(a + 1, len(blocks)):
            i = starts[a]
            d = fam.distances_from(i)[starts[b]: starts[b] + blocks[b].shape[0]]
            if d.size and float(d.min()) < target * (1 - 1e-9):
                raise SeparationFailure(
                    f"cross-center distance {float(d.min())} below {target}"
                )


def lower_bound_bits(
    epsilon: float, L: float, V: float, gauge: Gauge, p: float, K_term: float = 0.0
) -> float:
    """Entropy lower bound p V / (2 log2(7) psi(256 eps / L)) + K_term."""
    if p <= 0:
        return K_term
    return p * V / (2.0 * LOG2_7 * float(gauge(256.0 * epsilon / L))) + K_term


def lower_bound_bits_power(
    gamma: float,
    epsilon: float,
    L: float,
    V: float,
    p: float,
    diam: float,
) -> float:
    """Power-gauge lower bound with the explicit constant 2^-(8 gamma + 1)."""
    if p <= 0:
        return 0.0
    lead = p / (2.0 ** (8.0 * gamma + 1.0) * LOG2_7) * L ** gamma * V / epsilon ** gamma
    tail = p * math.log(max(diam * L / (516.0 * epsilon), 1.0), 7.0)
    return lead + tail
