"""Packing witness families: many well-separated functions of bounded
generalized variation.

A family lives on an equal-block partition of [0, L].  Block values are drawn
from a strictly separated point set inside a ball of the value space, so two
members that differ in many blocks are far apart in L1.  The family size
certifies a lower bound on the packing number of the variation class.

Members that differ in k blocks are at least k (L / N1) delta apart, delta
the least distance between values, so the alphabet certifies every pair at
once, and the closest pair one block apart is the closest of all when it is
within (L / N1) 2 delta.  Pairs are read one by one only when either fails.

A family is its (members x N1) matrix of point indices: budgets run one
chain DP over the whole matrix, and extraction and the cross-center check
read rows from :func:`~bventropy.gauge_variation.l1_row`.  The pair distances
of :func:`verify_packing` keep their own float.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateBall,
    FamilyTooLarge,
    InfeasibleConstraint,
    SeparationFailure,
)
from .gauge_variation import Gauge, _chain_best, l1_row, l1_row_oracle
from .metric_core import FiniteMetricSpace, farthest_first, packing_number

LOG2_7 = math.log2(7.0)

DEFAULT_SAMPLE_SIZE = 4096

#: Largest m N1 (m + N1), m members on N1 blocks, bounding the O(m N1^2) budget
#: check and the O(m^2 N1) pair loop and extraction that verify_packing falls
#: back to.  On 2 vCPUs, 14,641 x 4 (8.6e8) build in 0.02 s and verify in 0.02 s;
#: their pair loop alone takes 8.5 s.  It also picks listing over sampling: a
#: family lists every word while they fit it, and samples
#: ``DEFAULT_SAMPLE_SIZE`` distinct words otherwise.
MAX_FAMILY_WORK = 10 ** 9


def separation_factor(p_tilde: float) -> float:
    """Separation-to-radius ratio 2^-(2 + 2/p_tilde) used by the families."""
    if p_tilde <= 0:
        raise ValueError("needs a positive packing exponent")
    return 2.0 ** (-(2.0 + 2.0 / p_tilde))


def ball_packing(
    space: FiniteMetricSpace, center: int, h: float, p_tilde: float
) -> np.ndarray:
    """Space indices of a greedy packing of the closed ball B(center, h) at the
    separation prescribed by the packing exponent."""
    if not 0 <= center < space.n:
        raise ValueError(f"center {center} is not a point of the {space.n}-point space")
    ball = space.ball(center, h)
    if ball.size <= 1:
        raise DegenerateBall(f"ball of radius {h} around {center} is a single point")
    sep = separation_factor(p_tilde) * h
    return np.array(packing_number(space, ball, sep, mode="greedy").witness, dtype=int)


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

    @property
    def size(self) -> int:
        return self.members.shape[0]

    @property
    def target_separation(self) -> float:
        return 2.0 * self.epsilon

    @property
    def block_edges(self) -> np.ndarray:
        return np.linspace(0.0, self.L, self.N1 + 1)


def _check_work(m, N1) -> None:
    if m * N1 * (m + N1) > MAX_FAMILY_WORK:
        raise FamilyTooLarge(f"witness family of m = {m:g} members on N1 = {N1:g} blocks: "
                             f"m N1 (m + N1) = {m * N1 * (m + N1):.3g} > {MAX_FAMILY_WORK:.0e}")


def _check_scales(L: float, epsilon: float) -> None:
    for name, value in (("L", L), ("epsilon", epsilon)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")


def _block_count(V: float, gauge: Gauge, h: float) -> int:
    # N1 = floor(V / psi(2h)) + 1, refused before it can overflow to an integer
    blocks = V / gauge.positive(2.0 * h)
    _check_work(1, blocks + 1)          # a family has a member
    return int(math.floor(blocks)) + 1


def _member_matrix(ah: np.ndarray, N1: int, seed: int):
    total = ah.size ** N1
    # Only more words than the bound lists are sampled: enough distinct rows.
    enumerate_all = total * N1 * (total + N1) <= MAX_FAMILY_WORK
    _check_work(total if enumerate_all else DEFAULT_SAMPLE_SIZE, N1)
    if enumerate_all:
        combos = np.array(list(itertools.product(range(ah.size), repeat=N1)), dtype=int)
        return ah[combos], "enumerated"
    rng = np.random.default_rng(seed)
    rows: dict = {}                 # distinct draws in the order first drawn
    while len(rows) < DEFAULT_SAMPLE_SIZE:
        rows[tuple(int(v) for v in rng.integers(0, ah.size, size=N1))] = None
    return ah[np.array(list(rows), dtype=int).reshape(-1, N1)], "sampled"


def build_family(
    L: float,
    V: float,
    epsilon: float,
    gauge: Gauge,
    space: FiniteMetricSpace,
    center: int,
    p_tilde: float,
    seed: int = 0,
) -> WitnessFamily:
    """Family around one value-space center.

    Uses ball radius h = 2^(4 + 2/p_tilde) eps / L and the largest block count
    allowed by the variation budget: every member makes at most N1 - 1 jumps
    of size at most 2h, so its generalized variation stays within V.
    """
    _check_scales(L, epsilon)
    if not p_tilde > 0:
        raise ValueError(f"a family needs a packing exponent p_tilde above 0, got {p_tilde}")
    h = 2.0 ** (4.0 + 2.0 / p_tilde) * epsilon / L
    N1 = _block_count(V, gauge, h)
    if (N1 - 1) * float(gauge(2.0 * h)) > V * (1 + 1e-9):
        raise InfeasibleConstraint(
            f"(N1-1) psi(2h) = {(N1 - 1) * float(gauge(2.0 * h))} exceeds V = {V}"
        )
    alphabet = ball_packing(space, center, h, p_tilde)
    members, mode = _member_matrix(alphabet, N1, seed)
    fam = WitnessFamily(
        L=L, V=V, epsilon=epsilon, h=h, N1=N1, gauge=gauge, space=space,
        A_h=alphabet, members=members, p_tilde=p_tilde, mode=mode, seed=seed,
    )
    _check_budgets(fam)
    return fam


def _check_budgets(fam: WitnessFamily) -> None:
    # Independent recomputation of the variation of every member: one chain
    # DP over the member matrix, each row the float tv_psi gives (values are
    # point indices, so every index enters the program).
    v = _chain_best(fam.members, fam.gauge, fam.space)[:, -1]
    bad = np.flatnonzero(v > fam.V * (1 + 1e-9) + 1e-12)
    if bad.size:
        raise InfeasibleConstraint(
            f"member {bad[0]} has generalized variation {float(v[bad[0]])} "
            f"> budget {fam.V}"
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
    """Guaranteed cardinality 2^(p_tilde V / 2 psi(2 * 2^(4+2/p_tilde) eps/L)),
    or inf once that leaves float range; 1 at a packing exponent of 0."""
    if p_tilde <= 0:
        return 1.0
    arg = 2.0 ** (4.0 + 2.0 / p_tilde) * 2.0 * epsilon / L
    try:
        return 2.0 ** (p_tilde * V / (2.0 * gauge.positive(arg)))
    except OverflowError:
        return math.inf


def verify_packing(fam: WitnessFamily) -> SeparationReport:
    """Certify the separation of every pair and extract a packing at 2 eps.

    A pair differing in k blocks must be more than k per_block apart, with
    per_block = separation_factor * L h / N1, or 2 eps for the constants of
    :func:`global_family`; a failure is a bug, not a tolerance issue.  Pair
    distances are L / N1 times the block sum, which can differ from
    :func:`l1_row`'s in the last bits.  The row loop, which names the first
    failing pair, runs when the rows repeat, when (L / N1) delta beats
    per_block by less than the rounding margin, or when no pair one block
    apart attains the minimum.  A minimum above 2 eps by the margin extracts
    every member; a smaller one runs the farthest-first extraction.
    """
    m = fam.size
    if m == 0:
        raise ValueError("empty family")
    per_block = (separation_factor(fam.p_tilde) * fam.L * fam.h / fam.N1
                 if fam.p_tilde > 0 else fam.target_separation)
    scale, values = fam.L / fam.N1, np.unique(fam.members)
    # N1 roundings in a block sum, up to 2 N1 in l1_row's cell widths and a
    # few in the products: a margin this wide keeps both tests below sound
    slack = 1.0 + (2 * fam.N1 + 4) * np.finfo(float).eps
    rho = fam.space.dist[np.ix_(values, values)]
    np.fill_diagonal(rho, np.inf)
    delta, prefixes = float(rho.min()), _prefix_ids(fam.members)
    certified = prefixes[:, -1].max() == m - 1 and scale * delta > per_block * slack
    near = scale * _one_block_min(fam.members, prefixes, fam.space.dist) if certified else 0.0
    min_dist = near if certified and near <= scale * (2.0 * delta) else _pair_min(fam, per_block)
    return SeparationReport(
        epsilon=fam.epsilon, h=fam.h, N1=fam.N1, family_size=m,
        pairs_checked=m * (m - 1) // 2,
        min_distance=min_dist if math.isfinite(min_dist) else 0.0,
        extracted_packing_size=m if min_dist > fam.target_separation * slack
        else len(_greedy_extract(fam, fam.target_separation)),
        theoretical_floor=family_floor(fam.p_tilde, fam.V, fam.epsilon, fam.L, fam.gauge),
        mode=fam.mode, seed=fam.seed,
    )


def _pair_min(fam: WitnessFamily, per_block: float) -> float:
    """Least pair distance, each pair checked against its bound in turn."""
    best = math.inf
    for i in range(fam.size - 1):
        a, b = fam.members[i], fam.members[i + 1:]
        d = fam.L / fam.N1 * fam.space.dist[a, b].sum(axis=1)
        k = (a != b).sum(axis=1)
        if (bad := np.flatnonzero(d <= per_block * k * (1 - 1e-12))).size:
            t = bad[0]
            raise SeparationFailure(f"pair ({i},{i + 1 + t}): distance {d[t]} <= "
                                    f"{per_block * k[t]} with {k[t]} differing blocks")
        best = min(best, float(d.min()))
    return best


def _prefix_ids(rows: np.ndarray) -> np.ndarray:
    """Column j of the (m, N1 + 1) result numbers the distinct rows[:, :j]."""
    order, n1 = np.lexsort(rows.T[::-1]), rows.shape[1]
    neq = np.diff(rows[order], axis=0) != 0
    first = np.where(neq.any(axis=1), neq.argmax(axis=1), n1)   # first differing block
    ids = np.zeros((rows.shape[0], n1 + 1), dtype=np.int64)
    ids[order[1:]] = np.cumsum(first[:, None] < np.arange(n1 + 1), axis=0)
    return ids


def _one_block_min(members: np.ndarray, prefixes: np.ndarray, dist: np.ndarray) -> float:
    """Least distance between the values of two members that differ in one
    block only: they share the prefix before it and the suffix after it."""
    m, n1 = members.shape
    suffixes = _prefix_ids(members[:, ::-1])[:, n1 - 1::-1]
    key = ((prefixes[:, :n1] * m + suffixes) * n1 + np.arange(n1)).ravel()
    order = np.argsort(key)
    key, vals, best = key[order], members.ravel()[order], math.inf
    for t in range(1, m):           # pairs t apart within a run of equal keys
        if not (same := np.flatnonzero(key[t:] == key[:-t])).size:
            break
        best = min(best, float(dist[vals[same], vals[same + t]].min()))
    return best


def _greedy_extract(fam: WitnessFamily, separation: float) -> list[int]:
    """Farthest-first member selection at strict separation, on l1_row rows."""
    rows = l1_row_oracle(np.ascontiguousarray(fam.members.T), np.diff(fam.block_edges), fam.space)
    return farthest_first(rows, 0, separation)[0]


def global_family(
    L: float,
    V: float,
    epsilon: float,
    gauge: Gauge,
    space: FiniteMetricSpace,
    p_tilde: float,
    seed: int = 0,
) -> WitnessFamily:
    """Union of per-center families over a packing of the whole value space.

    Members attached to different centers are automatically 2 eps apart: the
    centers are more than h2 apart while values stray at most h from their
    center, and L (h2 - 2h) = 2 eps by the parameter choice.  With a
    degenerate packing exponent the family falls back to constant functions
    at a 4 eps / L packing of the space.
    """
    _check_scales(L, epsilon)
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
    N1 = _block_count(V, gauge, h)

    blocks = []
    for c in centers:
        try:
            alphabet = ball_packing(space, int(c), h, p_tilde)
        except DegenerateBall:
            alphabet = np.array([int(c)])
        blocks.append(_member_matrix(alphabet, N1, seed + int(c))[0])
    members = np.concatenate(blocks, axis=0)
    _check_work(members.shape[0], N1)
    fam = WitnessFamily(
        L=L, V=V, epsilon=epsilon, h=h, N1=N1, gauge=gauge, space=space,
        A_h=np.unique(members), members=members, p_tilde=p_tilde,
        mode="global", seed=seed,
    )
    _check_budgets(fam)
    _check_cross_centers(fam, blocks)
    return fam


def _check_cross_centers(fam: WitnessFamily, blocks) -> None:
    # the first member of each center's block against every later block
    target = fam.target_separation
    w = np.diff(fam.block_edges)
    for first, later in itertools.combinations(blocks, 2):
        d = l1_row(np.ascontiguousarray(later.T), first[0], w, fam.space)
        if d.size and float(d.min()) < target * (1 - 1e-9):
            raise SeparationFailure(f"cross-center distance {float(d.min())} below {target}")


def lower_bound_bits(
    epsilon: float, L: float, V: float, gauge: Gauge, p: float, K_term: float = 0.0
) -> float:
    """Entropy lower bound p V / (2 log2(7) psi(256 eps / L)) + K_term.

    The power form, with its constant 2^-(8 gamma + 1), is ``lower_bound_bits(
    eps, L, V, Gauge.power(gamma), p, p * log(max(diam L / (516 eps), 1), 7))``."""
    if p <= 0:
        return K_term
    return p * V / (2.0 * LOG2_7 * gauge.positive(256.0 * epsilon / L)) + K_term
