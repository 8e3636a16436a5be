"""Empirical entropy of step-function ensembles under the L1 metric.

Covering and packing counts of a finite ensemble are computed greedily across
a decreasing accuracy grid, the packing exponent is fitted on a log-log scale,
and each row can carry the closed-form upper/lower bit bounds of the
variation class the ensemble was sampled from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bv_codec import RealInterval, upper_bound_bits
from .errors import DomainMismatch, InsufficientRows
from .gauge_variation import Gauge, StepFunction, l1_distance, tv_psi
from .metric_core import farthest_first, greedy_set_cover
from .witness_lab import WitnessFamily, lower_bound_bits

MATRIX_CAP = 2000     # full pairwise distance matrix allowed up to this size


@dataclass(frozen=True)
class ClassParams:
    """Declared variation-class parameters used for the bound columns."""

    L: float
    V: float
    gauge: Gauge
    d: int = 1
    p: float = 1.0
    value_lo: float = 0.0
    value_hi: float = 1.0
    K_term: float = 0.0

    def entropy_term(self, alpha: float) -> float:
        return RealInterval(self.value_lo, self.value_hi).entropy_bits(alpha)


class FunctionEnsemble:
    """Finite sample of step functions on a common [0, L]."""

    def __init__(self, members, generator: str = "custom", seed: int = 0,
                 params: ClassParams | None = None):
        if not members:
            raise ValueError("ensemble must be nonempty")
        self.members = list(members)
        self.generator = generator
        self.seed = seed
        self.params = params
        L = self.members[0].L
        space = self.members[0].space
        for f in self.members:
            if abs(f.L - L) > 1e-12 * max(L, 1.0) or f.space is not space:
                raise DomainMismatch("members must share domain and value space")
        self.L = L
        self._shared = self._shared_layout()

    def __len__(self) -> int:
        return len(self.members)

    def _shared_layout(self):
        """(values matrix, widths) when all members share breakpoints and
        real values; enables vectorized distances."""
        f0 = self.members[0]
        if f0.space is not None:
            return None
        bp = f0.breakpoints
        for f in self.members[1:]:
            if f.breakpoints.shape != bp.shape or not np.array_equal(f.breakpoints, bp):
                return None
        vals = np.stack([f.values for f in self.members])
        return vals, np.diff(bp)

    def distances_from(self, i: int) -> np.ndarray:
        if self._shared is not None:
            vals, w = self._shared
            return np.abs(vals - vals[i]) @ w
        return np.array([l1_distance(self.members[i], g) for g in self.members])

    def distance_matrix(self) -> np.ndarray:
        m = len(self)
        out = np.zeros((m, m))
        for i in range(m):
            out[i] = self.distances_from(i)
        return out


def empirical_counts(ens: FunctionEnsemble, epsilon: float) -> tuple[int, int]:
    """Greedy covering count (closed balls) and greedy packing count (strict
    separation) of the ensemble at accuracy epsilon.

    The packing is farthest-first from member 0.  Up to ``MATRIX_CAP``
    members the cover is the set-cover greedy on the full distance matrix;
    above it the farthest-first set, which is also a closed epsilon-ball
    cover, serves as both cover and pack.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    pack = len(farthest_first(ens.distances_from, 0, epsilon))
    if len(ens) > MATRIX_CAP:
        return pack, pack
    return len(greedy_set_cover(ens.distance_matrix() <= epsilon)), pack


@dataclass(frozen=True)
class ScanRow:
    epsilon: float
    cover_count: int
    pack_count: int
    lhs_bound_bits: float
    rhs_bound_bits: float

    def csv_row(self) -> str:
        return (
            f"{self.epsilon},{self.cover_count},{self.pack_count},"
            f"{math.log2(self.cover_count)},{math.log2(self.pack_count)},"
            f"{self.lhs_bound_bits},{self.rhs_bound_bits}"
        )


@dataclass(frozen=True)
class ScanResult:
    rows: tuple
    fitted_exponent: float | None = None
    residual: float | None = None
    params: ClassParams | None = field(default=None, repr=False)

    CSV_HEADER = (
        "epsilon,cover_count,pack_count,log2_cover,log2_pack,"
        "lhs_bound_bits,rhs_bound_bits"
    )

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER] + [r.csv_row() for r in self.rows]
        if self.fitted_exponent is not None:
            lines.append(f"# exponent={self.fitted_exponent} residual={self.residual}")
        return "\n".join(lines) + "\n"


def entropy_scan(
    ens: FunctionEnsemble, eps_grid, params: ClassParams | None = None
) -> ScanResult:
    """Empirical counts across a strictly decreasing epsilon grid, with the
    closed-form class bounds per row when class parameters are declared."""
    grid = np.asarray(eps_grid, dtype=float)
    if grid.size == 0 or np.any(np.diff(grid) >= 0):
        raise ValueError("epsilon grid must be strictly decreasing")
    params = params or ens.params
    rows = []
    for eps in grid:
        cover, pack = empirical_counts(ens, float(eps))
        lhs = rhs = float("nan")
        if params is not None:
            rhs = upper_bound_bits(
                params.L, params.V, float(eps), params.gauge, params.d,
                params.entropy_term(float(eps) / (4.0 * params.L)),
            )
            lhs = lower_bound_bits(
                float(eps), params.L, params.V, params.gauge, params.p, params.K_term
            )
        rows.append(ScanRow(float(eps), cover, pack, lhs, rhs))
    result = ScanResult(rows=tuple(rows), params=params)
    try:
        expo, res = fit_exponent(result)
        return ScanResult(rows=tuple(rows), fitted_exponent=expo,
                          residual=res, params=params)
    except InsufficientRows:
        return result


def fit_exponent(scan: ScanResult) -> tuple[float, float]:
    """Least-squares slope of log2(packing count) against log2(1/epsilon)."""
    pts = [(r.epsilon, r.pack_count) for r in scan.rows if r.pack_count >= 2]
    if len(pts) < 3:
        raise InsufficientRows(f"need >= 3 rows with counts >= 2, have {len(pts)}")
    x = np.array([math.log2(1.0 / e) for e, _ in pts])
    y = np.array([math.log2(c) for _, c in pts])
    coef, stats = np.polynomial.polynomial.polyfit(x, y, 1, full=True)
    residual = float(stats[0][0]) if stats[0].size else 0.0
    return float(coef[1]), residual


# ---------------------------------------------------------------------------
# generators


def random_bv_ensemble(
    n: int, L: float, V: float, seed: int = 0, pieces: int = 12,
    lo: float = 0.0, hi: float = 1.0,
) -> FunctionEnsemble:
    """Random step functions with total variation at most V and values in
    [lo, hi]."""
    rng = np.random.default_rng(seed)
    members = []
    for _ in range(n):
        k = int(rng.integers(1, pieces + 1))
        cuts = np.sort(rng.uniform(0.0, L, size=k - 1))
        bp = np.concatenate([[0.0], cuts, [L]])
        bp = np.unique(bp)
        vals = np.clip(_bounded_walk(rng, bp.size - 1, V), lo, hi)
        members.append(StepFunction(bp, vals))
    return FunctionEnsemble(members, generator="random_bv", seed=seed)


def _bounded_walk(rng, k: int, V: float) -> np.ndarray:
    steps = rng.uniform(-1.0, 1.0, size=k - 1)
    total = np.abs(steps).sum()
    if total > 0:
        steps *= min(1.0, V / total) * rng.uniform(0.3, 1.0)
    start = rng.uniform(0.2, 0.8)
    return start + np.concatenate([[0.0], np.cumsum(steps)])


def random_bvpsi_ensemble(
    n: int, L: float, V: float, gauge: Gauge, seed: int = 0, pieces: int = 12,
    lo: float = 0.0, hi: float = 1.0,
) -> FunctionEnsemble:
    """Random step functions with generalized variation at most V: rejection
    scaling of BV samples against the exact variation."""
    rng = np.random.default_rng(seed)
    members = []
    while len(members) < n:
        k = int(rng.integers(1, pieces + 1))
        cuts = np.unique(np.sort(rng.uniform(0.0, L, size=k - 1)))
        bp = np.concatenate([[0.0], cuts, [L]])
        vals = np.clip(_bounded_walk(rng, bp.size - 1, V), lo, hi)
        f = StepFunction(bp, vals)
        v = tv_psi(f, gauge)
        if v > V:
            mid = vals.mean()
            scale = 0.95 * min(1.0, (V / v) if v > 0 else 1.0)
            f = StepFunction(bp, mid + (vals - mid) * scale)
            if tv_psi(f, gauge) > V:
                continue
        members.append(f)
    return FunctionEnsemble(members, generator="random_bvpsi", seed=seed)


def block_grid_ensemble(
    gamma: int, L: float = 1.0, value_range: float = 0.8, spacing: float = 0.01,
) -> FunctionEnsemble:
    """All functions constant on gamma equal blocks with values on a uniform
    grid; their packing counts scale like epsilon^-gamma."""
    levels = np.arange(0.0, value_range + spacing / 2, spacing)
    edges = np.linspace(0.0, L, gamma + 1)
    grids = np.meshgrid(*([levels] * gamma), indexing="ij")
    combos = np.stack([g.ravel() for g in grids], axis=1)
    members = [StepFunction(edges, row) for row in combos]
    return FunctionEnsemble(members, generator=f"block_grid:{gamma}")


def from_witness_family(fam: WitnessFamily) -> FunctionEnsemble:
    members = [fam.member_function(i) for i in range(fam.size)]
    return FunctionEnsemble(members, generator="witness_family", seed=fam.seed)
