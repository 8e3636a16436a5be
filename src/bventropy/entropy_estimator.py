"""Empirical entropy of step-function ensembles under the L1 metric.

Covering and packing counts of a finite ensemble are computed greedily across
a decreasing accuracy grid, the packing exponent is fitted on a log-log scale,
and each row can carry the closed-form upper/lower bit bounds of the
variation class the ensemble was sampled from.

An ensemble holds all its members on the common refinement of their
breakpoints, so a row of L1 distances is one weighted sum over cells; the
layout is bounded by ``MATRIX_CAP``**2 entries, beyond which rows fall back
to per-pair :func:`l1_distance`.  A scan over at most ``MATRIX_CAP`` members
builds the member x member matrix once and reads every epsilon's cover and
pack from it; a larger scan builds no matrix and runs on distance rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bv_codec import RealInterval, upper_bound_bits
from .errors import DomainMismatch, InsufficientRows
from .gauge_variation import Gauge, StepFunction, l1_distance, tv_psi, value_distance
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
    """Finite sample of step functions on a common [0, L].

    Distances come from one layout built at construction: every member's
    values on the common refinement of all members' breakpoints, as a
    (members x cells) array, with the cell widths.  A distance row is then
    one weighted sum over cells, the same for real and point-cloud values,
    and ensembles that share breakpoints (block grids, witness families)
    are the case of a refinement with no extra cells.  The layout is kept
    within ``MATRIX_CAP``**2 entries (32 MB of float64); an ensemble whose
    refinement is larger has no layout and computes each row with
    per-pair :func:`l1_distance` calls.  An ensemble holds its members only;
    class parameters for the bound columns go to :func:`entropy_scan`.
    """

    def __init__(self, members):
        if not members:
            raise ValueError("ensemble must be nonempty")
        self.members = list(members)
        L = self.members[0].L
        space = self.members[0].space
        for f in self.members:
            if abs(f.L - L) > 1e-12 * max(L, 1.0) or f.space is not space:
                raise DomainMismatch("members must share domain and value space")
        self.L = L
        self.space = space
        self._layout = _refinement_layout(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def _cell_distances(self, rows: np.ndarray, i: int) -> np.ndarray:
        vals, w = self._layout
        return value_distance(rows, vals[i], self.space) @ w

    def distances_from(self, i: int) -> np.ndarray:
        if self._layout is None:
            return np.array([l1_distance(self.members[i], g) for g in self.members])
        return self._cell_distances(self._layout[0], i)

    def distance_matrix(self) -> np.ndarray:
        """Full member x member L1 matrix; from the layout, each pair is
        computed once, so the matrix is exactly symmetric with a zero
        diagonal."""
        m = len(self)
        out = np.zeros((m, m))
        if self._layout is None:
            for i in range(m):
                out[i] = self.distances_from(i)
            return out
        vals = self._layout[0]
        for i in range(m - 1):
            out[i, i + 1:] = self._cell_distances(vals[i + 1:], i)
        return out + out.T


def _refinement_layout(members):
    """(values on the common refinement, cell widths), or None when the
    refinement would exceed ``MATRIX_CAP``**2 entries.

    Each member's breakpoints are located in the sorted union of all
    breakpoints; the gaps between consecutive positions are the number of
    refinement cells each of its values spans.  A member's last value runs
    to the end of the refinement, as in :func:`l1_distance`, since domain
    lengths may differ in the last bits.
    """
    bps = [f.breakpoints for f in members]
    flat = np.concatenate(bps)
    cuts = np.unique(flat)
    m, cells = len(members), cuts.size - 1
    if m * cells > MATRIX_CAP ** 2:
        return None
    pos = np.searchsorted(cuts, flat)
    last = np.cumsum([b.size for b in bps]) - 1
    pos[last] = cells
    spans = np.delete(np.diff(pos), last[:-1])      # drop the member-to-member gaps
    vals = np.repeat(np.concatenate([f.values for f in members]), spans)
    return vals.reshape(m, cells), np.diff(cuts)


def _counts(ens: FunctionEnsemble, dist, epsilon: float) -> tuple[int, int]:
    # Without a matrix the farthest-first set, also a closed cover, is both.
    if dist is None:
        pack = len(farthest_first(ens.distances_from, 0, epsilon))
        return pack, pack
    pack = len(farthest_first(dist.__getitem__, 0, epsilon))
    return len(greedy_set_cover(dist <= epsilon)), pack


def _scan_matrix(ens: FunctionEnsemble):
    return ens.distance_matrix() if len(ens) <= MATRIX_CAP else None


def empirical_counts(ens: FunctionEnsemble, epsilon: float) -> tuple[int, int]:
    """Greedy covering count (closed balls) and greedy packing count (strict
    separation) of the ensemble at accuracy epsilon.

    The packing is farthest-first from member 0.  Up to ``MATRIX_CAP``
    members both counts run on one full distance matrix, built from the
    ensemble's common-refinement layout, and the cover is the set-cover
    greedy on it; above the cap no matrix is built and the farthest-first
    set, which is also a closed epsilon-ball cover, serves as both cover and
    pack.  :func:`entropy_scan` builds that matrix once for its whole grid.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    return _counts(ens, _scan_matrix(ens), epsilon)


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
    closed-form class bounds per row when class parameters are declared.

    Up to ``MATRIX_CAP`` members the distance matrix is built once per call
    and every epsilon reuses it; it is not cached on the ensemble.
    """
    grid = np.asarray(eps_grid, dtype=float)
    if grid.size == 0 or np.any(np.diff(grid) >= 0):
        raise ValueError("epsilon grid must be strictly decreasing")
    if not np.all(grid > 0):
        raise ValueError("epsilon must be positive")
    dist = _scan_matrix(ens)
    rows = []
    for eps in grid:
        cover, pack = _counts(ens, dist, float(eps))
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
    result = ScanResult(rows=tuple(rows))
    try:
        expo, res = fit_exponent(result)
        return ScanResult(rows=tuple(rows), fitted_exponent=expo, residual=res)
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
    return FunctionEnsemble(members)


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
    return FunctionEnsemble(members)


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
    return FunctionEnsemble(members)


def from_witness_family(fam: WitnessFamily) -> FunctionEnsemble:
    members = [fam.member_function(i) for i in range(fam.size)]
    return FunctionEnsemble(members)
