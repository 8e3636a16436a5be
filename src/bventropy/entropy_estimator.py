"""Empirical entropy of step-function ensembles under the L1 metric.

Covering and packing counts of a finite ensemble are computed greedily across
a decreasing accuracy grid, the packing exponent is fitted on a log-log scale,
and each row can carry the closed-form upper/lower bit bounds of the
variation class the ensemble was sampled from.

An ensemble holds its members as one cells-major (cells x members) value
matrix on common cells; a row of L1 distances is one :func:`l1_row`, summed
over the cells in order, so a row on some members holds the full row's
floats.  Block grids and witness families hand over their matrix, transposed
once; step functions given one by one are laid out on the common refinement
of their breakpoints, up to ``MATRIX_CAP``**2 entries, beyond which rows
fall back to per-pair :func:`l1_distance`.  A scan makes one farthest-first
traversal, to its smallest epsilon, and reads each epsilon's pack off the
insertion radii.  Up to ``MATRIX_CAP`` members it runs on the member x member
matrix, built once, whose space gives the greedy :func:`covering_number` and
:func:`packing_number`, each cover and packing checked; a larger scan runs
on rows of the live members, whose columns are gathered once per drop of
dead members, not once per row.  A pick lowers only the distances of
members closer to it than its radius.  On real values with a cell whose
column never decreases in member order, such as a block grid's first block,
those members lie in one run of the live ones, and the pick's row is
computed on that run alone, each cell's term added in order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bv_codec import RealInterval, upper_bound_bits
from .errors import DomainMismatch, EpsilonTooSmall, InsufficientRows, ScaleUnderflow
from .gauge_variation import Gauge, StepFunction, _step_arrays, l1_distance, l1_row_oracle, tv_psi
from .metric_core import FiniteMetricSpace, covering_number, farthest_first, packing_number
from .witness_lab import WitnessFamily, lower_bound_bits

MATRIX_CAP = 2000     # full pairwise distance matrix allowed up to this size


@dataclass(frozen=True)
class ClassParams:
    """Declared class (L, V, psi) for the bound columns; values lie in [0, 1],
    so the bounds take dimension and packing exponent 1."""

    L: float
    V: float
    gauge: Gauge


class FunctionEnsemble:
    """Finite sample of step functions on a common [0, L].

    ``FunctionEnsemble(members)`` lays step functions out on the common
    refinement of their breakpoints; a layout above ``MATRIX_CAP``**2
    entries (32 MB of float64) is not built, and rows then come from
    per-pair :func:`l1_distance` calls.  :meth:`from_values` takes the
    layout itself, a value matrix on shared edges held transposed, and
    builds the member step functions only when ``members`` is read.  Class
    parameters for the bound columns go to :func:`entropy_scan`.
    """

    def __init__(self, members):
        members = list(members)
        if not members:
            raise ValueError("ensemble must be nonempty")
        L, space = members[0].L, members[0].space
        for f in members:
            if abs(f.L - L) > 1e-12 * max(L, 1.0) or f.space is not space:
                raise DomainMismatch("members must share domain and value space")
        self.L, self.space, self._size = L, space, len(members)
        self._members, self._edges = members, None
        self._layout = _refinement_layout(members)

    @classmethod
    def from_values(cls, edges, values, space=None) -> "FunctionEnsemble":
        """The ensemble whose member i is the step function on ``edges`` with
        the values in row i of the (members x cells) matrix ``values``."""
        edges, values = _step_arrays(edges, values, space)
        if values.ndim != 2 or values.shape[0] == 0:
            raise ValueError("ensemble must be a nonempty (members x cells) matrix")
        ens = cls.__new__(cls)
        ens.L, ens.space, ens._size = float(edges[-1]), space, values.shape[0]
        ens._members, ens._edges = None, edges
        ens._layout = np.ascontiguousarray(values.T), np.diff(edges)
        return ens

    @property
    def members(self) -> list:
        if self._members is None:
            self._members = [StepFunction(self._edges, row, self.space)
                             for row in self._layout[0].T]
        return self._members

    def __len__(self) -> int:
        return self._size

    def distances_from(self, i: int) -> np.ndarray:
        return self._rows()(i, slice(None))

    def _rows(self):
        """A new row oracle: ``rows(i, cols)`` gives the entries ``cols`` (a
        slice or index array) of the row of ``i``; ``rows(i, cols, reach)``
        may give only a run of them, as :func:`farthest_first` allows."""
        if self._layout is None:
            return lambda i, cols, reach=math.inf: np.array(
                [l1_distance(self.members[i], self.members[j])
                 for j in np.arange(len(self))[cols]])
        return l1_row_oracle(*self._layout, self.space)

    def distance_matrix(self) -> np.ndarray:
        """Full member x member L1 matrix; each pair is computed once, so the
        matrix is exactly symmetric with a zero diagonal."""
        out, rows = np.zeros((len(self), len(self))), self._rows()
        for i in range(len(self) - 1):
            out[i, i:] = rows(i, slice(i, None))
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
    return np.ascontiguousarray(vals.reshape(m, cells).T), np.diff(cuts)


def _checked_grid(eps_grid) -> np.ndarray:
    grid = np.asarray(eps_grid, dtype=float)
    if grid.size == 0 or np.any(np.diff(grid) >= 0):
        raise ValueError("epsilon grid must be strictly decreasing")
    if not np.all((grid > 0) & (grid < math.inf)):
        raise ValueError("epsilon must be positive and finite")
    return grid


def _counts(ens: FunctionEnsemble, grid: np.ndarray) -> list[tuple[int, int]]:
    """(cover, pack) at each epsilon of a checked grid.  Up to ``MATRIX_CAP``
    they are the checked greedy counts of the distance matrix's space; above
    it the farthest-first set, also a closed cover, is both."""
    if len(ens) <= MATRIX_CAP:
        space = FiniteMetricSpace(dist=ens.distance_matrix())
        covers = covering_number(space, None, grid, mode="greedy")
        packs = packing_number(space, None, grid, mode="greedy")
        return [(c.count, p.count) for c, p in zip(covers, packs)]
    _, radii = farthest_first(ens._rows(), 0, float(grid[-1]))
    radii = np.array(radii)
    packs = [int(np.count_nonzero(radii > eps)) for eps in grid]
    return [(p, p) for p in packs]


def empirical_counts(ens: FunctionEnsemble, epsilon: float) -> tuple[int, int]:
    """Greedy covering count (closed balls) and greedy packing count (strict
    separation) of the ensemble at accuracy epsilon: the one-epsilon case of
    :func:`entropy_scan`'s counts, with the packing farthest-first from
    member 0."""
    return _counts(ens, _checked_grid([epsilon]))[0]


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

    One farthest-first traversal from member 0, to the smallest epsilon,
    gives every row's pack count.  Up to ``MATRIX_CAP`` members the distance
    matrix is built once per call and is not cached on the ensemble.  The
    bounds come first, so an epsilon they cannot take, as its radius or psi
    underflows or its covering count overflows, is refused by name before
    the traversal; a psi that underflows at epsilon L too is the gauge's
    doing, and is refused as a :class:`ScaleUnderflow` of the gauge.
    """
    grid, bounds = _checked_grid(eps_grid), []
    for eps in grid.tolist():
        lhs = rhs = float("nan")
        if params is not None:
            try:
                if not (quarter := eps / (4.0 * params.L)) > 0:
                    raise EpsilonTooSmall(f"the radius eps / 4L underflows to {quarter}")
                H = RealInterval(0.0, 1.0).entropy_bits(quarter)
                rhs = upper_bound_bits(params.L, params.V, eps, params.gauge, 1, H)
                lhs = lower_bound_bits(eps, params.L, params.V, params.gauge, 1.0)
            except (EpsilonTooSmall, ScaleUnderflow) as exc:
                if isinstance(exc, ScaleUnderflow):
                    # psi(eps / 2L) at eps = L, past which every count of
                    # [0, 1]-valued functions is 1: no epsilon mends an underflow there
                    params.gauge.positive(0.5)
                raise EpsilonTooSmall(f"scan epsilon {eps} is too small for the class "
                                      f"bounds: {exc}") from None
        bounds.append((lhs, rhs))
    rows = [ScanRow(eps, cover, pack, *bound)
            for eps, (cover, pack), bound in zip(grid.tolist(), _counts(ens, grid), bounds)]
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


def random_bv_ensemble(n: int, L: float, V: float, seed: int = 0) -> FunctionEnsemble:
    """Random step functions with total variation at most V and values in
    [0, 1]."""
    rng = np.random.default_rng(seed)
    return FunctionEnsemble([StepFunction(*_random_steps(rng, L, V)) for _ in range(n)])


def _random_steps(rng, L: float, V: float):
    # breakpoints of up to 12 pieces, and a random walk of total variation at
    # most V clipped to [0, 1]
    k = int(rng.integers(1, 13))
    bp = np.unique(np.concatenate([[0.0], rng.uniform(0.0, L, size=k - 1), [L]]))
    steps = rng.uniform(-1.0, 1.0, size=bp.size - 2)
    total = np.abs(steps).sum()
    if total > 0:
        steps *= min(1.0, V / total) * rng.uniform(0.3, 1.0)
    start = rng.uniform(0.2, 0.8)
    return bp, np.clip(start + np.concatenate([[0.0], np.cumsum(steps)]), 0.0, 1.0)


def random_bvpsi_ensemble(n: int, L: float, V: float, gauge: Gauge,
                          seed: int = 0) -> FunctionEnsemble:
    """Random step functions with generalized variation at most V: rejection
    scaling of BV samples against the exact variation."""
    rng = np.random.default_rng(seed)
    members = []
    while len(members) < n:
        bp, vals = _random_steps(rng, L, V)
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


def block_grid_ensemble(gamma: int, value_range: float = 0.8,
                        spacing: float = 0.01) -> FunctionEnsemble:
    """All functions constant on gamma equal blocks of [0, 1] with values on a
    uniform grid; their packing counts scale like epsilon^-gamma."""
    if gamma < 1:
        raise ValueError(f"gamma must be at least 1, got {gamma}")
    levels = np.arange(0.0, value_range + spacing / 2, spacing)
    edges = np.linspace(0.0, 1.0, gamma + 1)
    grids = np.meshgrid(*([levels] * gamma), indexing="ij", copy=False)
    # built cells-major, the layout's own order, so from_values copies nothing
    return FunctionEnsemble.from_values(edges, np.stack(grids).reshape(gamma, -1).T)


def from_witness_family(fam: WitnessFamily) -> FunctionEnsemble:
    return FunctionEnsemble.from_values(fam.block_edges, fam.members, fam.space)
