"""Finite metric spaces: covering/packing numbers and metric dimensions.

Conventions used throughout:

* coverings use closed balls (``dist <= alpha``), so a center covers points
  at distance exactly ``alpha``;
* packings are strictly separated (``dist > alpha``).

With these conventions the classical double inequality

    M_{2a} <= N_a <= M_a

holds verbatim on finite spaces, including at tie distances.

Every greedy count in the package runs on one of two kernels:

* :func:`greedy_set_cover` over a boolean (candidates x points) cover
  matrix takes, at each step, the candidate covering the most still-uncovered
  points, lowest candidate index on ties;
* :func:`farthest_first` over a row oracle inserts the point farthest from
  the chosen set, lowest index on ties, until every point lies within the
  separation.  Its output is both a strict packing and a closed cover.

The exact searches run on integer bitmasks from one builder: the centers'
coverage sets for covers, the points' conflict sets for packings.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AsymmetricMatrix,
    EmptyWindow,
    ExactModeTooLarge,
    NetIncomplete,
    NonzeroDiagonal,
    ScaleViolation,
    SeparationFailure,
    TriangleViolation,
)

LOG7_2 = math.log(2.0) / math.log(7.0)

#: Largest point count for which exhaustive covering/packing search is allowed.
DEFAULT_EXACT_CAP = 16


@dataclass(frozen=True)
class FiniteMetricSpace:
    """An explicit point set given by its validated distance matrix."""

    dist: np.ndarray

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    @property
    def diameter(self) -> float:
        return float(self.dist.max()) if self.n else 0.0

    def ball(self, center: int, radius: float) -> np.ndarray:
        """Indices of the closed ball around ``center``."""
        return np.flatnonzero(self.dist[center] <= radius)

    def pairwise_distances(self) -> np.ndarray:
        """Sorted unique positive distances."""
        iu = np.triu_indices(self.n, k=1)
        vals = np.unique(self.dist[iu])
        return vals[vals > 0]


def validate_metric(matrix, atol: float = 1e-9) -> FiniteMetricSpace:
    """Check symmetry, zero diagonal and the triangle inequality.

    Raises :class:`TriangleViolation` with the first offending triple
    ``(i, j, via)`` such that ``d[i][j] > d[i][via] + d[via][j]``.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if np.any(m < -atol):
        raise ValueError("distance matrix has negative entries")
    n = m.shape[0]
    if np.any(np.abs(np.diag(m)) > atol):
        raise NonzeroDiagonal("nonzero diagonal entry in distance matrix")
    if np.any(np.abs(m - m.T) > atol):
        raise AsymmetricMatrix("distance matrix is not symmetric")
    for via in range(n):
        slack = m - (m[:, via][:, None] + m[via, :][None, :])
        bad = np.argwhere(slack > atol)
        if bad.size:
            i, j = (int(v) for v in bad[0])
            raise TriangleViolation(i, j, via, m[i, j], m[i, via] + m[via, j])
    m = 0.5 * (m + m.T)
    np.fill_diagonal(m, 0.0)
    m.setflags(write=False)
    return FiniteMetricSpace(dist=m)


def from_points(points, norm: float = 2.0) -> FiniteMetricSpace:
    """Metric space of explicit coordinates under a p-norm."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    diff = pts[:, None, :] - pts[None, :, :]
    if norm == np.inf:
        d = np.abs(diff).max(axis=2)
    else:
        d = (np.abs(diff) ** norm).sum(axis=2) ** (1.0 / norm)
    d.setflags(write=False)
    return FiniteMetricSpace(dist=d)


def line_points(n: int, length: float = 1.0) -> FiniteMetricSpace:
    """``n`` equally spaced points spanning a segment of the given length."""
    if n < 1:
        raise ValueError("need at least one point")
    xs = np.linspace(0.0, length, n) if n > 1 else np.array([0.0])
    return from_points(xs[:, None])


def lattice(dim: int, per_side: int, spacing: float = 1.0) -> FiniteMetricSpace:
    axes = [np.arange(per_side) * spacing] * dim
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    return from_points(grid)


def uniform_random(n: int, extent: float, seed: int, dim: int = 1) -> FiniteMetricSpace:
    rng = np.random.default_rng(seed)
    return from_points(rng.uniform(0.0, extent, size=(n, dim)))


def _read_table(path) -> np.ndarray:
    """A comma-separated numeric file as a 2-D array; empty is an error."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        data = np.loadtxt(path, delimiter=",", ndmin=2)
    if data.size == 0:
        raise ValueError(f"{path}: file holds no data")
    return data


def read_matrix_csv(path) -> FiniteMetricSpace:
    return validate_metric(_read_table(path))


@dataclass(frozen=True)
class CoverPackResult:
    count: int
    witness: tuple
    mode: str           # "exact" | "greedy"
    alpha: float

    def csv_row(self) -> str:
        idx = ";".join(str(i) for i in self.witness)
        return f"{self.alpha},{self.count},{self.mode},{idx}"


def _as_index_array(space: FiniteMetricSpace, subset) -> np.ndarray:
    if subset is None:
        return np.arange(space.n)
    k = np.asarray(subset, dtype=int)
    if k.size == 0:
        raise ValueError("subset must be nonempty")
    return k


def greedy_set_cover(covers: np.ndarray) -> list[int]:
    """Set-cover greedy on a boolean (candidates x points) matrix.

    Each step takes the candidate covering the most still-uncovered points,
    lowest index on ties; raises :class:`NetIncomplete` if some point is
    covered by no candidate.
    """
    uncovered = np.ones(covers.shape[1], dtype=bool)
    chosen = []
    while uncovered.any():
        gain = (covers & uncovered).sum(axis=1)
        c = int(np.argmax(gain))                # argmax takes the lowest index
        if gain[c] == 0:
            raise NetIncomplete("a point is covered by no candidate")
        chosen.append(c)
        uncovered &= ~covers[c]
    return chosen


def farthest_first(rows, start: int, sep: float) -> list[int]:
    """Farthest-point insertion over a row oracle.

    ``rows(i)`` returns the distances from point ``i`` to every point.  From
    ``start``, each step adds the point farthest from the chosen set (lowest
    index on ties) and stops once that distance is at most ``sep``: the
    chosen points are then strictly ``sep``-separated and cover every point
    with closed ``sep``-balls.  A NaN ``sep`` raises ``ValueError``, as no
    distance would ever be within it.
    """
    if math.isnan(sep):
        raise ValueError("separation must not be NaN")
    chosen = [start]
    mind = np.array(rows(start), dtype=float)
    while True:
        nxt = int(np.argmax(mind))
        if mind[nxt] <= sep:
            return chosen
        chosen.append(nxt)
        np.minimum(mind, rows(nxt), out=mind)


def _bitmasks(rows: np.ndarray) -> list[int]:
    """Each row of a boolean matrix as an integer whose bit j is column j."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _search(space: FiniteMetricSpace, subset, alpha: float, mode: str,
            exact_cap: int, exact, greedy):
    """Check the arguments shared by the counts and run the search the mode
    names; returns the subset as indices and the search's witness."""
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    k = _as_index_array(space, subset)
    if mode == "greedy":
        return k, greedy(space, k, alpha)
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")
    if space.n > exact_cap:
        raise ExactModeTooLarge(
            f"exact search capped at n <= {exact_cap}, space has n = {space.n}"
        )
    return k, exact(space, k, alpha)


def _greedy_cover(space: FiniteMetricSpace, k: np.ndarray, alpha: float):
    # centers come from the whole space, points from the subset
    return greedy_set_cover(space.dist[:, k] <= alpha)


def _exact_cover(space: FiniteMetricSpace, k: np.ndarray, alpha: float):
    masks = _bitmasks(space.dist[:, k] <= alpha)
    # drop empty and duplicate coverage sets (keeps the lowest center index)
    first: dict[int, int] = {}
    for c, bits in enumerate(masks):
        if bits:
            first.setdefault(bits, c)
    keep = list(first.values())
    full = (1 << k.size) - 1
    # every point of the subset covers itself, so some size finds a cover
    for r in range(1, len(keep) + 1):
        for combo in itertools.combinations(keep, r):
            got = 0
            for c in combo:
                got |= masks[c]
            if got == full:
                return list(combo)
    raise NetIncomplete("a point is covered by no candidate")


def covering_number(
    space: FiniteMetricSpace,
    subset=None,
    alpha: float = 1.0,
    mode: str = "exact",
    exact_cap: int = DEFAULT_EXACT_CAP,
) -> CoverPackResult:
    """Minimal (exact) or greedy upper-bound count of closed alpha-balls
    covering the subset, with centers drawn from the whole space."""
    k, centers = _search(space, subset, alpha, mode, exact_cap,
                         _exact_cover, _greedy_cover)
    if not np.all(space.dist[np.ix_(centers, k)].min(axis=0) <= alpha):
        raise NetIncomplete(f"{len(centers)} centers leave a point uncovered at alpha = {alpha}")
    return CoverPackResult(len(centers), tuple(centers), mode, alpha)


def _greedy_pack(space: FiniteMetricSpace, k: np.ndarray, alpha: float):
    # seeded at the lowest index of the subset
    pos = farthest_first(lambda i: space.dist[k[i], k], int(np.argmin(k)), alpha)
    return k[pos].tolist()


def _exact_pack(space: FiniteMetricSpace, k: np.ndarray, alpha: float):
    close = space.dist[np.ix_(k, k)] <= alpha
    np.fill_diagonal(close, False)
    conflict = _bitmasks(close)

    best: list[int] = []

    def grow(cand: int, chosen: list[int]):
        nonlocal best
        if len(chosen) + bin(cand).count("1") <= len(best):
            return
        if cand == 0:
            if len(chosen) > len(best):
                best = list(chosen)
            return
        v = (cand & -cand).bit_length() - 1
        grow(cand & ~(1 << v) & ~conflict[v], chosen + [v])
        grow(cand & ~(1 << v), chosen)

    grow((1 << k.size) - 1, [])
    return sorted(int(k[i]) for i in best)


def packing_number(
    space: FiniteMetricSpace,
    subset=None,
    alpha: float = 1.0,
    mode: str = "exact",
    exact_cap: int = DEFAULT_EXACT_CAP,
) -> CoverPackResult:
    """Maximal (exact) or greedy lower-bound size of a strictly alpha-separated
    subset of the given point set."""
    _, points = _search(space, subset, alpha, mode, exact_cap,
                        _exact_pack, _greedy_pack)
    if len(points) > 1:
        sub = space.dist[np.ix_(points, points)]
        off = sub[np.triu_indices(len(points), k=1)]
        if not np.all(off > alpha):
            raise SeparationFailure(f"packing points lie within alpha = {alpha} of each other")
    return CoverPackResult(len(points), tuple(points), mode, alpha)


@dataclass(frozen=True)
class DimensionReport:
    d: int
    p: int
    window: tuple
    scales: tuple = field(default=(), repr=False)
    mode: str = "exact"

    @property
    def p_tilde(self) -> float:
        return LOG7_2 * self.p

    def csv_row(self) -> str:
        return f"{self.d},{self.p},{self.p_tilde},{self.window[0]},{self.window[1]}"


def probe_scales(
    space: FiniteMetricSpace, window, max_scales: int | None = 64
) -> np.ndarray:
    """Scale set {pairwise distances and their halves} restricted to the window.

    Counts only change at these thresholds, so probing them is exhaustive for
    the finite space.  Large spaces get an evenly thinned subset (deterministic)
    capped at ``max_scales``.
    """
    lo, hi = float(window[0]), float(window[1])
    if not (0 < lo <= hi):
        raise EmptyWindow(f"invalid window {window}")
    d = space.pairwise_distances()
    scales = np.unique(np.concatenate([d, d / 2.0]))
    scales = scales[(scales >= lo) & (scales <= hi)]
    if scales.size == 0:
        raise EmptyWindow(f"no probe scale inside window {window}")
    if max_scales is not None and scales.size > max_scales:
        idx = np.linspace(0, scales.size - 1, max_scales).round().astype(int)
        scales = scales[np.unique(idx)]
    return scales


def dimension_report(
    space: FiniteMetricSpace,
    window,
    exact_cap: int = DEFAULT_EXACT_CAP,
    max_scales: int | None = 64,
) -> DimensionReport:
    """Estimate both metric dimensions over the probed scale window.

    ``d`` is the smallest integer with every ball of radius ``2a`` coverable by
    ``2**d`` balls of radius ``a``; ``p`` the largest integer with every such
    ball containing a strictly ``a``-separated subset of size ``2**p``
    (one-sided reading over the window).
    """
    scales = probe_scales(space, window, max_scales=max_scales)
    mode = "exact" if space.n <= exact_cap else "greedy"
    max_cover = 1
    min_pack = None
    for alpha in scales:
        for x in range(space.n):
            ball = space.ball(x, 2.0 * alpha)
            nc = covering_number(space, ball, alpha, mode=mode, exact_cap=exact_cap).count
            mp = packing_number(space, ball, alpha, mode=mode, exact_cap=exact_cap).count
            max_cover = max(max_cover, nc)
            min_pack = mp if min_pack is None else min(min_pack, mp)
    d = math.ceil(math.log2(max_cover)) if max_cover > 1 else 0
    p = math.floor(math.log2(min_pack)) if min_pack and min_pack > 1 else 0
    return DimensionReport(
        d=d, p=p, window=(float(window[0]), float(window[1])),
        scales=tuple(float(s) for s in scales), mode=mode,
    )


def ball_count_bounds(
    R: float, alpha: float, d: int, p: int, packing: bool = False
) -> tuple[float, float]:
    """Closed-form (lower, upper) bounds on the count of an alpha-cover
    (default) or alpha-packing of a ball of radius R, from the dimensions."""
    if not R >= 2 * alpha > 0:
        raise ScaleViolation(f"need R >= 2*alpha > 0, got R={R}, alpha={alpha}")
    if packing:
        return ((R / (2 * alpha)) ** (LOG7_2 * p), (4 * R / alpha) ** d)
    return ((R / (4 * alpha)) ** (LOG7_2 * p), (2 * R / alpha) ** d)
