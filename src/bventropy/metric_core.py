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
  points, lowest candidate index on ties, and once every step left would
  cover one point, takes them all at once;
* :func:`farthest_first` over a row oracle inserts the point farthest from
  the chosen set, lowest index on ties, until every point lies within the
  separation.  Its output is both a strict packing and a closed cover, and
  its insertion radii give the run to every larger separation as a prefix.
  Its rows reach only the live points, or the run of them that a pick can
  still move, and must equal the full rows there.

Both carry a leading batch axis of independent problems that advance in
lockstep, and record their picks as arrays.  The exact searches run on
integer bitmasks from one builder, bit j for the j-th point of the problem:
the centers' coverage sets for covers, the points' closed neighbourhoods
for packings.

Every cover and packing of a finite space is solved by one function,
:func:`_table`, over a table of (scale, target set) problems: it chunks the
scales, runs the kernels or the exact searches on each chunk, and checks
every witness.  :func:`covering_number` and :func:`packing_number` make a
table with one problem per scale, whose target is the whole subset.
:func:`dimension_report` makes one with the ball B(x, 2a) of every point x
at every probe scale a, and reads d and p off its witness sizes.  On small
spaces it then hands each (scale, ball) problem that could still move d or
p to the same function in exact mode.
"""

from __future__ import annotations

import functools
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

# Scales x rows x columns of the distance block one chunk of a table of
# problems may hold, about 0.5 MB of working memory: one scale at a time from
# 128 points up, all 64 scales up to 16 points.
_SWEEP_ENTRIES = 1 << 14


@dataclass(frozen=True, eq=False)
class FiniteMetricSpace:
    """An explicit point set given by its validated distance matrix.  Spaces
    compare and hash by identity, so one can key a cache."""

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


def validate_metric(matrix) -> FiniteMetricSpace:
    """Check sign, zero diagonal, symmetry and the triangle inequality, each
    up to a slack of 1e-9 relative to the entries, so a matrix passes or
    fails alike at every scale.  The triangle inequality is checked on the
    space's own matrix: the mean of ``d`` and its transpose, with a zero
    diagonal and no entry below 0.

    Raises :class:`TriangleViolation` with the first offending triple
    ``(i, j, via)`` such that ``d[i][j] > (d[i][via] + d[via][j])(1 + 1e-9)``.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("distance matrix has non-finite entries")
    atol = 1e-9 * np.max(m, initial=0.0)
    if np.any(m < -atol):
        raise ValueError("distance matrix has negative entries")
    if np.any(np.abs(np.diag(m)) > atol):
        raise NonzeroDiagonal("nonzero diagonal entry in distance matrix")
    if np.any(np.abs(m - m.T) > 1e-9 * np.maximum(m, m.T)):
        raise AsymmetricMatrix("distance matrix is not symmetric")
    m = np.maximum(m + 0.5 * (m.T - m), 0.0)    # the mean, without overflow
    np.fill_diagonal(m, 0.0)
    with np.errstate(over="ignore"):            # a sum that overflows bounds any entry
        for via in range(m.shape[0]):
            bad = np.argwhere(m > (m[:, via, None] + m[via]) * (1 + 1e-9))
            if bad.size:
                i, j = (int(v) for v in bad[0])
                raise TriangleViolation(i, j, via, m[i, j], m[i, via] + m[via, j])
    m.setflags(write=False)
    return FiniteMetricSpace(dist=m)


def from_points(points) -> FiniteMetricSpace:
    """Metric space of explicit, finite coordinates under the Euclidean norm.
    Each pair's differences are divided by the power of two of the largest
    before they are squared, and the root multiplied back, so no distance is
    lost to squares that underflow or overflow.  Raises ``ValueError`` where
    a distance overflows a float."""
    pts = np.asarray(points, dtype=float)
    if len(pts) == 0:
        raise ValueError("need at least one point")
    if not np.isfinite(pts).all():
        raise ValueError("point coordinates must be finite")
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.shape[1] == 0:
        raise ValueError("points have no coordinates")
    with np.errstate(over="ignore", under="ignore"):
        diff = np.abs(pts[:, None, :] - pts[None, :, :])
        exp = np.frexp(functools.reduce(np.maximum, diff.transpose(2, 0, 1)))[1]
        np.square(np.ldexp(diff, -exp[..., None], out=diff), out=diff)
        d = np.ldexp(np.sqrt(diff.sum(axis=2)), exp)
    if np.isinf(d).any():
        raise ValueError("point distances overflow a float")
    d.setflags(write=False)
    return FiniteMetricSpace(dist=d)


def line_points(n: int, length: float = 1.0) -> FiniteMetricSpace:
    """``n`` equally spaced points spanning a segment of the given length."""
    if n < 1:
        raise ValueError("need at least one point")
    with np.errstate(invalid="ignore"):        # an infinite length: from_points refuses
        return from_points(np.linspace(0.0, length, n)[:, None])


def lattice(dim: int, per_side: int, spacing: float = 1.0) -> FiniteMetricSpace:
    if dim < 1 or per_side < 1:
        raise ValueError("need at least one point")
    with np.errstate(invalid="ignore"):        # an infinite spacing: from_points refuses
        axes = [np.arange(per_side) * spacing] * dim
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    return from_points(grid)


def uniform_random(n: int, extent: float, seed: int, dim: int = 1) -> FiniteMetricSpace:
    # the draws of rng.uniform(0, extent), which refuses an infinite extent
    return from_points(extent * np.random.default_rng(seed).random((n, dim)))


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


def greedy_set_cover(covers: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Set-cover greedy on a table of boolean (candidates x points) matrices.

    Row b of scale s of the boolean (scales x batch x points) ``targets``
    names the points that problem (s, b) must cover, drawing on the
    candidates of ``covers[s]``, of the (scales x candidates x points)
    ``covers``.  The problems advance in lockstep: each step gives every
    unfinished one the candidate covering most of its still-uncovered
    points, lowest index on ties.  The gains are one (batch x points) @
    (points x candidates) product per scale against a float32 copy of
    ``covers``, so a step holds O(scales x batch x candidates) memory.  Once
    no gain in the table exceeds one, every problem takes the lowest
    candidate of each uncovered point at once, in ascending order, as its
    one-point steps would.  Returns the chosen candidates as an int (scales
    x batch x width) array, one row of picks per problem, padded with -1.
    Raises :class:`NetIncomplete` if a point has no candidate.
    """
    weights = covers.transpose(0, 2, 1).astype(np.float32)    # exact counts below 2**24
    m, n = covers.shape[1:]
    uncovered = np.array(targets, bool)     # a copy: the caller checks against targets
    scale, bests, tops, tail = np.arange(len(covers))[:, None], [], [], np.zeros(0, int)
    single = (problems := uncovered.shape[0] * uncovered.shape[1]) == 1
    while True:
        gain = uncovered @ weights
        best = gain.argmax(axis=2)              # lowest index on ties
        # a batch keeps each problem's top, to mark the steps it sat out
        top = np.maximum.reduce(gain, axis=None if single else 2)
        if not (most := top if single else np.maximum.reduce(top, axis=None, initial=0)):
            if np.any(uncovered):           # a problem stalled short of its cover
                raise NetIncomplete("a point is covered by no candidate")
            break
        # a last step alone is cheaper as a step
        if most == 1 and np.maximum.reduce(uncovered.sum(axis=2), axis=None) > 1:
            s, b, points = np.nonzero(uncovered)
            # the lowest candidate of each (scale, point), shared by its problems
            cells, at = np.unique(s * n + points, return_inverse=True)
            hits = covers[cells // n, :, cells % n]
            lowest = hits.argmax(axis=1)
            if not hits[np.arange(cells.size), lowest].all():
                raise NetIncomplete("a point is covered by no candidate")
            tail = np.sort((s * uncovered.shape[1] + b) * m + lowest[at])  # by problem, ascending
            break
        bests.append(best)
        tops.append(top)
        uncovered &= ~covers[scale, best]
    if single:                          # it gains at every step
        chosen = np.array([np.ravel(bests).tolist() + tail.tolist()], int)
    else:
        # a problem gains while it is unfinished, so its steps are a prefix;
        # its tail picks follow them
        steps = np.where(np.array(tops) > 0, bests, -1).reshape(len(bests), problems).T
        taken, owner = np.count_nonzero(steps >= 0, axis=1), tail // m
        total = taken + np.bincount(owner, minlength=problems)
        chosen = np.full((problems, total.max(initial=0)), -1)
        chosen[:, :steps.shape[1]] = steps
        rank = np.arange(owner.size) - np.searchsorted(owner, owner)    # within its problem
        chosen[owner, taken[owner] + rank] = tail % m
    return chosen.reshape(*uncovered.shape[:2], -1)


def farthest_first(rows, start, sep):
    """Farthest-point insertion over a row oracle, on the live points.

    ``rows(i, cols, reach)`` returns the distances from point ``i`` to the points
    ``cols``: a full slice, or once dead points are dropped, the live ones
    as an index array; a subset's entries must equal the full row's.  The
    same ``cols`` object comes back until the live set shrinks, and an index
    array is never changed in place, so an oracle may gather its columns
    once per new ``cols``.  From ``start``, each step adds the point farthest
    from the chosen set (lowest index on ties) and stops once that distance
    is at most ``sep``: the chosen points are then strictly ``sep``-separated
    and cover every point with closed ``sep``-balls.  A NaN or negative
    ``sep`` raises ``ValueError``, as no distance, or every one, would beat
    it.  A point's distance to the chosen set only falls, so once it is at
    most ``sep`` the point is dead: it is never picked, and in a single
    problem dropped when a quarter of the live points, and at least 64, have
    died (O(log n) times in all).

    ``reach`` is the pick's insertion radius, which no point's distance to
    the chosen set exceeds (``inf`` for ``start``'s row, one per problem in a
    batch).  An entry at or above it lowers nothing, so the oracle may leave
    such entries out: it may return a pair ``(run, row)`` of a slice ``run``
    of ``cols`` and the entries there, when every entry outside the run is at
    least ``reach``.  The minimum is then taken over the run only.  A row at
    ``reach`` ``inf`` is whole.  Each pick is a new point, so n points take
    at most n steps; a run that leaves out its own pick would repeat it, and
    :class:`SeparationFailure` is raised at step n instead.

    Returns the chosen points and their insertion radii: each pick's
    distance to the earlier picks, ``inf`` for ``start``.  The radii never
    increase and the path does not depend on ``sep``, so the run to any
    larger separation is the prefix whose radii exceed it.

    An index array ``start`` runs one problem per entry in lockstep: ``rows``
    then maps such an array to a (batch x points) array, and ``sep`` may hold
    one separation per problem.  A batch keeps every point live, so ``cols``
    is always the full slice: its rows are dense, and the dead-point check
    would cost a pass over them for no narrower row.  Both results are then
    arrays with one row per problem, padded with -1 and NaN.  A point at
    ``-inf`` in a problem's first row is never picked, which confines the
    problem to a subset.
    """
    bar = np.array(sep, dtype=float).reshape(-1)    # one per problem, or one for all
    if not (bar >= 0).all():
        raise ValueError(f"separation must be a non-negative number, got {sep}")
    batch = np.ndim(start) > 0
    mind = np.array(rows(start, cols := slice(None), math.inf), dtype=float, ndmin=2)
    live, limit = np.arange(mind.shape[1]), 0 if batch else 0.75 * mind.size - 64
    lanes, line = np.arange(len(mind)), mind if batch else mind[0]
    picks, radii = (([np.atleast_1d(start)], [np.full(len(mind), math.inf)]) if batch
                    else ([int(start)], [math.inf]))
    for step in range(1, mind.shape[1] + 1):
        if limit > 0 and step % 4 == 0:         # a check costs a pass over mind
            keep = line > bar.item(0)
            if 0 < (count := np.count_nonzero(keep)) <= limit:
                live, mind, limit = live[keep], mind[:, keep], 0.75 * count - 64
                cols, line = live, mind[0]
        pos = line.argmax(axis=-1)              # argmax takes the lowest index
        top, pick = (mind[lanes, pos], pos) if batch else (line.item(pos), live.item(pos))
        if not (np.count_nonzero(top > bar) if batch else top > bar.item(0)):
            break
        picks.append(pick)
        radii.append(top)
        if type(got := rows(pick, cols, top)) is tuple:
            run, got = got
            np.minimum(seg := line[..., run], got, out=seg)
        else:
            np.minimum(line, got, out=line)
    else:
        raise SeparationFailure(f"farthest-first took {step} steps on as many points: "
                                "a row left out its own pick")
    if not batch:                       # one problem took every step, on Python scalars
        return picks, radii
    # a problem's picks are the prefix of radii above its separation, as its
    # distances only fall
    chosen, radius = np.array(picks).T, np.array(radii).T
    late = radius[:, 1:] <= bar[:, None]
    chosen[:, 1:][late], radius[:, 1:][late] = -1, np.nan
    return chosen, radius


def _bitmasks(rows: np.ndarray) -> list[int]:
    """Each row of a boolean matrix as an integer whose bit j is column j."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _exact_cover(masks: list[int], target: int) -> list[int]:
    """Fewest centers whose coverage sets ``masks`` hold every bit of
    ``target``: the first such set in ``combinations`` order over the
    centers with a nonempty, not yet seen share of ``target``.

    For each size r from ceil(|target| / largest share) up, a depth-first
    search takes the shares in increasing index, as ``combinations`` lists
    them, and returns its first cover.  It cuts a branch only where no cover
    of size r lies below it: where the union of the shares left misses an
    uncovered bit, where (picks left) x (largest share left) is below the
    uncovered count, or where a share adds no uncovered bit.  A cover of size
    r with such a share would hold one of size r - 1, which the search at
    r - 1, or the lower bound, rules out.  So the first cover found is the
    first one ``combinations`` finds, witness included."""
    first: dict[int, int] = {}
    for c, bits in enumerate(masks):
        if bits & target:
            first.setdefault(bits & target, c)
    shares = list(first)
    # the union and the largest size of the shares from each index on
    union, most = [0] * (len(shares) + 1), [0] * (len(shares) + 1)
    for i in reversed(range(len(shares))):
        union[i], most[i] = union[i + 1] | shares[i], max(most[i + 1], shares[i].bit_count())

    def search(i: int, left: int, uncovered: int):
        need = uncovered.bit_count()
        for j in range(i, len(shares) - left + 1):
            if union[j] & uncovered != uncovered or left * most[j] < need:
                return None             # both only tighten as j grows
            if not (new := shares[j] & uncovered):
                continue
            if left == 1:
                if new == uncovered:
                    return [j]
            elif (rest := search(j + 1, left - 1, uncovered & ~new)) is not None:
                return [j, *rest]
        return None

    # no fewer sets than this can hold all of target's bits
    for r in range(-(-target.bit_count() // max(most[0], 1)), len(shares) + 1):
        if (combo := search(0, r, target)) is not None:
            return [first[shares[j]] for j in combo]
    raise NetIncomplete("a point is covered by no candidate")


def _exact_pack(near: list[int], cand: int) -> list[int]:
    """Largest subset of the bits of ``cand`` with no bit in another's
    ``near`` set, by branch and bound on the lowest bit (taken first).  Each
    ``near[v]`` holds v itself, as a point lies within alpha of itself."""
    best: list[int] = []

    def grow(cand: int, chosen: list[int]):
        nonlocal best
        if len(chosen) + cand.bit_count() <= len(best):
            return
        if cand == 0:
            best = chosen
            return
        v = (cand & -cand).bit_length() - 1
        grow(cand & ~near[v], chosen + [v])
        grow(cand & ~(1 << v), chosen)

    grow(cand, [])
    return best


def _selection(picks, n: int) -> np.ndarray:
    """How often each of ``n`` indices occurs in each row of ``picks``, an
    index array padded with -1 (one row per problem), as float32 rows."""
    picks = np.array(picks, int, ndmin=2)
    picks = picks.reshape(-1, picks.shape[-1])
    flat = (picks + n * np.arange(len(picks))[:, None])[picks >= 0]
    return np.bincount(flat, minlength=len(picks) * n).reshape(-1, n).astype(np.float32)


def _first_alpha(bad: np.ndarray, alpha):
    """The scale of the first flagged problem: ``alpha`` itself, or its entry
    for the leading (scale) axis of ``bad``."""
    return alpha if np.ndim(alpha) == 0 else float(alpha[np.argwhere(bad)[0][0]])


def _check_covers(near: np.ndarray, centers, targets: np.ndarray, alpha) -> None:
    """Raise :class:`NetIncomplete` unless the centers of each row reach every
    point of its target row; ``near`` is ``dist <= alpha`` (centers x points).
    With a leading scale axis on ``near``, ``centers`` and ``targets``,
    ``alpha`` holds one entry per scale."""
    sel = _selection(centers, near.shape[-2]).reshape(*targets.shape[:-1], -1)
    if (bad := targets & (sel @ near == 0)).any():
        raise NetIncomplete(f"a cover leaves a point uncovered at alpha = "
                            f"{_first_alpha(bad, alpha)}")


def _check_packings(near: np.ndarray, points, alpha) -> None:
    """Raise :class:`SeparationFailure` unless the points of each row are
    distinct and pairwise more than alpha apart; ``near`` is ``dist <= alpha``
    (points x points), so a chosen point must see itself alone.  A leading
    scale axis is read as in :func:`_check_covers`."""
    sel = _selection(points, near.shape[-1]).reshape(*near.shape[:-2], -1, near.shape[-1])
    if (bad := (sel > 0) & (sel @ near != 1)).any():
        raise SeparationFailure(f"packing points lie within alpha = "
                                f"{_first_alpha(bad, alpha)} of each other")


def _subset(space: FiniteMetricSpace, subset, alphas: np.ndarray, mode: str) -> np.ndarray:
    """Check the arguments shared by the counts, every scale of ``alphas``
    included; the subset as indices."""
    if alphas.ndim != 1:
        raise ValueError("alpha must be one scale or a 1-D sequence of scales")
    if not (alphas > 0).all():
        raise ValueError("alpha must be positive")
    k = np.arange(space.n) if subset is None else np.asarray(subset)
    if k.size == 0:
        raise ValueError("subset must be nonempty")
    # a boolean mask or a float would otherwise be read as indices
    if k.ndim != 1 or k.dtype.kind not in "iu" or not ((k >= 0) & (k < space.n)).all():
        raise ValueError(f"subset must be a 1-D array of point indices in [0, {space.n})")
    if mode not in ("exact", "greedy"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "exact" and space.n > DEFAULT_EXACT_CAP:
        raise ExactModeTooLarge(f"exact search capped at n <= {DEFAULT_EXACT_CAP}, "
                                f"space has n = {space.n}")
    return k


def _padded(rows) -> np.ndarray:
    """Index lists as the rows of an int array, padded with -1."""
    width = max(map(len, rows))
    return np.array([[*row, *[-1] * (width - len(row))] for row in rows], int)


def _table(space: FiniteMetricSpace, k: np.ndarray, alphas: np.ndarray, mode: str,
           pack: bool, balls: bool = False):
    """Checked covers, or with ``pack`` packings, of a table of (scale,
    target set) problems on the ordered points ``k``, whose order is the
    kernels' point axis and decides their ties.

    Covers at scale a take closed a-balls centered anywhere in the space;
    packings are strictly a-separated subsets of the target.  Each scale is
    one problem, whose target is all of ``k``; with ``balls`` one per point
    x, whose target is the ball B(x, 2a), solved greedily over every point
    (``ValueError`` otherwise).  The distance block (the space's rows for
    covers, ``k``'s for packings, over ``k``'s columns) is gathered once, if
    ``k`` is not every point.  Its scales run in chunks of ``_SWEEP_ENTRIES``
    (scales x rows x columns) entries, or one scale, each checked by one
    call against ``block <= a``: greedy covers and the packings of balls as
    one lockstep batch, exact ones on one bitmask build.  Greedy packings of
    ``k`` are prefixes of one farthest-first run to the smallest scale, on an
    oracle that reads one row at a time; their block is the run's pairs
    only, in run order, so that each prefix is a leading corner of it.
    Yields per chunk a (scales x problems x width) array of point indices
    padded with -1; an exact packing lists its points in ascending index.
    """
    n, m = space.n, k.size
    whole = m == n and bool((k == np.arange(n)).all())
    if balls and not (whole and mode == "greedy"):
        raise ValueError("balls are solved greedily, over every point of the space")
    if prefixes := pack and not balls and mode == "greedy" and alphas.size:
        # seeded at the lowest index of k; only the run's pairs are gathered
        run, radii = farthest_first(lambda i, cols, reach: space.dist[k[i]][k[cols]],
                                    int(k.argmin()), alphas.min())
        k, radii, pos = k[run], -np.array(radii[1:]), np.arange(len(run))
        block = space.dist[k[:, None], k]
    else:
        block = space.dist if whole else space.dist[k[:, None] if pack else slice(None), k]
    per = max(1, _SWEEP_ENTRIES // block.size)
    for lo in range(0, alphas.size, per):
        a = alphas[lo:lo + per]
        near = block <= (scale := a[:, None, None])
        if prefixes:
            cuts = np.searchsorted(radii, -a) + 1   # the seed and the picks with radii above a
            found = np.where(pos < cuts[:, None, None], pos, -1)
        else:
            targets = block <= 2.0 * scale if balls else np.ones((a.size, 1, m), bool)
        if mode == "exact":
            masks, r = _bitmasks(near.reshape(-1, m)), len(block)
            found = _padded([sorted(_exact_pack(masks[s * r:(s + 1) * r], (1 << m) - 1),
                                    key=k.__getitem__) if pack
                             else _exact_cover(masks[s * r:(s + 1) * r], (1 << m) - 1)
                             for s in range(a.size)])[:, None]
        elif not pack:
            found = greedy_set_cover(near, targets)
        elif balls:
            flat = targets.reshape(-1, n)
            starts = flat.argmax(axis=1)    # only the first rows are masked: -inf stays -inf
            rows = np.where(flat, block[starts], -np.inf)
            found, _ = farthest_first(lambda i, cols, reach: rows if i is starts
                                      else block[i][:, cols], starts, np.repeat(a, n))
            found = found.reshape(a.size, n, -1)
        if pack:
            # the positions along k are the points of near
            _check_packings(near, found, a)
            found = np.where(found >= 0, k[found], -1)
        else:
            _check_covers(near, found, targets, a)
        yield found


def _count(space: FiniteMetricSpace, subset, alpha, mode: str, pack: bool):
    """The checked results at one scale, or one per scale of a sequence.
    Every scale is checked before :func:`_table` runs."""
    given = [alpha] if (one := np.ndim(alpha) == 0) else list(alpha)
    scales = np.array(given, dtype=float)
    k = _subset(space, subset, scales, mode)
    found = (row[row >= 0].tolist() for chunk in _table(space, k, scales, mode, pack)
             for row in chunk[:, 0])
    results = [CoverPackResult(len(w), tuple(w), mode, a) for w, a in zip(found, given)]
    return results[0] if one else results


def covering_number(
    space: FiniteMetricSpace,
    subset=None,
    alpha=1.0,
    mode: str = "exact",
) -> CoverPackResult | list[CoverPackResult]:
    """Minimal (exact) or greedy upper-bound count of closed alpha-balls
    covering the subset, with centers drawn from the whole space.

    ``alpha`` is one scale, or a 1-D sequence of scales with one result per
    scale, each equal to that scale's own call.  Every scale is checked
    before any search.  The scales are one table of problems, one per scale
    with the subset as its target, solved and checked in chunks by
    :func:`_table`."""
    return _count(space, subset, alpha, mode, pack=False)


def packing_number(
    space: FiniteMetricSpace,
    subset=None,
    alpha=1.0,
    mode: str = "exact",
) -> CoverPackResult | list[CoverPackResult]:
    """Maximal (exact) or greedy lower-bound size of a strictly alpha-separated
    subset of the given point set.

    ``alpha`` is one scale or a 1-D sequence of scales, one problem per scale
    of a :func:`_table`, as in :func:`covering_number`.  The greedy packings
    of every scale come from one :func:`farthest_first` run."""
    return _count(space, subset, alpha, mode, pack=True)


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


def probe_scales(space: FiniteMetricSpace, window, max_scales: int = 64) -> np.ndarray:
    """Scale set {pairwise distances and their halves} restricted to the window.

    Counts only change at these thresholds, so probing them is exhaustive for
    the finite space.  Large spaces get an evenly thinned subset (deterministic)
    capped at ``max_scales``, an integer of at least 1.
    """
    if not (isinstance(max_scales, (int, np.integer)) and max_scales >= 1):
        raise ValueError(f"max_scales must be an integer of at least 1, got {max_scales!r}")
    lo, hi = float(window[0]), float(window[1])
    if not (0 < lo <= hi):
        raise EmptyWindow(f"invalid window {window}")
    d = space.pairwise_distances()
    scales = np.unique(np.concatenate([d, d / 2.0]))
    scales = scales[(scales >= lo) & (scales <= hi)]
    if scales.size == 0:
        raise EmptyWindow(f"no probe scale inside window {window}")
    if scales.size > max_scales:
        idx = np.linspace(0, scales.size - 1, max_scales).round().astype(int)
        scales = scales[np.unique(idx)]
    return scales


def dimension_report(
    space: FiniteMetricSpace,
    window,
    max_scales: int = 64,
) -> DimensionReport:
    """Estimate both metric dimensions over the probed scale window.

    ``d`` is the smallest integer with every ball of radius ``2a`` coverable by
    ``2**d`` balls of radius ``a``; ``p`` the largest integer with every such
    ball containing a strictly ``a``-separated subset of size ``2**p``
    (one-sided reading over the window).  One sweep solves the ball of every
    point at every probe scale in lockstep batches with the greedy kernels,
    and checks each witness; only each ball's scale, center x, greedy cover
    size U and packing size l are kept.  In greedy mode d and p come from
    the largest U and the smallest l.

    When ``n <= DEFAULT_EXACT_CAP`` the counts are exact.  U bounds a ball's exact
    cover from above, l its exact packing from below, so exact searches run
    only where one could move d or p, each on one (scale, ball) problem
    with the ball as its points.  Covers run in descending U (stably)
    while U > 2**ceil(log2 M), M the largest exact count so far (1 at
    first): any later ball's exact count is at most U, so cannot raise
    ceil(log2 M).  Packings run in ascending l while l < 2**floor(log2 m),
    m the smallest so far (n at first).
    """
    scales = probe_scales(space, window, max_scales=max_scales)
    mode = "exact" if space.n <= DEFAULT_EXACT_CAP else "greedy"
    every = np.arange(space.n)
    u, ell = (np.concatenate([np.count_nonzero(found >= 0, axis=2).ravel() for found
                              in _table(space, every, scales, "greedy", pack, balls=True)])
              for pack in (False, True))
    s, x = np.divmod(np.arange(u.size), space.n)

    def exact(q: int, pack: bool) -> int:
        # the one (scale, ball) problem, with the ball as its points
        a = scales[s[q]:s[q] + 1]
        found = next(_table(space, space.ball(x[q], 2 * a[0]), a, "exact", pack))
        return int(np.count_nonzero(found >= 0))

    top, low = (1, space.n) if mode == "exact" else (int(u.max()), int(ell.min()))
    if mode == "exact":
        for q in np.argsort(-u, kind="stable"):
            if u[q] <= 1 << (top - 1).bit_length():
                break
            top = max(top, exact(q, False))
        for q in np.argsort(ell, kind="stable"):
            if ell[q] >= 1 << (low.bit_length() - 1):
                break
            low = min(low, exact(q, True))
    return DimensionReport(
        d=(top - 1).bit_length(), p=low.bit_length() - 1,
        window=(float(window[0]), float(window[1])),
        scales=tuple(float(a) for a in scales), mode=mode,
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
