"""Shared fixtures and independent oracles used across the test suite.

The oracles deliberately avoid the library's algorithms: covering/packing by
exhaustive subset search, generalized variation by brute-force subsequence
enumeration, minimax affine gaps by trying every pairwise chord slope, and
Burgers Riemann problems by their closed-form solutions.  Two references do
call the library: the per-ball loop for metric dimensions, which checks the
batched sweep against the public covering and packing counts, and the
per-epsilon scan counts, one traversal and one set cover per epsilon, which
check the scan's single traversal.  The reference farthest-first computes a
full row per pick and drops no point, the traversal that the live-set one
must match pick for pick and radius for radius.  The reference set cover
makes one pick per step to the last point, where the library's finishes the
steps that each cover one point at once.
The optimal chain of a generalized variation is a reference too: it
backtracks ``tv_psi``'s program over every index, and the digests in
``test_agreement.py`` hash the chains it returns.
The exact cover by ``combinations`` over the distinct shares is the
reference for the pruned depth-first search: it must give its witnesses.
The pair-by-pair separation check is the reference for the alphabet
certificate: it reads every pair's block sum and extracts by farthest-first.
The full-array Godunov kernel is the reference the sparse one must match bit
for bit; it reads only a flux's coefficients and critical points.  The
reference step loop runs it on a freshly allocated array at every step.  The
reference decoder reads each shell off a net's dense matrix of discrete radii
rather than from ``Net.shell``.
The reference golden-section search reads every sample of every row at every
step, one width at a time: the pruned, batched search must give its floats.
"""

import functools
import itertools
import math
import operator
import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

import bventropy
from bventropy.bv_codec import BitReader, _build_net, _rank_width
from bventropy.entropy_estimator import MATRIX_CAP
from bventropy.errors import CorruptStream, NetIncomplete, SeparationFailure
from bventropy.gauge_variation import Gauge, StepFunction, _chain, value_distance
from bventropy.metric_core import (
    DEFAULT_EXACT_CAP,
    DimensionReport,
    FiniteMetricSpace,
    covering_number,
    from_points,
    greedy_set_cover,
    packing_number,
    probe_scales,
    validate_metric,
)
from bventropy.witness_lab import (
    SeparationReport,
    _greedy_extract,
    family_floor,
    separation_factor,
)


# ---------------------------------------------------------------------------
# child processes


def run_python(*argv):
    """Run a Python child with the package on its path.  The timeout turns a
    hang into a test failure instead of a stalled suite."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(bventropy.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          timeout=60, env=env)


# ---------------------------------------------------------------------------
# metric-space generators


def random_metric_space(rng, n: int, dim: int = 2) -> FiniteMetricSpace:
    """Random Euclidean point cloud (always a valid metric)."""
    return from_points(rng.uniform(0.0, 1.0, size=(n, dim)))


def random_metric_matrix(rng, n: int) -> FiniteMetricSpace:
    """Random non-Euclidean metric via shortest paths on a random graph."""
    w = rng.uniform(0.2, 1.0, size=(n, n))
    w = 0.5 * (w + w.T)
    np.fill_diagonal(w, 0.0)
    d = w.copy()
    for k in range(n):
        d = np.minimum(d, d[:, k][:, None] + d[k, :][None, :])
    return validate_metric(d)


# ---------------------------------------------------------------------------
# covering / packing oracles (exhaustive)


def oracle_cover(space: FiniteMetricSpace, subset, alpha: float) -> int:
    """Minimal closed-ball covering count by brute force over center sets."""
    k = list(subset) if subset is not None else list(range(space.n))
    for r in range(1, len(k) + 1):
        for centers in itertools.combinations(range(space.n), r):
            if all(min(space.dist[c, p] for c in centers) <= alpha for p in k):
                return r
    raise AssertionError("unreachable: singletons always cover")


def oracle_pack(space: FiniteMetricSpace, subset, alpha: float) -> int:
    """Maximal strictly separated subset size by brute force."""
    k = list(subset) if subset is not None else list(range(space.n))
    best = 1
    for r in range(len(k), 1, -1):
        if r <= best:
            break
        for pts in itertools.combinations(k, r):
            if all(space.dist[a, b] > alpha
                   for a, b in itertools.combinations(pts, 2)):
                best = r
                break
    return best


def reference_exact_cover(masks: list[int], target: int) -> list[int]:
    """Fewest centers whose coverage sets ``masks`` hold every bit of
    ``target``, by ``itertools.combinations`` over the centers with a
    nonempty, not yet seen share of ``target``, from the least size that the
    largest share allows: the first cover found.  The pruned search of
    ``_exact_cover`` must return its witness."""
    first: dict[int, int] = {}
    for c, bits in enumerate(masks):
        if bits & target:
            first.setdefault(bits & target, c)
    least = -(-target.bit_count() // max((b.bit_count() for b in first), default=1))
    for r in range(least, len(first) + 1):
        for combo in itertools.combinations(first, r):
            if functools.reduce(operator.or_, combo) == target:
                return [first[bits] for bits in combo]
    raise NetIncomplete("a point is covered by no candidate")


def reference_dimension_report(space: FiniteMetricSpace, window,
                               max_scales=64) -> DimensionReport:
    """``dimension_report`` as a plain loop: one public ``covering_number``
    and one ``packing_number`` call on the ball B(x, 2a) for every probe
    scale a and every point x, with no ball shared between points."""
    scales = probe_scales(space, window, max_scales=max_scales)
    mode = "exact" if space.n <= DEFAULT_EXACT_CAP else "greedy"
    covers, packs = [], []
    for alpha in scales:
        for x in range(space.n):
            ball = space.ball(x, 2.0 * alpha)
            covers.append(covering_number(space, ball, alpha, mode).count)
            packs.append(packing_number(space, ball, alpha, mode).count)
    d = int(np.ceil(np.log2(max(covers))))
    p = int(np.floor(np.log2(min(packs))))
    return DimensionReport(d=d, p=p, window=(float(window[0]), float(window[1])),
                           scales=tuple(float(s) for s in scales), mode=mode)


def reference_greedy_cover(covers: np.ndarray, targets=None):
    """Set-cover greedy with one pick per problem per step, to the last
    point: the picks, batch rules and error of ``greedy_set_cover``."""
    weights = covers.T.astype(np.float32)     # exact counts below 2**24
    batch = targets is not None
    uncovered = (np.array(targets, bool, ndmin=2) if batch
                 else np.ones((1, covers.shape[1]), bool))
    left = uncovered.sum(axis=1).tolist()
    chosen = [[] for _ in left]
    while any(left):
        gain = uncovered @ weights
        best = gain.argmax(axis=1)              # argmax takes the lowest index
        for b, c in enumerate(best.tolist()):
            if left[b]:
                if not gain[b, c]:
                    raise NetIncomplete("a point is covered by no candidate")
                left[b] -= int(gain[b, c])
                chosen[b].append(c)
        uncovered &= ~covers[best]
    return chosen if batch else chosen[0]


def reference_farthest_first(rows, start, sep: float):
    """Farthest-point insertion with a full row per pick, no point ever
    dropped: ``rows(i)`` returns the distances from point ``i`` to every
    point.  The same picks, radii and batch rules as ``farthest_first``."""
    if math.isnan(sep):
        raise ValueError("separation must not be NaN")
    batch = np.ndim(start) > 0
    chosen = [[int(s)] for s in np.atleast_1d(start)]
    radii = [[math.inf] for _ in chosen]
    mind = np.array(rows(start), dtype=float, ndmin=2)
    line = mind if batch else mind[0]
    while True:
        picks = mind.argmax(axis=1).tolist()    # argmax takes the lowest index
        far = [b for b, j in enumerate(picks) if mind[b, j] > sep]
        if not far:
            return (chosen, radii) if batch else (chosen[0], radii[0])
        for b in far:
            chosen[b].append(picks[b])
            radii[b].append(float(mind[b, picks[b]]))
        np.minimum(line, rows(np.array(picks) if batch else picks[0]), out=line)


def reference_scan_counts(ens, grid) -> list[tuple[int, int]]:
    """(cover, pack) of an ensemble at each epsilon, each from its own
    reference farthest-first run from member 0 and, up to ``MATRIX_CAP``
    members, its own set-cover greedy on the full distance matrix; above the
    cap the farthest-first set is both."""
    dist = ens.distance_matrix() if len(ens) <= MATRIX_CAP else None
    counts = []
    for eps in grid:
        if dist is None:
            pack = len(reference_farthest_first(ens.distances_from, 0, eps)[0])
            counts.append((pack, pack))
        else:
            counts.append((len(greedy_set_cover(dist <= eps)),
                           len(reference_farthest_first(dist.__getitem__, 0, eps)[0])))
    return counts


# ---------------------------------------------------------------------------
# generalized-variation oracle and optimal chains


def oracle_tv_psi(f: StepFunction, gauge: Gauge) -> float:
    """Max over all value subsequences containing both endpoints."""
    k = f.k
    if k < 2:
        return 0.0
    best = 0.0
    middle = range(1, k - 1)
    for r in range(0, k - 1):
        for mids in itertools.combinations(middle, r):
            chain = (0,) + mids + (k - 1,)
            total = sum(
                float(gauge(float(value_distance(f.values[a], f.values[b], f.space))))
                for a, b in zip(chain, chain[1:])
            )
            best = max(best, total)
    return best


def _best_everywhere(values: np.ndarray, keep: np.ndarray, best_kept: np.ndarray,
                     gauge: Gauge) -> np.ndarray:
    # An optimal chain to j needs only the extrema before j, so
    # best[j] = max over kept e < j of best_kept[e] + psi(|v_e - v_j|), taken
    # in row blocks that hold about a million pairs.
    best = np.zeros(values.size)
    vk = values[keep]
    rows = max(1, 2 ** 20 // keep.size)
    for lo in range(1, values.size, rows):
        j = np.arange(lo, min(lo + rows, values.size))
        cand = best_kept + gauge(np.abs(vk - values[j, None]))
        best[j] = np.where(keep < j[:, None], cand, -np.inf).max(axis=1)
    return best


def tv_psi_chain(f: StepFunction, gauge: Gauge) -> tuple[float, list[int]]:
    """``tv_psi`` of f and an optimal value-index chain.

    The chain holds indices into ``f.values`` and runs from 0 to k-1.  Ties
    resolve to the lexicographically smallest chain (earliest predecessors
    win) over all indices, reduced DP or not.  The chain is backtracked from
    the last value: each element's candidate row is recomputed and its
    earliest argmax is the predecessor.  Under a reduced DP, ``best`` at the
    indices it skipped comes from the extrema before them, in O(k m) for m
    extrema, so the forward pass stays as cheap as ``tv_psi``.
    """
    keep, best = _chain(f.values, gauge, f.space)
    value = float(best[-1])
    if keep.size < f.k:
        best = _best_everywhere(f.values, keep, best, gauge)
    chain = [f.k - 1]
    while chain[-1] > 0:
        j = chain[-1]
        cand = best[:j] + gauge(value_distance(f.values[:j], f.values[j], f.space))
        chain.append(int(np.argmax(cand)))     # argmax -> earliest index on ties
    return value, chain[::-1]


# ---------------------------------------------------------------------------
# witness-separation reference


def eta(delta, delta_tilde) -> int:
    """Number of blocks where two members' index vectors differ."""
    return int(np.count_nonzero(np.asarray(delta) != np.asarray(delta_tilde)))


def reference_verify_packing(fam) -> SeparationReport:
    """``verify_packing`` pair by pair: every pair i < j checked a row at a
    time against per_block times its differing blocks, the minimum over all
    pairs, and the farthest-first extraction whatever the minimum."""
    m = fam.size
    if m == 0:
        raise ValueError("empty family")
    per_block = separation_factor(fam.p_tilde) * fam.L * fam.h / fam.N1
    blocks = ((np.full(m - 1 - i, i), np.arange(i + 1, m)) for i in range(m - 1))
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


# ---------------------------------------------------------------------------
# codec reference


def reference_decode(cw, net) -> StepFunction:
    """``decode`` with each shell taken from the net's dense matrix of
    discrete radii: the centres whose radius from the current one is k."""
    radii = net.rho_sharp_matrix()
    r = BitReader(cw.payload, cw.bit_length)
    pos = r.read(_rank_width(net.size))
    if pos >= net.size:
        raise CorruptStream("start index out of range")
    positions = [pos]
    for _ in range(cw.N1 - 1):
        k = r.read_gamma() - 1
        shell = np.flatnonzero(radii[pos] == k)
        if shell.size == 0:
            raise CorruptStream(f"empty shell at radius {k}")
        rank = r.read(_rank_width(shell.size))
        if rank >= shell.size:
            raise CorruptStream("shell rank out of range")
        pos = int(shell[rank])
        positions.append(pos)
    if not r.exhausted:
        raise CorruptStream("bits left over after the last cell")
    return StepFunction(cw.grid().edges, net.centers[positions], net.space)


# ---------------------------------------------------------------------------
# minimax affine-approximation oracle


def oracle_window_minimax(xs: np.ndarray, ys: np.ndarray) -> float:
    """Best uniform affine-approximation error of the points (xs, ys).

    The half-width (max(y - s x) - min(y - s x)) / 2 is least at a slope of
    a convex-hull edge, and every hull edge joins two of the points, so the
    minimum over all pairwise chord slopes is exact.
    """
    i, j = np.triu_indices(xs.size, k=1)
    s = (ys[j] - ys[i]) / (xs[j] - xs[i])
    r = ys[None, :] - s[:, None] * xs[None, :]
    return float((r.max(axis=1) - r.min(axis=1)).min() / 2.0)


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0     # golden-section shrink factor


def reference_window_minimax(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Best uniform affine-approximation error of each row of sampled points.

    For a slope s the optimal offset splits the residual range evenly, so the
    error is w(s) = (max(y - s x) - min(y - s x)) / 2, convex in s.  Below the
    least chord slope of consecutive samples the residuals increase along the
    row and w falls; above the greatest they decrease and w rises.  So a
    golden-section search on that bracket finds the minimum; it runs on all
    rows at once until every bracket has shrunk to the float resolution of
    its slopes.
    """
    def half_width(s: np.ndarray) -> np.ndarray:
        r = ys - s[:, None] * xs
        return (r.max(axis=1) - r.min(axis=1)) / 2.0

    chords = np.diff(ys, axis=1) / np.diff(xs, axis=1)
    lo, hi = chords.min(axis=1), chords.max(axis=1)
    ratio = np.max((hi - lo) / np.spacing(np.maximum(np.abs(lo), np.abs(hi))))
    steps = math.ceil(math.log(ratio) / -math.log(_INVPHI)) if ratio > 1.0 else 0
    c, d = hi - _INVPHI * (hi - lo), lo + _INVPHI * (hi - lo)
    fc, fd = half_width(c), half_width(d)
    for _ in range(steps):
        # keep [lo, d] where w(c) <= w(d), else [c, hi]; one new probe per row
        left = fc <= fd
        lo, hi = np.where(left, lo, c), np.where(left, d, hi)
        p = np.where(left, hi - _INVPHI * (hi - lo), lo + _INVPHI * (hi - lo))
        fp = half_width(p)
        c, d = np.where(left, p, d), np.where(left, c, p)
        fc, fd = np.where(left, fp, fd), np.where(left, fc, fp)
    return np.minimum(fc, fd)


# ---------------------------------------------------------------------------
# full-array Godunov reference


def reference_godunov(flux, u: np.ndarray) -> np.ndarray:
    """Godunov fluxes between consecutive states of ``u``: f from
    ``P.polyval``, and each critical value folded in over every interface by
    two nested ``where``s, where it lies strictly between the two states."""
    fu = P.polyval(u, flux.coeffs)
    ul, ur = u[:-1], u[1:]
    rising = ul <= ur
    F = np.where(rising, np.minimum(fu[:-1], fu[1:]), np.maximum(fu[:-1], fu[1:]))
    lo, hi = np.minimum(ul, ur), np.maximum(ul, ur)
    for c in flux.critical_points:
        fc = P.polyval(c, flux.coeffs)
        F = np.where((lo < c) & (c < hi),
                     np.where(rising, np.minimum(F, fc), np.maximum(F, fc)), F)
    return F


def reference_evolve(u0: np.ndarray, flux, T: float, dx: float, cfl: float = 0.45):
    """``evolve``'s step loop as it was before its kernel ran on buffers
    allocated once, on ``reference_godunov``: (cells, mass, max_tv_increase)."""
    buf = np.pad(np.asarray(u0, dtype=float), 1)    # zero ghost cells at both ends
    u = buf[1:-1]                                   # the cells, updated in place
    dt_max = cfl * dx / max(flux.fprime_max, 1e-300)
    t = 0.0
    cell_tv = float(np.abs(u[1:] - u[:-1]).sum())
    max_tv_increase = 0.0
    while t < T - 1e-14:
        dt = min(dt_max, T - t)
        F = reference_godunov(flux, buf)           # interface fluxes, n+1
        u -= dt / dx * (F[1:] - F[:-1])
        t += dt
        new_tv = float(np.abs(u[1:] - u[:-1]).sum())
        max_tv_increase = max(max_tv_increase, new_tv - cell_tv)
        cell_tv = new_tv
    return u.copy(), float(u.sum() * dx), max_tv_increase


# ---------------------------------------------------------------------------
# Burgers Riemann exact solutions


def burgers_exact_shock(x: np.ndarray, t: float, ul: float, ur: float) -> np.ndarray:
    """Entropy solution for ul > ur: a shock at speed (ul + ur) / 2."""
    s = 0.5 * (ul + ur)
    return np.where(x < s * t, ul, ur)


def burgers_exact_rarefaction(x, t, ul, ur):
    """Entropy solution for ul < ur: a centered fan u = x/t inside the cone."""
    u = np.where(x <= ul * t, ul, np.where(x >= ur * t, ur, x / max(t, 1e-300)))
    return u


# ---------------------------------------------------------------------------
# random step functions


def random_step_function(rng, L=1.0, max_pieces=12, lo=0.0, hi=1.0,
                         space=None) -> StepFunction:
    k = int(rng.integers(1, max_pieces + 1))
    cuts = np.unique(rng.uniform(0.0, L, size=k - 1))
    bp = np.concatenate([[0.0], cuts, [L]])
    if space is None:
        vals = rng.uniform(lo, hi, size=bp.size - 1)
    else:
        vals = rng.integers(0, space.n, size=bp.size - 1)
    return StepFunction(bp, vals, space)


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


@pytest.fixture(autouse=True)
def fresh_net_memo():
    """Each test starts and ends with no net remembered, so that no result
    depends on test order or on a setting a test patched."""
    _build_net.cache_clear()
    yield
    _build_net.cache_clear()
