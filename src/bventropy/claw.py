"""Scalar 1-D conservation laws u_t + f(u)_x = 0 with polynomial fluxes.

A Godunov finite-volume scheme evolves compactly supported data on a padded
symmetric grid; one kernel gives the interface fluxes along the last axis of
a state array, on buffers allocated once.  ``evolve`` keeps the cells in one
buffer between two zero ghost cells and updates it in place; calibration
steps all of its samples as the rows of one such buffer.  The kernel
evaluates f once per state; each critical value, computed once per flux, is
folded in only at the interfaces that straddle its point.  The flux also
induces a gauge: the minimal affine-approximation error of f over windows of
width h, convexified and rescaled, measures how strongly the flux bends and
controls the generalized variation of solutions; the gauge feeds the
variation codec and its bit bounds.  The errors of the sampled windows of
all the widths of a gauge come from one golden-section search over the
approximating slope.  Its first steps read every sample of one width at a
time; then each window keeps only the samples that can still set its
extremes, and the other steps run on the windows of all widths as one
batch.  The only convex hull in the module is the envelope taken over the
widths.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import (
    DomainTooSmall,
    GaugeDegenerate,
    InfiniteDegeneracy,
    InvalidGrid,
    OutOfRange,
    UnstableConfig,
)
from .gauge_variation import Gauge, GaugeReport, StepFunction, right_continuous, tv_psi

LOG_TERM = 3.0 * math.log2(5.0) + math.log2(5.0 * math.e)   # 3 log2 5 + log2(5e)

#: Most time steps one :func:`evolve` may take; more is refused up front.
MAX_STEPS = 10 ** 6

CFL = 0.45      # Courant number of :func:`evolve` and of the calibration runs
CALIBRATION_SAMPLES = 6     # initial data evolved by :func:`calibrate_gamma`


class Flux:
    """Polynomial flux f on [-M, M], with f' as ``df`` and f'' as ``d2f`` from
    exact ``P.polyder`` derivatives; the one check is that f and f' are finite
    at 17 probes spanning [-M, M]."""

    def __init__(self, coeffs, M: float, name: str = "poly"):
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.M = float(M)
        self.name = name
        with np.errstate(over="ignore", invalid="ignore"):    # checked just below
            self._d1 = P.polyder(self.coeffs)
            self._d2 = P.polyder(self.coeffs, 2)
            self._f, self.df, self.d2f = map(_Horner, [self.coeffs, self._d1, self._d2])
            probes = np.linspace(-self.M, self.M, 17)
            finite = np.isfinite(self(probes)).all() and np.isfinite(self.df(probes)).all()
        if not finite:
            raise ValueError(f"f or f' is not finite on [-M, M] with M = {self.M}")
        # |f'| peaks at an end of [-M, M] or where f'' vanishes
        ends = np.concatenate([[-self.M, self.M], self._real_roots(self._d2, self.M)])
        self.fprime_max = float(np.abs(self.df(ends)).max())
        self.critical_points = self._real_roots(self._d1, self.M)
        self.critical_values = self(self.critical_points)

    # factories -----------------------------------------------------------

    @classmethod
    def burgers(cls, M: float = 1.0) -> "Flux":
        return cls([0.0, 0.0, 0.5], M, "burgers")

    @classmethod
    def cubic(cls, M: float = 1.0) -> "Flux":
        return cls([0.0, 0.0, 0.0, 1.0 / 3.0], M, "cubic")

    @classmethod
    def quartic(cls, M: float = 1.0) -> "Flux":
        return cls([0.0, 0.0, 0.0, 0.0, 0.25], M, "quartic")

    @classmethod
    def parse(cls, token: str, M: float = 1.0) -> "Flux":
        if token in ("burgers", "cubic", "quartic"):
            return getattr(cls, token)(M)
        if token.startswith("poly:"):
            return cls([float(c) for c in token[5:].split(";")], M)
        raise ValueError(f"unknown flux token {token!r}")

    # evaluation ----------------------------------------------------------

    def __call__(self, u):
        return self._f(u)

    def is_wgn(self) -> bool:
        """No affine part: f'' is not identically zero."""
        return bool(np.any(np.abs(self._d2) > 1e-14))

    # internals -----------------------------------------------------------

    @staticmethod
    def _real_roots(poly, M: float) -> np.ndarray:
        """Sorted distinct real roots of ``poly`` in [-M, M]."""
        if np.all(np.abs(poly) < 1e-300) or poly.size <= 1:
            return np.zeros(0)
        roots = P.polyroots(poly)
        real = roots[np.abs(roots.imag) < 1e-9].real
        return np.unique(real[(real >= -M) & (real <= M)])


class _Horner:
    """A polynomial by Horner's rule with ``P.polyval``'s floats for finite u.
    It starts from the top nonzero coefficient c_k, polyval's exact partial
    value there.  Adding a zero only turns -0 into +0, which a later nonzero
    add or a +0.0 constant erases, so it is skipped (None) unless the constant
    is -0.0."""

    def __init__(self, coeffs: np.ndarray):
        c = coeffs.tolist()
        k = max((i for i, v in enumerate(c) if v != 0.0), default=0)
        self.top, adds = (c[k], c[k - 1:0:-1]) if k else (0.0, c[:0:-1])
        keep = c[0] == 0.0 and math.copysign(1.0, c[0]) < 0
        self.adds, self.last = [v if v != 0.0 or keep and math.copysign(1.0, v) > 0
                                else None for v in adds], c[0]

    def __call__(self, u, out=None):
        """The values at u, written into ``out`` when it is given."""
        out = np.multiply(u, self.top, out=out)
        for c in self.adds:             # each add but the last, then a multiply
            if c is not None:
                out += c
            out *= u
        out += self.last
        return out


class _Kernel:
    """Godunov fluxes between neighbours along the last axis of the states
    ``u``, which the caller updates in place, on buffers allocated once.  f is
    evaluated once per state; each critical value enters only at interfaces
    whose states lie strictly on either side of its point.  The rise test reads
    ``d`` = u[..., 1:] - u[..., :-1], which :meth:`diff` renews after u changes."""

    def __init__(self, flux: Flux, u: np.ndarray):
        faces = (*u.shape[:-1], u.shape[-1] - 1)
        self.f, self.ul, self.ur = flux._f, u[..., :-1], u[..., 1:]
        self.critical = tuple(zip(flux.critical_points, flux.critical_values))
        self.d, self.F, fu = np.empty(faces), np.empty(faces), np.empty(u.shape)
        below, above = np.empty(u.shape, bool), np.empty(u.shape, bool)
        # every view made once: slicing costs about as much as a small ufunc call
        self.work = (u, self.F, fu, fu[..., :-1], fu[..., 1:], below, above,
                     below[..., :-1], above[..., 1:], above[..., :-1], below[..., 1:],
                     *(np.empty(faces, bool) for _ in range(3)))
        self.diff()

    def diff(self) -> np.ndarray:
        return np.subtract(self.ur, self.ul, out=self.d)

    def fluxes(self) -> np.ndarray:
        (u, F, fu, fl, fr, below, above, below_l, above_r, above_l, below_r,
         rise, up, down) = self.work
        self.f(u, fu)
        # for finite states d >= 0 exactly when ul <= ur, signed zeros included
        np.greater_equal(self.d, 0.0, out=rise)
        np.maximum(fl, fr, out=F)
        np.minimum(fl, fr, out=F, where=rise)           # min over [ul, ur]
        for c, fc in self.critical:
            np.less(u, c, out=below)
            np.greater(u, c, out=above)
            np.logical_and(below_l, above_r, out=up)
            np.minimum(F, fc, out=F, where=up)
            np.logical_and(above_l, below_r, out=down)
            np.maximum(F, fc, out=F, where=down)
        return F


@dataclass(frozen=True)
class GridSolution:
    dx: float
    x: np.ndarray           # cell centers
    cells: np.ndarray
    T: float
    mass: float
    max_tv_increase: float = 0.0    # largest per-step growth of cell TV


def make_grid(L: float, M: float, T: float, flux: Flux, dx: float) -> np.ndarray:
    """Cell centers on a symmetric domain wide enough that waves leaving
    [-L, L] never reach the boundary by time T."""
    if not 0 < L < math.inf:
        raise InvalidGrid(f"L must be positive and finite, got {L}")
    _require_grid(T, dx)
    W = L + T * flux.fprime_max + 6.0 * dx
    n = int(math.ceil(W / dx))
    return (np.arange(-n, n) + 0.5) * dx


def evolve(
    u0: np.ndarray, flux: Flux, T: float, dx: float, cfl: float = CFL, *,
    x: np.ndarray,
) -> GridSolution:
    """Explicit conservative Godunov update to time T with zero ghost cells;
    ``x``, the cell centres of ``u0`` from :func:`make_grid`, is carried over."""
    return _evolve_rows(np.asarray(u0, dtype=float)[None], flux, T, dx, cfl, x)[0]


def _evolve_rows(rows: np.ndarray, flux: Flux, T: float, dx: float, cfl: float,
                 x: np.ndarray) -> list:
    """:func:`evolve` of every row of ``rows`` on the grid ``x``, stepped
    together: the rows share each time step, and the kernel runs on one
    buffer of all rows, each between two zero ghost cells, updated in place."""
    if not 0 < cfl <= 0.9:
        # above 0.9 the scheme is unstable; at or below 0 time never advances
        raise UnstableConfig(f"cfl = {cfl} must lie in (0, 0.9]")
    _require_grid(T, dx)        # an infinite T or a negative step never ends
    if np.shape(x) != rows.shape[1:]:
        raise InvalidGrid(f"{np.size(x)} cell centres for {rows[0].size} cells")
    buf = np.pad(rows, ((0, 0), (1, 1)))    # zero ghost cells at both ends
    u = buf[:, 1:-1]                        # the cells, updated in place
    if not np.all(np.isfinite(u)):
        raise OutOfRange("initial data must be finite")
    if np.abs(u).max(initial=0.0) > flux.M * (1 + 1e-9):
        raise OutOfRange("initial data exceeds the flux evaluation radius M")

    margin = T * flux.fprime_max + 2.0 * dx
    for row in u:
        support = np.flatnonzero(np.abs(row) > 1e-12).tolist()
        rooms = (support[0] * dx, (row.size - 1 - support[-1]) * dx) if support else ()
        if min(rooms, default=margin) < margin:
            raise DomainTooSmall(f"need {margin} of padding, have {rooms}")

    dt_max = cfl * dx / max(flux.fprime_max, 1e-300)
    if T > MAX_STEPS * dt_max:
        raise InvalidGrid(f"T = {T} takes more than {MAX_STEPS} steps of {dt_max}")
    kernel = _Kernel(flux, buf)
    jumps = kernel.d[:, 1:-1]               # d between cells, not ghosts
    sizes, du = np.empty_like(jumps), np.empty_like(u)
    F_left, F_right = kernel.F[:, :-1], kernel.F[:, 1:]
    cell_tv = np.add.reduce(np.abs(jumps, out=sizes), axis=1)
    max_tv_increase = np.zeros(len(rows))
    t = 0.0
    while t < T - 1e-14:
        dt = min(dt_max, T - t)
        kernel.fluxes()                     # interface fluxes, n+1 per row
        np.subtract(F_right, F_left, out=du)
        du *= dt / dx
        u -= du
        t += dt
        kernel.diff()
        new_tv = np.add.reduce(np.abs(jumps, out=sizes), axis=1)
        np.maximum(max_tv_increase, new_tv - cell_tv, out=max_tv_increase)
        cell_tv = new_tv
    x = np.asarray(x, dtype=float)
    return [GridSolution(dx=dx, x=x, cells=row.copy(), T=T, mass=float(row.sum() * dx),
                         max_tv_increase=float(inc))
            for row, inc in zip(u, max_tv_increase)]


def _require_grid(T: float, dx: float) -> None:
    if not 0 < dx < math.inf:
        raise InvalidGrid(f"dx must be positive and finite, got {dx}")
    if not 0 <= T < math.inf:
        raise InvalidGrid(f"T must be non-negative and finite, got {T}")


def support_check(sol: GridSolution, L: float, M: float, T: float, flux: Flux) -> bool:
    """True iff the numerical support, the cells above 1e-12 in size, stays
    inside [-(L + T f'_M) - 2 dx, (L + T f'_M) + 2 dx]."""
    ell = L + T * flux.fprime_max
    idx = np.flatnonzero(np.abs(sol.cells) > 1e-12)
    if idx.size == 0:
        return True
    lo = sol.x[idx[0]] - sol.dx / 2.0
    hi = sol.x[idx[-1]] + sol.dx / 2.0
    return lo >= -ell - 2.0 * sol.dx - 1e-12 and hi <= ell + 2.0 * sol.dx + 1e-12


# ---------------------------------------------------------------------------
# flux-derived gauge


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0     # golden-section shrink factor
_FULL_STEPS = 10        # golden steps that read every sample before the prune
# |fl(y - fl(s x)) - (y - s x)| <= _ROUND (|y| + 2 |s x|) + 2^-1074
_ROUND = 2.0 ** -53 * (1.0 + 2.0 ** -20)


def _window_minimax(groups) -> list:
    """Best uniform affine-approximation error of each row of sampled points,
    for each group: a callable that returns its (xs, ys) pair of 2-D arrays,
    so that only one group's samples are held at a time.

    For a slope s the optimal offset splits the residual range evenly, so the
    error is w(s) = (max(y - s x) - min(y - s x)) / 2, convex in s.  Below the
    least chord slope of consecutive samples the residuals increase along the
    row and w falls; above the greatest they decrease and w rises.  So a
    golden-section search on that bracket finds the minimum; the rows of one
    group take the steps that shrink all their brackets to the float
    resolution of their slopes.  The first steps read every sample of a
    group.  Then each row keeps only the samples that can still hold its float
    max or min at a slope inside its bracket, and the other steps of every
    group run as one batch on those ragged rows, with the same floats.
    """
    parts = [_full_steps(*samples()) for samples in groups]
    if not parts:
        return []
    # rows with more steps left first, so the rows still searching are a prefix
    order = sorted(range(len(parts)), key=lambda g: -parts[g][0][0])
    left, *state, X, Y, counts = (np.concatenate(col) for col in zip(*(parts[g] for g in order)))
    starts = np.cumsum(counts) - counts

    def half_width(s: np.ndarray) -> np.ndarray:
        r = Y[:size] - np.repeat(s, counts[:n]) * X[:size]
        return (np.maximum.reduceat(r, starts[:n]) - np.minimum.reduceat(r, starts[:n])) / 2.0

    gaps, n = np.empty(left.size), left.size
    for t in range(left.max()):
        m = np.count_nonzero(left > t)
        gaps[m:n] = np.minimum(state[4][m:n], state[5][m:n])
        n, size = m, starts[m] if m < left.size else Y.size
        state = _golden_step([a[:n] for a in state], half_width)
    gaps[:n] = np.minimum(state[4][:n], state[5][:n])
    rows = np.split(gaps, np.cumsum([parts[g][0].size for g in order])[:-1])
    return [rows[order.index(g)] for g in range(len(parts))]


def _golden_step(state, half_width) -> list:
    """One step of every row: keep [lo, d] where w(c) <= w(d), else [c, hi],
    with one new probe per row."""
    lo, hi, c, d, fc, fd = state
    left = fc <= fd
    lo, hi = np.where(left, lo, c), np.where(left, d, hi)
    p = np.where(left, hi - _INVPHI * (hi - lo), lo + _INVPHI * (hi - lo))
    fp = half_width(p)
    c, d = np.where(left, p, d), np.where(left, c, p)
    fc, fd = np.where(left, fp, fd), np.where(left, fc, fp)
    return [lo, hi, c, d, fc, fd]


def _full_steps(xs: np.ndarray, ys: np.ndarray) -> tuple:
    """The steps left to each row after those on every sample, its search
    state (lo, hi, c, d, w(c), w(d)), and the samples it keeps, flat, with
    their count per row.

    Every later probe lies between the least and the greatest of the
    bracket ends and probes, a and b.  A sample can hold neither extreme when
    its computed residuals at a and at b both lie more than eight rounding
    bounds below (above) those of one sample, the greatest (least) at a or
    at b.  The gap in exact residuals then exceeds two bounds at a and at b,
    and as it is linear in s, at every slope between: the sample's computed
    residual stays below (above) the other's.  The samples at the extremes
    are always kept.
    """
    dx = np.diff(xs, axis=1)
    if not np.all(dx > 0):
        raise ValueError("h is too small for the samples of its windows to be distinct")
    chords = np.diff(ys, axis=1)
    chords /= dx
    lo, hi = chords.min(axis=1), chords.max(axis=1)
    ratio = np.max((hi - lo) / np.spacing(np.maximum(np.abs(lo), np.abs(hi))))
    steps = math.ceil(math.log(ratio) / -math.log(_INVPHI)) if ratio > 1.0 else 0
    del chords, dx      # the samples, r and rb below are the only full-size arrays
    r = np.empty_like(ys)

    def half_width(s: np.ndarray) -> np.ndarray:
        np.subtract(ys, np.multiply(s[:, None], xs, out=r), out=r)
        return (r.max(axis=1) - r.min(axis=1)) / 2.0

    c, d = hi - _INVPHI * (hi - lo), lo + _INVPHI * (hi - lo)
    state = [lo, hi, c, d, half_width(c), half_width(d)]
    for _ in range(min(steps, _FULL_STEPS)):
        state = _golden_step(state, half_width)
    left = np.full(lo.size, max(steps - _FULL_STEPS, 0))
    if steps <= _FULL_STEPS:
        return left, *state, np.zeros(0), np.zeros(0), np.zeros(lo.size, int)
    a, b = np.min(state[:4], axis=0), np.max(state[:4], axis=0)
    y_max = np.maximum(ys.max(axis=1), -ys.min(axis=1))
    x_max = np.maximum(xs.max(axis=1), -xs.min(axis=1))
    margin = 8.0 * ((y_max + 2.0 * np.maximum(-a, b) * x_max) * _ROUND + 2.0 ** -1074)
    ra = np.subtract(ys, np.multiply(a[:, None], xs, out=r), out=r)
    rb = np.multiply(b[:, None], xs)
    np.subtract(ys, rb, out=rb)
    top = _dominated(ra, rb, margin[:, None])
    keep = ~(top & _dominated(np.negative(ra, out=ra), np.negative(rb, out=rb),
                              margin[:, None]))
    return left, *state, xs[keep], ys[keep], keep.sum(axis=1)


def _dominated(ra: np.ndarray, rb: np.ndarray, margin: np.ndarray) -> np.ndarray:
    """Samples whose residuals ``ra`` and ``rb`` at two slopes both lie more
    than ``margin`` below those of the greatest sample at either slope."""
    out = np.zeros(ra.shape, bool)
    for r in (ra, rb):
        k = r.argmax(axis=1)[:, None]
        out |= ((ra < np.take_along_axis(ra, k, 1) - margin)
                & (rb < np.take_along_axis(rb, k, 1) - margin))
    return out


def affine_gap(flux: Flux, M: float, h):
    """Smallest uniform distance of f to an affine function over any window
    [a, a+h] inside [-M, M]: 65 starts a with 257 samples per window, then 17
    starts between the neighbours of the best with 513 samples each.  ``h``
    is one width, for a float, or a 1-D array of widths, for an array of gaps;
    each stage of all widths is one search."""
    if not 0 < M < math.inf:
        raise ValueError(f"M must be positive and finite, got {M}")
    hs = np.asarray(h, dtype=float)
    if hs.ndim > 1 or not np.all(np.isfinite(hs)):
        raise ValueError(f"h must be one finite width or a 1-D array of them, got {h}")
    if not np.all((0 < hs) & (hs <= 2.0 * M)):
        raise ValueError("need 0 < h <= 2M")
    widths = hs.reshape(-1).tolist()

    def samples(w: float, starts: np.ndarray, pts: int) -> tuple:
        xs = np.linspace(starts, starts + w, pts, axis=1)
        return xs, flux(xs)

    def windows(starts: list, pts: int) -> list:
        return [functools.partial(samples, w, a, pts) for w, a in zip(widths, starts)]

    a_grids = [np.linspace(-M, M - w, 65) for w in widths]
    fine = []
    for a, gaps in zip(a_grids, _window_minimax(windows(a_grids, 257))):
        i = int(np.argmin(gaps))
        fine.append(np.linspace(a[max(i - 1, 0)], a[min(i + 1, a.size - 1)], 17))
    d = np.array([gaps.min() for gaps in _window_minimax(windows(fine, 513))])
    return float(d[0]) if hs.ndim == 0 else d


@dataclass(frozen=True)
class FluxGauge:
    h_grid: np.ndarray
    d_table: np.ndarray          # affine gap per window width
    phi_table: np.ndarray        # lower convex envelope of the gap
    gauge: Gauge = field(repr=False)
    report: GaugeReport = field(repr=False)


def flux_gauge(flux: Flux, M: float, h_grid) -> FluxGauge:
    """Gauge psi(x) = Phi(x/2) x where Phi is the lower convex envelope of
    the affine gap, anchored at the origin."""
    hs = np.asarray(h_grid, dtype=float)
    if (hs.ndim != 1 or hs.size < 3 or not np.all(np.isfinite(hs))
            or np.any(np.diff(hs) <= 0) or hs[0] <= 0):
        raise ValueError("h_grid must be finite, strictly increasing and positive")
    d_vals = affine_gap(flux, M, hs)
    phi = _lower_envelope(np.concatenate([[0.0], hs]),
                          np.concatenate([[0.0], d_vals]))[1:]
    x = 2.0 * hs
    psi = phi * x
    if psi.max(initial=0.0) <= 1e-15:
        raise GaugeDegenerate("flux is affine on a full window; gauge vanishes")
    gauge = Gauge.tabulated(x, psi, token="table:flux")
    report = gauge.certify()        # the table was checked when it was built
    return FluxGauge(h_grid=hs, d_table=d_vals, phi_table=phi, gauge=gauge,
                     report=report)


def _lower_envelope(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Values of the lower convex envelope of (xs, ys) at the xs themselves."""
    hull = []
    for p in zip(xs, ys):
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], p) <= 0:
            hull.pop()
        hull.append(p)
    hx, hy = np.array(hull).T
    return np.interp(xs, hx, hy)


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


# ---------------------------------------------------------------------------
# polynomial degeneracy


@dataclass(frozen=True)
class DegeneracyReport:
    inflection_points: tuple
    orders: tuple
    p_f: int | None          # None for uniformly convex/concave fluxes


def degeneracy(flux: Flux) -> DegeneracyReport:
    """Vanishing orders of f'' at its roots in [-M, M]: at each inflection
    point w the order p_w is the least p >= 2 with f^(p+1)(w) != 0."""
    if np.all(np.abs(flux._d2) < 1e-14):
        raise InfiniteDegeneracy("f'' vanishes identically")
    pts, orders = [], []
    for w in flux._real_roots(flux._d2, flux.M):
        p = 2
        deriv = P.polyder(flux.coeffs, p + 1)
        while deriv.size and abs(_Horner(deriv)(w)) < 1e-9:
            p += 1
            deriv = P.polyder(flux.coeffs, p + 1)
        pts.append(float(w))
        orders.append(p)
    p_f = max(orders) if orders else None
    return DegeneracyReport(tuple(pts), tuple(orders), p_f)


# ---------------------------------------------------------------------------
# entropy bounds for the solution set


def solution_entropy_bound(
    epsilon: float, L: float, M: float, T: float, flux: Flux,
    gauge: Gauge, gamma_lm: float,
) -> float:
    """Bit bound for the set of time-T solutions with data bounded by M and
    supported in [-L, L], using the flux gauge and a variation constant.

    The power form with exponent p_f and constant gamma_lm_tilde is
    ``solution_entropy_bound(epsilon, L, M, T, flux, Gauge.power(p_f),
    gamma_lm_tilde)``."""
    if not T > 0:
        raise OutOfRange(f"the entropy bounds need T > 0, got T = {T}")
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    ell = L + T * flux.fprime_max
    head = math.log2(16.0 * M * ell / epsilon + 1.0)
    tail = 2.0 * LOG_TERM * gamma_lm * (1.0 + 1.0 / T) / gauge.positive(
        epsilon / (4.0 * L + 4.0 * T * flux.fprime_max))
    return head + tail


# ---------------------------------------------------------------------------
# solution snapshots as step functions


def to_step_function(sol: GridSolution) -> StepFunction:
    """Snapshot on [0, 2W], shifted to start at zero, with every cell kept and
    only equal neighbours merged: what is measured is the computed solution."""
    edges = np.concatenate([sol.x - sol.dx / 2.0, [sol.x[-1] + sol.dx / 2.0]])
    return right_continuous(edges - edges[0], sol.cells)


@dataclass(frozen=True)
class CalibrationReport:
    gamma_lm: float
    samples: tuple               # measured generalized variation per run
    seed: int
    dx: float


def calibrate_gamma(
    flux: Flux, L: float, M: float, T: float, gauge: Gauge,
    dx: float = 0.01, seed: int = 0,
) -> CalibrationReport:
    """Measure the variation constant: evolve a seeded ensemble of
    ``CALIBRATION_SAMPLES`` initial data, stepped as one array, and report
    max tv_psi(u(T)) / (1 + 1/T) over whole snapshots."""
    if not T > 0:
        raise InvalidGrid(f"calibration needs T > 0, got T = {T}")
    rng = np.random.default_rng(seed)
    x = make_grid(L, M, T, flux, dx)
    rows = np.array([_random_data(rng, x, L, M) for _ in range(CALIBRATION_SAMPLES)])
    measured = [tv_psi(to_step_function(sol), gauge)
                for sol in _evolve_rows(rows, flux, T, dx, CFL, x)]
    gamma = max(measured) / (1.0 + 1.0 / T)
    return CalibrationReport(gamma_lm=gamma, samples=tuple(measured),
                             seed=seed, dx=dx)


def _random_data(rng, x: np.ndarray, L: float, M: float) -> np.ndarray:
    """Random piecewise-constant data supported in [-L, L] with |u| <= M."""
    k = int(rng.integers(2, 7))
    cuts = np.sort(rng.uniform(-L, L, size=k - 1))
    edges = np.concatenate([[-L], cuts, [L]])
    levels = rng.uniform(-M, M, size=k)
    u = np.zeros_like(x)
    for lo, hi, v in zip(edges[:-1], edges[1:], levels):
        u[(x >= lo) & (x < hi)] = v
    return u
