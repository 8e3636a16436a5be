"""Scalar 1-D conservation laws u_t + f(u)_x = 0 with polynomial fluxes.

A Godunov finite-volume scheme evolves compactly supported data on a padded
symmetric grid; one kernel gives the interface fluxes of a state array, and
the scalar ``godunov_flux`` is that kernel on two states.  The flux also
induces a gauge: the minimal affine-approximation error of f over windows of
width h, convexified and rescaled, measures how strongly the flux bends and
controls the generalized variation of solutions; the gauge feeds the
variation codec and its bit bounds.  The error of every sampled window of
one width comes from a single golden-section search over the approximating
slope, run on a (windows x samples) array; the only convex hull in the
module is the envelope taken over the widths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import (
    DomainTooSmall,
    GaugeDegenerate,
    InfiniteDegeneracy,
    OutOfRange,
    UnstableConfig,
)
from .gauge_variation import Gauge, GaugeReport, StepFunction, right_continuous, tv_psi

LOG_TERM = 3.0 * math.log2(5.0) + math.log2(5.0 * math.e)   # 3 log2 5 + log2(5e)


class Flux:
    """Polynomial flux with exact derivatives, evaluated on [-M, M]."""

    def __init__(self, coeffs, M: float, name: str = "poly"):
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.M = float(M)
        self.name = name
        self._d1 = P.polyder(self.coeffs)
        self._d2 = P.polyder(self.coeffs, 2)
        self._check_derivatives()
        self.fprime_max = self._sup_abs(self._d1, self._d2)
        self.critical_points = self._real_roots(self._d1, self.M)

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
    def polynomial(cls, coeffs, M: float = 1.0) -> "Flux":
        return cls(coeffs, M, "poly")

    @classmethod
    def parse(cls, token: str, M: float = 1.0) -> "Flux":
        if token == "burgers":
            return cls.burgers(M)
        if token == "cubic":
            return cls.cubic(M)
        if token == "quartic":
            return cls.quartic(M)
        if token.startswith("poly:"):
            return cls.polynomial([float(c) for c in token[5:].split(";")], M)
        raise ValueError(f"unknown flux token {token!r}")

    # evaluation ----------------------------------------------------------

    def __call__(self, u):
        return P.polyval(u, self.coeffs)

    def df(self, u):
        return P.polyval(u, self._d1)

    def d2f(self, u):
        return P.polyval(u, self._d2)

    def is_wgn(self) -> bool:
        """No affine part: f'' is not identically zero."""
        return bool(np.any(np.abs(self._d2) > 1e-14))

    # internals -----------------------------------------------------------

    def _check_derivatives(self) -> None:
        # finite-difference consistency of the supplied derivative
        probes = np.linspace(-self.M, self.M, 17)
        eps = 1e-6 * max(self.M, 1.0)
        fd = (self(probes + eps) - self(probes - eps)) / (2.0 * eps)
        scale = np.maximum(np.abs(self.df(probes)), 1.0)
        if np.any(np.abs(fd - self.df(probes)) > 1e-5 * scale):
            raise ValueError("derivative inconsistent with finite differences")

    @staticmethod
    def _real_roots(poly, M: float) -> np.ndarray:
        """Sorted distinct real roots of ``poly`` in [-M, M]."""
        if np.all(np.abs(poly) < 1e-300) or poly.size <= 1:
            return np.zeros(0)
        roots = P.polyroots(poly)
        real = roots[np.abs(roots.imag) < 1e-9].real
        return np.unique(real[(real >= -M) & (real <= M)])

    def _sup_abs(self, poly, dpoly) -> float:
        cand = np.concatenate([[-self.M, self.M], self._real_roots(dpoly, self.M)])
        return float(np.abs(P.polyval(cand, poly)).max())


def godunov_flux(flux: Flux, ul: float, ur: float) -> float:
    """Interface flux: min of f over [ul, ur] if ul <= ur, else max."""
    tol = 1e-9 * max(flux.M, 1.0)
    if abs(ul) > flux.M + tol or abs(ur) > flux.M + tol:
        raise OutOfRange(f"states ({ul}, {ur}) leave [-M, M] with M = {flux.M}")
    return float(_godunov(flux, np.array([ul, ur], dtype=float))[0])


def _godunov(flux: Flux, u: np.ndarray) -> np.ndarray:
    """Godunov fluxes between consecutive states of ``u``: f is evaluated
    once per state, and each critical value enters where it lies strictly
    between the two states."""
    fu = flux(u)
    ul, ur = u[:-1], u[1:]
    rising = ul <= ur
    F = np.where(rising, np.minimum(fu[:-1], fu[1:]), np.maximum(fu[:-1], fu[1:]))
    lo, hi = np.minimum(ul, ur), np.maximum(ul, ur)
    for c in flux.critical_points:
        fc = flux(c)
        F = np.where((lo < c) & (c < hi),
                     np.where(rising, np.minimum(F, fc), np.maximum(F, fc)), F)
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
    _require_positive_dx(dx)
    W = L + T * flux.fprime_max + 6.0 * dx
    n = int(math.ceil(W / dx))
    return (np.arange(-n, n) + 0.5) * dx


def evolve(
    u0: np.ndarray, flux: Flux, T: float, dx: float, cfl: float = 0.45, *,
    x: np.ndarray,
) -> GridSolution:
    """Explicit conservative Godunov update to time T with zero ghost cells;
    ``x``, the cell centres of ``u0`` from :func:`make_grid`, is carried over."""
    if not 0 < cfl <= 0.9:
        # above 0.9 the scheme is unstable; at or below 0 time never advances
        raise UnstableConfig(f"cfl = {cfl} must lie in (0, 0.9]")
    _require_positive_dx(dx)        # a negative step never reaches T
    u = np.asarray(u0, dtype=float).copy()
    if not np.all(np.isfinite(u)):
        raise OutOfRange("initial data must be finite")
    if np.abs(u).max(initial=0.0) > flux.M * (1 + 1e-9):
        raise OutOfRange("initial data exceeds the flux evaluation radius M")

    support = np.flatnonzero(np.abs(u) > 1e-12)
    if support.size:
        margin = T * flux.fprime_max + 2.0 * dx
        left_room = (support[0]) * dx
        right_room = (u.size - 1 - support[-1]) * dx
        if left_room < margin or right_room < margin:
            raise DomainTooSmall(
                f"need {margin} of padding, have ({left_room}, {right_room})"
            )

    speed = max(flux.fprime_max, 1e-300)
    dt_max = cfl * dx / speed
    t = 0.0
    cell_tv = float(np.abs(np.diff(u)).sum())
    max_tv_increase = 0.0
    while t < T - 1e-14:
        dt = min(dt_max, T - t)
        F = _godunov(flux, np.pad(u, 1))           # interface fluxes, n+1
        u = u - dt / dx * (F[1:] - F[:-1])
        t += dt
        new_tv = float(np.abs(np.diff(u)).sum())
        max_tv_increase = max(max_tv_increase, new_tv - cell_tv)
        cell_tv = new_tv
    return GridSolution(dx=dx, x=np.asarray(x, dtype=float), cells=u, T=T,
                        mass=float(u.sum() * dx),
                        max_tv_increase=max_tv_increase)


def _require_positive_dx(dx: float) -> None:
    if not 0 < dx < math.inf:
        raise ValueError(f"dx must be positive and finite, got {dx}")


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


def _window_minimax(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
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


def affine_gap(flux: Flux, M: float, h: float) -> float:
    """Smallest uniform distance of f to an affine function over any window
    [a, a+h] inside [-M, M]: 65 starts a with 257 samples per window, then 17
    starts between the neighbours of the best with 513 samples each."""
    if not 0 < h <= 2.0 * M:
        raise ValueError("need 0 < h <= 2M")
    a_grid = np.linspace(-M, M - h, 65)

    def gaps(starts: np.ndarray, pts: int) -> np.ndarray:
        xs = np.linspace(starts, starts + h, pts, axis=1)
        return _window_minimax(xs, flux(xs))

    i = int(np.argmin(gaps(a_grid, 257)))
    lo = a_grid[max(i - 1, 0)]
    hi = a_grid[min(i + 1, a_grid.size - 1)]
    fine = np.linspace(lo, hi, 17)
    return float(gaps(fine, 513).min())


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
    if hs.ndim != 1 or hs.size < 3 or np.any(np.diff(hs) <= 0) or hs[0] <= 0:
        raise ValueError("h_grid must be strictly increasing and positive")
    d_vals = np.array([affine_gap(flux, M, float(h)) for h in hs])
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
    hx = np.array([p[0] for p in hull])
    hy = np.array([p[1] for p in hull])
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

    @property
    def defined(self) -> bool:
        return self.p_f is not None


def degeneracy(flux: Flux, M: float | None = None) -> DegeneracyReport:
    """Vanishing orders of f'' at its roots: at each inflection point w the
    order p_w is the least p >= 2 with f^(p+1)(w) != 0."""
    M = flux.M if M is None else M
    if np.all(np.abs(flux._d2) < 1e-14):
        raise InfiniteDegeneracy("f'' vanishes identically")
    pts, orders = [], []
    for w in flux._real_roots(flux._d2, M):
        p = 2
        deriv = P.polyder(flux.coeffs, p + 1)
        while deriv.size and abs(P.polyval(w, deriv)) < 1e-9:
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
    supported in [-L, L], using the flux gauge and a variation constant."""
    _require_bound_args(epsilon, T)
    ell = L + T * flux.fprime_max
    head = math.log2(16.0 * M * ell / epsilon + 1.0)
    tail = 2.0 * LOG_TERM * gamma_lm * (1.0 + 1.0 / T) / float(
        gauge(epsilon / (4.0 * L + 4.0 * T * flux.fprime_max))
    )
    return head + tail


def solution_entropy_bound_pf(
    epsilon: float, L: float, M: float, T: float, flux: Flux,
    p_f: int, gamma_lm_tilde: float,
) -> float:
    """Power-law form of the solution-set bound with exponent p_f."""
    _require_bound_args(epsilon, T)
    ell = L + T * flux.fprime_max
    big_gamma = (
        2.0 ** (2.0 * p_f + 1.0) * LOG_TERM * gamma_lm_tilde
        * ell ** p_f * (1.0 + 1.0 / T)
    )
    return big_gamma / epsilon ** p_f + math.log2(16.0 * ell * M / epsilon + 1.0)


def _require_bound_args(epsilon: float, T: float) -> None:
    # both bounds carry the factor 1 + 1/T of the solution's variation
    if not T > 0:
        raise OutOfRange(f"the entropy bounds need T > 0, got T = {T}")
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")


# ---------------------------------------------------------------------------
# solution snapshots as step functions


def to_step_function(sol: GridSolution, cap: int | None = None) -> StepFunction:
    """Snapshot on [0, 2W] (domain shifted to start at zero) with every cell
    kept; only adjacent cells of equal value merge.  ``cap`` bounds the cells
    accepted (``None``: no bound); a larger snapshot raises ``ValueError``
    instead of being thinned, so what gets measured and encoded is always
    the computed solution itself."""
    cells = sol.cells
    if cap is not None and cells.size > cap:
        raise ValueError(f"snapshot has {cells.size} cells, above cap = {cap}")
    edges = np.concatenate([sol.x - sol.dx / 2.0, [sol.x[-1] + sol.dx / 2.0]])
    return right_continuous(edges - edges[0], cells)


@dataclass(frozen=True)
class CalibrationReport:
    gamma_lm: float
    samples: tuple               # measured generalized variation per run
    seed: int
    dx: float


def calibrate_gamma(
    flux: Flux, L: float, M: float, T: float, gauge: Gauge,
    n_samples: int = 6, dx: float = 0.01, seed: int = 0, cap: int | None = None,
) -> CalibrationReport:
    """Measure the variation constant: evolve a seeded ensemble of initial
    data and report max tv_psi(u(T)) / (1 + 1/T), each sample taken on the
    whole snapshot (``cap`` as in :func:`to_step_function`)."""
    rng = np.random.default_rng(seed)
    x = make_grid(L, M, T, flux, dx)
    measured = []
    for _ in range(n_samples):
        u0 = _random_data(rng, x, L, M)
        sol = evolve(u0, flux, T, dx, x=x)
        f = to_step_function(sol, cap=cap)
        measured.append(tv_psi(f, gauge))
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
