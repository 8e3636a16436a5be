"""Convex gauges and generalized total variation of step functions.

A gauge is a convex function vanishing at zero and positive elsewhere.  Step
functions are right-continuous on [0, L): value ``j`` holds on
``[b_j, b_{j+1})`` and the value at ``L`` is the last value.  Their values
live either on the real line (absolute-value metric) or are point indices
into a :class:`~bventropy.metric_core.FiniteMetricSpace`;
:func:`value_distance` is the one place that tells the two apart.

For step functions the partition supremum defining the generalized variation
is attained on subsequences of the value sequence, so a dynamic program over
chains of value indices computes it exactly; it is quadratic in the number of
indices it runs on.  For real values under a non-identity gauge that passed
:func:`gauge_check`, the program runs on the endpoints and the turning points
only: index 0, the first index of each interior run of equal values at which
the sequence changes direction, and index k-1.  This is exact because a
convex gauge with psi(0) = 0 is superadditive, psi(a + b) >= psi(a) + psi(b),
so a chain element lying between its two neighbours can be dropped without
lowering the sum (Butkus & Norvaisa, *Computation of p-variation*, 2018).  A
Godunov snapshot of thousands of cells has a handful of extrema.  Point-cloud
values have no order and keep every index.  So does the identity gauge:
there a monotone run and its single jump tie in exact arithmetic but not in
floating point, and the full program's float value is the recorded one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainMismatch,
    GaugeViolation,
    InverseMismatch,
    NotConvex,
    NotPositive,
    NotVanishingAtZero,
)
from .metric_core import FiniteMetricSpace, _read_table


class Gauge:
    """Convex gauge with its inverse.

    Kinds: ``identity``, ``power`` (exponent >= 1) and ``tabulated``
    (strictly increasing sample table, linear interpolation, linear
    extrapolation beyond the last sample).  Identity and power gauges are
    admissible by construction.  A table runs :func:`gauge_check` when it is
    built and keeps the outcome: ``report`` if it passed, ``violation`` if
    not.  :meth:`certify` raises the violation; :meth:`parse` calls it, and
    the chain DP reduces to extrema only under a gauge without one.
    """

    def __init__(self, kind, gamma=None, table=None, token=None):
        self.kind = kind
        self.gamma = gamma
        self.report = self.violation = None
        if table is not None:
            s, v = (np.asarray(a, dtype=float) for a in table)
            if s.ndim != 1 or s.shape != v.shape or s.size < 2:
                raise ValueError("table must be two equal-length 1-d arrays")
            if not (np.isfinite(s).all() and np.isfinite(v).all()):
                raise ValueError("table entries must be finite")
            if s[0] > 0:
                s = np.concatenate([[0.0], s])
                v = np.concatenate([[0.0], v])
            if np.any(np.diff(s) <= 0):
                raise ValueError("table abscissae must be strictly increasing")
            self._s, self._v = s, v
            # the abscissae, plus one probe on the linear continuation so
            # that a two-sample table still gets the three-point grid
            try:
                self.report = gauge_check(self, np.append(s, 2.0 * s[-1]))
            except GaugeViolation as exc:
                self.violation = exc
        self._token = token

    # --- factories -------------------------------------------------------

    @classmethod
    def identity(cls) -> "Gauge":
        return cls("identity", token="id")

    @classmethod
    def power(cls, gamma: float) -> "Gauge":
        if not gamma >= 1:
            raise ValueError("power gauge needs exponent >= 1")
        return cls("power", gamma=float(gamma), token=f"pow:{gamma:g}")

    @classmethod
    def tabulated(cls, s, values, token: str = "table:-") -> "Gauge":
        return cls("tabulated", table=(s, values), token=token)

    @classmethod
    def parse(cls, token: str) -> "Gauge":
        if token == "id":
            return cls.identity()
        if token.startswith("pow:"):
            return cls.power(float(token[4:]))
        if token.startswith("table:"):
            path = token[6:]
            data = _read_table(path)
            if data.shape[1] != 2:
                raise ValueError(f"{path}: a gauge table has two columns, s and psi(s)")
            gauge = cls.tabulated(data[:, 0], data[:, 1], token=token)
            gauge.certify()
            return gauge
        raise ValueError(f"unknown gauge token {token!r}")

    def certify(self) -> GaugeReport | None:
        """Raise the violation a table showed when it was built; otherwise
        return its report (``None`` for identity and power gauges)."""
        if self.violation is not None:
            raise self.violation
        return self.report

    # --- evaluation ------------------------------------------------------

    @property
    def token(self) -> str:
        return self._token or self.kind

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        if self.kind == "identity":
            out = s.copy()
        elif self.kind == "power":
            out = s ** self.gamma
        else:
            out = np.interp(s, self._s, self._v)
            # linear continuation keeps the gauge convex past the table
            over = s > self._s[-1]
            if np.any(over):
                out = np.where(over, self._v[-1] + self._tail_slope() * (s - self._s[-1]), out)
        return out if out.ndim else float(out)

    def inv(self, v):
        v = np.asarray(v, dtype=float)
        if self.kind == "identity":
            out = v.copy()
        elif self.kind == "power":
            out = v ** (1.0 / self.gamma)
        else:
            # an admissible table is strictly increasing, so its piecewise-
            # linear inverse is the table read backwards, with the same
            # linear continuation past the last sample
            out = np.interp(v, self._v, self._s)
            over = v > self._v[-1]
            if np.any(over):
                out = np.where(over, self._s[-1] + (v - self._v[-1]) / self._tail_slope(), out)
        return out if out.ndim else float(out)

    def _tail_slope(self) -> float:
        return (self._v[-1] - self._v[-2]) / (self._s[-1] - self._s[-2])


@dataclass(frozen=True)
class GaugeReport:
    ok: bool
    grid_lo: float
    grid_hi: float
    checks: tuple


def gauge_check(gauge: Gauge, grid, rel_tol: float = 1e-9) -> GaugeReport:
    """Assert gauge admissibility on a probe grid; raises on first violation.

    Checked: vanishing at zero, positivity, convexity (non-decreasing chord
    slopes, which with the anchor at zero also gives the scaling inequality
    psi(s) <= (s/t) psi(t) for s < t), and inverse round-trip accuracy.
    """
    g = np.unique(np.asarray(grid, dtype=float))
    g = g[g >= 0]
    if g.size < 3:
        raise ValueError("probe grid needs at least 3 points")
    vals = np.atleast_1d(gauge(g))
    scale = max(abs(vals).max(), 1.0)
    if abs(float(gauge(0.0))) > rel_tol * scale:
        raise NotVanishingAtZero(f"psi(0) = {gauge(0.0)}")
    pos = g > 0
    if np.any(vals[pos] <= 0):
        s = g[pos][np.flatnonzero(vals[pos] <= 0)[0]]
        raise NotPositive(f"psi({s}) = {gauge(s)} is not positive")
    pts_s = np.concatenate([[0.0], g[pos]])
    pts_v = np.concatenate([[0.0], vals[pos]])
    slopes = np.diff(pts_v) / np.diff(pts_s)
    bad = np.flatnonzero(np.diff(slopes) < -rel_tol * scale)
    if bad.size:
        i = int(bad[0])
        raise NotConvex(
            f"chord slope drops at s = {pts_s[i + 1]}: "
            f"{slopes[i]} then {slopes[i + 1]}"
        )
    probes = vals[pos]
    back = np.atleast_1d(gauge(np.atleast_1d(gauge.inv(probes))))
    if np.any(np.abs(back - probes) > 1e-10 * np.maximum(probes, 1e-300)):
        raise InverseMismatch("inverse round-trip exceeds tolerance")
    return GaugeReport(
        ok=True, grid_lo=float(g[0]), grid_hi=float(g[-1]),
        checks=("zero", "positive", "convex", "inverse"),
    )


def value_distance(a, b, space: FiniteMetricSpace | None):
    """Distance rho(a, b) in the value space E, elementwise over arrays.

    With ``space`` None, E is the real line and a, b are values; otherwise
    a, b are point indices into ``space``.  Code that serves both kinds of
    value takes its distances here, so each gets the same floats.
    """
    if space is None:
        return abs(a - b)
    return space.dist[a, b]


@dataclass(frozen=True)
class StepFunction:
    """Piecewise-constant function on [0, L], right-continuous on [0, L)."""

    breakpoints: np.ndarray
    values: np.ndarray
    space: FiniteMetricSpace | None = None

    def __post_init__(self):
        b = np.asarray(self.breakpoints, dtype=float)
        if self.space is None:
            v = np.asarray(self.values, dtype=float)
        else:
            v = np.asarray(self.values, dtype=int)
            if v.size and (v.min() < 0 or v.max() >= self.space.n):
                raise ValueError("value index out of range for the metric space")
        object.__setattr__(self, "breakpoints", b)
        object.__setattr__(self, "values", v)
        if b.ndim != 1 or b.size < 2:
            raise ValueError("need breakpoints 0 = b_0 < ... < b_k = L")
        if b[0] != 0.0:
            raise ValueError("first breakpoint must be 0")
        if not np.isfinite(b).all():
            raise ValueError("breakpoints must be finite")
        if np.any(np.diff(b) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if v.size != b.size - 1:
            raise ValueError("need exactly one value per interval")
        if self.space is None and not np.isfinite(v).all():
            raise ValueError("values must be finite")

    @property
    def L(self) -> float:
        return float(self.breakpoints[-1])

    @property
    def k(self) -> int:
        return self.values.size

    @classmethod
    def constant(cls, L: float, value, space=None) -> "StepFunction":
        return cls(np.array([0.0, float(L)]), np.array([value]), space)

    def value_at(self, x: float):
        i = int(np.searchsorted(self.breakpoints, x, side="right")) - 1
        return self.values[min(max(i, 0), self.k - 1)]

    def rho(self, a, b) -> float:
        return float(value_distance(a, b, self.space))

    def jump_sizes(self) -> np.ndarray:
        if self.k < 2:
            return np.zeros(0)
        return value_distance(self.values[:-1], self.values[1:], self.space)

    def restrict(self, b: float) -> "StepFunction":
        """Restriction to [0, b] for a breakpoint (or interior point) b > 0."""
        if not 0 < b <= self.L:
            raise ValueError("restriction endpoint must lie in (0, L]")
        i = int(np.searchsorted(self.breakpoints, b, side="left"))
        bp = np.concatenate([self.breakpoints[:i], [b]])
        return StepFunction(bp, self.values[:i], self.space)


def write_step(f: StepFunction, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"{f.L!r},{f.k}\n")
        for b, v in zip(f.breakpoints[:-1], f.values):
            fh.write(f"{float(b)!r},{float(v)!r}\n")


def _step_fields(fh, path, lineno: int) -> list[str]:
    fields = fh.readline().strip().split(",")
    if len(fields) < 2:
        raise ValueError(f"{path}, line {lineno}: expected two comma-separated "
                         f"fields, got {','.join(fields)!r}")
    return fields


def read_step(path, space=None) -> StepFunction:
    with open(path) as fh:
        header = _step_fields(fh, path, 1)
        L, k = float(header[0]), int(header[1])
        rows = [_step_fields(fh, path, n + 2) for n in range(k)]
    b = np.array([float(r[0]) for r in rows] + [L])
    if space is None:
        v = np.array([float(r[1]) for r in rows])
    else:
        v = np.array([int(float(r[1])) for r in rows])
    return StepFunction(b, v, space)


def tv(f: StepFunction) -> float:
    """Plain total variation: sum of consecutive jump distances."""
    return float(f.jump_sizes().sum())


def _chain_best(values: np.ndarray, gauge: Gauge, space) -> np.ndarray:
    # best[j] = largest gauge-sum over chains starting at 0 and ending at j.
    # Dropping interior or endpoint samples never increases the sum (extra
    # terms are nonnegative), so the overall maximum is best[k-1].  An empty
    # sequence gets best = [0].
    best = np.zeros(max(values.size, 1))
    for j in range(1, values.size):
        d = value_distance(values[:j], values[j], space)
        best[j] = float(np.max(best[:j] + gauge(d)))
    return best


def _chain(values: np.ndarray, gauge: Gauge, space) -> tuple[np.ndarray, np.ndarray]:
    """The indices the chain DP runs on, and its ``best`` over them.

    Every index, or for real values under an admissible non-identity gauge
    the extrema of the module docstring: a run of equal values enters by its
    first index, except the final run, which enters by k-1, where every chain
    ends.
    """
    k = values.size
    keep = np.arange(k)
    if space is None and gauge.kind != "identity" and gauge.violation is None and k > 2:
        step = np.sign(np.diff(values))
        moves = np.flatnonzero(step)            # a new run starts after each
        turns = moves[:-1][step[moves[:-1]] != step[moves[1:]]] + 1
        keep = np.concatenate([[0], turns, [k - 1]])
    return keep, _chain_best(values[keep], gauge, space)


def tv_psi(f: StepFunction, gauge: Gauge) -> float:
    """Generalized variation of a step function, exact via dynamic
    programming over its extrema (over every value for point-cloud values and
    the identity gauge)."""
    return float(_chain(f.values, gauge, f.space)[1][-1])


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
    """Like :func:`tv_psi` but also returns an optimal value-index chain.

    The chain holds indices into ``f.values`` and runs from 0 to k-1.  Ties
    resolve to the lexicographically smallest chain (earliest predecessors
    win) over all indices, reduced DP or not.  The chain is backtracked from
    the last value: each element's candidate row is recomputed and its
    earliest argmax is the predecessor.  Under a reduced DP, ``best`` at the
    indices it skipped comes from the extrema before them, in O(k m) for m
    extrema, so the forward pass stays as cheap as :func:`tv_psi`.
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


def right_continuous(breakpoints, values, point_values=None) -> StepFunction:
    """Normalize a piecewise representation to its right-continuous version.

    ``point_values`` maps isolated points to deviating values; they carry no
    measure and are discarded.  Adjacent pieces with equal values merge.
    """
    b = np.asarray(breakpoints, dtype=float)
    v = np.asarray(values)
    out_b = [b[0]]
    out_v: list = []
    for j in range(v.size):
        if out_v and out_v[-1] == v[j]:
            out_b[-1] = b[j + 1]        # extend the previous piece
        else:
            out_v.append(v[j])
            out_b.append(b[j + 1])
    return StepFunction(np.asarray(out_b, dtype=float), np.asarray(out_v))


def sample_sequence_variation(values, gauge: Gauge) -> float:
    """Chain maximum over an explicit real value sequence (for representative
    comparisons that include isolated-point samples), reduced to extrema as
    in :func:`tv_psi`."""
    return float(_chain(np.asarray(values, dtype=float), gauge, None)[1][-1])


def l1_distance(f: StepFunction, g: StepFunction) -> float:
    """Exact integral of the pointwise distance between two step functions."""
    if abs(f.L - g.L) > 1e-9 * max(f.L, 1.0):
        raise DomainMismatch(f"domain lengths differ: {f.L} vs {g.L}")
    if f.space is not g.space:
        raise DomainMismatch("value spaces differ")
    cuts = np.unique(np.concatenate([f.breakpoints, g.breakpoints]))
    mids = 0.5 * (cuts[:-1] + cuts[1:])
    fi = np.clip(np.searchsorted(f.breakpoints, mids, side="right") - 1, 0, f.k - 1)
    gi = np.clip(np.searchsorted(g.breakpoints, mids, side="right") - 1, 0, g.k - 1)
    d = value_distance(f.values[fi], g.values[gi], f.space)
    return float(np.sum(d * np.diff(cuts)))
