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

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainMismatch,
    GaugeViolation,
    InverseMismatch,
    NotConvex,
    NotPositive,
    NotVanishingAtZero,
    ScaleUnderflow,
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

    def positive(self, s: float) -> float:
        """psi(s) as a float; :class:`ScaleUnderflow` unless it is positive."""
        if (v := float(self(s))) > 0:
            return v
        raise ScaleUnderflow(f"gauge {self.token} gives psi({s}) = {v}, not positive")

    def _tail_slope(self) -> float:
        return (self._v[-1] - self._v[-2]) / (self._s[-1] - self._s[-2])


@dataclass(frozen=True)
class GaugeReport:
    ok: bool
    grid_lo: float
    grid_hi: float
    checks: tuple


def gauge_check(gauge: Gauge, grid) -> GaugeReport:
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
    tol = 1e-9 * max(abs(vals).max(), 1.0)
    if abs(float(gauge(0.0))) > tol:
        raise NotVanishingAtZero(f"psi(0) = {gauge(0.0)}")
    pos = g > 0
    if np.any(vals[pos] <= 0):
        s = g[pos][np.flatnonzero(vals[pos] <= 0)[0]]
        raise NotPositive(f"psi({s}) = {gauge(s)} is not positive")
    pts_s = np.concatenate([[0.0], g[pos]])
    pts_v = np.concatenate([[0.0], vals[pos]])
    slopes = np.diff(pts_v) / np.diff(pts_s)
    bad = np.flatnonzero(np.diff(slopes) < -tol)
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


def _step_arrays(breakpoints, values, space: FiniteMetricSpace | None):
    """Checked arrays of a step function, or with a (functions x intervals)
    ``values`` matrix of step functions sharing the breakpoints."""
    b = np.asarray(breakpoints, dtype=float)
    if space is None:
        v = np.asarray(values, dtype=float)
    else:
        v = np.asarray(values, dtype=int)
        if v.size and (v.min() < 0 or v.max() >= space.n):
            raise ValueError("value index out of range for the metric space")
    if b.ndim != 1 or b.size < 2:
        raise ValueError("need breakpoints 0 = b_0 < ... < b_k = L")
    if b[0] != 0.0:
        raise ValueError("first breakpoint must be 0")
    if not np.isfinite(b).all():
        raise ValueError("breakpoints must be finite")
    if np.any(np.diff(b) <= 0):
        raise ValueError("breakpoints must be strictly increasing")
    if v.shape[-1:] != (b.size - 1,):
        raise ValueError("need exactly one value per interval")
    if space is None and not np.isfinite(v).all():
        raise ValueError("values must be finite")
    return b, v


@dataclass(frozen=True)
class StepFunction:
    """Piecewise-constant function on [0, L], right-continuous on [0, L)."""

    breakpoints: np.ndarray
    values: np.ndarray
    space: FiniteMetricSpace | None = None

    def __post_init__(self):
        b, v = _step_arrays(self.breakpoints, self.values, self.space)
        object.__setattr__(self, "breakpoints", b)
        object.__setattr__(self, "values", v)

    @property
    def L(self) -> float:
        return float(self.breakpoints[-1])

    @property
    def k(self) -> int:
        return self.values.size

    @classmethod
    def constant(cls, L: float, value: float) -> "StepFunction":
        return cls(np.array([0.0, float(L)]), np.array([value]))

    def jump_sizes(self) -> np.ndarray:
        return value_distance(self.values[:-1], self.values[1:], self.space)


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


def read_step(path) -> StepFunction:
    with open(path) as fh:
        header = _step_fields(fh, path, 1)
        L, k = float(header[0]), int(header[1])
        rows = [_step_fields(fh, path, n + 2) for n in range(k)]
    b = np.array([float(r[0]) for r in rows] + [L])
    return StepFunction(b, np.array([float(r[1]) for r in rows]))


def tv(f: StepFunction) -> float:
    """Plain total variation: sum of consecutive jump distances."""
    return float(f.jump_sizes().sum())


def _chain_best(values: np.ndarray, gauge: Gauge, space) -> np.ndarray:
    # best[..., j] = largest gauge-sum over chains starting at 0 and ending at
    # j, along the last axis: each row of an (m, k) matrix gets the float it
    # gets alone.  Dropping interior or endpoint samples never increases the
    # sum (extra terms are nonnegative), so the overall maximum is
    # best[..., k-1].  An empty sequence gets best = [0].
    best = np.zeros(values.shape[:-1] + (max(values.shape[-1], 1),))
    for j in range(1, values.shape[-1]):
        d = value_distance(values[..., :j], values[..., j, None], space)
        best[..., j] = np.max(best[..., :j] + gauge(d), axis=-1)
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


def right_continuous(breakpoints, values) -> StepFunction:
    """Right-continuous step function with ``values[j]`` on [b_j, b_{j+1}) and
    equal neighbours merged; point values have measure zero and no place in it."""
    b = np.asarray(breakpoints, dtype=float)
    v = np.asarray(values)
    start = np.ones(v.size, dtype=bool)       # pieces that open a run of equal values
    start[1:] = v[1:] != v[:-1]
    return StepFunction(np.append(b[:v.size][start], b[v.size]), v[start])


def l1_row(values, row, widths, space: FiniteMetricSpace | None) -> np.ndarray:
    """L1 distances from the step function ``row`` to each column of the
    (cells x functions) ``values``, on cells of the given widths, summed over
    the cells in order: an entry depends on its own column only, whatever
    the memory order of ``values``."""
    # einsum's summation order follows the memory order
    d = np.ascontiguousarray(value_distance(values, row[:, None], space))
    # einsum sums a lone column as a dot product, in another order
    return np.einsum("ji,j->i", d if d.shape[1] != 1 else np.repeat(d, 2, axis=1),
                     widths)[:d.shape[1]]


def _l1_run(values, run, row, widths) -> np.ndarray:
    """The :func:`l1_row` entries of the columns ``run``, a slice, of real
    ``values``, each cell's term added in order: the same floats, at less
    cost on a few cells.  ``row`` and ``widths`` may be lists."""
    out = value_distance(values[0, run], row[0], None) * widths[0]
    for c in range(1, len(widths)):
        term = value_distance(values[c, run], row[c], None)
        term *= widths[c]
        out += term
    return out


def l1_row_oracle(values, widths, space: FiniteMetricSpace | None):
    """A row oracle for one :func:`~bventropy.metric_core.farthest_first` run
    over the columns of ``values``: ``rows(i, cols, reach)`` is the
    :func:`l1_row` of column ``i`` on the columns ``cols``, a slice or an
    index array.  The columns are gathered again only when a new ``cols``
    object comes, so a traversal gathers once per drop of dead points.

    On real values with a key cell, the widest cell whose column never
    decreases, ``rows`` returns only the run of ``cols`` whose entries can
    be below ``reach``, as ``(run, row)``.  An entry is a rounded sum
    of non-negative cell terms, in any order, and rounding is monotone, so
    it is at least each rounded term ``fl(w fl(|v - p|))``; take the key
    cell's, with width w and values v of the column and p of ``i``.  Let h
    be the float above ``fl(reach / w)``, so h >= reach / w exactly.  Where
    |v - p| >= h, monotone rounding gives ``fl(|v - p|) >= h``, so
    ``w fl(|v - p|) >= reach`` and its rounding is at least the float
    ``reach``.  Round-to-nearest leaves p - h above the float below
    ``fl(p - h)`` and p + h below the float above ``fl(p + h)``, so every v
    outside [fl(p - h), fl(p + h)] has |v - p| > h.  The key column of the
    live points is sorted, and one ``searchsorted`` finds that interval's
    run.  A run of every column is the full :func:`l1_row`.
    """
    held, key = [None, None, None], None    # the last cols, its columns and key column
    rising = space is None and np.all(values[:, 1:] >= values[:, :-1], axis=1)
    if np.any(rising):
        key = int(np.argmax(np.where(rising, widths, -np.inf)))
        width, weights = float(widths[key]), widths.tolist()

    def rows(i, cols, reach=math.inf):
        if cols is not held[0]:
            gathered = values[:, cols] if isinstance(cols, slice) else values.take(cols, axis=1)
            held[:] = cols, gathered, None if key is None else gathered[key]
        if key is not None:
            p, h = values.item(key, i), math.nextafter(reach / width, math.inf)
            lo, hi = held[2].searchsorted((p - h, math.nextafter(p + h, math.inf))).tolist()
            if hi - lo < held[2].size:
                run = slice(lo, hi)
                return run, _l1_run(held[1], run, values[:, i].tolist(), weights)
        return l1_row(held[1], values[:, i], widths, space)
    return rows


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
