"""The three benchmark workloads and the certificate check behind each op.

Every workload is a closed loop: one client in one thread issues each op
when the previous one has finished.  All random inputs come from the seed
given to the workload, drawn with numpy; the package receives only the
generated inputs (plus the deterministic ``line:`` and ``lattice:``
generator tokens, which the CLI takes as users pass them).

Calls into the package go through module attributes looked up at call time
(``B.encode_bv``, ``cli.main``), so a traced run sees every one of them.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field

import numpy as np

import bventropy as B
from bventropy import cli


@dataclass
class Outcome:
    """What one op produced: failed certificate checks, and the codeword
    bits and closed-form budget it contributes to ``bits_per_budget``."""

    problems: list = field(default_factory=list)
    bits: float = 0.0
    budget: float = 0.0


# ---------------------------------------------------------------------------
# certificate checks (each returns the list of violated guarantees)


def check_codec(err: float, eps: float, bits: int, budget: float,
                round_trip: bool) -> list:
    problems = []
    if not err <= eps:
        problems.append(f"L1 error {err} exceeds eps {eps}")
    if not bits <= budget:
        problems.append(f"{bits} bits exceed the budget {budget}")
    if not round_trip:
        problems.append("codeword file round trip is not identical")
    return problems


def check_pde(sol, u0, dx: float, support_ok: bool) -> list:
    problems = []
    mass0 = float(u0.sum() * dx)
    if abs(sol.mass - mass0) > 1e-10:
        problems.append(f"mass {sol.mass} drifted from {mass0}")
    tol = 1e-12
    if sol.cells.max() > u0.max() + tol or sol.cells.min() < u0.min() - tol:
        problems.append("maximum principle violated")
    if not support_ok:
        problems.append("support left the certified light cone")
    return problems


def _csv_rows(path: str) -> list:
    with open(path) as fh:
        return [line.rstrip("\n").split(",") for line in fh if line.strip()]


def check_cover_pack(path: str, alphas) -> list:
    """Greedy pack(2a) <= cover(a) for every a whose double was probed."""
    rows = _csv_rows(path)[1:]
    cover, pack = {}, {}
    for i, row in enumerate(rows):
        (cover if i % 2 == 0 else pack)[float(row[0])] = int(row[1])
    problems = []
    for a in alphas:
        if 2.0 * a in pack and not pack[2.0 * a] <= cover[a]:
            problems.append(f"pack({2.0 * a}) = {pack[2.0 * a]} > cover({a}) = {cover[a]}")
    if len(cover) != len(alphas) or len(pack) != len(alphas):
        problems.append(f"cover_pack.csv has {len(rows)} rows for {len(alphas)} scales")
    return problems


def check_separation(path: str) -> list:
    rows = _csv_rows(path)
    rec = dict(zip(rows[0], rows[1]))
    problems = []
    if not float(rec["min_pair_distance"]) > 0:
        problems.append(f"min pair distance {rec['min_pair_distance']} is not positive")
    if not int(rec["extracted_size"]) >= 1:
        problems.append("extracted packing is empty")
    return problems


def parse_scan_csv(path: str, n_eps: int):
    """(problems, rows) for a scan CSV: header, one numeric row per epsilon,
    and a final exponent line."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    problems = []
    if not lines or lines[0] != B.entropy_estimator.ScanResult.CSV_HEADER:
        return ["scan.csv header mismatch"], []
    rows = [[float(v) for v in line.split(",")] for line in lines[1:1 + n_eps]]
    if len(rows) != n_eps:
        problems.append(f"scan.csv has {len(rows)} rows for {n_eps} epsilons")
    tail = lines[1 + n_eps:]
    if len(tail) != 1 or not tail[0].startswith("# exponent="):
        problems.append("scan.csv lacks its exponent line")
    elif not math.isfinite(float(tail[0].split()[1].split("=")[1])):
        problems.append("scan exponent is not finite")
    return problems, rows


def check_scan_result(result, n: int) -> list:
    problems = []
    packs = [r.pack_count for r in result.rows]
    if any(b < a for a, b in zip(packs, packs[1:])):
        problems.append(f"packing counts {packs} shrink as epsilon falls")
    for r in result.rows:
        if not (1 <= r.cover_count <= n and 1 <= r.pack_count <= n):
            problems.append(f"counts {r.cover_count}/{r.pack_count} outside [1, {n}]")
    if result.fitted_exponent is None or not math.isfinite(result.fitted_exponent):
        problems.append("no packing exponent was fitted")
    return problems


# ---------------------------------------------------------------------------
# seeded input generators


def bv_values(rng, k: int, tv: float, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
    """k values whose consecutive jumps sum to exactly ``tv``: a random walk
    that reflects off the ends of [lo, hi], so it stays inside whenever each
    step is shorter than the band."""
    steps = rng.uniform(0.2, 1.0, size=k - 1)
    steps *= tv / steps.sum()
    steps *= rng.choice((-1.0, 1.0), size=k - 1)
    vals = [rng.uniform(lo, hi)]
    for s in steps:
        v = vals[-1] + s
        vals.append(v if lo <= v <= hi else vals[-1] - s)
    return np.asarray(vals)


def step_function(rng, k: int, values, L: float = 1.0, space=None):
    """k pieces on [0, L] with distinct breakpoints from a grid of 4096."""
    cuts = np.sort(rng.choice(np.arange(1, 4096), size=k - 1, replace=False)) / 4096.0
    return B.StepFunction(np.concatenate([[0.0], cuts * L, [L]]), values, space)


def cloud(rng, n: int, extent: float = 1.0):
    return B.from_points(rng.uniform(0.0, extent, size=(n, 2)))


def _distances(pts) -> np.ndarray:
    return np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))


def _pick(rng, seq):
    return seq[int(rng.integers(len(seq)))]


# ---------------------------------------------------------------------------
# codec: encode, write and read the codeword file, decode, check


class Codec:
    """Half real BV functions through ``encode_bv``, a quarter BVpsi
    functions under pow:2 through ``encode_bvpsi``, a quarter point-cloud
    valued functions through the greedy-cover net, each on an epsilon ladder
    whose fine end puts about 3,000 centres in the net."""

    REAL_LADDER = tuple(np.geomspace(0.05, 2.5e-4, 9))
    PSI_LADDER = tuple(np.geomspace(0.05, 5e-4, 9))
    CLOUD_LADDER = tuple(np.geomspace(0.05, 0.005, 9))
    N_REAL, N_PSI, N_CLOUD = 6, 3, 3
    CLOUD_SIZE = 300
    # Cloud members make CLOUD_PIECES - 1 jumps of at most CLOUD_JUMP, so
    # their total variation stays within the declared CLOUD_V.
    CLOUD_PIECES, CLOUD_JUMP, CLOUD_V = 5, 0.5, 2.0
    # The Euclidean plane has doubling constant 7, so a planar cloud has
    # doubling dimension at most ceil(log2 7) = 3.
    CLOUD_DIM = 3

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.iv = B.RealInterval(0.0, 1.0)
        self.g2 = B.Gauge.power(2)
        self.path = os.path.join(workdir, "codeword.bvc")
        self.real = []
        for i in range(self.N_REAL):
            k = 16 + 2 * i
            self.real.append(step_function(rng, k, bv_values(rng, k, 0.98)))
        # Values within a band of width 0.8 and total variation 1.2 keep the
        # pow:2 variation below 0.8 * 1.2 < 1.
        self.psi = []
        for i in range(self.N_PSI):
            k = 30 + 10 * i
            self.psi.append(step_function(rng, k, bv_values(rng, k, 1.2, 0.1, 0.9)))
        self.space = cloud(rng, self.CLOUD_SIZE)
        dist = self.space.dist
        self.cloud = []
        for _ in range(self.N_CLOUD):
            idx = [int(rng.integers(self.CLOUD_SIZE))]
            while len(idx) < self.CLOUD_PIECES:
                near = np.flatnonzero((dist[idx[-1]] <= self.CLOUD_JUMP) & (dist[idx[-1]] > 0))
                idx.append(int(_pick(rng, near)))
            self.cloud.append(step_function(rng, len(idx), np.array(idx), space=self.space))

    def ops(self):
        for e_real, e_psi, e_cloud in zip(self.REAL_LADDER, self.PSI_LADDER, self.CLOUD_LADDER):
            for i, f in enumerate(self.real):
                yield f"real{i}@{e_real:.3g}", self._real_op(f, e_real)
            for i, f in enumerate(self.psi):
                yield f"psi{i}@{e_psi:.3g}", self._psi_op(f, e_psi)
            for i, f in enumerate(self.cloud):
                yield f"cloud{i}@{e_cloud:.3g}", self._cloud_op(f, e_cloud)

    def prelude(self):
        return ()

    def warm_up(self):
        self._real_op(self.real[0], 0.05)()
        self._psi_op(self.psi[0], 0.05)()
        self._cloud_op(self.cloud[0], 0.05)()

    def _round_trip(self, cw, f, eps, budget, space=None) -> Outcome:
        B.write_codeword(cw, self.path)
        back = B.read_codeword(self.path)
        net = B.net_from_token(back.net_token, back.h2, space)
        err = B.l1_distance(B.decode(back, net), f)
        return Outcome(check_codec(err, eps, cw.bit_length, budget, back == cw),
                       cw.bit_length, budget)

    def _real_op(self, f, eps):
        def op():
            cw = B.encode_bv(f, 1.0, eps, value_space=self.iv)
            budget = B.bv_budget_bits(1.0, 1.0, eps, 1, self.iv.entropy_bits(eps / 2.0))
            return self._round_trip(cw, f, eps, budget)
        return op

    def _psi_op(self, f, eps):
        def op():
            cw = B.encode_bvpsi(f, self.g2, 1.0, eps, value_space=self.iv)
            budget = B.upper_bound_bits(1.0, 1.0, eps, self.g2, 1,
                                        self.iv.entropy_bits(eps / 4.0))
            return self._round_trip(cw, f, eps, budget)
        return op

    def _cloud_op(self, f, eps):
        def op():
            cw = B.encode_bv(f, self.CLOUD_V, eps)
            budget = B.bv_budget_bits(1.0, self.CLOUD_V, eps, self.CLOUD_DIM,
                                      math.log2(self.CLOUD_SIZE))
            return self._round_trip(cw, f, eps, budget, self.space)
        return op


# ---------------------------------------------------------------------------
# pde: flux gauges, then evolve / check / encode one datum per op


class Pde:
    """Godunov evolution of seeded piecewise-constant data under three
    fluxes, with the flux gauge built and gamma calibrated at the start of
    every pass; each op encodes its snapshot against the solution-set bound.
    Data bounded by M = 0.5 keep a pass of 108 ops and three gauges near 15 s
    on two vCPUs."""

    L, M = 1.0, 0.5
    FLUXES = ("burgers", "cubic", "quartic")
    DX = (0.004, 0.002, 0.001)
    T = (0.5, 1.0)
    EPS = (0.1, 0.05)
    REPEATS = 6
    H_GRID = tuple(np.linspace(0.05, 2.0 * M, 10))

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.flux = {name: B.Flux.parse(name, self.M) for name in self.FLUXES}
        self.cases = []
        for r in range(self.REPEATS):
            for name in self.FLUXES:
                for dx in self.DX:
                    for T in self.T:
                        x = B.make_grid(self.L, self.M, T, self.flux[name], dx)
                        self.cases.append((name, dx, T, self._datum(rng, x, 3 + r % 3)))
        self.gauges = {}

    def _datum(self, rng, x, k):
        """Piecewise-constant data on [-L, L]: k pieces at least 0.2 wide
        with levels of size between M/2 and M, so the snapshot keeps enough
        generalized variation for encode_bvpsi to accept eps = 0.1."""
        while True:
            edges = np.concatenate([[-self.L], np.sort(rng.uniform(-self.L, self.L, k - 1)),
                                    [self.L]])
            if np.diff(edges).min() >= 0.2:
                break
        levels = rng.choice((-1.0, 1.0), size=k) * rng.uniform(0.5, 1.0, size=k) * self.M
        u = np.zeros_like(x)
        for lo, hi, v in zip(edges[:-1], edges[1:], levels):
            u[(x >= lo) & (x < hi)] = v
        return u

    def prelude(self):
        """Steps that build each flux gauge and calibrate gamma; they are
        timed with the pass but are not ops."""
        self.gauges = {}
        return [functools.partial(self._gauge, name) for name in self.FLUXES]

    def _gauge(self, name):
        fg = B.flux_gauge(self.flux[name], self.M, np.asarray(self.H_GRID))
        B.calibrate_gamma(self.flux[name], self.L, self.M, 1.0, fg.gauge,
                          dx=0.004, seed=self.seed)
        self.gauges[name] = fg.gauge

    def ops(self):
        for i, (name, dx, T, u0) in enumerate(self.cases):
            yield f"{name}{i}@dx{dx:g}T{T:g}", self._op(name, dx, T, u0)

    def warm_up(self):
        name, dx, T, u0 = self.cases[0]
        # The three narrowest widths: a three-point table spread over all of
        # [0, 2M] can fail the inverse round trip in gauge_check.
        h = np.asarray(self.H_GRID[:3])
        self.gauges = {name: B.flux_gauge(self.flux[name], self.M, h).gauge}
        self._op(name, dx, T, u0)()

    def _op(self, name, dx, T, u0):
        def op():
            flux, gauge = self.flux[name], self.gauges[name]
            x = B.make_grid(self.L, self.M, T, flux, dx)
            sol = B.evolve(u0, flux, T, dx, x=x)
            ok = B.support_check(sol, self.L, self.M, T, flux)
            out = Outcome(check_pde(sol, u0, dx, ok))
            snap = B.to_step_function(sol)
            V = B.tv_psi(snap, gauge)
            gamma = V / (1.0 + 1.0 / T)
            for eps in self.EPS:
                cw = B.encode_bvpsi(snap, gauge, V, eps)
                err = B.l1_distance(B.decode(cw, B.net_from_token(cw.net_token, cw.h2)), snap)
                bound = B.solution_entropy_bound(eps, self.L, self.M, T, flux, gauge, gamma)
                if not err <= eps:
                    out.problems.append(f"eps {eps}: L1 error {err}")
                if not cw.bit_length <= bound:
                    out.problems.append(f"eps {eps}: {cw.bit_length} bits > bound {bound}")
                out.bits += cw.bit_length
                out.budget += bound
            return out
        return op


# ---------------------------------------------------------------------------
# entropy: class-size certificates through the CLI and entropy_scan


class Entropy:
    """``metric``, ``witness`` and ``scan`` through ``cli.main`` in-process,
    plus library ``entropy_scan`` on seeded random-BV ensembles."""

    # (points, epsilon) of the witness families, all below 2,000 members so
    # verify_packing takes its full pairwise check.  The small ones on
    # line:17 cost nearly the same and make up about 40% of the ops; they
    # straddle the median, so op_p50_ms does not hinge on how the other
    # kinds of op happen to interleave.  The large ones are run once each.
    WITNESS_SMALL = ((17, 0.002), (17, 0.0005), (17, 0.0003), (17, 0.0002))
    WITNESS_LARGE = ((33, 0.0005), (33, 0.0003), (33, 0.00025), (65, 0.0005))
    N_EXACT, N_GREEDY, N_WITNESS, N_SCAN, N_LIB = 30, 20, 40, 16, 2
    LIB_MEMBERS = 100
    # The block-grid ensembles of the scan subcommand are deterministic; a
    # fixed grid keeps the closed-form bound of those rows the same in every
    # run, so bits_per_budget follows the counts.
    SCAN_GRID = "0.1,0.05,0.025,0.0125"

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.cases = []
        # Sizes are spread evenly over their ranges rather than drawn, so
        # every run meets the same mix of problem sizes.
        for i in range(self.N_EXACT):
            kind, n = i % 3, 8 + (i // 3) % 9
            if kind == 0:
                length = float(rng.uniform(0.5, 2.0))
                src = ["--generate", f"line:{n}:{length!r}"]
                pts = np.linspace(0.0, length, n)[:, None]
            elif kind == 1:
                side = 3 + (i // 3) % 2
                src = ["--generate", f"lattice:2:{side}:1.0"]
                pts = np.stack(np.meshgrid(*[np.arange(side)] * 2), -1).reshape(-1, 2)
            else:
                pts = rng.uniform(0.0, 1.0, size=(n, 2))
                src = ["--matrix", self._matrix(f"exact{i}", pts)]
            self.cases.append(("metric", self._metric_args(rng, src, pts, 2.0)))
        for i in range(self.N_GREEDY):
            pts = rng.uniform(0.0, 10.0, size=(20 + i % 13, 2))
            src = ["--matrix", self._matrix(f"greedy{i}", pts)]
            self.cases.append(("metric", self._metric_args(rng, src, pts, 1.05)))
        small = [self.WITNESS_SMALL[i % len(self.WITNESS_SMALL)] for i in range(self.N_WITNESS)]
        for n, eps in small + list(self.WITNESS_LARGE):
            self.cases.append(("witness", ["--generate", f"line:{n}:1.0", "--epsilon",
                                           repr(eps), "--budget", "1.0",
                                           "--window", "0.05", "0.45"]))
        # Three in four scans are the gamma = 2 ones of nearly equal cost; with
        # the two library scans and the largest witness above them, they
        # straddle the 90th percentile.
        for i in range(self.N_SCAN):
            gamma = 1 if i % 4 == 0 else 2
            self.cases.append(("scan", ["--gamma", str(gamma), "--eps-grid", self.SCAN_GRID]))
        for _ in range(self.N_LIB):
            members = []
            for _ in range(self.LIB_MEMBERS):
                k = int(rng.integers(2, 13))
                vals = bv_values(rng, k, rng.uniform(0.2, 1.0))
                members.append(step_function(rng, k, vals))
            top = float(rng.uniform(0.18, 0.22))
            self.cases.append(("library", (B.FunctionEnsemble(members),
                                           [top, top / 2.0, top / 4.0])))
        order = rng.permutation(len(self.cases))
        self.cases = [self.cases[i] for i in order]
        self.params = B.ClassParams(L=1.0, V=1.0, gauge=B.Gauge.identity())

    def _matrix(self, name, pts) -> str:
        path = os.path.join(self.workdir, f"{name}.csv")
        np.savetxt(path, _distances(pts), delimiter=",", fmt="%.17g")
        return path

    @staticmethod
    def _metric_args(rng, src, pts, width):
        """Two scales a, each just below a pairwise distance d from the lower
        fifth, and their doubles; the dimension window [a, width * a] holds
        d, so it holds a probe scale."""
        d = np.unique(_distances(pts)[np.triu_indices(len(pts), 1)])
        low = d[: max(2, d.size // 5)]
        alphas = [float(_pick(rng, low) * rng.uniform(1.0 / width, 1.0)) for _ in range(2)]
        alphas += [2.0 * a for a in alphas]
        args = list(src)
        for a in alphas:
            args += ["--alpha", repr(a)]
        return args + ["--window", repr(alphas[0]), repr(width * alphas[0])]

    def prelude(self):
        return ()

    def ops(self):
        for i, (kind, args) in enumerate(self.cases):
            yield f"{kind}{i}", self._op(i, kind, args)

    def warm_up(self):
        """One small fixed instance of each op kind."""
        ens = self.cases[[k for k, _ in self.cases].index("library")][1][0]
        for i, (kind, args) in enumerate([
                ("metric", ["--generate", "line:8:1.0", "--alpha", "0.2", "--alpha", "0.4",
                            "--window", "0.2", "0.4"]),
                ("witness", ["--generate", "line:17:1.0", "--epsilon", "0.002", "--budget",
                             "1.0", "--window", "0.05", "0.45"]),
                ("scan", ["--gamma", "1", "--eps-grid", self.SCAN_GRID]),
                ("library", (B.FunctionEnsemble(ens.members[:10]), [0.2, 0.1, 0.05]))]):
            self._op(f"warm{i}", kind, args)()

    def _op(self, i, kind, args):
        if kind == "library":
            ens, grid = args

            def lib_op():
                res = B.entropy_scan(ens, grid, self.params)
                return Outcome(check_scan_result(res, len(ens)),
                               sum(math.log2(r.cover_count) for r in res.rows),
                               sum(r.rhs_bound_bits for r in res.rows))
            return lib_op

        out_dir = os.path.join(self.workdir, f"op{i}")

        def cli_op():
            rc = cli.main([kind, "--out", out_dir] + args)
            if rc != 0:
                return Outcome([f"bventropy {kind} exited with {rc}"])
            if kind == "metric":
                alphas = [float(args[j + 1]) for j, a in enumerate(args) if a == "--alpha"]
                return Outcome(check_cover_pack(os.path.join(out_dir, "cover_pack.csv"),
                                                alphas))
            if kind == "witness":
                return Outcome(check_separation(os.path.join(out_dir, "separation.csv")))
            n_eps = len(args[args.index("--eps-grid") + 1].split(","))
            problems, rows = parse_scan_csv(os.path.join(out_dir, "scan.csv"), n_eps)
            return Outcome(problems, sum(r[3] for r in rows), sum(r[6] for r in rows))
        return cli_op


WORKLOADS = {"codec": Codec, "pde": Pde, "entropy": Entropy}
