"""Run one workload in this process and print its result as one JSON line.

Started by ``run.py`` (one process per workload, so that the peak RSS it
reports belongs to that workload alone).  Usage::

    python3 bench/worker.py WORKLOAD SEED SECONDS TRACE WORKDIR
"""

from __future__ import annotations

import collections
import json
import math
import os
import re
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPEATS = 3
# Timings are scaled to a machine on which probe() takes this long.
PROBE_NOMINAL_S = 1e-3


def probe() -> float:
    """Time of a fixed pure-Python loop, a gauge of the CPU's current speed.

    On shared virtual machines the speed of a vCPU drifts by tens of percent
    in phases of seconds to minutes, and every kind of op slows alike.  The
    probe shares no code with the package, so dividing by it removes the
    drift and keeps every change the package makes."""
    t0 = time.perf_counter()
    x = 0
    for i in range(20000):
        x += i * i
    return time.perf_counter() - t0


class Clock:
    """Times a segment of work in seconds at nominal CPU speed: its wall time
    times PROBE_NOMINAL_S over the median of the last five probes, one taken
    just before each segment."""

    def __init__(self):
        self.probes = collections.deque(maxlen=5)
        self.wall_s = 0.0       # unscaled wall time of every segment run
        self.last = 0.0

    def run(self, fn):
        """Return fn(), leaving its scaled time in ``last``; exceptions propagate."""
        self.probes.append(probe())
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            wall = time.perf_counter() - t0
            self.wall_s += wall
            self.last = wall * PROBE_NOMINAL_S / statistics.median(self.probes)


class Stats:
    """Closed-loop op accounting for one run."""

    def __init__(self):
        self.clock = Clock()
        self.latencies: list[float] = []
        self.by_kind: dict[str, list[float]] = {}
        self.failures: list[tuple] = []
        self.attempted = 0
        self.log_ratios: list[float] = []

    def run_op(self, op_id: str, fn, tracer=None) -> float:
        """Run one op, record its scaled latency and outcome, return the latency."""
        if tracer is not None:
            tracer.op_id = op_id
        try:
            out = self.clock.run(fn)
            problems = list(out.problems)
        except Exception as exc:    # a failed op is recorded; the run goes on
            out, problems = None, [f"{type(exc).__name__}: {exc}"]
        latency = self.clock.last
        self.latencies.append(latency)
        kind = re.match(r"[a-z]+", op_id.split(":")[1]).group()
        self.by_kind.setdefault(kind, []).append(latency)
        self.attempted += 1
        if problems:
            self.failures.append((op_id, "; ".join(problems)))
        elif out.bits > 0 and out.budget > 0:
            self.log_ratios.append(math.log(out.bits / out.budget))
        return latency


def run_pass(wl, stats: Stats, tag: str, tracer=None) -> float:
    """One timed pass, in scaled seconds: the workload's prelude steps, then
    every op in order."""
    total = 0.0
    for i, step in enumerate(wl.prelude()):
        try:
            stats.clock.run(step)
        except Exception as exc:
            stats.failures.append((f"{tag}:prelude{i}", f"{type(exc).__name__}: {exc}"))
        total += stats.clock.last
    for op_id, fn in wl.ops():
        total += stats.run_op(f"{tag}:{op_id}", fn, tracer)
    return total


def _import_package():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import bventropy
    if not os.path.abspath(bventropy.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        raise SystemExit(f"bventropy imported from {bventropy.__file__}, not from {ROOT}/src")
    import workloads
    return workloads


def percentile(values, q: float) -> float:
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


def main(argv) -> int:
    workload, seed, seconds, trace, workdir = (
        argv[0], int(argv[1]), float(argv[2]), argv[3] == "1", argv[4])
    clock = Clock()
    workloads = clock.run(_import_package)
    import_s = clock.last
    import numpy as np
    import bventropy
    import tracer as tracing

    setup_times = []
    for _ in range(SETUP_REPEATS):
        def set_up():
            wl = workloads.WORKLOADS[workload](seed, workdir)
            wl.warm_up()
            return wl
        wl = clock.run(set_up)
        setup_times.append(clock.last)

    stats = Stats()
    plain, traced = [], []
    traced_wall_s = 0.0
    tracer = tracing.Tracer() if trace else None
    start = time.perf_counter()
    while True:
        plain.append(run_pass(wl, stats, f"p{len(plain)}"))
        if trace:
            wall0 = stats.clock.wall_s
            with tracer:
                traced.append(run_pass(wl, stats, f"t{len(traced)}", tracer))
            traced_wall_s += stats.clock.wall_s - wall0
        elapsed = time.perf_counter() - start
        per_round = elapsed / len(plain)
        if elapsed + per_round > seconds:
            break

    record = {
        "workload": workload, "seed": seed, "trace": trace,
        "python": sys.version.split()[0], "numpy": np.__version__,
        "bventropy": bventropy.__version__, "nproc": os.cpu_count(),
        "passes": len(plain), "pass_s": plain, "traced_pass_s": traced,
        "timed_wall_s": stats.clock.wall_s, "probe_ms": 1e3 * statistics.median(stats.clock.probes),
        "ops_per_pass": stats.attempted // (len(plain) + len(traced)),
        "failures": stats.failures[:50],
        "op_ms_by_kind": {k: {"n": len(v), "median": 1e3 * statistics.median(v),
                              "total_s": sum(v)} for k, v in stats.by_kind.items()},
    }
    attempted = stats.attempted
    failed = len(stats.failures)
    if trace:
        metrics = layer_metrics(tracer, len(traced), statistics.median(traced)
                                / statistics.median(plain) - 1.0)
        record["span_count"] = len(tracer.spans)
        spans_path = os.path.join(os.path.dirname(workdir),
                                  f"spans-{workload}-seed{seed}.jsonl")
        tracer.dump(spans_path)
        record["spans"] = spans_path
        record["layer_share"] = {name: s / traced_wall_s
                                 for name, s in sorted(tracer.self_s.items(),
                                                       key=lambda kv: -kv[1])}
    else:
        lat_ms = [1e3 * v for v in stats.latencies]
        metrics = {
            "setup_s": (import_s + statistics.median(setup_times), "s"),
            "run_s": (statistics.median(plain), "s"),
            "op_p50_ms": (percentile(lat_ms, 50), "ms"),
            "op_p90_ms": (percentile(lat_ms, 90), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "ok_ratio": ((attempted - failed) / attempted, "ratio"),
            "bits_per_budget": (math.exp(statistics.fmean(stats.log_ratios))
                                if stats.log_ratios else 0.0, "ratio"),
        }
    record["setup_s"] = {"import": import_s, "repeats": setup_times}
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps({"result": result, "record": record}))
    return 0


def layer_metrics(tracer, passes: int, overhead: float) -> dict:
    """Per-layer metrics of the traced passes, per pass, with units."""
    from tracer import LAYERS

    def per_pass(table, key):
        return table.get(key, 0) / passes

    m = {}

    def timing(name, calls=False):
        if calls:
            m[f"{name}.calls"] = (per_pass(tracer.calls, name), "count")
        m[f"{name}.self_s"] = (per_pass(tracer.self_s, name), "s")

    def counter(name, key, unit="count"):
        m[f"{name}.{key}"] = (per_pass(tracer.counters, f"{name}.{key}"), unit)

    timing("claw.affine_gap", calls=True)
    timing("claw.flux_gauge")
    timing("claw.evolve", calls=True)
    counter("claw.evolve", "cell_steps")
    m["claw.evolve.dx_exponent"] = (tracer.fit_exponent("claw.evolve"), "exponent")
    timing("claw.calibrate_gamma")
    timing("claw.to_step_function")
    cells_in = tracer.counters.get("claw.to_step_function.cells_in", 0)
    m["claw.to_step_function.kept_ratio"] = (
        tracer.counters.get("claw.to_step_function.cells_out", 0) / cells_in
        if cells_in else 0.0, "ratio")
    timing("gauge_variation.tv_psi", calls=True)
    counter("gauge_variation.tv_psi", "cells")
    timing("gauge_variation.l1_distance", calls=True)
    timing("bv_codec.encode_bv", calls=True)
    counter("bv_codec.encode_bv", "grid_cells")
    m["bv_codec.encode_bv.eps_exponent"] = (tracer.fit_exponent("bv_codec.encode_bv"),
                                            "exponent")
    timing("bv_codec.encode_bvpsi")
    timing("bv_codec.decode", calls=True)
    counter("bv_codec.decode", "bits", "bit")
    timing("bv_codec.rho_sharp_matrix", calls=True)
    m["bv_codec.rho_sharp_matrix.mb"] = (
        tracer.counters.get("bv_codec.rho_sharp_matrix.mb", 0.0), "MB")
    m["bv_codec.codeword_io.self_s"] = (
        per_pass(tracer.self_s, "bv_codec.write_codeword")
        + per_pass(tracer.self_s, "bv_codec.read_codeword"), "s")
    timing("metric_core.covering_number", calls=True)
    timing("metric_core.packing_number", calls=True)
    timing("metric_core.dimension_report")
    counter("metric_core.dimension_report", "ball_queries")
    timing("witness_lab.build_family")
    counter("witness_lab.build_family", "members")
    timing("witness_lab.verify_packing")
    counter("witness_lab.verify_packing", "pairs_checked")
    timing("entropy_estimator.entropy_scan")
    timing("entropy_estimator.empirical_counts", calls=True)
    timing("entropy_estimator.distances_from", calls=True)
    timing("cli.main", calls=True)
    counter("cli.main", "out_bytes", "byte")
    for layer in LAYERS:
        m[f"{layer}.errors"] = (tracer.errors.get(layer, 0), "count")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return m


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
