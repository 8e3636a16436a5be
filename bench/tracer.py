"""Span tracing of the bventropy layers from outside the package.

``Tracer.install`` replaces each traced public function, by identity, in
every loaded ``bventropy.*`` namespace that binds it (and the two traced
methods on their classes), so that calls made inside the package become
child spans of the calls that made them.  ``Tracer.uninstall`` puts every
original object back.  Spans are kept in memory as tuples
``(name, start, end, parent, op_id, size)`` and written out by
:meth:`Tracer.dump`; counters derived from arguments and results are
accumulated per layer metric.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("metric_core", "gauge_variation", "bv_codec", "witness_lab",
          "entropy_estimator", "claw", "cli")


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _out_bytes(argv) -> int:
    try:
        out = argv[argv.index("--out") + 1]
    except (ValueError, IndexError):
        return 0
    total = 0
    for dirpath, _, files in os.walk(out):
        for fn in files:
            total += os.path.getsize(os.path.join(dirpath, fn))
    return total


def _evolve_steps(args, kwargs) -> int:
    flux = _arg(args, kwargs, 1, "flux")
    T = _arg(args, kwargs, 2, "T")
    dx = _arg(args, kwargs, 3, "dx")
    cfl = kwargs.get("cfl", args[4] if len(args) > 4 else 0.45)
    dt_max = cfl * dx / max(flux.fprime_max, 1e-300)
    return math.ceil((T - 1e-14) / dt_max)


# Counters derived from one traced call's arguments and result.  A counter
# ``key`` of span ``name`` accumulates into ``<name>.<key>``; a "max:" prefix
# keeps the running maximum instead of the sum.
def _counters(name, args, kwargs, result):
    if name == "claw.evolve":
        return {"cell_steps": np.asarray(args[0]).size * _evolve_steps(args, kwargs)}
    if name == "claw.to_step_function":
        return {"cells_in": args[0].cells.size, "cells_out": result.k}
    if name == "gauge_variation.tv_psi":
        return {"cells": args[0].k}
    if name == "bv_codec.encode_bv":
        return {"grid_cells": result.N1}
    if name == "bv_codec.decode":
        return {"bits": args[0].bit_length}
    if name == "bv_codec.rho_sharp_matrix":
        return {"max:mb": args[0].size ** 2 * 8 / 1e6}
    if name == "metric_core.dimension_report":
        return {"ball_queries": len(result.scales) * args[0].n}
    if name == "witness_lab.build_family":
        return {"members": result.size}
    if name == "witness_lab.verify_packing":
        return {"pairs_checked": result.pairs_checked}
    if name == "cli.main":
        return {"out_bytes": _out_bytes(list(args[0]))}
    return {}


def _size(name, args, kwargs):
    """Problem size recorded on a span for the scaling fits."""
    if name == "bv_codec.encode_bv":
        f = args[0]
        return None if f.space is not None else float(_arg(args, kwargs, 2, "eps"))
    if name == "claw.evolve":
        return float(_arg(args, kwargs, 3, "dx"))
    return None


# (module, attribute, span name); a dotted attribute is a method.
TARGETS = (
    ("metric_core", "covering_number", "metric_core.covering_number"),
    ("metric_core", "packing_number", "metric_core.packing_number"),
    ("metric_core", "dimension_report", "metric_core.dimension_report"),
    ("gauge_variation", "tv_psi", "gauge_variation.tv_psi"),
    ("gauge_variation", "l1_distance", "gauge_variation.l1_distance"),
    ("bv_codec", "encode_bv", "bv_codec.encode_bv"),
    ("bv_codec", "encode_bvpsi", "bv_codec.encode_bvpsi"),
    ("bv_codec", "adaptive_coarsen", "bv_codec.adaptive_coarsen"),
    ("bv_codec", "decode", "bv_codec.decode"),
    ("bv_codec", "write_codeword", "bv_codec.write_codeword"),
    ("bv_codec", "read_codeword", "bv_codec.read_codeword"),
    ("bv_codec", "Net.rho_sharp_matrix", "bv_codec.rho_sharp_matrix"),
    ("witness_lab", "build_family", "witness_lab.build_family"),
    ("witness_lab", "verify_packing", "witness_lab.verify_packing"),
    ("entropy_estimator", "entropy_scan", "entropy_estimator.entropy_scan"),
    ("entropy_estimator", "empirical_counts", "entropy_estimator.empirical_counts"),
    ("entropy_estimator", "FunctionEnsemble.distances_from",
     "entropy_estimator.distances_from"),
    ("claw", "affine_gap", "claw.affine_gap"),
    ("claw", "flux_gauge", "claw.flux_gauge"),
    ("claw", "evolve", "claw.evolve"),
    ("claw", "calibrate_gamma", "claw.calibrate_gamma"),
    ("claw", "to_step_function", "claw.to_step_function"),
    ("cli", "main", "cli.main"),
)


class Tracer:
    """Records spans around calls into the traced bventropy functions."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self.op_id = None
        self._stack: list[list] = []      # [span index, child time]
        self._seen_errors: set = set()
        self._patches: list[tuple] = []   # (owner, attribute, original)

    # --- installation -----------------------------------------------------

    def install(self) -> None:
        import bventropy.cli  # noqa: F401  (the cli module binds the targets too)

        mods = {k: m for k, m in sys.modules.items()
                if (k == "bventropy" or k.startswith("bventropy.")) and m is not None}
        for mod_name, attr, name in TARGETS:
            mod = sys.modules[f"bventropy.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self._wrap(name, original))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(name, original)
            for m in mods.values():
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # --- spans ------------------------------------------------------------

    def _wrap(self, name, fn):
        layer = name.split(".")[0]
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            idx = len(tracer.spans)
            tracer.spans.append(None)
            frame = [idx, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                key = (id(exc), layer)
                if key not in tracer._seen_errors:
                    tracer._seen_errors.add(key)
                    tracer.errors[layer] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                tracer.self_s[name] += dur - frame[1]
                tracer.calls[name] += 1
                tracer.spans[idx] = (name, start, end, parent, tracer.op_id,
                                     _size(name, args, kwargs))
            for key, value in _counters(name, args, kwargs, result).items():
                full = f"{name}.{key.removeprefix('max:')}"
                if key.startswith("max:"):
                    tracer.counters[full] = max(tracer.counters[full], value)
                else:
                    tracer.counters[full] += value
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # --- reporting --------------------------------------------------------

    def fit_exponent(self, name: str) -> float:
        """Slope of log(median self time) against log(1/size) over the
        distinct sizes recorded on ``name`` spans; 0 with fewer than two."""
        by_size: dict[float, list[float]] = defaultdict(list)
        child: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s is not None and s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        for i, s in enumerate(self.spans):
            if s is not None and s[0] == name and s[5] is not None:
                by_size[s[5]].append(s[2] - s[1] - child[i])
        if len(by_size) < 2:
            return 0.0
        sizes = sorted(by_size)
        x = np.log([1.0 / v for v in sizes])
        y = np.log([max(float(np.median(by_size[v])), 1e-9) for v in sizes])
        return float(np.polyfit(x, y, 1)[0])

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines: name, start, end, parent, op, size."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for s in self.spans:
                name, start, end, parent, op, size = s
                fh.write(json.dumps([name, round(start - t0, 9), round(end - t0, 9),
                                     parent, op, size]) + "\n")
