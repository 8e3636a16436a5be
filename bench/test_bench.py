"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import bventropy  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))

TINY = {
    workloads.Codec: dict(REAL_LADDER=(0.05, 0.02), PSI_LADDER=(0.05, 0.02),
                          CLOUD_LADDER=(0.05, 0.04), N_REAL=2, N_PSI=1, N_CLOUD=1,
                          CLOUD_SIZE=60),
    workloads.Pde: dict(FLUXES=("burgers",), DX=(0.004,), T=(0.5,), REPEATS=2,
                        H_GRID=tuple(np.linspace(0.05, 1.0, 10)[:4])),
    workloads.Entropy: dict(N_EXACT=3, N_GREEDY=1, N_WITNESS=1, N_SCAN=4, N_LIB=1,
                            WITNESS_LARGE=((33, 0.0005),),
                            LIB_MEMBERS=20, SCAN_GRID="0.1,0.05,0.025"),
}


@pytest.fixture
def tiny(monkeypatch):
    for cls, attrs in TINY.items():
        for key, value in attrs.items():
            monkeypatch.setattr(cls, key, value)


def _run(workload, trace, tmp_path, capsys):
    workdir = tmp_path / f"{workload}-{trace}"
    workdir.mkdir()
    assert worker.main([workload, "7", "0", str(trace), str(workdir)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric(tiny, tmp_path, capsys, workload, trace):
    out = _run(workload, trace, tmp_path, capsys)
    result = out["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, out["record"]["failures"]
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and np.isfinite(m["value"])
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in spec)


def test_claw_spans_only_on_pde(tiny, tmp_path, capsys):
    for workload in ("codec", "entropy"):
        metrics = _run(workload, 1, tmp_path, capsys)["result"]["metrics"]
        assert metrics["claw.evolve.calls"]["value"] == 0
        assert metrics["claw.affine_gap.calls"]["value"] == 0
    metrics = _run("pde", 1, tmp_path, capsys)["result"]["metrics"]
    assert metrics["claw.affine_gap.calls"]["value"] > 0


def test_failed_check_is_counted_not_raised():
    assert workloads.check_codec(0.2, 0.1, 10, 100.0, True)
    assert workloads.check_codec(0.05, 0.1, 1000, 100.0, True)
    assert workloads.check_codec(0.05, 0.1, 10, 100.0, False)
    assert not workloads.check_codec(0.05, 0.1, 10, 100.0, True)

    def bad_certificate():
        return workloads.Outcome(workloads.check_codec(0.2, 0.1, 10, 100.0, True), 10, 100)

    def raises():
        raise bventropy.BVEntropyError("corrupt")

    stats = worker.Stats()
    stats.run_op("p0:bad0", bad_certificate)
    stats.run_op("p0:raise1", raises)
    stats.run_op("p0:good2", lambda: workloads.Outcome([], 5, 50))
    assert stats.attempted == 3
    assert [op for op, _ in stats.failures] == ["p0:bad0", "p0:raise1"]
    assert "exceeds eps" in stats.failures[0][1]
    assert "BVEntropyError" in stats.failures[1][1]
    assert stats.log_ratios == [pytest.approx(np.log(0.1))]


def _bindings():
    """Every bventropy namespace entry and class attribute the tracer may touch."""
    out = {}
    for name, mod in sys.modules.items():
        if name == "bventropy" or name.startswith("bventropy."):
            for key, value in vars(mod).items():
                if callable(value):
                    out[(name, key)] = value
    for cls in (bventropy.Net, bventropy.FunctionEnsemble):
        for key, value in vars(cls).items():
            out[(cls.__name__, key)] = value
    return out


def test_traced_run_restores_originals(tiny, tmp_path):
    before = _bindings()
    wl = workloads.Codec(3, str(tmp_path))
    stats = worker.Stats()
    with tracing.Tracer() as tracer:
        assert bventropy.encode_bvpsi is not before[("bventropy", "encode_bvpsi")]
        assert bventropy.bv_codec.tv_psi is not before[("bventropy.bv_codec", "tv_psi")]
        worker.run_pass(wl, stats, "t0", tracer)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert stats.failures == []

    # nested calls became child spans: encode_bvpsi -> tv_psi, adaptive_coarsen, encode_bv
    spans = tracer.spans
    children = {spans[i][0] for i, s in enumerate(spans)
                if s[3] >= 0 and spans[s[3]][0] == "bv_codec.encode_bvpsi"}
    assert {"gauge_variation.tv_psi", "bv_codec.adaptive_coarsen",
            "bv_codec.encode_bv"} <= children
    assert all(s[4].startswith("t0:") for s in spans)


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    with tracer:
        f = bventropy.StepFunction(np.array([0.0, 0.3, 1.0]), np.array([0.1, 0.7]))
        bventropy.encode_bvpsi(f, bventropy.Gauge.power(2), 1.0, 0.1)
    total = {}
    for name, start, end, parent, _, _ in tracer.spans:
        total[name] = total.get(name, 0.0) + end - start
    assert tracer.self_s["bv_codec.encode_bvpsi"] < total["bv_codec.encode_bvpsi"]
    assert sum(tracer.self_s.values()) == pytest.approx(total["bv_codec.encode_bvpsi"])


def test_clock_scales_by_probe(monkeypatch):
    monkeypatch.setattr(worker, "probe", lambda: 2 * worker.PROBE_NOMINAL_S)
    clock = worker.Clock()
    assert clock.run(lambda: 7) == 7
    assert clock.last == pytest.approx(clock.wall_s / 2)
    with pytest.raises(ZeroDivisionError):
        clock.run(lambda: 1 / 0)
    assert clock.last > 0
