"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

Simulated results are a pure function of the seed, the seed reaches the
generated inputs, tracing leaves what the program computes unchanged,
the metric names match BENCHMARK.json, and the benchmark refuses to run
without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run

workloads = run.load_workloads()
import layers  # noqa: E402  (after the program sources are on the path)

ROOT = Path(__file__).resolve().parent.parent

_OPS: dict[tuple[str, int, int], object] = {}


def _op(name: str, seed: int, copy: int = 0):
    """One operation of a freshly set-up workload (memoized per copy)."""
    key = (name, seed, copy)
    if key not in _OPS:
        workload = workloads.WORKLOADS[name]()
        workload.setup(seed)
        _OPS[key] = workload.run_op()
    return _OPS[key]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_simulated_results(name):
    first, second = _op(name, 3), _op(name, 3, copy=1)
    assert first.failed == 0 and not first.problems, first.problems
    assert first.sim == second.sim


def test_second_seed_changes_pipeline_inputs():
    a, b = workloads.Pipeline(), workloads.Pipeline()
    a.setup(3)
    b.setup(4)
    mixes = lambda w: [k.mix for k in w.microbenchmarks]  # noqa: E731
    assert mixes(a) != mixes(b)
    other = _op("pipeline", 4)
    assert other.failed == 0 and not other.problems, other.problems
    assert other.sim != _op("pipeline", 3).sim


def test_second_seed_changes_service_inputs():
    a, b = workloads.Service(), workloads.Service()
    a.setup(3)
    b.setup(4)
    assert [t.quota for t in a.tenants] != [t.quota for t in b.tenants]
    assert not (a.arrival_s == b.arrival_s).all()
    other = _op("service", 4)
    assert other.failed == 0 and not other.problems, other.problems
    assert other.sim != _op("service", 3).sim


def test_service_session_is_the_loadgen_session():
    from repro.core.sweepcache import scoped_cache
    from repro.service.loadgen import run_service_session

    workload = workloads.Service()
    workload.setup(5)
    service, _ = workload.session()
    with scoped_cache():
        reference = run_service_session(
            seed=5,
            n_submissions=workload.SUBMISSIONS,
            n_cycles=workload.CYCLES,
            mean_interarrival_s=workload.MEAN_INTERARRIVAL_S,
        )
    assert service.store.canonical_bytes() == reference.store.canonical_bytes()


def test_tracing_changes_no_simulated_value():
    workload = workloads.Distributed()
    workload.setup(1)
    plain = workload.run_op()
    tracer = layers.Tracer()
    tracer.install()
    try:
        traced = workload.run_op()
    finally:
        tracer.uninstall()
    assert traced.sim == plain.sim
    names = {span[0] for span in tracer.spans}
    assert {"distributed.graph_build", "core.global_plan", "engine.graph"} <= names


def test_tracing_keeps_golden_trace_bytes():
    from repro.obs.export import chrome_trace, dump_json
    from repro.obs.scenarios import run_scenario

    tracer = layers.Tracer()
    tracer.install()
    try:
        session = run_scenario("single-gpu")
    finally:
        tracer.uninstall()
    golden = ROOT / "tests" / "golden" / "single-gpu.trace.json"
    meta = {"scenario": "single-gpu", "seed": 7}
    assert dump_json(chrome_trace(session, meta)) == golden.read_text()
    assert tracer.spans


def test_uninstall_restores_every_binding():
    from repro.core import models
    from repro.experiments import sweep

    fit, measure = models.EnergyModelBundle.__dict__["fit"], models.measure_sweep
    tracer = layers.Tracer()
    tracer.install()
    assert models.measure_sweep is not measure
    assert sweep.measure_sweep is models.measure_sweep
    tracer.uninstall()
    assert models.EnergyModelBundle.__dict__["fit"] is fit
    assert models.measure_sweep is measure and sweep.measure_sweep is measure


def test_speed_probe_samples_and_restores_the_timer():
    previous = signal.getsignal(signal.SIGALRM)
    with run.SpeedProbe() as probe:
        deadline = time.perf_counter() + 0.35
        while time.perf_counter() < deadline:
            pass
    assert len(probe.samples) >= 2
    assert 0.0 < probe.reference_s(0.35) < float("inf")
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous


def test_metric_names_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in declared["end_to_end"]] == list(run.END_TO_END)
    per_layer = layers.layer_metrics(layers.Tracer(), [1.0], [1.0], 0.0)[0]
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == {
        name: unit for name, (_, unit) in per_layer.items()
    }
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "distributed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
