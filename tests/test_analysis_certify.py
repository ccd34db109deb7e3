"""Static certificates (repro.analysis.certify / interval / scenarios).

The graph walk must bracket the real engine at certification tolerance,
the plan certifier must prove feasible DEADLINE targets and refute
impossible ones with a named witness, every golden-scenario certificate
must bracket its replayed run, and the interval/bracket plumbing must
behave like the closed-interval arithmetic it claims to be.
"""

from __future__ import annotations

import pytest

from repro.analysis.certify import (
    certify_frequency_plan,
    certify_graph,
    static_operating_point,
)
from repro.analysis.interval import CONTAINS_RTOL, Interval
from repro.analysis.scenarios import (
    CERTIFIERS,
    BracketCheck,
    ScenarioCertificate,
)
from repro.apps import get_benchmark
from repro.common.errors import ValidationError
from repro.core.compiler import FrequencyPlan, plan_global_frequencies
from repro.core.sweepcache import scoped_cache
from repro.distributed.runner import build_comm, run_graph
from repro.distributed.stencil import build_stencil_graph
from repro.hw.specs import NVIDIA_V100
from repro.metrics.targets import DEADLINE

# ---------------------------------------------------------------- interval


def test_interval_basics():
    iv = Interval(1.0, 2.0)
    assert iv.width == 1.0
    assert iv.add(Interval.point(0.5)) == Interval(1.5, 2.5)
    assert iv.max(Interval(0.0, 3.0)) == Interval(1.0, 3.0)
    assert iv.hull(Interval(-1.0, 1.5)) == Interval(-1.0, 2.0)
    assert iv.scale(2.0) == Interval(2.0, 4.0)


def test_interval_rejects_inverted_and_nan_endpoints():
    with pytest.raises(ValidationError):
        Interval(2.0, 1.0)
    with pytest.raises(ValidationError):
        Interval(float("nan"), 1.0)
    with pytest.raises(ValidationError):
        Interval(0.0, 1.0).scale(-1.0)


def test_interval_contains_applies_relative_slack():
    iv = Interval.point(1.0)
    assert iv.contains(1.0)
    assert iv.contains(1.0 + 0.5 * CONTAINS_RTOL)
    assert not iv.contains(1.0 + 1e-9)
    assert not iv.contains(0.999)


def test_bracket_check_and_certificate_verdicts():
    good = BracketCheck("t", Interval(0.0, 2.0), 1.0)
    bad = BracketCheck("t", Interval(0.0, 2.0), 3.0)
    assert good.ok and not bad.ok
    assert "t" in good.format() and "3" in bad.format()
    assert good.as_dict()["ok"] is True

    cert = ScenarioCertificate(
        scenario="x", checks=(good,), assertions=(("a", True),), notes=()
    )
    assert cert.ok
    assert not ScenarioCertificate(
        scenario="x", checks=(good, bad), assertions=(), notes=()
    ).ok
    assert not ScenarioCertificate(
        scenario="x", checks=(good,), assertions=(("a", False),), notes=()
    ).ok


# -------------------------------------------------------------- graph walk


@pytest.fixture(scope="module")
def certified_stencil():
    """A small certified stencil graph plus its measured execution."""
    spec = NVIDIA_V100
    with scoped_cache():
        comm = build_comm(spec, 4)
        graph = build_stencil_graph(comm, steps=2, elems_per_rank=1 << 14)
        plan = plan_global_frequencies(spec, graph.rank_kernels(), cache=True)
        cert = certify_graph(graph, plan, spec)
        cert_unknown = certify_graph(graph, plan, spec, boot="unknown")
        result = run_graph(graph, comm, plan)
    return spec, graph, plan, cert, cert_unknown, result


def test_certify_graph_brackets_the_engine(certified_stencil):
    _, graph, _, cert, _, result = certified_stencil
    assert cert.n_nodes == len(graph.nodes)
    assert cert.completion_s.contains(float(result.completion_s))
    assert cert.total_energy_j.contains(float(result.rank_energy_j.sum()))
    for r in range(graph.n_ranks):
        assert cert.rank_energy_j[r].contains(float(result.rank_energy_j[r]))
        assert cert.rank_time_s[r].contains(float(result.rank_time_s[r]))


def test_default_boot_certificate_is_degenerate(certified_stencil):
    # build_comm boards boot at driver defaults, so the walk is exact:
    # the certificate IS the schedule.
    _, _, _, cert, _, _ = certified_stencil
    assert cert.boot == "default"
    assert cert.completion_s.width == 0.0
    assert all(iv.width == 0.0 for iv in cert.rank_time_s)


def test_unknown_boot_widens_time_but_not_energy(certified_stencil):
    _, _, _, cert, cert_unknown, result = certified_stencil
    assert cert_unknown.boot == "unknown"
    assert cert_unknown.completion_s.lo <= cert.completion_s.lo
    assert cert_unknown.completion_s.hi >= cert.completion_s.hi
    assert cert_unknown.completion_s.contains(float(result.completion_s))
    # Energy is switch-independent: still exact under unknown boot clocks.
    assert cert_unknown.total_energy_j == cert.total_energy_j


def test_certify_graph_proves_the_global_sla_bound(certified_stencil):
    spec, graph, plan, cert, _, _ = certified_stencil
    with scoped_cache():
        baseline_plan = plan_global_frequencies(
            spec, graph.rank_kernels(), objective="MAX_PERF", cache=True
        )
        baseline = certify_graph(graph, baseline_plan, spec)
        bounded = certify_graph(graph, plan, spec, baseline=baseline)
    assert bounded.global_bound_ok is True
    assert bounded.baseline_completion_s == baseline.completion_s.hi
    assert cert.global_bound_ok is None  # no baseline supplied


def test_certify_graph_rejects_unknown_boot_mode(certified_stencil):
    spec, graph, plan, _, _, _ = certified_stencil
    with pytest.raises(ValidationError, match="boot"):
        certify_graph(graph, plan, spec, boot="warm")


# ------------------------------------------------------------- plan certs


def test_plan_certificate_proves_and_refutes_deadlines():
    spec = NVIDIA_V100
    kernel = get_benchmark("gemm").kernel
    mem = int(spec.default_mem_mhz)
    top = int(max(spec.core_freqs_mhz))
    with scoped_cache():
        t, p = static_operating_point(spec, kernel, top, mem)
        feasible = DEADLINE(2.0 * t)
        impossible = DEADLINE(0.5 * t)
        plan = FrequencyPlan(
            device_name=spec.name,
            entries={
                (kernel.name, feasible.name): (mem, top),
                (kernel.name, impossible.name): (mem, top),
            },
        )
        cert_ok = certify_frequency_plan(plan, [kernel], [feasible], spec)
        cert_bad = certify_frequency_plan(plan, [kernel], [impossible], spec)

    assert cert_ok.feasible and cert_ok.witness is None
    assert cert_ok.kernel_time_s[(kernel.name, feasible.name)] == t
    makespan = cert_ok.makespan_s[feasible.name]
    assert makespan.lo == pytest.approx(t)
    assert makespan.hi > makespan.lo  # admits boot/reset switch overheads
    assert cert_ok.energy_j[feasible.name].contains(p * t)

    assert not cert_bad.feasible
    assert cert_bad.witness == kernel.name
    assert any(
        f"witness kernel {kernel.name!r}" in v for v in cert_bad.violations
    )


def test_deadline_demo_round_trip():
    from repro.analysis.scenarios import deadline_demo

    cert_ok, cert_bad = deadline_demo()
    assert cert_ok.feasible and cert_ok.witness is None
    assert not cert_bad.feasible and cert_bad.witness is not None
    assert any(
        f"witness kernel {cert_bad.witness!r}" in v for v in cert_bad.violations
    )
    assert cert_bad.as_dict()["feasible"] is False


# ------------------------------------------------------ scenario certificates


@pytest.mark.parametrize("name", list(CERTIFIERS))
def test_scenario_certificate_brackets_the_measured_run(name):
    """What ``repro-synergy certify`` gates, scenario by scenario."""
    cert = CERTIFIERS[name](seed=7)
    assert cert.scenario == name and cert.checks
    assert [b.format() for b in cert.checks if not b.ok] == []
    assert [label for label, ok in cert.assertions if not ok] == []
