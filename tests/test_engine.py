"""Batched virtual-time engine tests.

Unit coverage for the struct-of-arrays batch layer (assembly, empty
edges, fallback gates, the bulk device APIs) plus a Hypothesis property
suite driving random kernel mixes, explicit clock pairs and energy
targets (including DEADLINE and SLA) through ``submit_batch`` and the
scalar reference loop side by side, on free and power-capped boards,
traced or not: element-wise parity of the resulting records, queue
summaries and traced counters, and permutation invariance of the
aggregate batch energy. A seeded job-stream property pins that
``Scheduler.submit`` and ``submit_many`` account bitwise-equal job
energy.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles import energy as oracle
from repro.common.errors import (
    ConfigurationError,
    SimulationError,
    ValidationError,
)
from repro.core.queue import SynergyQueue
from repro.engine import BatchResult, KernelBatch, plan_from_sweeps
from repro.hw.device import SimulatedGPU
from repro.hw.specs import NVIDIA_V100
from repro.kernelir.kernel import KernelIR
from repro.metrics.targets import (
    DEADLINE,
    MAX_PERF,
    MIN_EDP,
    MIN_ENERGY,
    SLA_SLACK,
)
from repro.obs.session import TraceSession

pytestmark = pytest.mark.engine

RTOL = 1e-12

#: The target mix every parity case draws from (incl. DEADLINE and SLA).
TARGETS = (
    MIN_EDP,
    MAX_PERF,
    MIN_ENERGY,
    DEADLINE(0.01),
    DEADLINE(0.05),
    SLA_SLACK(1.1),
    SLA_SLACK(1.5),
)


@pytest.fixture(scope="module")
def kernel_pool():
    from repro.apps import get_benchmark

    return [get_benchmark(n).kernel for n in ("gemm", "sobel3", "median")]


@pytest.fixture(scope="module")
def plan(kernel_pool):
    return plan_from_sweeps(NVIDIA_V100, kernel_pool, TARGETS)


def _scalar_replay(queue: SynergyQueue, requests) -> None:
    from repro.metrics.targets import EnergyTarget

    for item in requests:
        if isinstance(item, KernelIR):
            queue.submit(lambda h, k=item: h.parallel_for(k.work_items, k))
        elif isinstance(item[0], EnergyTarget):
            target, kernel = item
            queue.submit(
                target, lambda h, k=kernel: h.parallel_for(k.work_items, k)
            )
        else:
            mem, core, kernel = item
            queue.submit(
                mem, core, lambda h, k=kernel: h.parallel_for(k.work_items, k)
            )
    queue.wait()


def _assert_twin_parity(scalar_gpu: SimulatedGPU, batched_gpu: SimulatedGPU):
    a, b = scalar_gpu.records, batched_gpu.records
    assert len(a) == len(b)
    assert [(r.core_mhz, r.mem_mhz) for r in a] == [
        (r.core_mhz, r.mem_mhz) for r in b
    ]
    assert scalar_gpu._clock_values == batched_gpu._clock_values
    assert (scalar_gpu.core_mhz, scalar_gpu.mem_mhz) == (
        batched_gpu.core_mhz, batched_gpu.mem_mhz
    )
    assert scalar_gpu.clock_set_calls == batched_gpu.clock_set_calls
    np.testing.assert_allclose(
        [r.start_s for r in a], [r.start_s for r in b], rtol=RTOL
    )
    np.testing.assert_allclose(
        [r.end_s for r in a], [r.end_s for r in b], rtol=RTOL
    )
    np.testing.assert_allclose(
        [r.energy_j for r in a], [r.energy_j for r in b], rtol=RTOL
    )
    np.testing.assert_allclose(
        [r.avg_power_w for r in a], [r.avg_power_w for r in b], rtol=RTOL
    )
    np.testing.assert_allclose(
        scalar_gpu._clock_times, batched_gpu._clock_times, rtol=RTOL
    )


# ------------------------------------------------------------ batch assembly


class TestKernelBatch:
    def test_from_requests_accepts_all_submit_forms(self, kernel_pool):
        gemm = kernel_pool[0]
        batch = KernelBatch.from_requests(
            [gemm, (MIN_EDP, gemm), (877, 1200, gemm)]
        )
        assert len(batch) == 3
        assert batch.requests == (None, MIN_EDP, (877, 1200))

    def test_from_requests_rejects_unknown_items(self, kernel_pool):
        with pytest.raises(ValidationError, match="batch items"):
            KernelBatch.from_requests([("not", "a", "request")])

    def test_explicit_clock_validation_runs_at_assembly(self, kernel_pool):
        batch = KernelBatch.from_requests([(877, 123456, kernel_pool[0])])
        with pytest.raises(ConfigurationError, match="unsupported core"):
            batch.validate_explicit_clocks(NVIDIA_V100)


# ------------------------------------------------------------- empty edges


class TestEmptyBatches:
    def test_empty_submit_batch_is_a_wellformed_noop(self):
        trace = TraceSession()
        gpu = SimulatedGPU(NVIDIA_V100)
        queue = SynergyQueue(gpu, trace=trace)
        before = (gpu.clock.now, gpu.clock_set_calls)
        result = queue.submit_batch([])
        assert isinstance(result, BatchResult)
        assert len(result) == 0 and result.fallback is None
        assert result.summary() == {
            "kernels": 0.0,
            "kernel_time_s": 0.0,
            "kernel_energy_j": 0.0,
            "clock_switches": 0.0,
        }
        assert (gpu.clock.now, gpu.clock_set_calls) == before
        assert queue.events == ()
        assert trace.tracer.span_counts().get("engine.batch") == 1
        assert trace.metrics.counter("engine.batches").value == 1

    def test_empty_submit_many_is_a_wellformed_noop(self):
        from repro.slurm.cluster import Cluster
        from repro.slurm.scheduler import Scheduler

        trace = TraceSession()
        cluster = Cluster.build(
            NVIDIA_V100, n_nodes=1, gpus_per_node=1, trace=trace
        )
        scheduler = Scheduler(cluster)
        assert scheduler.submit_many([]) == []
        assert scheduler.jobs == {}
        assert trace.tracer.span_counts().get("slurm.submit_many") == 1


# ---------------------------------------------------------- fallback gates


def _armed_board():
    """A V100 whose first clock set fails once (a transient NVML error)."""
    from repro.faults.plan import FaultPlan, FaultSpec

    gpu = SimulatedGPU(NVIDIA_V100)
    gpu.fault_injector = FaultPlan(
        seed=0,
        specs=(FaultSpec(site="nvml.set_clocks", at_s=0.0, count=1),),
    ).injector()
    return gpu


class TestFallbacks:
    def test_restricted_board_without_switches_stays_fast(self, kernel_pool):
        gpu = SimulatedGPU(NVIDIA_V100)
        gpu.set_api_restriction(True)
        result = SynergyQueue(gpu).submit_batch([kernel_pool[0]] * 3)
        assert result.fallback is None
        assert len(gpu.records) == 3

    def test_restricted_board_with_switches_matches_scalar_error(
        self, kernel_pool, plan
    ):
        requests = [(MIN_EDP, kernel_pool[0])]
        scalar_gpu = SimulatedGPU(NVIDIA_V100)
        scalar_gpu.set_api_restriction(True)
        with pytest.raises(Exception) as scalar_exc:
            _scalar_replay(SynergyQueue(scalar_gpu, plan=plan), requests)
        batched_gpu = SimulatedGPU(NVIDIA_V100)
        batched_gpu.set_api_restriction(True)
        with pytest.raises(Exception) as batched_exc:
            SynergyQueue(batched_gpu, plan=plan).submit_batch(requests)
        assert type(batched_exc.value) is type(scalar_exc.value)
        assert scalar_gpu.records == batched_gpu.records == []

    def test_fault_injector_falls_back(self, kernel_pool):
        gpu = _armed_board()
        result = SynergyQueue(gpu).submit_batch([kernel_pool[0]])
        assert result.fallback == "faults"
        assert len(gpu.records) == 1

    def test_armed_injector_fallback_matches_scalar_twin(
        self, kernel_pool, plan
    ):
        requests = [(t, k) for t in (MIN_EDP, MAX_PERF) for k in kernel_pool]
        scalar_gpu = _armed_board()
        scalar_queue = SynergyQueue(scalar_gpu, plan=plan)
        _scalar_replay(scalar_queue, requests)
        batched_gpu = _armed_board()
        batched_queue = SynergyQueue(batched_gpu, plan=plan)
        result = batched_queue.submit_batch(requests)
        batched_queue.wait()
        assert result.fallback == "faults"
        # The transient clock-set failure fired and was retried on both.
        assert scalar_queue.scaler.retry_count == 1
        assert batched_queue.scaler.retry_count == 1
        _assert_twin_parity(scalar_gpu, batched_gpu)


# ------------------------------------------------------- bulk device APIs


class TestBulkDeviceAPIs:
    def test_apply_clock_plan_requires_ascending_times(self, v100):
        with pytest.raises(SimulationError, match="ascending"):
            v100.apply_clock_plan([1.0, 0.5], [(1523, 877), (1530, 877)])

    def test_apply_clock_plan_rejects_past_times(self, v100):
        v100.set_application_clocks(877, 1523)
        with pytest.raises(SimulationError, match="before the last"):
            v100.apply_clock_plan([-1.0], [(1530, 877)])

    def test_apply_clock_plan_merges_equal_times(self, v100):
        v100.apply_clock_plan(
            [0.5, 0.5, 1.0], [(1523, 877), (1530, 877), (135, 877)]
        )
        assert v100.clocks_at(0.75) == (1530, 877)
        assert (v100.core_mhz, v100.mem_mhz) == (135, 877)

    def test_apply_clock_plan_validates_before_committing(self, v100):
        history = list(v100._clock_values)
        with pytest.raises(ConfigurationError):
            v100.apply_clock_plan([0.5, 1.0], [(1523, 877), (1523, 1)])
        assert v100._clock_values == history

    def test_energy_between_many_matches_scalar(self, v100, kernel_pool):
        """Both queries are the one board integral: bitwise equal to each
        other and to the full-history oracle; the full walk agrees within
        a few ulp."""
        queue = SynergyQueue(v100)
        _scalar_replay(queue, [(877, f, kernel_pool[0]) for f in (1380, 900)])
        t0 = np.asarray([0.0, v100.records[0].end_s])
        t1 = np.asarray([v100.records[0].end_s, v100.clock.now])
        with oracle.single_blas_thread():
            many = v100.energy_between_many(t0, t1)
            scalar = [v100.energy_between(a, b) for a, b in zip(t0, t1)]
            want = [
                oracle.energy_between_many(v100, [a], [b])[0]
                for a, b in zip(t0, t1)
            ]
        assert scalar == want
        assert list(many) == scalar
        walk = [oracle.energy_between(v100, a, b) for a, b in zip(t0, t1)]
        np.testing.assert_allclose(scalar, walk, rtol=RTOL)

    def test_kernel_energies_match_oracle_and_device_check(
        self, v100, kernel_pool
    ):
        queue = SynergyQueue(v100)
        result = queue.submit_batch([(877, 1380, k) for k in kernel_pool])
        with oracle.single_blas_thread():
            per_event = [
                queue.kernel_energy_consumption(e, true_value=True)
                for e in result.events
            ]
            want = [
                oracle.energy_between_many(v100, [e.start_s], [e.end_s])[0]
                for e in result.events
            ]
        assert per_event == want
        walk = [
            oracle.energy_between(v100, e.start_s, e.end_s) for e in result.events
        ]
        np.testing.assert_allclose(per_event, walk, rtol=RTOL)
        other = SynergyQueue(SimulatedGPU(NVIDIA_V100))
        with pytest.raises(ValidationError, match="different device"):
            other.profiler.kernel_energy(result.events[0])


# ------------------------------------------------------ scheduler batching


def _v100_scheduler():
    from repro.slurm.cluster import NVGPUFREQ_GRES, Cluster
    from repro.slurm.plugin import NvGpuFreqPlugin
    from repro.slurm.scheduler import Scheduler

    cluster = Cluster.build(
        NVIDIA_V100, n_nodes=2, gpus_per_node=1, gres={NVGPUFREQ_GRES}
    )
    return Scheduler(cluster, plugins=[NvGpuFreqPlugin()])


def _job_spec(name: str, payload, n_nodes: int = 1):
    from repro.slurm.cluster import NVGPUFREQ_GRES
    from repro.slurm.job import JobSpec

    return JobSpec(
        name=name,
        n_nodes=n_nodes,
        exclusive=True,
        gres=frozenset({NVGPUFREQ_GRES}),
        payload=payload,
    )


class TestSubmitMany:
    def test_batched_accounting_matches_scalar(self, kernel_pool, plan):
        """``submit_many`` + tenant batch payloads vs scalar ``submit`` jobs."""
        from repro.service.shard import TenantBatchPayload

        requests = tuple((t, k) for t in (MIN_EDP, MAX_PERF) for k in kernel_pool)

        def scalar_payload(context):
            summaries = []
            for gpu in context.gpus:
                queue = SynergyQueue(gpu, plan=plan, trace=context.trace)
                _scalar_replay(queue, requests)
                summaries.append(queue.summary())
            return {"gpus": summaries}

        def run(batched: bool):
            scheduler = _v100_scheduler()
            payload = (
                TenantBatchPayload(tenant="t0", requests=requests, plan=plan)
                if batched
                else scalar_payload
            )
            specs = [_job_spec(f"job-{i}", payload) for i in range(3)]
            if batched:
                return scheduler.submit_many(specs)
            return [scheduler.submit(spec) for spec in specs]

        scalar_jobs = run(False)
        batched_jobs = run(True)
        for a, b in zip(scalar_jobs, batched_jobs):
            assert a.state.value == b.state.value == "COMPLETED"
            for field in ("gpu_energy_j", "start_time_s", "end_time_s"):
                assert getattr(b, field) == pytest.approx(
                    getattr(a, field), rel=RTOL
                ), field
            for sa, sb in zip(a.result["gpus"], b.result["gpus"]):
                assert sa.keys() == sb.keys()
                np.testing.assert_allclose(
                    list(sb.values()), list(sa.values()), rtol=RTOL
                )

    def test_accounted_energy_matches_oracle(self, kernel_pool):
        """A job's energy is the board integral over its window, summed
        node-major, bit for bit."""
        from repro.service.shard import TenantBatchPayload

        requests = tuple((877, 1380, k) for k in kernel_pool)
        scheduler = _v100_scheduler()
        with oracle.single_blas_thread():
            (job,) = scheduler.submit_many(
                [_job_spec("job", TenantBatchPayload("t0", requests), n_nodes=2)]
            )
            want = 0.0
            for node in job.nodes:
                for gpu in node.gpus:
                    want += oracle.energy_between_many(
                        gpu, [job.start_time_s], [job.end_time_s]
                    )[0]
        assert job.gpu_energy_j == want

    def test_submit_many_rejects_non_specs(self):
        scheduler = _v100_scheduler()
        with pytest.raises(ValidationError, match="JobSpec"):
            scheduler.submit_many(["nope"])
        assert scheduler.jobs == {}


# ----------------------------------------------------------- observability


class TestBatchResult:
    def test_batch_result_arrays_are_frozen(self, v100, kernel_pool):
        result = SynergyQueue(v100).submit_batch([kernel_pool[0]])
        with pytest.raises(ValueError):
            result.energy_j[0] = 0.0


# -------------------------------------------------------- property suite

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402


@st.composite
def request_streams(draw, explicit_only: bool = False):
    """A random submission stream over the fixed kernel pool.

    Items cover every submit form: bare kernels (skipped when
    ``explicit_only`` — their effective clocks depend on batch order),
    explicit clock pairs from the V100 table, and plan targets including
    DEADLINE and SLA.
    """
    from repro.apps import get_benchmark

    kernels = [get_benchmark(n).kernel for n in ("gemm", "sobel3", "median")]
    table = NVIDIA_V100.core_freqs_mhz
    n = draw(st.integers(1, 12))
    items = []
    for _ in range(n):
        kernel = kernels[draw(st.integers(0, len(kernels) - 1))]
        form = draw(st.integers(1 if explicit_only else 0, 2))
        if form == 0:
            items.append(kernel)
        elif form == 1:
            core = table[draw(st.integers(0, len(table) - 1))]
            items.append((NVIDIA_V100.default_mem_mhz, core, kernel))
        else:
            items.append((TARGETS[draw(st.integers(0, len(TARGETS) - 1))], kernel))
    return items


#: Counters both paths must agree on when traced.
TRACED_COUNTERS = ("queue.kernels_executed", "freq.switches", "predict.plan_lookups")


def _throttle_limit() -> float:
    """A cap between idle and peak, far from any modeled operating point."""
    peak = SimulatedGPU(NVIDIA_V100).default_power_limit_w
    idle = NVIDIA_V100.idle_power_w
    return idle + 0.55 * (peak - idle)


def _top_clock_stream():
    from repro.apps import get_benchmark

    return [
        (NVIDIA_V100.default_mem_mhz, NVIDIA_V100.max_core_mhz,
         get_benchmark(n).kernel)
        for n in ("gemm", "sobel3", "median")
    ]


class TestBatchScalarProperties:
    @given(
        requests=request_streams(),
        capped=st.booleans(),
        trace_scalar=st.booleans(),
        trace_batched=st.booleans(),
    )
    @example(
        requests=_top_clock_stream(), capped=True,
        trace_scalar=True, trace_batched=True,
    )
    @settings(max_examples=25, deadline=None)
    def test_elementwise_parity_with_scalar_path(
        self, plan, requests, capped, trace_scalar, trace_batched
    ):
        """Same records, summaries and counters on either path.

        ``capped`` puts both boards under a power limit, so the vectorized
        throttle scan must pick the per-event clocks; tracing one side only
        checks that tracing observes the physics without perturbing it.
        """
        from repro.analysis.certify import static_operating_point

        limit = _throttle_limit() if capped else None

        def queue(traced: bool) -> SynergyQueue:
            gpu = SimulatedGPU(NVIDIA_V100)
            if limit is not None:
                gpu.set_power_limit(limit, privileged=True)
            return SynergyQueue(
                gpu, plan=plan, trace=TraceSession() if traced else None
            )

        scalar_queue = queue(trace_scalar)
        _scalar_replay(scalar_queue, requests)
        batched_queue = queue(trace_batched)
        result = batched_queue.submit_batch(requests)
        batched_queue.wait()
        assert result.fallback is None
        scalar_gpu, batched_gpu = scalar_queue.gpu, batched_queue.gpu
        _assert_twin_parity(scalar_gpu, batched_gpu)
        s1, s2 = scalar_queue.summary(), batched_queue.summary()
        assert s1.keys() == s2.keys()
        np.testing.assert_allclose(list(s2.values()), list(s1.values()), rtol=RTOL)
        assert batched_gpu.energy_between(
            0.0, batched_gpu.clock.now
        ) == pytest.approx(
            scalar_gpu.energy_between(0.0, scalar_gpu.clock.now), rel=RTOL
        )
        if trace_scalar and trace_batched:
            for name in TRACED_COUNTERS:
                assert (
                    scalar_queue.trace.metrics.counter(name).value
                    == batched_queue.trace.metrics.counter(name).value
                ), name
        if limit is not None:
            # The cap throttles exactly the launches whose application
            # clocks would overdraw it.
            kernels = {k.name: k for k in KernelBatch.from_requests(requests).kernels}
            over = [
                static_operating_point(
                    NVIDIA_V100, kernels[r.kernel_name], core, mem
                )[1] > limit
                for r, core, mem in zip(
                    batched_gpu.records,
                    result.app_core_mhz.tolist(),
                    result.app_mem_mhz.tolist(),
                )
            ]
            assert list(result.core_mhz < result.app_core_mhz) == over

    @given(request_streams(explicit_only=True), st.randoms(use_true_random=False))
    @settings(max_examples=25, deadline=None)
    def test_aggregate_energy_is_permutation_invariant(
        self, plan, requests, rng
    ):
        """Reordering a batch of explicit-request submissions must not
        change the total kernel energy: each record's energy depends only
        on its (kernel, clocks) operating point, never on its neighbours.
        """
        shuffled = list(requests)
        rng.shuffle(shuffled)
        base = SynergyQueue(SimulatedGPU(NVIDIA_V100), plan=plan)
        perm = SynergyQueue(SimulatedGPU(NVIDIA_V100), plan=plan)
        e_base = float(np.sum(base.submit_batch(requests).energy_j))
        e_perm = float(np.sum(perm.submit_batch(shuffled).energy_j))
        assert e_perm == pytest.approx(e_base, rel=1e-9)


class TestSubmitEntryPoints:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_submit_and_submit_many_account_identical_energy(self, plan, seed):
        """One job stream through ``submit`` one by one and through
        ``submit_many`` on fresh clusters: every job's ``gpu_energy_j``
        is bitwise equal, whichever entry point ran it."""
        from repro.apps import get_benchmark
        from repro.service.shard import TenantBatchPayload

        rng = np.random.default_rng(seed)
        kernels = [get_benchmark(n).kernel for n in ("gemm", "sobel3", "median")]
        specs = []
        for i in range(6):
            requests = tuple(
                (TARGETS[rng.integers(len(TARGETS))], kernels[rng.integers(3)])
                for _ in range(int(rng.integers(1, 6)))
            )
            payload = TenantBatchPayload(f"t{i % 2}", requests, plan=plan)
            specs.append(_job_spec(f"job-{i}", payload, int(rng.integers(1, 3))))
        scheduler = _v100_scheduler()
        jobs_a = [scheduler.submit(spec) for spec in specs]
        jobs_b = _v100_scheduler().submit_many(specs)
        energy_a = np.asarray([j.gpu_energy_j for j in jobs_a])
        energy_b = np.asarray([j.gpu_energy_j for j in jobs_b])
        assert [j.state.value for j in jobs_a] == ["COMPLETED"] * 6
        np.testing.assert_array_equal(
            energy_a.view(np.int64), energy_b.view(np.int64)
        )
