"""Seeded end-to-end scenarios for the golden-trace harness.

Two small but complete runs, each returning a fully populated
:class:`~repro.obs.session.TraceSession`:

- ``single-gpu`` — per-kernel MIN_EDP tuning on one V100 through a live
  predictor, with fine- and coarse-grained energy profiling (including a
  deliberate zero-width window query),
- ``slurm-faults`` — a 4-node exclusive SLURM job running CloverLeaf
  under a compiled MIN_EDP plan with one scheduled NVML clock-set fault,
  through the nvgpufreq plugin and the MPI layer,
- ``thermal-drift`` — the adaptive-plane chaos scenario: an
  :class:`~repro.adapt.controller.AdaptiveController` driven through a
  full degradation-ladder traversal by two injected
  ``hw.thermal_throttle`` windows (see :mod:`repro.adapt.chaos`).

Everything is a pure function of the ``seed`` argument and virtual time:
the exported trace and metrics documents are byte-identical across runs
(asserted by ``tests/test_obs_golden.py``). Scenarios run inside
:func:`~repro.core.sweepcache.scoped_cache` so process-global cache
warm-up cannot leak between invocations.
"""

from __future__ import annotations

from repro.apps.cloverleaf import CloverLeaf
from repro.apps.syclbench.definitions import get_benchmark
from repro.common.errors import ConfigurationError
from repro.core.compiler import SynergyCompiler
from repro.core.predictor import FrequencyPredictor
from repro.core.queue import SynergyQueue
from repro.core.sweepcache import scoped_cache
from repro.experiments.training import make_bundle, microbench_training_set
from repro.faults.plan import FaultPlan, FaultSpec
from repro.hw.device import SimulatedGPU
from repro.hw.specs import NVIDIA_V100
from repro.metrics.targets import MIN_EDP
from repro.mpi.launcher import launch_ranks
from repro.obs.session import (
    TraceSession,
    absorb_cache_report,
    absorb_fault_log,
    absorb_queue,
    absorb_scheduler,
    absorb_service,
)
from repro.slurm.cluster import NVGPUFREQ_GRES, Cluster
from repro.slurm.job import JobSpec
from repro.slurm.plugin import NvGpuFreqPlugin
from repro.slurm.scheduler import Scheduler

#: Kernels exercised by the single-GPU scenario (a compute-bound, a
#: memory-bound and a balanced member of the §8 benchmark suite).
SINGLE_GPU_KERNELS: tuple[str, ...] = ("gemm", "sobel3", "median")


def _train_linear(seed: int):
    """Small deterministic Linear bundle (closed-form fit, no RNG races)."""
    training = microbench_training_set(
        NVIDIA_V100, freq_stride=24, random_count=2
    )
    return make_bundle("Linear", seed=seed).fit(training)


def run_single_gpu_scenario(seed: int = 7) -> TraceSession:
    """Single-GPU MIN_EDP tuning with live prediction and profiling."""
    trace = TraceSession()
    with scoped_cache():
        bundle = _train_linear(seed)
        predictor = FrequencyPredictor(bundle, NVIDIA_V100, trace=trace)
        # Pin the board index: it names the trace tracks and seeds the
        # sensor noise stream, and the process-global auto-index would
        # otherwise differ between runs in one process.
        gpu = SimulatedGPU(NVIDIA_V100, index=0)
        queue = SynergyQueue(gpu, predictor=predictor, trace=trace)
        kernels = [get_benchmark(name).kernel for name in SINGLE_GPU_KERNELS]
        events = []
        for _round in range(2):
            for kernel in kernels:
                events.append(
                    queue.submit(
                        MIN_EDP,
                        lambda h, k=kernel: h.parallel_for(k.work_items, k),
                    )
                )
        # One explicit clock pair, like Listing 2.
        fixed = kernels[0]
        events.append(
            queue.submit(
                NVIDIA_V100.default_mem_mhz,
                int(NVIDIA_V100.core_freqs_mhz[len(NVIDIA_V100.core_freqs_mhz) // 2]),
                lambda h: h.parallel_for(fixed.work_items, fixed),
            )
        )
        # Fine-grained profiling of the first and last kernels, then the
        # coarse-grained lifetime window.
        queue.kernel_energy_consumption(events[0])
        queue.kernel_energy_consumption(events[-1])
        queue.device_energy_consumption()
        # Re-open the window and query immediately: the zero-width path.
        queue.profiler.reset_window()
        queue.device_energy_consumption()
        queue.reset_frequency()
        absorb_queue(trace, queue)
        absorb_cache_report(trace)
    return trace


def run_slurm_faults_scenario(seed: int = 7) -> TraceSession:
    """4-node SLURM CloverLeaf run with one injected NVML clock-set fault."""
    trace = TraceSession()
    with scoped_cache():
        bundle = _train_linear(seed)
        compiler = SynergyCompiler(bundle, NVIDIA_V100)
        app = CloverLeaf(steps=2)
        compiled = compiler.compile(app.timestep_kernels(), [MIN_EDP])
        fault_plan = FaultPlan(
            seed=seed,
            specs=(FaultSpec(site="nvml.set_clocks", at_s=0.0, count=1),),
        )
        cluster = Cluster.build(
            NVIDIA_V100,
            n_nodes=4,
            gpus_per_node=1,
            gres={NVGPUFREQ_GRES},
            fault_plan=fault_plan,
            trace=trace,
        )
        plugin = NvGpuFreqPlugin(trace=trace)
        scheduler = Scheduler(cluster, plugins=[plugin])

        def payload(context):
            comm = launch_ranks(context)
            return app.run(comm, target=MIN_EDP, plan=compiled.plan)

        job = scheduler.submit(
            JobSpec(
                name="cloverleaf-min_edp",
                n_nodes=4,
                exclusive=True,
                gres=frozenset({NVGPUFREQ_GRES}),
                payload=payload,
            )
        )
        trace.gauge("slurm.last_job_energy_j", job.gpu_energy_j or 0.0)
        absorb_scheduler(trace, scheduler)
        assert cluster.fault_injector is not None
        absorb_fault_log(trace, cluster.fault_injector.log)
        absorb_cache_report(trace)
    return trace


def run_thermal_drift_scenario(seed: int = 7) -> TraceSession:
    """The adaptive-plane chaos run, traced end to end."""
    from repro.adapt.chaos import run_thermal_drift_comparison

    trace = TraceSession()
    with scoped_cache():
        run_thermal_drift_comparison(seed=seed, trace=trace)
        absorb_cache_report(trace)
    return trace


def run_multi_tenant_scenario(seed: int = 7) -> TraceSession:
    """A seeded 8-tenant / 4-partition service-plane session.

    A small but complete run of the multi-tenant scheduling plane:
    seeded tenants with mixed priorities/quotas/budgets, a seeded
    arrival stream, four drain cycles through the sharded batched
    schedulers, per-tenant metrics absorbed at the end. Small enough
    for a golden snapshot, rich enough to cover every shard and the
    full admit/drain/account loop (rejection paths are exercised by
    ``tests/test_service.py``).
    """
    from repro.service.loadgen import run_service_session

    trace = TraceSession()
    with scoped_cache():
        service = run_service_session(
            seed=seed,
            n_tenants=8,
            n_submissions=128,
            n_partitions=4,
            n_cycles=4,
            trace=trace,
        )
        absorb_service(trace, service)
        absorb_cache_report(trace)
    return trace


#: Scenario registry: name → runner.
SCENARIOS = {
    "single-gpu": run_single_gpu_scenario,
    "slurm-faults": run_slurm_faults_scenario,
    "thermal-drift": run_thermal_drift_scenario,
    "multi-tenant": run_multi_tenant_scenario,
}


def run_scenario(name: str, seed: int = 7) -> TraceSession:
    """Run one named scenario; raises on unknown names."""
    if name not in SCENARIOS:
        raise ConfigurationError(
            f"unknown scenario {name!r}; known: {sorted(SCENARIOS)}"
        )
    return SCENARIOS[name](seed=seed)
