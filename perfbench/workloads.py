"""The benchmark's three workloads.

Each workload is built in two steps. ``setup`` makes the seeded inputs
and does the warm-up that users pay once per process (imports, sweeps,
fleet or planning tables). ``run_op`` then runs one end-to-end operation
and returns an :class:`OpResult` with its host time, its simulated
outcome and the result of its output checks. Every operation of a run
sees the same state, so operations are repeatable and their host times
comparable.

Host times are what the simulator costs on the machine running it.
Simulated values are what the modelled GPUs and cluster did; they are a
pure function of the seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.apps import CloverLeaf, MiniWeather, get_benchmark, iter_benchmarks
from repro.common.rng import derive_seed, make_rng
from repro.core.compiler import SynergyCompiler, plan_global_frequencies
from repro.core.frequency import DEFAULT_SWITCH_OVERHEAD_S
from repro.core.models import EnergyModelBundle
from repro.core.predictor import FrequencyPredictor
from repro.distributed import build_comm, build_stencil_graph, run_graph
from repro.engine.payload import plan_from_sweeps
from repro.experiments.scaling import FIG10_TARGETS, GPUS_PER_NODE
from repro.experiments.sweep import sweep_kernel
from repro.experiments.training import microbench_training_set
from repro.hw.specs import NVIDIA_A100, NVIDIA_V100
from repro.kernelir.microbench import generate_microbenchmarks
from repro.metrics.targets import MAX_PERF, MIN_EDP
from repro.mpi.launcher import launch_ranks
from repro.service.loadgen import (
    DEFAULT_KERNELS,
    FULL_PARTITIONS,
    FULL_TENANTS,
    baseline_energies,
    seeded_tenants,
)
from repro.service.plane import SchedulingService
from repro.service.store import fold_events
from repro.slurm.cluster import NVGPUFREQ_GRES, Cluster
from repro.slurm.job import JobSpec, JobState
from repro.slurm.plugin import NvGpuFreqPlugin
from repro.slurm.scheduler import Scheduler

_clock = time.perf_counter


@dataclass
class OpResult:
    """One end-to-end operation: host cost, simulated outcome, checks."""

    host_s: float
    #: Units of work the operation checked, and how many failed.
    attempted: int
    failed: int
    #: Host-time figures of the workload (besides ``host_s``).
    host: dict[str, float] = field(default_factory=dict)
    #: Simulated figures: deterministic for a seed.
    sim: dict[str, float] = field(default_factory=dict)
    #: Descriptions of failed checks.
    problems: list[str] = field(default_factory=list)
    #: ``host_s`` scaled to the reference machine speed (set by the runner).
    ref_s: float = 0.0


class Pipeline:
    """The paper's cold deployment path on the V100.

    Train on seeded micro-benchmarks, fit the default model bundle,
    compile the CloverLeaf and MiniWeather timesteps for the Fig. 10
    targets, run the Fig. 10 weak-scaling jobs through SLURM with the
    nvgpufreq plugin, and predict MIN_EDP clocks for the held-out
    sycl-bench kernels.
    """

    name = "pipeline"
    #: Frequency-table stride and random-mix count of the training set.
    FREQ_STRIDE = 16
    RANDOM_MIXES = 8
    GPU_COUNTS = (4, 16, 64)
    STEPS = 2

    def setup(self, seed: int) -> None:
        self.spec = NVIDIA_V100
        self.microbenchmarks = generate_microbenchmarks(
            seed=seed, random_count=self.RANDOM_MIXES
        )
        self.apps = (CloverLeaf(steps=self.STEPS), MiniWeather(steps=self.STEPS))
        # Warm-up: the training sweeps, and the measured sweeps of the
        # held-out kernels (the oracle for the prediction check).
        microbench_training_set(
            self.spec, freq_stride=self.FREQ_STRIDE, kernels=self.microbenchmarks
        )
        self.heldout = [
            (bench.kernel, sweep_kernel(self.spec, bench.kernel))
            for bench in iter_benchmarks()
        ]

    def run_op(self) -> OpResult:
        t0 = _clock()
        training = microbench_training_set(
            self.spec, freq_stride=self.FREQ_STRIDE, kernels=self.microbenchmarks
        )
        bundle = EnergyModelBundle().fit(training)
        compiler = SynergyCompiler(bundle, self.spec)
        energy = {"default": 0.0, MIN_EDP.name: 0.0}
        problems: list[str] = []
        jobs = 0
        for app in self.apps:
            plan = compiler.compile(list(app.timestep_kernels()), FIG10_TARGETS).plan
            for count in self.GPU_COUNTS:
                n_nodes = count // GPUS_PER_NODE
                cluster = Cluster.build(
                    self.spec, n_nodes=n_nodes, gpus_per_node=GPUS_PER_NODE,
                    gres={NVGPUFREQ_GRES},
                )
                scheduler = Scheduler(cluster, plugins=[NvGpuFreqPlugin()])
                for target in (None, *FIG10_TARGETS):
                    label = target.name if target else "default"
                    job = scheduler.submit(
                        JobSpec(
                            name=f"{app.name}-{count}-{label}",
                            n_nodes=n_nodes,
                            exclusive=True,
                            gres=frozenset({NVGPUFREQ_GRES}),
                            payload=lambda ctx, t=target, a=app, p=plan: a.run(
                                launch_ranks(ctx), target=t, plan=p
                            ),
                        )
                    )
                    jobs += 1
                    problem = _job_problem(job, cluster, self.spec)
                    if problem:
                        problems.append(problem)
                        continue
                    if count == self.GPU_COUNTS[-1] and label in energy:
                        energy[label] += job.result.gpu_energy_j
        predictor = FrequencyPredictor(bundle, self.spec)
        apes = []
        for kernel, sweep in self.heldout:
            index = predictor.predict_index(kernel, MIN_EDP)
            if not 0 <= index < len(sweep.freqs_mhz):
                problems.append(f"{kernel.name}: MIN_EDP clock index {index}")
                continue
            best = sweep.objective_value(MIN_EDP, sweep.resolve(MIN_EDP))
            apes.append(abs(sweep.objective_value(MIN_EDP, index) - best) / best)
        host_s = _clock() - t0
        return OpResult(
            host_s=host_s,
            attempted=jobs + len(self.heldout),
            failed=len(problems),
            host={"pipeline_s": host_s},
            sim={
                "pipeline_saved_frac": 1.0 - energy[MIN_EDP.name] / energy["default"],
                "pipeline_edp_ape_pct": 100.0 * float(np.mean(apes)),
            },
            problems=problems,
        )


def _job_problem(job, cluster, spec) -> str | None:
    """Why a Fig. 10 job fails its check, or None.

    The job must be COMPLETED, and the plugin epilogue must leave every
    board at default clocks with the clock API restricted again.
    """
    if job.state is not JobState.COMPLETED:
        return f"{job.spec.name}: {job.state.value} ({job.error})"
    for node in cluster.nodes:
        for gpu in node.gpus:
            if (gpu.core_mhz, gpu.mem_mhz) != (
                spec.default_core_mhz, spec.default_mem_mhz
            ) or not gpu.api_restricted:
                return (
                    f"{job.spec.name}: {node.name} gpu{gpu.index} left at "
                    f"{gpu.core_mhz}/{gpu.mem_mhz} MHz, "
                    f"restricted={gpu.api_restricted}"
                )
    return None


class Service:
    """One long multi-tenant session, drained over many cycles.

    64 seeded tenants, seeded open-loop arrivals (exponential
    inter-arrival in virtual time), admission, and one drain per cycle.
    The arrival stream, fleet and plan are built exactly as
    :func:`repro.service.loadgen.run_service_session` builds them, so a
    session here writes the same job store as that function.
    """

    name = "service"
    SUBMISSIONS = 40_000
    CYCLES = 48
    MEAN_INTERARRIVAL_S = 0.05

    def setup(self, seed: int) -> None:
        self.spec = NVIDIA_V100
        self.tenants = seeded_tenants(FULL_TENANTS, seed)
        self.kernels = [get_benchmark(name).kernel for name in DEFAULT_KERNELS]
        target_by_name = {t.target.name: t.target for t in self.tenants}
        target_by_name[MAX_PERF.name] = MAX_PERF
        self.plan = plan_from_sweeps(
            self.spec,
            self.kernels,
            [target_by_name[n] for n in sorted(target_by_name)],
        )
        self.baseline_j = baseline_energies(self.spec, self.kernels)
        rng = make_rng(derive_seed("service.loadgen", seed))
        n = self.SUBMISSIONS
        self.arrival_s = np.cumsum(rng.exponential(self.MEAN_INTERARRIVAL_S, size=n))
        self.tenant_idx = rng.integers(0, len(self.tenants), size=n)
        self.kernel_idx = rng.integers(0, len(self.kernels), size=n)
        self.edges = np.linspace(0, n, self.CYCLES + 1).astype(int)

    def session(self) -> tuple[SchedulingService, list[float]]:
        """Run the session; returns the plane and host seconds per cycle."""
        service = SchedulingService(
            self.spec, n_partitions=FULL_PARTITIONS, plan=self.plan,
            baseline_j=self.baseline_j,
        )
        for tenant in self.tenants:
            service.register(tenant)
        names = [t.name for t in self.tenants]
        cycle_s = []
        for c in range(self.CYCLES):
            c0 = _clock()
            lo, hi = int(self.edges[c]), int(self.edges[c + 1])
            for i in range(lo, hi):
                service.submit(
                    names[self.tenant_idx[i]],
                    self.kernels[self.kernel_idx[i]],
                    float(self.arrival_s[i]),
                )
            if hi > lo:
                service.drain(float(self.arrival_s[hi - 1]))
            cycle_s.append(_clock() - c0)
        return service, cycle_s

    def run_op(self) -> OpResult:
        t0 = _clock()
        service, cycle_s = self.session()
        host_s = _clock() - t0
        report = service.report()
        cluster = report["cluster"]
        problems = _service_problems(service, report, self.SUBMISSIONS)
        failed_batches = sum(
            e["n"] for e in service.store.select("batch")
            if e["state"] != JobState.COMPLETED.value
        )
        q = max(self.CYCLES // 4, 1)
        per_sub = np.array(cycle_s) / np.diff(self.edges)
        return OpResult(
            host_s=host_s,
            attempted=self.SUBMISSIONS,
            failed=self.SUBMISSIONS if problems else failed_batches,
            host={
                "service_sub_per_s": self.SUBMISSIONS / host_s,
                "service_cost_growth": float(per_sub[-q:].mean() / per_sub[:q].mean()),
            },
            sim={
                "service_saved_frac": cluster["saved_j"]
                / cluster["baseline_kernel_energy_j"],
                "service_p99_latency_s": cluster["p99_latency_s"],
                "service_reject_frac": cluster["rejections"] / self.SUBMISSIONS,
            },
            problems=problems,
        )


def _service_problems(service, report, attempted: int) -> list[str]:
    """Accounting closure and the job-store fold against the live plane."""
    cluster = report["cluster"]
    problems = []
    if cluster["submissions"] + cluster["rejections"] != attempted:
        problems.append(
            f"admitted {cluster['submissions']} + rejected "
            f"{cluster['rejections']} != attempted {attempted}"
        )
    if cluster["drained"] != cluster["submissions"]:
        problems.append(
            f"drained {cluster['drained']} != admitted {cluster['submissions']}"
        )
    folded = fold_events(service.store.events)
    rows = {r["tenant"]: r for r in report["tenants"]}
    if set(folded) != set(rows):
        problems.append(f"store folds {len(folded)} tenants, plane has {len(rows)}")
    for name, state in folded.items():
        row = rows.get(name)
        if row is None:
            continue
        for key in ("pending", "admitted", "rejected", "drained"):
            if state[key] != row[key]:
                problems.append(f"{name}: store {key} {state[key]} != plane {row[key]}")
        store_j, plane_j = state["energy_j"], row["energy_j"]
        if not math.isclose(store_j, plane_j, rel_tol=1e-12, abs_tol=1e-12):
            problems.append(f"{name}: store energy {store_j} J != plane {plane_j} J")
    return problems


class Distributed:
    """Weak scaling of the halo stencil command graph on the A100.

    At each rank count: build the communicator and the graph, plan global
    frequencies (and the all-MAX_PERF baseline), and run both plans
    through the multi-rank engine. The workload has no seeded input.
    """

    name = "distributed"
    RANKS = (256, 512, 1024, 2048, 4096)
    STEPS = 4
    SLA_FACTOR = 1.25

    def setup(self, seed: int) -> None:
        self.spec = NVIDIA_A100
        # Warm-up: sweeps of the stencil kernels and the engine's tables.
        self._point(self.RANKS[0])

    def _point(self, n_ranks: int):
        comm = build_comm(self.spec, n_ranks)
        graph = build_stencil_graph(comm, steps=self.STEPS)
        kernels = graph.rank_kernels()
        plan = plan_global_frequencies(
            self.spec, kernels, sla_factor=self.SLA_FACTOR, cache=True
        )
        baseline = plan_global_frequencies(
            self.spec, kernels, sla_factor=self.SLA_FACTOR,
            objective="MAX_PERF", cache=True,
        )
        result = run_graph(graph, comm, plan)
        ref = run_graph(graph, build_comm(self.spec, n_ranks), baseline)
        return graph, plan, result, ref

    def run_op(self) -> OpResult:
        t0 = _clock()
        problems = []
        nodes = 0
        for n_ranks in self.RANKS:
            graph, plan, result, ref = self._point(n_ranks)
            nodes += len(graph.nodes)
            budget = plan.sla_factor * ref.completion_s * (1 + 1e-9)
            if not graph.check_edges():
                problems.append(f"{n_ranks} ranks: command graph misses a dependency")
            elif not result.total_energy_j < ref.total_energy_j:
                problems.append(
                    f"{n_ranks} ranks: {result.total_energy_j} J not below "
                    f"MAX_PERF {ref.total_energy_j} J"
                )
            elif result.completion_s > budget + DEFAULT_SWITCH_OVERHEAD_S:
                problems.append(
                    f"{n_ranks} ranks: completion {result.completion_s} s over "
                    f"SLA {budget} s"
                )
        host_s = _clock() - t0
        return OpResult(
            host_s=host_s,
            attempted=len(self.RANKS),
            failed=len(problems),
            host={"dist_nodes_per_s": nodes / host_s},
            sim={
                "dist_saved_frac": 1.0 - result.total_energy_j / ref.total_energy_j,
                "dist_sla_ratio": result.completion_s / ref.completion_s,
            },
            problems=problems,
        )


WORKLOADS = {w.name: w for w in (Pipeline, Service, Distributed)}
