"""Scheduler-facing pieces of the batched engine.

:class:`KernelBatchPayload` is a job payload (batch-script body) that
drives every allocated GPU through one :class:`KernelBatch` via
:meth:`SynergyQueue.submit_batch`. :func:`plan_from_sweeps` compiles a
:class:`FrequencyPlan` directly from measured sweeps (the §6.2 search on
ground truth instead of model predictions), which lets scenarios use
DEADLINE/SLA targets without training a predictor.
:func:`board_energies` is the per-node accounting reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.core.compiler import FrequencyPlan
from repro.core.frequency import DEFAULT_SWITCH_OVERHEAD_S
from repro.core.queue import SynergyQueue
from repro.experiments.sweep import sweep_kernel
from repro.hw.specs import GPUSpec
from repro.kernelir.kernel import KernelIR
from repro.metrics.targets import EnergyTarget
from repro.slurm.job import JobContext


def plan_from_sweeps(
    spec: GPUSpec,
    kernels: Sequence[KernelIR],
    targets: Iterable[EnergyTarget],
    *,
    cache: object | None = None,
) -> FrequencyPlan:
    """Build a frequency plan from measured sweeps (no predictor).

    For every ``(kernel, target)`` pair the target's §6.2 search runs on
    the kernel's measured frequency sweep; the winning core clock lands
    in the plan at the device's default memory clock (the sweep's memory
    operating point). Deterministic and exact, so batched/scalar parity
    scenarios can use DEADLINE and SLA targets without a trained model.
    """
    target_list = list(targets)
    entries: dict[tuple[str, str], tuple[int, int]] = {}
    for kernel in kernels:
        sweep = sweep_kernel(spec, kernel, cache=cache)
        for target in target_list:
            idx = target.resolve_index(
                sweep.freqs_mhz, sweep.time_s, sweep.energy_j, sweep.default_index
            )
            entries[(kernel.name, target.name)] = (
                spec.default_mem_mhz,
                int(sweep.freqs_mhz[idx]),
            )
    return FrequencyPlan(device_name=spec.name, entries=entries)


@dataclass(frozen=True)
class KernelBatchPayload:
    """Job payload submitting one kernel batch per allocated GPU.

    ``requests`` holds submit-style items (bare :class:`KernelIR`,
    ``(EnergyTarget, kernel)`` or ``(mem_mhz, core_mhz, kernel)``); each
    GPU runs them through :meth:`SynergyQueue.submit_batch`. Returns
    per-GPU queue summaries.
    """

    requests: tuple
    plan: FrequencyPlan | None = None
    switch_overhead_s: float = DEFAULT_SWITCH_OVERHEAD_S

    def __call__(self, context: JobContext) -> dict[str, object]:
        from repro.engine.batch import KernelBatch

        # Assemble the batch once; every allocated GPU replays the same
        # immutable struct-of-arrays submission stream.
        batch = KernelBatch.from_requests(self.requests)
        summaries = []
        for gpu in context.gpus:
            queue = SynergyQueue(
                gpu,
                plan=self.plan,
                switch_overhead_s=self.switch_overhead_s,
                trace=context.trace,
            )
            queue.submit_batch(batch)
            queue.wait()
            summaries.append(queue.summary())
        return {"gpus": summaries}


def board_energies(gpus, t0_s: float, t1_s: float) -> np.ndarray:
    """True board energy (J) per GPU over one accounting window.

    One interval-table query per board
    (:meth:`SimulatedGPU.energy_between_many`): the window integrates
    against only the timeline intervals it covers, so its cost does not
    grow with the board's history. The scalar accounting loop
    (:meth:`Scheduler._account_energy`) integrates the same windows by
    walking the segments inside them.
    """
    window_t0 = np.asarray([t0_s], dtype=float)
    window_t1 = np.asarray([t1_s], dtype=float)
    return np.asarray(
        [float(gpu.energy_between_many(window_t0, window_t1)[0]) for gpu in gpus],
        dtype=float,
    )
