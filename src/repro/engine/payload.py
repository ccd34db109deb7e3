"""Scheduler-facing pieces of the batched engine.

:class:`KernelBatchPayload` is a job payload (batch-script body) that
drives every allocated GPU through one :class:`KernelBatch`, either via
the vectorized :meth:`SynergyQueue.submit_batch` fast path or via the
per-event scalar reference loop — the two modes the engine differential
contract compares. :func:`plan_from_sweeps` compiles a
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
    ``(EnergyTarget, kernel)`` or ``(mem_mhz, core_mhz, kernel)``).
    With ``batched=True`` each GPU runs through
    :meth:`SynergyQueue.submit_batch`; with ``batched=False`` through the
    per-event scalar loop — same requests, same clocks, same physics, so
    twin clusters running the two modes must agree (the engine
    differential contract). Returns per-GPU queue summaries.
    """

    requests: tuple
    plan: FrequencyPlan | None = None
    switch_overhead_s: float = DEFAULT_SWITCH_OVERHEAD_S
    batched: bool = True

    def __call__(self, context: JobContext) -> dict[str, object]:
        from repro.engine.batch import KernelBatch

        # Assemble the batch once; every allocated GPU replays the same
        # immutable struct-of-arrays submission stream.
        batch = KernelBatch.from_requests(self.requests) if self.batched else None
        summaries = []
        for gpu in context.gpus:
            queue = SynergyQueue(
                gpu,
                plan=self.plan,
                switch_overhead_s=self.switch_overhead_s,
                trace=context.trace,
                validate=context.validator,
            )
            if self.batched:
                queue.submit_batch(batch)
            else:
                for item in self.requests:
                    if isinstance(item, KernelIR):
                        queue.submit(
                            lambda h, k=item: h.parallel_for(k.work_items, k)
                        )
                    elif len(item) == 2:
                        target, kernel = item
                        queue.submit(
                            target,
                            lambda h, k=kernel: h.parallel_for(k.work_items, k),
                        )
                    else:
                        mem, core, kernel = item
                        queue.submit(
                            mem,
                            core,
                            lambda h, k=kernel: h.parallel_for(k.work_items, k),
                        )
            queue.wait()
            summaries.append(queue.summary())
        return {"mode": "batched" if self.batched else "scalar", "gpus": summaries}


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
