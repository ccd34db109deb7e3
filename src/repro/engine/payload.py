"""Frequency plans for the batched engine, compiled from measured sweeps.

:func:`plan_from_sweeps` compiles a :class:`FrequencyPlan` directly from
measured sweeps (the §6.2 search on ground truth instead of model
predictions), which lets scenarios use DEADLINE/SLA targets without
training a predictor. The production job payload that drives the engine
is :class:`repro.service.shard.TenantBatchPayload`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.compiler import FrequencyPlan
from repro.experiments.sweep import sweep_kernel
from repro.hw.specs import GPUSpec
from repro.kernelir.kernel import KernelIR
from repro.metrics.targets import EnergyTarget


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
