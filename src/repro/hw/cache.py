"""Shared per-spec model instances.

:class:`~repro.hw.timing.TimingModel` and :class:`~repro.hw.power.PowerModel`
are immutable functions of a :class:`~repro.hw.specs.GPUSpec`, yet the hot
sweep paths used to rebuild them (including the voltage-curve construction)
on every call. :func:`models_for` hands out one shared pair per spec
*instance* for the lifetime of the process — a sweep session constructs its
models exactly once.

Keys are object identities: specs are frozen dataclasses typically taken
from the module-level catalog, and keeping the spec in the cache value pins
its ``id`` so stale-identity collisions cannot occur.

:func:`evaluate_grid` is the one evaluation of both models over a clock
grid; every sweep-shaped cache entry (1-D sweeps, 2-D grids, the engine's
operating tables) is computed by it.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.hw.power import PowerModel
from repro.hw.specs import GPUSpec
from repro.hw.timing import SweepTiming, TimingModel
from repro.kernelir.kernel import KernelIR

_MODELS: dict[int, tuple[GPUSpec, TimingModel, PowerModel]] = {}
_LOCK = threading.Lock()


def models_for(spec: GPUSpec) -> tuple[TimingModel, PowerModel]:
    """The process-wide ``(TimingModel, PowerModel)`` pair for a spec."""
    entry = _MODELS.get(id(spec))
    if entry is not None and entry[0] is spec:
        return entry[1], entry[2]
    timing = TimingModel(spec)
    power = PowerModel(spec)
    with _LOCK:
        _MODELS[id(spec)] = (spec, timing, power)
    return timing, power


def evaluate_grid(
    spec: GPUSpec,
    kernel: KernelIR,
    core_mhz: float | np.ndarray,
    mem_mhz: float | np.ndarray,
) -> tuple[SweepTiming, np.ndarray]:
    """Timing and board power (W) of ``kernel`` over a clock grid.

    ``core_mhz`` and ``mem_mhz`` broadcast against each other as in
    :meth:`TimingModel.sweep`; the power array has the grid's shape.
    """
    timing_model, power_model = models_for(spec)
    timing = timing_model.sweep(kernel, core_mhz, mem_mhz)
    power = np.asarray(
        power_model.power(
            core_mhz, mem_mhz, timing.core_power_utilization, timing.u_mem
        ),
        dtype=float,
    )
    return timing, power


def clear_model_cache() -> None:
    """Drop all shared model instances (test hook)."""
    with _LOCK:
        _MODELS.clear()
