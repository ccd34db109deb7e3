"""Vectorized virtual-time engine (ROADMAP item 2).

Batched scenario execution: many in-flight kernels advance per NumPy
pass instead of one per Python call. The struct-of-arrays kernel batch
lives in :mod:`repro.engine.batch`, the batched advance in
:mod:`repro.engine.executor`, sweep-compiled frequency plans in
:mod:`repro.engine.payload`, and the wave-vectorized command-graph
executor in :mod:`repro.engine.multirank`. Jobs reach the engine
through :class:`repro.service.shard.TenantBatchPayload`; their energy is
accounted by the scheduler, one board integral per allocated board.

The per-event ``SynergyQueue.submit`` path stays as the reference
semantics, and :func:`execute_batch` replays through it when a board has
an armed fault injector or a restricted board must switch clocks
(``BatchResult.fallback``). ``tests/test_engine.py`` pins the
batched/scalar contract (identical clock plans, times/energies within
rel 1e-12, identical counter aggregates). The golden traces pin both
paths byte-for-byte: ``single-gpu``, ``slurm-faults`` and
``thermal-drift`` submit per event, and ``multi-tenant`` drains through
``submit_batch``.
"""

from repro.engine.batch import KernelBatch
from repro.engine.executor import BatchResult, execute_batch
from repro.engine.payload import plan_from_sweeps

__all__ = [
    "BatchResult",
    "KernelBatch",
    "execute_batch",
    "plan_from_sweeps",
]
