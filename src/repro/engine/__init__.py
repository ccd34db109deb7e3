"""Vectorized virtual-time engine (ROADMAP item 2).

Batched scenario execution: many in-flight kernels (and many jobs)
advance per NumPy pass instead of one per Python call. The struct-of-
arrays batch representations live in :mod:`repro.engine.batch`, the
batched advance in :mod:`repro.engine.executor`, and the declarative
job payloads plus per-node energy reductions in
:mod:`repro.engine.payload`.

The per-event scalar path stays intact as the reference implementation:
``tests/test_engine.py`` pins the batched/scalar contract (identical
clock plans, times/energies within rel 1e-12, identical counter
aggregates), and the golden traces keep replaying through the scalar
path byte-for-byte.
"""

from repro.engine.batch import JobBatch, KernelBatch
from repro.engine.executor import BatchResult, execute_batch
from repro.engine.payload import (
    KernelBatchPayload,
    board_energies,
    plan_from_sweeps,
)

__all__ = [
    "BatchResult",
    "JobBatch",
    "KernelBatch",
    "KernelBatchPayload",
    "board_energies",
    "execute_batch",
    "plan_from_sweeps",
]
