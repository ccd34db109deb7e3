"""Graph execution: bare communicators, the result type and the facade.

:func:`run_graph` runs a :class:`CommandGraph` on the wave-vectorized
multi-rank engine (:func:`repro.engine.multirank.execute_graph`), the
one graph executor. Kernel nodes take explicit clocks from the global
plan with redundancy-skipped switches and the §4.4 overhead; transfer
nodes advance only the dependency frontier — halo traffic rides the
network while the GPUs compute, which is exactly the
communication/compute overlap the graph scheduler exists to expose.
Parity with a per-rank SYnergy-queue walk (``tests/oracles/graph.py``)
is pinned by ``tests/test_distributed.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.clock import VirtualClock
from repro.common.errors import ValidationError
from repro.core.compiler import GlobalFrequencyPlan
from repro.core.frequency import DEFAULT_SWITCH_OVERHEAD_S
from repro.distributed.graph import CommandGraph
from repro.hw.device import SimulatedGPU
from repro.hw.specs import GPUSpec
from repro.mpi.comm import SimulatedComm


def build_comm(
    spec: GPUSpec,
    n_ranks: int,
    *,
    ranks_per_node: int = 4,
    injector=None,
) -> SimulatedComm:
    """A bare communicator for graph runs: one board per rank.

    Each rank gets its own virtual clock (ranks progress independently
    between collectives); ranks pack onto nodes ``ranks_per_node`` at a
    time, which the network model prices (intra-node vs inter-node vs
    inter-group links).
    """
    if n_ranks <= 0:
        raise ValidationError(f"need at least one rank ({n_ranks})")
    if ranks_per_node <= 0:
        raise ValidationError(f"ranks_per_node must be positive ({ranks_per_node})")
    gpus = [
        SimulatedGPU(spec, clock=VirtualClock(), index=r) for r in range(n_ranks)
    ]
    node_of_rank = [r // ranks_per_node for r in range(n_ranks)]
    return SimulatedComm(gpus, node_of_rank, injector=injector)


@dataclass(frozen=True)
class ExecutionResult:
    """Outcome of one graph execution, per node and per rank.

    ``start_s``/``finish_s`` are indexed by node id (for transfer nodes,
    ``start_s`` is the dependency-ready time — transfers never occupy the
    GPU).
    """

    start_s: np.ndarray
    finish_s: np.ndarray
    rank_time_s: np.ndarray
    rank_energy_j: np.ndarray
    rank_switches: np.ndarray
    completion_s: float
    n_kernels: int
    n_transfers: int

    def __post_init__(self) -> None:
        for arr in (
            self.start_s, self.finish_s, self.rank_time_s,
            self.rank_energy_j, self.rank_switches,
        ):
            arr.setflags(write=False)

    @property
    def total_energy_j(self) -> float:
        """Whole-job compute energy across all ranks."""
        return float(self.rank_energy_j.sum())

    def summary(self) -> dict[str, float]:
        """Aggregate totals, keyed like the queue summaries."""
        return {
            "ranks": float(len(self.rank_time_s)),
            "kernels": float(self.n_kernels),
            "transfers": float(self.n_transfers),
            "completion_s": self.completion_s,
            "kernel_energy_j": self.total_energy_j,
            "clock_switches": float(self.rank_switches.sum()),
        }


def run_graph(
    graph: CommandGraph,
    comm: SimulatedComm,
    plan: GlobalFrequencyPlan,
    *,
    switch_overhead_s: float = DEFAULT_SWITCH_OVERHEAD_S,
) -> ExecutionResult:
    """Execute a graph on the multi-rank engine, without touching the boards.

    Power-capped boards throttle like the single-queue engine's boards,
    mixed board specs are priced per spec, and the communicator's fault
    plane is polled at every gather (a dead rank or node raises out of
    the collective). A board carrying its own fault injector, a clock
    switch on an API-restricted board, or a clock pair a board does not
    support is rejected (see :func:`repro.engine.multirank.execute_graph`).
    """
    from repro.engine.multirank import execute_graph

    return execute_graph(graph, comm, plan, switch_overhead_s=switch_overhead_s)
