"""Reference graph executor: a per-rank walk through SYnergy queues.

The parity oracle for :func:`repro.distributed.runner.run_graph`. One
:class:`~repro.core.queue.SynergyQueue` per rank; every kernel node is a
real per-event submission (explicit clocks from the global plan,
redundancy-skipped switches with the §4.4 overhead, throttled operating
points on capped boards, per-event energy records). Transfer nodes only
advance the dependency frontier, and gather nodes poll the communicator's
fault plane at their ready time. Unlike the engine, the walk commits
events, records and clock advances to the communicator's boards.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ValidationError
from repro.core.frequency import DEFAULT_SWITCH_OVERHEAD_S
from repro.core.queue import SynergyQueue
from repro.distributed import GATHER, HALO, KERNEL, ExecutionResult


def run_graph(
    graph, comm, plan, *, switch_overhead_s: float = DEFAULT_SWITCH_OVERHEAD_S
) -> ExecutionResult:
    """Execute ``graph`` node by node in id (topological) order."""
    if comm.size != graph.n_ranks:
        raise ValidationError(
            f"graph spans {graph.n_ranks} ranks; communicator has {comm.size}"
        )
    queues = [
        SynergyQueue(gpu, switch_overhead_s=switch_overhead_s)
        for gpu in comm.gpus
    ]
    n = len(graph.nodes)
    start_s = np.zeros(n)
    finish_s = np.zeros(n)
    for node in graph.nodes:
        ready = 0.0
        for dep in node.deps:
            if finish_s[dep] > ready:
                ready = float(finish_s[dep])
        if node.kind == KERNEL:
            kernel = node.kernel
            gpu = comm.gpus[node.rank]
            if ready > gpu.clock.now:
                gpu.clock.advance_to(ready)
            mem, core = plan.clocks_for(node.rank, kernel.name)
            event = queues[node.rank].submit(
                mem, core, lambda h, k=kernel: h.parallel_for(k.work_items, k)
            )
            start_s[node.nid] = event.start_s
            finish_s[node.nid] = event.end_s
        else:
            if node.kind == GATHER and comm.injector is not None:
                comm._check_faults(ready)
            start_s[node.nid] = ready
            finish_s[node.nid] = ready + node.cost_s
    rank_time = np.asarray([g.clock.now for g in comm.gpus])
    counts = graph.counts()
    return ExecutionResult(
        start_s=start_s,
        finish_s=finish_s,
        rank_time_s=rank_time,
        rank_energy_j=np.asarray(
            [q.summary()["kernel_energy_j"] for q in queues]
        ),
        rank_switches=np.asarray(
            [q.scaler.switch_count for q in queues], dtype=int
        ),
        completion_s=float(max(finish_s.max(initial=0.0), rank_time.max())),
        n_kernels=counts.get(KERNEL, 0),
        n_transfers=counts.get(HALO, 0) + counts.get(GATHER, 0),
    )
