"""Wave-vectorized execution of distributed command graphs.

The scalar reference (:func:`repro.distributed.runner.run_graph_scalar`)
walks a :class:`~repro.distributed.graph.CommandGraph` node by node
through per-rank SYnergy queues. This module evaluates the identical
recurrence in NumPy, one *wave* (builder call) at a time:

- per-rank clock walk, in the scalar path's exact float order —
  ``start = max(rank_clock, ready)``, ``rank_clock' = start +
  max(duration, OH·switch)`` (``a + max(b, c)`` equals
  ``max(a + b, a + c)`` bitwise by monotonicity of ``+``),
- the dependency frontier as one finish array indexed by node id,
  gathered through per-wave padded dependency matrices,
- kernel durations/powers from the batched engine's memoized operating
  tables (:func:`repro.engine.executor.operating_table`) — the same
  columns the single-queue fast path uses, so sweep-cache entries are
  shared,
- switch decisions replayed statically: the per-rank clock-request
  sequence is known at graph compile time, so redundancy skipping is a
  pure prefix walk.

Communication costs were computed once at graph build and are shared
with the scalar path, so comm timelines agree bitwise; kernel physics
agree within rel 1e-12 (the vectorized sweep vs scalar ``execute``, the
same contract as the single-queue engine). The whole computation is
*pure* — boards, queues and clocks are left untouched — which is what
lets the weak-scaling benchmark sweep thousands of ranks in milliseconds
and ``tests/test_distributed.py`` replay both paths on one communicator.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ValidationError
from repro.core.compiler import GlobalFrequencyPlan
from repro.core.frequency import DEFAULT_SWITCH_OVERHEAD_S
from repro.distributed.graph import GATHER, HALO, KERNEL, CommandGraph
from repro.engine.executor import operating_table


def _dep_matrix(nodes, sentinel: int) -> np.ndarray:
    """Dependency ids padded to a rectangle; ``sentinel`` rows read 0.0."""
    width = max((len(n.deps) for n in nodes), default=0)
    width = max(width, 1)
    mat = np.full((len(nodes), width), sentinel, dtype=np.int64)
    for i, node in enumerate(nodes):
        if node.deps:
            mat[i, : len(node.deps)] = node.deps
    return mat


def execute_graph_batched(
    graph: CommandGraph,
    comm,
    plan: GlobalFrequencyPlan,
    *,
    switch_overhead_s: float = DEFAULT_SWITCH_OVERHEAD_S,
):
    """Evaluate a command graph in bulk; returns an ``ExecutionResult``.

    Preconditions (the :func:`repro.distributed.runner.run_graph` facade
    enforces them and falls back to the scalar reference otherwise): no
    fault injector, no power caps, homogeneous board specs.
    """
    from repro.distributed.runner import ExecutionResult

    gpus = comm.gpus
    if comm.size != graph.n_ranks:
        raise ValidationError(
            f"graph spans {graph.n_ranks} ranks; communicator has {comm.size}"
        )
    spec = gpus[0].spec
    core_index = {int(f): i for i, f in enumerate(spec.core_freqs_mhz)}
    oh = float(switch_overhead_s)

    # --- static precompute: per-kernel-node physics and switch flags ----
    n = len(graph.nodes)
    kernel_nodes = [node for node in graph.nodes if node.kind == KERNEL]
    tables: dict[tuple[int, int], tuple] = {}
    time_of = np.zeros(n)
    power_of = np.zeros(n)
    switch_of = np.zeros(n, dtype=bool)
    current = [(g.core_mhz, g.mem_mhz) for g in gpus]
    for node in kernel_nodes:
        kernel = node.kernel
        mem, core = plan.clocks_for(node.rank, kernel.name)
        key = (id(kernel), mem)
        tab = tables.get(key)
        if tab is None:
            tab = operating_table(gpus[node.rank], kernel, float(mem))
            tables[key] = tab
        try:
            ci = core_index[int(core)]
        except KeyError:
            raise ValidationError(
                f"core clock {core} MHz not in {spec.name}'s table"
            ) from None
        time_of[node.nid] = tab[0][ci]
        power_of[node.nid] = tab[3][ci]
        # Redundancy-skipped switch walk, replayed statically: the scaler
        # changes clocks only when the request differs from the board.
        switch_of[node.nid] = (core, mem) != current[node.rank]
        current[node.rank] = (core, mem)

    # --- the wave walk ---------------------------------------------------
    finish = np.zeros(n + 1)  # slot n: padding sentinel, reads 0.0
    start_s = np.zeros(n)
    clock_now = np.asarray([g.clock.now for g in gpus])
    rank_energy = np.zeros(comm.size)
    rank_switches = np.zeros(comm.size, dtype=np.int64)
    i = 0
    nodes = graph.nodes
    while i < n:
        wave = nodes[i].wave
        j = i
        halos = []
        kernels = []
        others = []
        while j < n and nodes[j].wave == wave:
            node = nodes[j]
            if node.kind == KERNEL:
                kernels.append(node)
            elif node.kind == HALO:
                halos.append(node)
            else:
                others.append(node)
            j += 1
        # Halo transfers first (they precede kernels within a wave by
        # construction): finish = dependency-ready + network cost, no GPU
        # occupancy — the overlap with compute falls out of the frontier.
        if halos:
            nids = np.asarray([h.nid for h in halos])
            ready = finish[_dep_matrix(halos, n)].max(axis=1)
            start_s[nids] = ready
            finish[nids] = ready + np.asarray([h.cost_s for h in halos])
        if kernels:
            nids = np.asarray([k.nid for k in kernels])
            ranks = np.asarray([k.rank for k in kernels])
            ready = finish[_dep_matrix(kernels, n)].max(axis=1)
            time_s = time_of[nids]
            sw = switch_of[nids]
            start = np.maximum(clock_now[ranks], ready)
            clock_now[ranks] = start + np.where(
                sw, np.maximum(time_s, oh), time_s
            )
            start_s[nids] = start
            finish[nids] = start + time_s
            np.add.at(rank_energy, ranks, power_of[nids] * time_s)
            np.add.at(rank_switches, ranks, sw)
        for node in others:  # gather waves are singleton
            ready = float(finish[list(node.deps)].max()) if node.deps else 0.0
            start_s[node.nid] = ready
            finish[node.nid] = ready + node.cost_s
        i = j

    finish_s = finish[:n].copy()
    counts = graph.counts()
    completion = float(
        max(finish_s.max(initial=0.0), clock_now.max(initial=0.0))
    )
    return ExecutionResult(
        mode="batched",
        fallback=None,
        start_s=start_s,
        finish_s=finish_s,
        rank_time_s=clock_now,
        rank_energy_j=rank_energy,
        rank_switches=rank_switches,
        completion_s=completion,
        n_kernels=counts.get(KERNEL, 0),
        n_transfers=counts.get(HALO, 0) + counts.get(GATHER, 0),
    )
