"""Wave-vectorized execution of distributed command graphs.

The one executor behind :func:`repro.distributed.runner.run_graph`. A
:class:`~repro.distributed.graph.CommandGraph` means what a per-rank walk
through SYnergy queues would do (node by node, explicit clocks from the
global plan); this module evaluates that recurrence in NumPy, one *wave*
(builder call) at a time:

- per-rank clock walk, in the per-event path's exact float order —
  ``start = max(rank_clock, ready)``, ``rank_clock' = start +
  max(duration, OH·switch)`` (``a + max(b, c)`` equals
  ``max(a + b, a + c)`` bitwise by monotonicity of ``+``),
- the dependency frontier as one finish array indexed by node id,
  gathered through per-wave padded dependency matrices,
- kernel durations/powers from the batched engine's memoized operating
  tables (:func:`repro.engine.executor.operating_table`), keyed per board
  spec, so mixed-spec communicators price each rank off its own board and
  sweep-cache entries are shared with the single-queue fast path,
- power-capped boards throttled by the single-queue engine's rule
  (:func:`repro.engine.executor.throttled_index`),
- switch decisions replayed statically: the per-rank clock-request
  sequence is known at graph compile time, so redundancy skipping is a
  pure prefix walk,
- the communicator's fault plane polled at every gather, in node order,
  so rank/node failures surface out of collectives.

Communication costs were computed once at graph build, so comm timelines
match the per-rank walk bitwise; kernel physics agree within rel 1e-12
(the vectorized sweep vs scalar ``execute``, the same contract as the
single-queue engine). ``tests/oracles/graph.py`` keeps the per-rank walk
as the parity oracle. The whole computation is *pure* — boards, queues
and clocks are left untouched — which is what lets the weak-scaling
benchmark sweep thousands of ranks in milliseconds.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ValidationError
from repro.core.compiler import GlobalFrequencyPlan
from repro.core.frequency import DEFAULT_SWITCH_OVERHEAD_S
from repro.distributed.graph import GATHER, HALO, KERNEL, CommandGraph
from repro.engine.executor import operating_table, throttled_index


def _dep_matrix(nodes, sentinel: int) -> np.ndarray:
    """Dependency ids padded to a rectangle; ``sentinel`` rows read 0.0."""
    width = max((len(n.deps) for n in nodes), default=0)
    width = max(width, 1)
    mat = np.full((len(nodes), width), sentinel, dtype=np.int64)
    for i, node in enumerate(nodes):
        if node.deps:
            mat[i, : len(node.deps)] = node.deps
    return mat


def execute_graph(
    graph: CommandGraph,
    comm,
    plan: GlobalFrequencyPlan,
    *,
    switch_overhead_s: float = DEFAULT_SWITCH_OVERHEAD_S,
):
    """Evaluate a command graph in bulk; returns an ``ExecutionResult``.

    Rejects, with :class:`ValidationError` naming the board, a board with
    its own fault injector (its per-event draws — thermal throttles,
    clock-set failures — have no wave form; communicator faults go on
    ``build_comm(injector=)``) and a clock switch on an API-restricted
    board. The first kernel node whose planned clock pair its board does
    not support raises :class:`~repro.common.errors.ConfigurationError`
    from ``spec.validate_clocks``, as a per-event submit does.
    """
    from repro.distributed.runner import ExecutionResult

    gpus = comm.gpus
    if comm.size != graph.n_ranks:
        raise ValidationError(
            f"graph spans {graph.n_ranks} ranks; communicator has {comm.size}"
        )
    for rank, gpu in enumerate(gpus):
        if gpu.fault_injector is not None:
            raise ValidationError(
                f"rank {rank}'s board ({gpu.spec.name} gpu{gpu.index}) has its "
                "own fault injector; graph runs take faults from the "
                "communicator only"
            )
    oh = float(switch_overhead_s)

    # --- static precompute: per-kernel-node physics and switch flags ----
    n = len(graph.nodes)
    tables: dict[tuple[int, int, str], tuple] = {}
    core_of: dict[tuple[str, int, int], int] = {}
    time_of = np.zeros(n)
    power_of = np.zeros(n)
    switch_of = np.zeros(n, dtype=bool)
    current = [(g.core_mhz, g.mem_mhz) for g in gpus]
    cap_of = [
        g.power_limit_w if g.power_limit_w < g.default_power_limit_w else None
        for g in gpus
    ]
    for node in graph.kernel_nodes():
        rank = node.rank
        kernel = node.kernel
        gpu = gpus[rank]
        spec = gpu.spec
        mem, core = plan.clocks_for(rank, kernel.name)
        ckey = (spec.name, mem, core)
        ci = core_of.get(ckey)
        if ci is None:
            spec.validate_clocks(mem, core)
            ci = core_of[ckey] = spec.core_freqs_mhz.index(core)
        key = (id(kernel), mem, spec.name)
        tab = tables.get(key)
        if tab is None:
            tab = tables[key] = operating_table(gpu, kernel, float(mem))
        cap = cap_of[rank]
        if cap is not None:
            ci = int(throttled_index(tab[3][None, :], cap, [0], [ci])[0])
        time_of[node.nid] = tab[0][ci]
        power_of[node.nid] = tab[3][ci]
        # Redundancy-skipped switch walk, replayed statically: the scaler
        # changes clocks only when the request differs from the board.
        if (core, mem) != current[rank]:
            if gpu.api_restricted:
                raise ValidationError(
                    f"rank {rank}'s board ({spec.name} gpu{gpu.index}) is "
                    f"API-restricted; the plan switches it to {mem}/{core} MHz"
                )
            switch_of[node.nid] = True
            current[rank] = (core, mem)

    # --- the wave walk ---------------------------------------------------
    finish = np.zeros(n + 1)  # slot n: padding sentinel, reads 0.0
    start_s = np.zeros(n)
    clock_now = np.asarray([g.clock.now for g in gpus])
    rank_energy = np.zeros(comm.size)
    rank_switches = np.zeros(comm.size, dtype=np.int64)
    injector = comm.injector
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
            if injector is not None:
                comm._check_faults(ready)
            start_s[node.nid] = ready
            finish[node.nid] = ready + node.cost_s
        i = j

    finish_s = finish[:n].copy()
    counts = graph.counts()
    completion = float(
        max(finish_s.max(initial=0.0), clock_now.max(initial=0.0))
    )
    return ExecutionResult(
        start_s=start_s,
        finish_s=finish_s,
        rank_time_s=clock_now,
        rank_energy_j=rank_energy,
        rank_switches=rank_switches,
        completion_s=completion,
        n_kernels=counts.get(KERNEL, 0),
        n_transfers=counts.get(HALO, 0) + counts.get(GATHER, 0),
    )
