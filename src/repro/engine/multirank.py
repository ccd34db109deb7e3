"""Wave-vectorized execution of distributed command graphs.

The one executor behind :func:`repro.distributed.runner.run_graph`. A
:class:`~repro.distributed.graph.CommandGraph` means what a per-rank walk
through SYnergy queues would do (node by node, explicit clocks from the
global plan); this module evaluates that recurrence in NumPy, one *wave*
(builder call) at a time, reading the graph's wave arrays directly:

- per-rank clock walk, in the per-event path's exact float order —
  ``start = max(rank_clock, ready)``, ``rank_clock' = start +
  max(duration, OH·switch)`` (``a + max(b, c)`` equals
  ``max(a + b, a + c)`` bitwise by monotonicity of ``+``),
- the dependency frontier as one finish array indexed by node id,
  gathered through each wave's ``-1``-padded dependency matrix (the
  padding reads a trailing 0.0 slot),
- kernel durations/powers from the batched engine's memoized operating
  tables (:func:`repro.engine.executor.operating_table`), looked up once
  per distinct ``(rank, kernel)`` clock pair and keyed per board spec,
  so mixed-spec communicators price each rank off its own board and
  sweep-cache entries are shared with the single-queue fast path,
- power-capped boards throttled by the single-queue engine's rule
  (:func:`repro.engine.executor.throttled_index`),
- switch decisions replayed statically: the per-rank clock-request
  sequence is known at graph compile time, so redundancy skipping is a
  pure prefix walk over the waves,
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

from itertools import chain

import numpy as np

from repro.common.errors import ConfigurationError, ValidationError
from repro.core.compiler import GlobalFrequencyPlan
from repro.core.frequency import DEFAULT_SWITCH_OVERHEAD_S
from repro.distributed.graph import GATHER, HALO, KERNEL, CommandGraph
from repro.engine.executor import operating_table, throttled_index


def _kernel_physics(graph: CommandGraph, gpus, plan: GlobalFrequencyPlan):
    """Duration, power and switch flag of every kernel node, by node id.

    Clock pairs are looked up once per distinct ``(rank, kernel)``,
    operating tables once per ``(board spec, kernel, clock pair)``
    (specs keyed by name, priced off the lowest such rank's board). The
    first kernel node, in id order, that a per-event walk would reject
    is replayed through the per-node checks, so it raises exactly what
    that walk raises.
    """
    n = len(graph.nodes)
    segments = [
        (wave.start + wave.n_halo, wave.rank[wave.n_halo:], wave.kernel[wave.n_halo:])
        for wave in graph.waves
        if not wave.is_gather
    ]
    none = [np.zeros(0, dtype=np.int64)]  # a graph of gathers only
    nid = np.concatenate(none + [lo + np.arange(len(r)) for lo, r, _ in segments])
    rank = np.concatenate(none + [r for _, r, _ in segments])
    code = np.concatenate(none + [c for _, _, c in segments])
    kernels = graph.kernels
    n_k = len(kernels)

    # Clock pair per distinct (rank, kernel), ascending.
    present = np.zeros(len(gpus) * n_k, dtype=bool)
    present[rank * n_k + code] = True
    pairs = np.flatnonzero(present)
    pair_rank, pair_code = pairs // n_k, pairs % n_k
    slot = np.zeros(len(present), dtype=np.int64)
    slot[pairs] = np.arange(len(pairs))
    pair_of = slot[rank * n_k + code]
    get = plan.entries.get
    names = [k.name for k in kernels]
    planned = [
        get((r, names[k])) for r, k in zip(pair_rank.tolist(), pair_code.tolist())
    ]
    unplanned = np.fromiter(
        (p is None for p in planned), dtype=bool, count=len(planned)
    )
    clocks = np.fromiter(
        chain.from_iterable((0, 0) if p is None else p for p in planned),
        dtype=np.int64, count=2 * len(planned),
    ).reshape(-1, 2)

    spec_names: dict[str, int] = {}
    spec_code = np.asarray(
        [spec_names.setdefault(g.spec.name, len(spec_names)) for g in gpus]
    )
    cap_of = np.asarray(
        [
            g.power_limit_w if g.power_limit_w < g.default_power_limit_w else np.inf
            for g in gpus
        ]
    )
    # Operating point per distinct (spec, kernel, mem, core) over planned
    # pairs: one operating table each, throttled per power cap.
    live = np.flatnonzero(~unplanned)
    span = int(clocks.max(initial=0)) + 1
    key = ((spec_code[pair_rank] * n_k + pair_code) * span + clocks[:, 0]) * span
    _, first, combo_of = np.unique(
        (key + clocks[:, 1])[live], return_index=True, return_inverse=True
    )
    bad_clock = np.zeros(len(pairs), dtype=bool)
    pair_time = np.zeros(len(pairs))
    pair_power = np.zeros(len(pairs))
    for c, i in enumerate(live[first].tolist()):
        k, (mem, core) = int(pair_code[i]), clocks[i].tolist()
        at = live[combo_of == c]
        gpu = gpus[pair_rank[i]]
        spec = gpu.spec
        try:
            spec.validate_clocks(mem, core)
        except ConfigurationError:
            bad_clock[at] = True
            continue
        tab = operating_table(gpu, kernels[k], float(mem))
        ci = np.full(len(at), spec.core_freqs_mhz.index(core))
        caps = cap_of[pair_rank[at]]
        for cap in np.unique(caps[np.isfinite(caps)]).tolist():
            capped = caps == cap
            ci[capped] = throttled_index(tab[3][None, :], cap, 0, ci[capped])
        pair_time[at] = tab[0][ci]
        pair_power[at] = tab[3][ci]

    # Redundancy-skipped switch walk, replayed statically: the scaler
    # changes clocks only when the request differs from the board.
    request = (clocks[:, 1] << 32) + clocks[:, 0]
    current = np.asarray([(g.core_mhz << 32) + g.mem_mhz for g in gpus])
    switch = np.zeros(len(nid), dtype=bool)
    at = 0
    for _, ranks, _ in segments:  # ranks are unique within a wave
        req = request[pair_of[at:at + len(ranks)]]
        switch[at:at + len(ranks)] = req != current[ranks]
        current[ranks] = req
        at += len(ranks)
    restricted = np.asarray([g.api_restricted for g in gpus], dtype=bool)

    failed = unplanned[pair_of] | bad_clock[pair_of] | (switch & restricted[rank])
    if failed.any():
        j = int(np.argmax(failed))
        r = int(rank[j])
        mem, core = plan.clocks_for(r, names[code[j]])
        gpus[r].spec.validate_clocks(mem, core)
        raise ValidationError(
            f"rank {r}'s board ({gpus[r].spec.name} gpu{gpus[r].index}) is "
            f"API-restricted; the plan switches it to {mem}/{core} MHz"
        )
    time_of = np.zeros(n)
    power_of = np.zeros(n)
    switch_of = np.zeros(n, dtype=bool)
    time_of[nid] = pair_time[pair_of]
    power_of[nid] = pair_power[pair_of]
    switch_of[nid] = switch
    return time_of, power_of, switch_of, np.bincount(rank[switch], minlength=len(gpus))


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
    from ``spec.validate_clocks``, as a per-event submit does, and an
    unplanned ``(rank, kernel)`` raises the plan's ``clocks_for`` error.
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
    time_of, power_of, switch_of, switches = _kernel_physics(graph, gpus, plan)

    # --- the wave walk ---------------------------------------------------
    n = len(graph.nodes)
    finish = np.zeros(n + 1)  # slot n (index -1): padding, reads 0.0
    start_s = np.zeros(n)
    clock_now = np.asarray([g.clock.now for g in gpus])
    rank_energy = np.zeros(comm.size)
    injector = comm.injector
    for wave in graph.waves:
        lo, hi = wave.start, wave.start + wave.size
        if wave.is_gather:
            deps = wave.deps[0][wave.deps[0] >= 0]
            ready = float(finish[deps].max()) if deps.size else 0.0
            if injector is not None:
                comm._check_faults(ready)
            start_s[lo] = ready
            finish[lo] = ready + wave.cost_s[0]
            continue
        # Halo transfers first (they precede kernels within a wave by
        # construction): finish = dependency-ready + network cost, no GPU
        # occupancy — the overlap with compute falls out of the frontier.
        h = wave.n_halo
        if h:
            ready = finish[wave.deps[:h]].max(axis=1)
            start_s[lo:lo + h] = ready
            finish[lo:lo + h] = ready + wave.cost_s[:h]
        ks = slice(lo + h, hi)
        ranks = wave.rank[h:]
        ready = finish[wave.deps[h:]].max(axis=1)
        time_s = time_of[ks]
        start = np.maximum(clock_now[ranks], ready)
        clock_now[ranks] = start + np.where(
            switch_of[ks], np.maximum(time_s, oh), time_s
        )
        start_s[ks] = start
        finish[ks] = start + time_s
        rank_energy[ranks] += power_of[ks] * time_s  # one kernel per rank

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
        rank_switches=switches,
        completion_s=completion,
        n_kernels=counts.get(KERNEL, 0),
        n_transfers=counts.get(HALO, 0) + counts.get(GATHER, 0),
    )
