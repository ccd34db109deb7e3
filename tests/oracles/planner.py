"""Reference global frequency planner: one sweep-row stack and scan per rank.

The equivalence oracle for
:func:`repro.core.compiler.plan_global_frequencies`. It stacks each
rank's sweep rows, finds the rank's MAX_PERF clock and scans the clock
table for its slack choice one rank at a time. The production planner
must return an equal :class:`~repro.core.compiler.GlobalFrequencyPlan`,
field for field and bit for bit, for every objective.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.common.errors import ConfigurationError
from repro.core.compiler import GlobalFrequencyPlan
from repro.kernelir.kernel import KernelIR

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.sweepcache import SweepCache


def plan_global_frequencies(
    spec: GPUSpec,
    rank_kernels: Sequence[Sequence[KernelIR]],
    *,
    sla_factor: float = 1.25,
    objective: str = "MIN_EDP",
    cache: "bool | SweepCache | None" = None,
) -> GlobalFrequencyPlan:
    """Choose per-rank clocks meeting a global energy target (Fig. 10 regime).

    ``rank_kernels[r]`` is the kernel sequence rank ``r`` executes
    (repeats included) — e.g. :meth:`CommandGraph.rank_kernels
    <repro.distributed.graph.CommandGraph.rank_kernels>`. The planner
    sweeps each distinct kernel once, computes per rank the *uniform*
    core clock minimizing that rank's serial compute time (the rank-level
    MAX_PERF point), takes the slowest rank as the critical path, and
    sets the completion budget to ``sla_factor`` times the critical
    rank's MAX_PERF time.

    Clocks are uniform per rank — one pair for all of a rank's kernels —
    so every rank pays at most one clock switch (off the boot clocks) no
    matter the plan, keeping the §4.4 switch overhead out of the
    energy/SLA trade at fine-grained kernel durations.

    The critical rank keeps its MAX_PERF clock. Every slack rank scans
    the feasible frequencies — those where every kernel stays within
    ``sla_factor`` of its MAX_PERF duration, the rank's serial time fits
    the budget, and the rank's energy does not exceed its MAX_PERF
    energy — and picks the one minimizing the rank's energy-delay
    product (``objective="MIN_EDP"``, the default lean) or energy alone
    (``"MIN_ENERGY"``); ``objective="MAX_PERF"`` pins every rank to its
    MAX_PERF clock (the baseline plan). Infeasible ranks fall back to
    MAX_PERF.

    Two invariants hold by construction and are re-checked on *executed*
    graphs by ``tests/test_distributed.py``: total
    planned energy never exceeds the all-MAX_PERF energy, and every
    command's duration is within ``sla_factor`` of its MAX_PERF duration
    — which, with target-independent communication costs, bounds graph
    completion at ``sla_factor`` times the MAX_PERF completion.
    """
    import numpy as np

    from repro.experiments.sweep import sweep_kernel

    if sla_factor < 1.0:
        raise ConfigurationError(
            f"global SLA factor must be >= 1 ({sla_factor!r})"
        )
    if not rank_kernels or any(not ks for ks in rank_kernels):
        raise ConfigurationError("every rank needs at least one kernel")
    if objective not in ("MIN_EDP", "MIN_ENERGY", "MAX_PERF"):
        raise ConfigurationError(
            f"unknown global objective {objective!r}; expected MIN_EDP, "
            "MIN_ENERGY or MAX_PERF"
        )

    # One sweep per distinct kernel object: time/energy columns over the
    # device's full core table at the default memory clock.
    sweeps: dict[int, object] = {}
    for ks in rank_kernels:
        for k in ks:
            if id(k) not in sweeps:
                sweeps[id(k)] = sweep_kernel(spec, k, cache=cache)

    n_ranks = len(rank_kernels)
    # Per rank: serial time/energy columns over the table, per-kernel
    # duration matrix for the SLA guard.
    rank_rows = []
    for ks in rank_kernels:
        mult: dict[int, int] = {}
        for k in ks:
            mult[id(k)] = mult.get(id(k), 0) + 1
        time_rows = np.stack([sweeps[i].time_s for i in mult])
        energy_rows = np.stack([sweeps[i].energy_j for i in mult])
        counts = np.asarray([mult[i] for i in mult], dtype=float)
        rank_rows.append((time_rows, counts @ time_rows, counts @ energy_rows))

    # Rank-level MAX_PERF: the uniform clock minimizing serial time.
    i_mp = [int(np.argmin(total_t)) for _, total_t, _ in rank_rows]
    maxperf_t = [float(rank_rows[r][1][i_mp[r]]) for r in range(n_ranks)]
    maxperf_e = [float(rank_rows[r][2][i_mp[r]]) for r in range(n_ranks)]
    critical = int(max(range(n_ranks), key=maxperf_t.__getitem__))
    budget = sla_factor * maxperf_t[critical]

    freqs = next(iter(sweeps.values())).freqs_mhz
    rank_targets: list[str] = []
    rank_clocks: list[tuple[int, int]] = []
    est_t: list[float] = []
    est_e: list[float] = []
    entries: dict[tuple[int, str], tuple[int, int]] = {}
    for rank, ks in enumerate(rank_kernels):
        time_rows, total_t, total_e = rank_rows[rank]
        best = i_mp[rank]
        name = "MAX_PERF"
        if objective != "MAX_PERF" and rank != critical:
            per_kernel_ok = np.all(
                time_rows <= sla_factor * time_rows[:, [best]], axis=0
            )
            feasible = (
                per_kernel_ok
                & (total_t <= budget)
                & (total_e <= total_e[best])
            )
            score = (
                total_e * total_t if objective == "MIN_EDP" else total_e
            )
            idx = np.flatnonzero(feasible)
            if idx.size:
                cand = int(idx[np.argmin(score[idx])])
                if cand != best:
                    best, name = cand, objective
        pair = (spec.default_mem_mhz, int(freqs[best]))
        rank_targets.append(name)
        rank_clocks.append(pair)
        est_t.append(float(total_t[best]))
        est_e.append(float(total_e[best]))
        for k in ks:
            entries[(rank, k.name)] = pair
    return GlobalFrequencyPlan(
        device_name=spec.name,
        sla_factor=float(sla_factor),
        budget_s=float(budget),
        critical_rank=critical,
        rank_targets=tuple(rank_targets),
        rank_clocks=tuple(rank_clocks),
        entries=entries,
        est_time_s=tuple(est_t),
        est_energy_j=tuple(est_e),
        maxperf_time_s=tuple(maxperf_t),
        maxperf_energy_j=tuple(maxperf_e),
    )
