"""Batched virtual-time advance for one SYnergy queue.

:func:`execute_batch` replays what a loop of per-event
``SynergyQueue.submit`` calls would do — target resolution, redundancy-
skipped clock switches with §4.4 overhead, throttled operating points,
serial execution on the device timeline — but computes the physics in
broadcasted NumPy passes over per-kernel operating-point tables
(:meth:`TimingModel.sweep` + :meth:`PowerModel.power`, memoized in the
keyed sweep cache) and commits the device/scaler/queue state in bulk.

Exactness contract (pinned by the parity properties in
``tests/test_engine.py``):

- resolved clock plans, switch decisions and throttled operating points
  are *identical* to the scalar path,
- times and energies agree within rel 1e-12 (the vectorized sweep and
  the scalar ``execute`` differ by ~1 ulp in ``pow``),
- counter aggregates (kernels executed, switches, plan lookups) match.

The timeline recurrence is evaluated in the exact float order of the
scalar path: with ``n_i`` the virtual time after submission ``i``,
``start_i = n_(i-1)`` and ``n_i = n_(i-1) + max(d_i, OH·switch_i)``
(float ``a + max(b, c)`` equals ``max(a+b, a+c)`` bitwise by
monotonicity), so one ``cumsum`` reproduces the scalar clock walk.

When exact per-event semantics cannot be replayed in bulk — an armed
fault injector (its RNG draws happen per event) or a clock switch on an
API-restricted board (each vendor fails in its own shape) — the batch
falls back to the per-event scalar path, which *is* the reference
semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.engine.batch import (
    KernelBatch,
    ResolvedBatch,
    resolve_effective_clocks,
    with_core_index,
)
from repro.hw.device import KernelExecutionRecord
from repro.metrics.targets import EnergyTarget
from repro.sycl.event import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.queue import SynergyQueue


@dataclass(frozen=True)
class BatchResult:
    """Outcome of one batched submission, in struct-of-arrays form.

    ``core_mhz`` holds the *executed* (possibly throttled) core clocks;
    ``app_core_mhz``/``app_mem_mhz`` the effective application clocks
    (``None`` when the batch ran through the scalar fallback, which does
    not reconstruct them). ``fallback`` names the reason the scalar path
    was used, or ``None`` for the vectorized fast path.
    """

    events: tuple[Event, ...]
    start_s: np.ndarray
    end_s: np.ndarray
    time_s: np.ndarray
    energy_j: np.ndarray
    avg_power_w: np.ndarray
    core_mhz: np.ndarray
    mem_mhz: np.ndarray
    app_core_mhz: np.ndarray | None = None
    app_mem_mhz: np.ndarray | None = None
    n_switches: int = 0
    fallback: str | None = None

    def __post_init__(self) -> None:
        for arr in (
            self.start_s, self.end_s, self.time_s, self.energy_j,
            self.avg_power_w, self.core_mhz, self.mem_mhz,
            self.app_core_mhz, self.app_mem_mhz,
        ):
            if arr is not None:
                arr.setflags(write=False)

    def __len__(self) -> int:
        return len(self.events)

    def summary(self) -> dict[str, float]:
        """Aggregate totals over the batch."""
        return {
            "kernels": float(len(self.events)),
            "kernel_time_s": float(np.sum(self.time_s)),
            "kernel_energy_j": float(np.sum(self.energy_j)),
            "clock_switches": float(self.n_switches),
        }


def _empty_result() -> BatchResult:
    z = np.zeros(0)
    return BatchResult(
        events=(),
        start_s=z,
        end_s=np.zeros(0),
        time_s=np.zeros(0),
        energy_j=np.zeros(0),
        avg_power_w=np.zeros(0),
        core_mhz=np.zeros(0, dtype=int),
        mem_mhz=np.zeros(0, dtype=int),
        app_core_mhz=np.zeros(0, dtype=int),
        app_mem_mhz=np.zeros(0, dtype=int),
    )


def _result_from_events(
    events: list[Event], n_switches: int, fallback: str
) -> BatchResult:
    records = [e.record for e in events]
    return BatchResult(
        events=tuple(events),
        start_s=np.asarray([r.start_s for r in records], dtype=float),
        end_s=np.asarray([r.end_s for r in records], dtype=float),
        time_s=np.asarray([r.time_s for r in records], dtype=float),
        energy_j=np.asarray([r.energy_j for r in records], dtype=float),
        avg_power_w=np.asarray([r.avg_power_w for r in records], dtype=float),
        core_mhz=np.asarray([r.core_mhz for r in records], dtype=int),
        mem_mhz=np.asarray([r.mem_mhz for r in records], dtype=int),
        n_switches=n_switches,
        fallback=fallback,
    )


def _fallback_scalar(
    queue: "SynergyQueue", batch: KernelBatch, reason: str
) -> BatchResult:
    """Replay the batch through the per-event reference path."""
    switches_before = queue.scaler.switch_count
    events: list[Event] = []
    for kernel, request in zip(batch.kernels, batch.requests):
        cgf = lambda h, k=kernel: h.parallel_for(k.work_items, k)  # noqa: E731
        if isinstance(request, EnergyTarget):
            events.append(queue.submit(request, cgf))
        elif isinstance(request, tuple):
            events.append(queue.submit(request[0], request[1], cgf))
        else:
            events.append(queue.submit(cgf))
    return _result_from_events(
        events, queue.scaler.switch_count - switches_before, reason
    )


def operating_table(gpu, kernel, mem_mhz: float):
    """Timing/power columns over the full core table at one memory clock.

    Returns read-only ``(time_s, u_core, u_mem, power_w)`` arrays aligned
    with ``spec.core_freqs_mhz``, memoized in the keyed sweep cache. The
    columns depend only on the device *spec* (timing/power models are
    shared per spec), so the single-queue fast path and the multi-rank
    graph engine (:mod:`repro.engine.multirank`) share cache entries.
    """
    from repro.core.sweepcache import resolve_cache

    spec = gpu.spec
    table = np.asarray(spec.core_freqs_mhz, dtype=float)

    def compute():
        timing = gpu.timing_model.sweep(kernel, table, float(mem_mhz))
        power = np.asarray(
            gpu.power_model.power(
                table,
                float(mem_mhz),
                timing.core_power_utilization,
                timing.u_mem,
            ),
            dtype=float,
        )
        return (timing.time_s, timing.u_core, timing.u_mem, power)

    store = resolve_cache(None)
    if store is None:
        value = compute()
        for arr in value:
            arr.setflags(write=False)
        return value
    return store.get_or_compute(store.engine_key(spec, kernel, table, mem_mhz), compute)


def throttled_index(power_mat, limit_w: float, rows, core_idx) -> np.ndarray:
    """Core-table index each submission executes at under a power limit.

    ``power_mat`` holds one operating-table power column per row; each
    submission reads row ``rows[i]`` at application-clock index
    ``core_idx[i]``. Replicates ``SimulatedGPU._throttled_operating_point``:
    a kernel that exceeds the limit at its application clock runs at the
    highest core clock at or below it whose power fits, or at the lowest
    table clock if nothing fits.
    """
    ok = power_mat <= limit_w
    ranked = np.where(ok, np.arange(power_mat.shape[1])[None, :], -1)
    best_upto = np.maximum.accumulate(ranked, axis=1)
    chosen = best_upto[rows, core_idx]
    return np.where(chosen >= 0, chosen, 0)


def _resolve_requests(queue: "SynergyQueue", batch: KernelBatch):
    """Per-submission clock resolution, matching the scalar path's calls.

    Targets go through the queue's plan/predictor with the same counter
    semantics (``predict.plan_lookups`` per plan hit, ``predict.calls``
    per predictor inference); request-free submissions inherit the queue
    clocks or, absent those, the running board clocks (``None`` here).
    """
    resolved: list[tuple[int, int] | None] = []
    traced = queue.trace.enabled
    # Untraced, target resolution is pure (plan/predictor lookups are
    # deterministic per (kernel, target)), so repeated pairs hit a memo.
    # Traced runs keep the per-submission calls for exact counter parity
    # with the scalar path (one ``predict.plan_lookups`` per submission).
    memo: dict[tuple[int, int], tuple[int, int]] = {}
    inherit = queue._queue_clocks
    for kernel, request in zip(batch.kernels, batch.requests):
        if isinstance(request, EnergyTarget):
            if traced:
                resolved.append(queue._resolve_target(kernel, request))
            else:
                key = (id(kernel), id(request))
                clocks = memo.get(key)
                if clocks is None:
                    clocks = queue._resolve_target(kernel, request)
                    memo[key] = clocks
                resolved.append(clocks)
        elif isinstance(request, tuple):
            resolved.append(request)
        else:
            resolved.append(inherit)
    return resolved


def _choose_operating_points(
    queue: "SynergyQueue", resolved: ResolvedBatch
) -> tuple[np.ndarray, ...]:
    """Gather per-submission timing/power at the throttled operating point.

    Returns ``(exec_core_mhz, time_s, u_core, u_mem, power_w)`` arrays.
    """
    gpu = queue.device.gpu
    spec = gpu.spec
    table = np.asarray(spec.core_freqs_mhz, dtype=int)
    groups: dict[tuple[int, int], int] = {}
    members: list[tuple[object, int]] = []
    group_ids: list[int] = []
    for kernel, mem in zip(resolved.batch.kernels, resolved.mem_mhz.tolist()):
        key = (id(kernel), mem)
        idx = groups.get(key)
        if idx is None:
            idx = len(members)
            groups[key] = idx
            members.append((kernel, mem))
        group_ids.append(idx)
    group_of = np.asarray(group_ids, dtype=int)
    tables = [operating_table(gpu, k, float(m)) for k, m in members]
    time_mat = np.stack([t[0] for t in tables])
    u_core_mat = np.stack([t[1] for t in tables])
    u_mem_mat = np.stack([t[2] for t in tables])
    power_mat = np.stack([t[3] for t in tables])

    chosen = resolved.core_index
    if gpu.power_limit_w < gpu.default_power_limit_w:
        # Unconstrained boards skip this: modeled power is strictly below
        # the peak at every operating point, so throttling never engages.
        chosen = throttled_index(power_mat, gpu.power_limit_w, group_of, chosen)
    return (
        table[chosen],
        time_mat[group_of, chosen],
        u_core_mat[group_of, chosen],
        u_mem_mat[group_of, chosen],
        power_mat[group_of, chosen],
    )


def execute_batch(queue: "SynergyQueue", batch: KernelBatch) -> BatchResult:
    """Advance one queue through a whole batch of kernel submissions."""
    gpu = queue.device.gpu
    tr = queue.trace
    track = queue._track
    n = len(batch)
    if n == 0:
        # Zero-kernel batches are no-ops but still leave a well-formed,
        # empty trace span so downstream tooling sees the submission.
        if tr.enabled:
            now = gpu.clock.now
            tr.add_span(
                track, "engine.batch", "batch[0]", now, now,
                kernels=0, switches=0, fallback=None,
            )
            tr.count("engine.batches")
        return _empty_result()

    batch.validate_explicit_clocks(gpu.spec)
    if gpu.fault_injector is not None:
        return _traced_fallback(queue, batch, "faults")

    resolved = _resolve_requests(queue, batch)
    rb = resolve_effective_clocks(
        batch, resolved, (gpu.core_mhz, gpu.mem_mhz)
    )
    if gpu.api_restricted and rb.n_switches:
        # A clock change on a restricted board must fail exactly like the
        # per-event path (vendor error after the overhead charge); replay
        # scalar rather than emulating each vendor's failure shape.
        return _traced_fallback(queue, batch, "restricted")
    rb = with_core_index(rb, gpu.spec)

    if not tr.enabled:
        return _execute_fast(queue, rb)
    with tr.span(
        gpu.clock, track, "engine.batch", f"batch[{n}]",
    ) as sp:
        result = _execute_fast(queue, rb)
        sp.set(kernels=n, switches=result.n_switches, fallback=None)
    tr.count("engine.batches")
    tr.count("engine.batched_kernels", n)
    # Tenancy tag, attached only when the queue has an owner (the service
    # plane) so ownerless golden traces stay byte-identical.
    extra = {} if queue.owner is None else {"owner": queue.owner}
    for event in result.events:
        record = event.record
        tr.add_span(
            track, "queue.kernel", record.kernel_name,
            event.start_s, event.end_s,
            core_mhz=record.core_mhz,
            mem_mhz=record.mem_mhz,
            energy_j=record.energy_j,
            degraded=False,
            **extra,
        )
        tr.observe("kernel.time_s", record.time_s)
        tr.observe("kernel.energy_j", record.energy_j)
    tr.count("queue.kernels_executed", n)
    if result.n_switches:
        tr.count("freq.switches", result.n_switches)
    return result


def _traced_fallback(
    queue: "SynergyQueue", batch: KernelBatch, reason: str
) -> BatchResult:
    tr = queue.trace
    if not tr.enabled:
        result = _fallback_scalar(queue, batch, reason)
    else:
        with tr.span(
            queue.device.gpu.clock, queue._track, "engine.batch",
            f"batch[{len(batch)}]",
        ) as sp:
            result = _fallback_scalar(queue, batch, reason)
            sp.set(kernels=len(batch), switches=result.n_switches, fallback=reason)
        tr.count("engine.batches")
        tr.count("engine.fallbacks")
    return result


def _execute_fast(queue: "SynergyQueue", rb: ResolvedBatch) -> BatchResult:
    """The vectorized commit: physics, timeline, and bulk state update."""
    gpu = queue.device.gpu
    scaler = queue.scaler
    n = len(rb)
    exec_core, time_s, u_core, u_mem, power_w = _choose_operating_points(
        queue, rb
    )

    # Virtual-time walk, in the scalar path's exact float order:
    # n_i = n_(i-1) + max(d_i, OH·switch_i), start_i = n_(i-1).
    oh = scaler.switch_overhead_s
    step = np.where(rb.switches, np.maximum(time_s, oh), time_s)
    # cumsum folds left-to-right, the same float order as the scalar
    # `clock.advance` walk; seeding with `now` keeps the origin in-fold.
    clockline = np.cumsum(np.concatenate(([gpu.clock.now], step)))
    start_s = clockline[:-1]
    end_s = start_s + time_s
    energy_j = power_w * time_s

    # Commit: clock plan, scaler charges, power timeline, clock advance.
    switch_idx = np.flatnonzero(rb.switches)
    if switch_idx.size:
        gpu.apply_clock_plan(
            (start_s[switch_idx] + oh).tolist(),
            list(
                zip(
                    rb.core_mhz[switch_idx].tolist(),
                    rb.mem_mhz[switch_idx].tolist(),
                )
            ),
        )
        scaler.charge_batched(int(switch_idx.size))
    gpu.extend_power_timeline(start_s, end_s, power_w)
    final = float(clockline[-1])
    if final > gpu.clock.now:
        gpu.clock.advance_to(final)

    # Bulk ndarray→Python conversion (``tolist`` converts in C) feeding
    # positional dataclass construction: this loop is the remaining
    # per-kernel Python cost of the fast path, so it stays lean.
    device_name = gpu.spec.name
    records = [
        KernelExecutionRecord(
            kernel.name, device_name, core, mem, t0, t1, e, p, uc, um
        )
        for kernel, core, mem, t0, t1, e, p, uc, um in zip(
            rb.batch.kernels,
            exec_core.tolist(),
            rb.mem_mhz.tolist(),
            start_s.tolist(),
            end_s.tolist(),
            energy_j.tolist(),
            power_w.tolist(),
            u_core.tolist(),
            u_mem.tolist(),
        )
    ]
    gpu.records.extend(records)
    events = [
        Event(gpu, record.start_s, record.start_s, record.end_s, record)
        for record in records
    ]
    queue._absorb_events(events)
    return BatchResult(
        events=tuple(events),
        start_s=start_s,
        end_s=end_s,
        time_s=end_s - start_s,
        energy_j=energy_j,
        avg_power_w=power_w.copy(),
        core_mhz=exec_core.copy(),
        mem_mhz=rb.mem_mhz.copy(),
        app_core_mhz=rb.core_mhz.copy(),
        app_mem_mhz=rb.mem_mhz.copy(),
        n_switches=int(switch_idx.size),
    )
