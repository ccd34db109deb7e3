"""Stateful simulated GPU.

A :class:`SimulatedGPU` owns the mutable board state the vendor libraries
and the SYCL runtime interact with:

- current application clocks (core/memory) and the privilege model guarding
  them (``api_restricted`` mirrors NVML's ``SetAPIRestriction`` semantics:
  when restricted, only privileged callers may change clocks — the exact
  hazard the paper's SLURM plugin manages, §7),
- a busy/idle power timeline in virtual time, from which both the true
  (analytic) energy and the sampled sensor energy are derived,
- per-kernel execution records.

Kernels execute serially per device (one hardware queue), matching how the
paper profiles per-kernel energy.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from repro.common.clock import VirtualClock
from repro.common.errors import ConfigurationError, ReproError, SimulationError
from repro.hw.cache import models_for
from repro.hw.specs import GPUSpec
from repro.kernelir.kernel import KernelIR


class ClockPermissionError(ReproError):
    """Raised when an unprivileged caller changes clocks on a restricted GPU."""


@dataclass(frozen=True)
class KernelExecutionRecord:
    """Outcome of one kernel execution on a simulated GPU."""

    kernel_name: str
    device_name: str
    core_mhz: int
    mem_mhz: int
    start_s: float
    end_s: float
    energy_j: float
    avg_power_w: float
    u_core: float
    u_mem: float

    @property
    def time_s(self) -> float:
        """Kernel wall time in seconds."""
        return self.end_s - self.start_s


_device_ids = itertools.count()

#: Column alignment of the sliced overlap product in
#: :meth:`SimulatedGPU.energy_between_many`. The BLAS dot-product
#: reduction order depends on where a term sits in the interval vector, so
#: a window's slice is widened down to a multiple of this many intervals
#: and multiplied against the full-length suffix. On a single-threaded
#: OpenBLAS that reproduces the sums of the full-history product bit for
#: bit; an alignment of 16 does not.
_BLAS_ALIGN = 4096

#: One shared tuple per distinct ``(core_mhz, mem_mhz)`` pair committed by
#: clock plans. Plans repeat a handful of table clocks and every board keeps
#: its whole clock history, so sharing the tuples bounds that history's
#: memory; the pairs are validated table clocks, so the map stays small.
_CLOCK_PAIRS: dict[tuple[int, int], tuple[int, int]] = {}

#: Interval buffer of boards never queried; never written, since the first
#: query replaces it with a buffer of the board's own.
_NO_INTERVALS = np.empty(0)


class SimulatedGPU:
    """One GPU board: clocks, privilege state, power timeline, executions."""

    def __init__(
        self,
        spec: GPUSpec,
        clock: VirtualClock | None = None,
        index: int | None = None,
    ) -> None:
        self.spec = spec
        self.clock = clock if clock is not None else VirtualClock()
        self.index = next(_device_ids) if index is None else index
        self.timing_model, self.power_model = models_for(spec)

        self._core_mhz = spec.default_core_mhz
        self._mem_mhz = spec.default_mem_mhz
        #: Board power limit (W); kernels that would exceed it run at the
        #: highest clock whose power fits (hardware throttling). Defaults
        #: to the model's peak draw, i.e. unconstrained.
        self.default_power_limit_w: float = self.power_model.peak_power()
        self.power_limit_w: float = self.default_power_limit_w
        #: NVML-style API restriction: True means clock changes need
        #: privilege. Standalone boards default to unrestricted (a developer
        #: workstation); production clusters restrict every board at node
        #: provisioning and rely on the SLURM plugin to lower it per job.
        self.api_restricted: bool = False
        self._busy_until: float = self.clock.now
        # Busy power segments: parallel arrays (start, end, power_w).
        self._seg_start: list[float] = []
        self._seg_end: list[float] = []
        self._seg_power: list[float] = []
        # Clock history: (time, core_mhz, mem_mhz), ascending in time.
        self._clock_times: list[float] = [self.clock.now]
        self._clock_values: list[tuple[int, int]] = [(self._core_mhz, self._mem_mhz)]
        # Interval table over that timeline (see _interval_table): sorted
        # unique breakpoints and the power of each interval, in growable
        # buffers allocated by the first query. Entries at or after the
        # dirty horizon are stale.
        self._edge_buf = self._power_buf = _NO_INTERVALS
        self._n_edges = 0
        self._dirty_s = self.clock.now
        self.records: list[KernelExecutionRecord] = []
        #: Count of clock-change API calls (for the §4.4 overhead analysis).
        self.clock_set_calls: int = 0
        #: Fault-injection plane, attached by ``Cluster.build`` (or tests).
        #: ``None`` means the happy path: no faults, no injection checks.
        self.fault_injector = None

    # ------------------------------------------------------------------ state

    @property
    def core_mhz(self) -> int:
        """Current application core clock (MHz)."""
        return self._core_mhz

    @property
    def mem_mhz(self) -> int:
        """Current application memory clock (MHz)."""
        return self._mem_mhz

    @property
    def busy_until(self) -> float:
        """Virtual time at which the device's hardware queue drains."""
        return self._busy_until

    def set_application_clocks(
        self, mem_mhz: int, core_mhz: int, *, privileged: bool = False
    ) -> None:
        """Set application clocks, enforcing the NVML privilege model.

        Raises :class:`ClockPermissionError` if the device is API-restricted
        and the caller is unprivileged, and
        :class:`~repro.common.errors.ConfigurationError` for clocks outside
        the device table.
        """
        if self.api_restricted and not privileged:
            raise ClockPermissionError(
                f"{self.spec.name}[{self.index}]: application clocks are "
                "root-restricted (no SetAPIRestriction lowering in effect)"
            )
        self.spec.validate_clocks(mem_mhz, core_mhz)
        self._core_mhz = int(core_mhz)
        self._mem_mhz = int(mem_mhz)
        self._record_clock_change()
        self.clock_set_calls += 1

    def reset_application_clocks(self, *, privileged: bool = False) -> None:
        """Restore the driver default clocks (epilogue cleanup path)."""
        if self.api_restricted and not privileged:
            raise ClockPermissionError(
                f"{self.spec.name}[{self.index}]: resetting clocks is "
                "root-restricted"
            )
        self._core_mhz = self.spec.default_core_mhz
        self._mem_mhz = self.spec.default_mem_mhz
        self._record_clock_change()
        self.clock_set_calls += 1

    def set_power_limit(self, watts: float, *, privileged: bool = False) -> None:
        """Set the board power limit (root-only, like real NVML).

        Limits below a safety floor (half the idle draw above zero would
        brick a real board; we require at least the idle power) or above
        the default limit are rejected.
        """
        if not privileged:
            raise ClockPermissionError(
                f"{self.spec.name}[{self.index}]: power limit changes require root"
            )
        if not self.spec.idle_power_w <= watts <= self.default_power_limit_w:
            raise ConfigurationError(
                f"power limit {watts!r} W outside "
                f"[{self.spec.idle_power_w}, {self.default_power_limit_w:.0f}] W"
            )
        self.power_limit_w = float(watts)

    def reset_power_limit(self, *, privileged: bool = False) -> None:
        """Restore the default board power limit (root-only)."""
        if not privileged:
            raise ClockPermissionError(
                f"{self.spec.name}[{self.index}]: power limit changes require root"
            )
        self.power_limit_w = self.default_power_limit_w

    def set_api_restriction(self, restricted: bool) -> None:
        """Toggle whether unprivileged clock changes are allowed.

        This is the simulated ``nvmlDeviceSetAPIRestriction`` — only the
        SLURM plugin (acting as root) calls it.
        """
        self.api_restricted = bool(restricted)

    def _record_clock_change(self) -> None:
        now = self.clock.now
        self._dirty_s = min(self._dirty_s, now)
        if self._clock_times and self._clock_times[-1] == now:
            self._clock_values[-1] = (self._core_mhz, self._mem_mhz)
        else:
            self._clock_times.append(now)
            self._clock_values.append((self._core_mhz, self._mem_mhz))

    def clocks_at(self, t: float) -> tuple[int, int]:
        """Application clocks (core, mem) in effect at virtual time ``t``."""
        i = bisect.bisect_right(self._clock_times, t) - 1
        return self._clock_values[max(i, 0)]

    def apply_clock_plan(
        self,
        times_s,
        pairs,
        *,
        privileged: bool = False,
    ) -> None:
        """Commit a whole sequence of clock changes in one call.

        The batched engine's analogue of repeated
        :meth:`set_application_clocks` calls: ``pairs[i] = (core_mhz,
        mem_mhz)`` lands on the history at ``times_s[i]`` (ascending).
        The same privilege model applies; every pair is validated before
        anything is committed, so a bad plan leaves the board untouched.
        """
        times_s = list(times_s)
        pairs = [(int(c), int(m)) for c, m in pairs]
        if len(times_s) != len(pairs):
            raise SimulationError(
                f"clock plan length mismatch ({len(times_s)} vs {len(pairs)})"
            )
        if not pairs:
            return
        if self.api_restricted and not privileged:
            raise ClockPermissionError(
                f"{self.spec.name}[{self.index}]: application clocks are "
                "root-restricted (no SetAPIRestriction lowering in effect)"
            )
        for core, mem in set(pairs):
            self.spec.validate_clocks(mem, core)
        if any(b < a for a, b in zip(times_s, times_s[1:])):
            raise SimulationError("clock plan times must be ascending")
        if self._clock_times and times_s[0] < self._clock_times[-1]:
            raise SimulationError(
                f"clock plan starts at {times_s[0]!r}s, before the last "
                f"recorded change at {self._clock_times[-1]!r}s"
            )
        pairs = [_CLOCK_PAIRS.setdefault(p, p) for p in pairs]
        if (
            not (self._clock_times and self._clock_times[-1] == times_s[0])
            and all(b > a for a, b in zip(times_s, times_s[1:]))
        ):
            # No merge-at-equal-time anywhere in this plan: bulk append.
            self._clock_times.extend(float(t) for t in times_s)
            self._clock_values.extend(pairs)
        else:
            for t, value in zip(times_s, pairs):
                if self._clock_times and self._clock_times[-1] == t:
                    self._clock_values[-1] = value
                else:
                    self._clock_times.append(float(t))
                    self._clock_values.append(value)
        self._dirty_s = min(self._dirty_s, float(times_s[0]))
        self._core_mhz, self._mem_mhz = pairs[-1]
        self.clock_set_calls += len(pairs)

    # -------------------------------------------------------------- execution

    def execute(self, kernel: KernelIR, submit_time: float | None = None) -> KernelExecutionRecord:
        """Run one kernel at the current clocks, advancing virtual time.

        The kernel starts when the hardware queue is free (serial execution
        per device) and its busy power segment is appended to the timeline.
        """
        submit = self.clock.now if submit_time is None else float(submit_time)
        if submit < 0:
            raise SimulationError(f"negative submit time {submit!r}")
        start = max(submit, self._busy_until)
        core_mhz, timing, power = self._throttled_operating_point(kernel, start)
        end = start + timing.time_s
        self._seg_start.append(start)
        self._seg_end.append(end)
        self._seg_power.append(power)
        self._busy_until = end
        self._dirty_s = min(self._dirty_s, start)
        if end > self.clock.now:
            self.clock.advance_to(end)
        record = KernelExecutionRecord(
            kernel_name=kernel.name,
            device_name=self.spec.name,
            core_mhz=core_mhz,
            mem_mhz=self._mem_mhz,
            start_s=start,
            end_s=end,
            energy_j=power * timing.time_s,
            avg_power_w=power,
            u_core=timing.u_core,
            u_mem=timing.u_mem,
        )
        self.records.append(record)
        return record

    def transfer(self, nbytes: float, submit_time: float | None = None) -> KernelExecutionRecord:
        """Host-device data transfer over the PCIe-class link.

        Occupies the device timeline (copies serialize with kernels on the
        same hardware queue) at a low, memory-only power draw.
        """
        if nbytes < 0:
            raise SimulationError(f"negative transfer size {nbytes!r}")
        submit = self.clock.now if submit_time is None else float(submit_time)
        start = max(submit, self._busy_until)
        duration = (
            nbytes / (self.spec.pcie_bandwidth_gbs * 1e9)
            + self.spec.launch_overhead_s
        )
        power = float(self.power_model.power(self._core_mhz, self._mem_mhz, 0.0, 0.3))
        end = start + duration
        self._seg_start.append(start)
        self._seg_end.append(end)
        self._seg_power.append(power)
        self._busy_until = end
        self._dirty_s = min(self._dirty_s, start)
        if end > self.clock.now:
            self.clock.advance_to(end)
        record = KernelExecutionRecord(
            kernel_name="<memcpy>",
            device_name=self.spec.name,
            core_mhz=self._core_mhz,
            mem_mhz=self._mem_mhz,
            start_s=start,
            end_s=end,
            energy_j=power * duration,
            avg_power_w=power,
            u_core=0.0,
            u_mem=0.3,
        )
        self.records.append(record)
        return record

    def _throttled_operating_point(self, kernel: KernelIR, start_s: float | None = None):
        """Clocks/timing/power for a kernel under the board power limit.

        At the application clocks the kernel may exceed the power limit; the
        board then throttles: it runs at the highest supported core clock
        (≤ the application clock) whose power fits. The lowest table clock
        is used if nothing fits. An active injected thermal-throttle window
        additionally caps the core clock at the window's MHz parameter.
        """
        ceiling = self._core_mhz
        if self.fault_injector is not None:
            at = self.clock.now if start_s is None else start_s
            throttle = self.fault_injector.active(
                "hw.thermal_throttle", at, target=self.index
            )
            if throttle is not None and throttle.param is not None:
                ceiling = min(ceiling, int(throttle.param))
        candidates = [f for f in self.spec.core_freqs_mhz if f <= ceiling]
        if not candidates:
            # Thermal cap below the table minimum: the board pins its
            # lowest supported clock.
            candidates = [self.spec.min_core_mhz]
        for core_mhz in reversed(candidates):
            timing = self.timing_model.execute(kernel, core_mhz, self._mem_mhz)
            power = float(
                self.power_model.power(
                    core_mhz,
                    self._mem_mhz,
                    timing.core_power_utilization,
                    timing.u_mem,
                )
            )
            if power <= self.power_limit_w or core_mhz == candidates[0]:
                return core_mhz, timing, power
        # Application clock below the table minimum cannot happen (clocks
        # are validated), but keep a defensive fallback.
        core_mhz = self.spec.min_core_mhz  # pragma: no cover
        timing = self.timing_model.execute(kernel, core_mhz, self._mem_mhz)
        power = float(
            self.power_model.power(
                core_mhz, self._mem_mhz, timing.core_power_utilization, timing.u_mem
            )
        )
        return core_mhz, timing, power  # pragma: no cover

    def extend_power_timeline(self, starts, ends, powers) -> None:
        """Append a run of busy segments in one call (engine fast path).

        Segments must be non-overlapping and ascending, starting no
        earlier than the current queue drain time — the same invariant
        serial :meth:`execute` calls maintain one segment at a time. The
        device's busy horizon moves to the last segment's end; the caller
        is responsible for advancing the virtual clock.
        """
        starts = [float(t) for t in starts]
        ends = [float(t) for t in ends]
        powers = [float(p) for p in powers]
        if not (len(starts) == len(ends) == len(powers)):
            raise SimulationError("segment arrays must have equal length")
        if not starts:
            return
        bounds = [self._busy_until]
        for s, e in zip(starts, ends):
            bounds.extend((s, e))
        if any(b < a for a, b in zip(bounds, bounds[1:])):
            raise SimulationError(
                "batched segments must be ascending and non-overlapping, "
                "starting at or after the device busy horizon"
            )
        self._seg_start.extend(starts)
        self._seg_end.extend(ends)
        self._seg_power.extend(powers)
        self._busy_until = ends[-1]
        self._dirty_s = min(self._dirty_s, starts[0])

    # ------------------------------------------------------------------ power

    def instantaneous_power(self, t: float) -> float:
        """Board power draw (W) at virtual time ``t``: busy segment or idle."""
        i = bisect.bisect_right(self._seg_start, t) - 1
        if i >= 0 and self._seg_start[i] <= t < self._seg_end[i]:
            return self._seg_power[i]
        core, mem = self.clocks_at(t)
        return self.power_model.idle_power(core, mem)

    def energy_between(self, t0: float, t1: float) -> float:
        """True (analytic) board energy in joules over ``[t0, t1]``.

        Integrates busy segments exactly and fills gaps with idle power at
        the clocks then in effect. The walk starts at the first segment
        ending after ``t0`` (found by bisection), so a window costs
        O(log n + k) for the ``k`` segments and clock changes inside it.
        """
        if not (math.isfinite(t0) and math.isfinite(t1)):
            raise SimulationError(f"energy window not finite: [{t0!r}, {t1!r}]")
        if t1 < t0:
            raise SimulationError(f"energy window reversed: [{t0!r}, {t1!r}]")
        energy = 0.0
        cursor = t0
        seg_start, seg_end, seg_power = self._seg_start, self._seg_end, self._seg_power
        for k in range(bisect.bisect_right(seg_end, t0), len(seg_start)):
            s, e = seg_start[k], seg_end[k]
            if s >= t1:
                break
            if s > cursor:
                energy += self._idle_energy(cursor, min(s, t1))
                cursor = min(s, t1)
            lo, hi = max(s, cursor), min(e, t1)
            if hi > lo:
                energy += seg_power[k] * (hi - lo)
                cursor = hi
        if cursor < t1:
            energy += self._idle_energy(cursor, t1)
        return energy

    def energy_between_many(self, t0s, t1s) -> np.ndarray:
        """True board energies (J) over many windows in one vectorized pass.

        The batched counterpart of :meth:`energy_between`. Each chunk of
        windows finds the intervals of the board's interval table
        (:meth:`_interval_table`) it touches with ``searchsorted`` and
        integrates as an overlap product against that slice only, so a
        query costs O(window), not O(history).

        The slice is widened down to a multiple of :data:`_BLAS_ALIGN` and
        multiplied against the whole rest of the interval vector (zeros
        outside the windows), with the row chunking of a full-length
        product. That keeps the BLAS reduction order: with a
        single-threaded BLAS the result is bitwise the product against the
        full interval vector. (A multi-threaded BLAS splits long products
        across threads by shape, so there the two can differ in the last
        ulp.) Windows that start before the board existed see idle power
        at its first clocks; the last interval extends past every window.
        Sums accumulate positive contributions only, so there is no
        cancellation; agreement with per-window :meth:`energy_between` is
        within a few ulp per interval.
        """
        t0 = np.asarray(t0s, dtype=float)
        t1 = np.asarray(t1s, dtype=float)
        if t0.shape != t1.shape:
            raise SimulationError(
                f"window arrays have mismatched shapes ({t0.shape} vs {t1.shape})"
            )
        if t0.size == 0:
            return np.zeros_like(t0)
        bad = ~(np.isfinite(t0) & np.isfinite(t1))
        if np.any(bad):
            i = int(np.argmax(bad))
            raise SimulationError(
                f"energy window not finite: [{t0.flat[i]!r}, {t1.flat[i]!r}]"
            )
        if np.any(t1 < t0):
            i = int(np.argmax(t1 < t0))
            raise SimulationError(
                f"energy window reversed: [{t0.flat[i]!r}, {t1.flat[i]!r}]"
            )
        flat0, flat1 = t0.reshape(-1), t1.reshape(-1)
        edges, power = self._interval_table()
        floor = float(flat0.min())
        if floor < edges[0]:
            # Windows before the board existed: one more interval in front,
            # at idle power with the first recorded clocks.
            core, mem = self._clock_values[0]
            p_floor = self.power_model.power(
                np.asarray([core], dtype=float), np.asarray([mem], dtype=float), 0.0, 0.0
            )
            edges = np.concatenate(([floor], edges))
            power = np.concatenate((p_floor, power))
        n = edges.size
        # The last interval extends past every window (idle tail).
        ceil = max(float(flat1.max()), float(edges[-1])) + 1.0
        out = np.empty(flat0.shape)
        chunk = max(1, 2_000_000 // n)
        for k in range(0, flat0.size, chunk):
            o0 = flat0[k : k + chunk, None]
            o1 = flat1[k : k + chunk, None]
            # Intervals [q, r) can touch a window of this chunk; the product
            # runs over the aligned suffix [q0, n).
            q = max(int(np.searchsorted(edges, o0.min(), side="left")) - 1, 0)
            r = int(np.searchsorted(edges, o1.max(), side="right"))
            q0 = q - q % _BLAS_ALIGN
            lo = edges[q:r]
            hi = edges[q + 1 : r + 1] if r < n else np.append(edges[q + 1 :], ceil)
            overlap = np.zeros((o0.shape[0], n - q0))
            overlap[:, q - q0 : r - q0] = np.clip(
                np.minimum(hi[None, :], o1) - np.maximum(lo[None, :], o0), 0.0, None
            )
            out[k : k + chunk] = overlap @ power[q0:]
        return out.reshape(t0.shape)

    def _interval_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Breakpoints and per-interval power of the whole timeline.

        ``edges`` are the sorted unique instants the board's power can
        change (segment starts and ends, clock changes), starting at the
        board's creation; ``power[i]`` holds over ``[edges[i],
        edges[i + 1])``, the last interval running on indefinitely. Every
        timeline mutation lowers the dirty horizon to the earliest instant
        it touches; this rebuilds only the entries at or after it, from the
        list tails found by bisection, in amortised O(new entries).
        """
        h = self._dirty_s
        if h != math.inf:
            # The tails start at the last segment and the last clock change
            # before the horizon: the state in effect when it is crossed.
            i = max(bisect.bisect_left(self._seg_start, h) - 1, 0)
            c = max(bisect.bisect_left(self._clock_times, h) - 1, 0)
            seg_s = np.asarray(self._seg_start[i:], dtype=float)
            seg_e = np.asarray(self._seg_end[i:], dtype=float)
            clk_t = np.asarray(self._clock_times[c:], dtype=float)
            lo = np.unique(np.concatenate((seg_s, seg_e, clk_t)))
            lo = lo[np.searchsorted(lo, h) :]
            # Power over each new interval: the busy segment covering it,
            # or idle power at the clocks then in effect.
            j = np.maximum(np.searchsorted(clk_t, lo, side="right") - 1, 0)
            values = self._clock_values[c:]
            cores = np.asarray([core for core, _ in values], dtype=float)[j]
            mems = np.asarray([mem for _, mem in values], dtype=float)[j]
            power = np.asarray(self.power_model.power(cores, mems, 0.0, 0.0))
            if seg_s.size:
                j = np.searchsorted(seg_s, lo, side="right") - 1
                jc = np.maximum(j, 0)
                busy = (j >= 0) & (lo < seg_e[jc])
                power = np.where(busy, np.asarray(self._seg_power[i:])[jc], power)
            keep = int(np.searchsorted(self._edge_buf[: self._n_edges], h))
            n = keep + lo.size
            if n > self._edge_buf.size:
                self._edge_buf = np.resize(self._edge_buf, n + n // 4)
                self._power_buf = np.resize(self._power_buf, n + n // 4)
            self._edge_buf[keep:n] = lo
            self._power_buf[keep:n] = power
            self._n_edges = n
            self._dirty_s = math.inf
        return self._edge_buf[: self._n_edges], self._power_buf[: self._n_edges]

    def _idle_energy(self, t0: float, t1: float) -> float:
        """Idle energy over a gap, split at clock-change boundaries."""
        energy = 0.0
        cursor = t0
        i = bisect.bisect_right(self._clock_times, t0)
        j = bisect.bisect_left(self._clock_times, t1, lo=i)
        for boundary in self._clock_times[i:j] + [t1]:
            core, mem = self.clocks_at(cursor)
            energy += self.power_model.idle_power(core, mem) * (boundary - cursor)
            cursor = boundary
        return energy

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimulatedGPU({self.spec.name!r}, index={self.index}, "
            f"clocks={self._core_mhz}/{self._mem_mhz} MHz, "
            f"restricted={self.api_restricted})"
        )
