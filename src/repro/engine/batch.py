"""Struct-of-arrays batch representations.

:class:`KernelBatch` holds one queue's worth of kernel submissions as
parallel tuples/arrays — kernels, clock requests, and (after resolution)
the contiguous clock/frequency-plan-index arrays the executor broadcasts
over.

Request forms mirror :meth:`repro.core.queue.SynergyQueue.submit`:

- a bare :class:`~repro.kernelir.kernel.KernelIR` (queue clocks or
  driver defaults apply),
- ``(EnergyTarget, kernel)`` — resolved through the plan/predictor,
- ``(mem_mhz, core_mhz, kernel)`` — explicit clocks, validated at
  assembly time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.common.errors import ValidationError
from repro.hw.specs import GPUSpec
from repro.kernelir.kernel import KernelIR
from repro.metrics.targets import EnergyTarget

#: One submission request: kernel plus an optional clock request.
#: ``request`` is ``None`` (no per-submission request), an
#: :class:`EnergyTarget`, or an explicit ``(mem_mhz, core_mhz)`` pair.
Request = "None | EnergyTarget | tuple[int, int]"


@dataclass(frozen=True)
class KernelBatch:
    """A batch of kernel submissions in struct-of-arrays form."""

    kernels: tuple[KernelIR, ...]
    requests: tuple[object, ...]

    def __post_init__(self) -> None:
        if len(self.kernels) != len(self.requests):
            raise ValidationError(
                f"kernels/requests length mismatch "
                f"({len(self.kernels)} vs {len(self.requests)})"
            )

    def __len__(self) -> int:
        return len(self.kernels)

    @classmethod
    def from_requests(cls, requests: Iterable[object]) -> "KernelBatch":
        """Assemble a batch from submit-style request items.

        Each item is a bare :class:`KernelIR`, ``(EnergyTarget, kernel)``
        or ``(mem_mhz, core_mhz, kernel)`` — the same three forms
        :meth:`SynergyQueue.submit` accepts, minus the command-group
        indirection (batched submissions are dependency-free
        ``parallel_for`` launches).
        """
        kernels: list[KernelIR] = []
        reqs: list[object] = []
        for item in requests:
            if isinstance(item, KernelIR):
                kernels.append(item)
                reqs.append(None)
            elif (
                isinstance(item, tuple)
                and len(item) == 2
                and isinstance(item[0], EnergyTarget)
                and isinstance(item[1], KernelIR)
            ):
                kernels.append(item[1])
                reqs.append(item[0])
            elif (
                isinstance(item, tuple)
                and len(item) == 3
                and isinstance(item[0], int)
                and isinstance(item[1], int)
                and isinstance(item[2], KernelIR)
            ):
                kernels.append(item[2])
                reqs.append((item[0], item[1]))
            else:
                raise ValidationError(
                    "batch items must be KernelIR, (EnergyTarget, KernelIR) "
                    f"or (mem_mhz, core_mhz, KernelIR); got {item!r}"
                )
        return cls(kernels=tuple(kernels), requests=tuple(reqs))

    def validate_explicit_clocks(self, spec: GPUSpec) -> None:
        """Submit-time validation of every explicit clock pair.

        Mirrors the scalar path, where an invalid pair raises in
        ``submit`` rather than later inside ``_pre_kernel`` — for a batch
        the whole assembly is validated before anything executes.
        """
        unique = {r for r in self.requests if isinstance(r, tuple)}
        for mem_mhz, core_mhz in unique:
            spec.validate_clocks(mem_mhz, core_mhz)


@dataclass(frozen=True)
class ResolvedBatch:
    """A :class:`KernelBatch` with every clock request made concrete.

    Contiguous arrays, one entry per submission: the effective
    application clocks (after carrying queue clocks / previous clocks
    forward for request-free submissions), the index of each core clock
    in the device frequency table (the *frequency-plan index* the
    executor gathers timing/power columns with), and the effective-
    switch mask against the running clock state.
    """

    batch: KernelBatch
    #: Effective application memory clock per submission (int MHz).
    mem_mhz: np.ndarray
    #: Effective application core clock per submission (int MHz).
    core_mhz: np.ndarray
    #: Index of ``core_mhz`` in ``spec.core_freqs_mhz``.
    core_index: np.ndarray
    #: True where applying submission ``i`` changes the board clocks.
    switches: np.ndarray

    def __len__(self) -> int:
        return len(self.batch)

    @property
    def n_switches(self) -> int:
        """Number of effective clock changes in the batch."""
        return int(np.count_nonzero(self.switches))


def resolve_effective_clocks(
    batch: KernelBatch,
    resolved: "list[tuple[int, int] | None]",
    current: tuple[int, int],
) -> ResolvedBatch:
    """Carry clock requests forward into effective per-submission clocks.

    ``resolved`` holds one ``(mem_mhz, core_mhz)`` per submission (or
    ``None`` where the submission makes no request and inherits whatever
    clocks are then in effect); ``current`` is the board's
    ``(core_mhz, mem_mhz)`` application-clock state at batch start. The
    effective clocks replicate the scalar path exactly: a request-free
    submission runs at the previous submission's effective clocks, and
    the switch mask marks submissions whose request actually changes the
    board state (the redundancy skip of ``FrequencyScaler``).
    """
    n = len(batch)
    cur_core, cur_mem = current
    req_mem = np.empty(n, dtype=int)
    req_core = np.empty(n, dtype=int)
    has_req = np.zeros(n, dtype=bool)
    for i, pair in enumerate(resolved):
        if pair is None:
            req_mem[i] = 0
            req_core[i] = 0
        else:
            req_mem[i], req_core[i] = pair
            has_req[i] = True
    # Carry-forward: index of the latest request at or before each slot.
    latest = np.maximum.accumulate(np.where(has_req, np.arange(n), -1))
    eff_mem = np.where(latest >= 0, req_mem[np.maximum(latest, 0)], cur_mem)
    eff_core = np.where(latest >= 0, req_core[np.maximum(latest, 0)], cur_core)
    prev_core = np.concatenate(([cur_core], eff_core[:-1]))
    prev_mem = np.concatenate(([cur_mem], eff_mem[:-1]))
    switches = (eff_core != prev_core) | (eff_mem != prev_mem)
    return ResolvedBatch(
        batch=batch,
        mem_mhz=eff_mem,
        core_mhz=eff_core,
        core_index=np.zeros(n, dtype=int),  # filled by the executor
        switches=switches,
    )


# ``core_index`` is assigned by the executor once the device table is
# known; keep the dataclass frozen by rebuilding instead of mutating.
def with_core_index(resolved: ResolvedBatch, spec: GPUSpec) -> ResolvedBatch:
    """Attach frequency-table indices for the effective core clocks."""
    table = np.asarray(spec.core_freqs_mhz, dtype=int)
    idx = np.searchsorted(table, resolved.core_mhz)
    idx = np.clip(idx, 0, len(table) - 1)
    if not np.array_equal(table[idx], resolved.core_mhz):
        bad = resolved.core_mhz[table[idx] != resolved.core_mhz]
        raise ValidationError(
            f"core clocks not in the device table: {sorted(set(bad.tolist()))}"
        )
    return ResolvedBatch(
        batch=resolved.batch,
        mem_mhz=resolved.mem_mhz,
        core_mhz=resolved.core_mhz,
        core_index=idx,
        switches=resolved.switches,
    )
