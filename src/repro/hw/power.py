"""Board power model.

``P(f_core, f_mem, u_core, u_mem) = P_idle
    + P_core_max · (V(f)/V_max)² · (f/f_max) · (α + (1-α)·u_core)
    + P_mem_max  · (f_mem/f_mem_max)        · (β + (1-β)·u_mem)``

The ``α``/``β`` floors model clock-tree and always-on domain power that burns
whenever the clocks run, even at low utilization — the reason an idle-ish but
high-clocked GPU still draws well above ``P_idle``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import ValidationError
from repro.hw.specs import GPUSpec
from repro.hw.voltage import VoltageCurve


@dataclass(frozen=True)
class PowerModel:
    """Analytic power model bound to one device spec."""

    spec: GPUSpec
    #: Utilization-independent fraction of core-domain dynamic power.
    core_floor: float = 0.10
    #: Utilization-independent fraction of memory-domain dynamic power.
    mem_floor: float = 0.12
    curve: VoltageCurve = field(init=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.core_floor < 1.0 or not 0.0 <= self.mem_floor < 1.0:
            raise ValidationError("power floors must be in [0, 1)")
        object.__setattr__(
            self,
            "curve",
            VoltageCurve(
                f_min_mhz=float(self.spec.min_core_mhz),
                f_max_mhz=float(self.spec.max_core_mhz),
                v_min=self.spec.v_min,
                v_max=self.spec.v_max,
                gamma=self.spec.v_gamma,
            ),
        )

    def power(
        self,
        core_mhz: float | np.ndarray,
        mem_mhz: float | np.ndarray,
        u_core: float | np.ndarray,
        u_mem: float | np.ndarray,
    ) -> float | np.ndarray:
        """Instantaneous board power (W) for the given clocks and utilizations.

        ``u_core`` is the *switching activity* of the core domain: phase
        occupancy × issue-slot activity (an FMA-dense kernel at full
        occupancy has ``u_core ≈ 1``; a divider-bound kernel keeps most of
        the datapath dark even when compute-bound). ``u_mem`` is the DRAM
        phase occupancy.
        """
        u_core = np.clip(u_core, 0.0, 1.0)
        u_mem = np.clip(u_mem, 0.0, 1.0)
        core_scale = self.curve.normalized_v2f(core_mhz)
        mem_scale = np.asarray(mem_mhz, dtype=float) / float(
            self.spec.mem_freqs_mhz[-1]
        )
        p = (
            self.spec.idle_power_w
            + self.spec.core_power_w
            * core_scale
            * (self.core_floor + (1.0 - self.core_floor) * u_core)
            + self.spec.mem_power_w
            * mem_scale
            * (self.mem_floor + (1.0 - self.mem_floor) * u_mem)
        )
        if np.isscalar(core_mhz) and np.isscalar(u_core):
            return float(p)
        return p

    def idle_power(self, core_mhz: float, mem_mhz: float) -> float:
        """Board power with zero utilization at the given clocks."""
        return float(self.power(core_mhz, mem_mhz, 0.0, 0.0))

    def peak_power(self) -> float:
        """Board power at maximum clocks and full utilization (≈ TDP)."""
        return float(
            self.power(
                self.spec.max_core_mhz, self.spec.mem_freqs_mhz[-1], 1.0, 1.0
            )
        )

    def power_bounds(self) -> tuple[float, float]:
        """The reachable ``[P_idle, P_peak]`` average-power envelope (W).

        Any measured or modeled average kernel power must land in this
        interval — the physical sanity bound the sweep-physics tests check
        every sweep against.
        """
        return self.spec.idle_power_w, self.peak_power()
