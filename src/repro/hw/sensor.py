"""Sampled power sensor.

Real GPU power reads are asynchronous and rate-limited: the paper (§4.4,
citing Burtscher et al.) notes that meaningful readings need sampling
intervals around 15 ms, so very short kernels cannot be profiled accurately.
:class:`PowerSensor` reproduces this limitation: it reads the device's true
instantaneous power only on a fixed virtual-time sampling grid, applies a
first-order lag (the on-board averaging window) and seeded gaussian noise,
then integrates the samples with the trapezoid rule.

Benchmarks that need ground truth use the board's analytic integral,
:meth:`repro.hw.device.SimulatedGPU.energy_between`, instead. Both read
the same power timeline: the sensor samples
:meth:`~repro.hw.device.SimulatedGPU.instantaneous_power`, which looks
up the interval table that the integral sums over.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import TransientError, ValidationError
from repro.common.rng import derive_seed, make_rng
from repro.hw.device import SimulatedGPU
from repro.obs.session import TraceSession, resolve_trace

#: Default sampling interval (s): the ~15 ms hardware limitation from §4.4.
DEFAULT_SAMPLING_INTERVAL_S: float = 15.0e-3


class SensorDropoutError(TransientError):
    """Raised when every sample in a requested window was dropped.

    Transient: the sensor is expected to come back; callers (the energy
    profiler) fall back to the analytic estimate for the affected window.
    """


@dataclass(frozen=True)
class PowerSample:
    """One sensor reading: virtual timestamp and reported power (W)."""

    t: float
    power_w: float


class PowerSensor:
    """Rate-limited, lagged, noisy view of a device's power draw."""

    def __init__(
        self,
        device: SimulatedGPU,
        sampling_interval_s: float = DEFAULT_SAMPLING_INTERVAL_S,
        lag_fraction: float = 0.5,
        noise_std_w: float = 1.5,
        seed: int | None = None,
        trace: TraceSession | None = None,
    ) -> None:
        if sampling_interval_s <= 0:
            raise ValidationError(
                f"sampling interval must be positive ({sampling_interval_s!r})"
            )
        if not 0.0 <= lag_fraction <= 1.0:
            raise ValidationError(f"lag fraction must be in [0, 1] ({lag_fraction!r})")
        if noise_std_w < 0:
            raise ValidationError(f"noise std cannot be negative ({noise_std_w!r})")
        self.device = device
        self.trace = resolve_trace(trace)
        self._track = f"sensor{device.index}"
        self.sampling_interval_s = float(sampling_interval_s)
        self.lag_fraction = float(lag_fraction)
        self.noise_std_w = float(noise_std_w)
        self._seed = (
            derive_seed(device.spec.name, device.index, "power-sensor")
            if seed is None
            else int(seed)
        )

    def sample_window(self, t0: float, t1: float) -> list[PowerSample]:
        """Sensor readings on the sampling grid covering ``[t0, t1]``.

        The grid is global (anchored at t=0), not at ``t0``: a real sensor
        free-runs regardless of when the caller starts watching. Each
        reading is lagged by ``lag_fraction`` of an interval (the hardware
        averaging delay) and carries seeded gaussian noise. With a fault
        injector attached to the device, samples may be dropped
        (``hw.sensor_dropout``) or frozen at the previous reading
        (``hw.sensor_stuck``).
        """
        if t1 < t0:
            raise ValidationError(f"sample window reversed: [{t0!r}, {t1!r}]")
        dt = self.sampling_interval_s
        first_idx = int(np.floor(t0 / dt))
        last_idx = int(np.ceil(t1 / dt))
        times = np.arange(first_idx, last_idx + 1, dtype=float) * dt
        lag = self.lag_fraction * dt
        rng = make_rng(derive_seed(self._seed, first_idx, last_idx))
        noise = rng.normal(0.0, self.noise_std_w, size=times.shape)
        injector = self.device.fault_injector
        samples: list[PowerSample] = []
        last_power: float | None = None
        for t, eps in zip(times, noise):
            if injector is not None and injector.fires(
                "hw.sensor_dropout", float(t), target=self.device.index
            ):
                continue
            if (
                injector is not None
                and last_power is not None
                and injector.active(
                    "hw.sensor_stuck", float(t), target=self.device.index
                )
            ):
                samples.append(PowerSample(t=float(t), power_w=last_power))
                continue
            read_at = max(t - lag, 0.0)
            power = self.device.instantaneous_power(read_at) + float(eps)
            last_power = max(power, 0.0)
            samples.append(PowerSample(t=float(t), power_w=last_power))
        return samples

    def measure_energy(self, t0: float, t1: float) -> float:
        """Sensor-estimated energy (J) over ``[t0, t1]`` via trapezoid rule.

        For windows shorter than one sampling interval this degrades to a
        single-sample rectangle — the small-kernel inaccuracy of §4.4.
        """
        samples = self.sample_window(t0, t1)
        if not samples:
            if self.trace.enabled:
                self.trace.instant(
                    t1, self._track, "sensor.dropout", "window empty", t0=t0, t1=t1
                )
                self.trace.count("sensor.dropouts")
            raise SensorDropoutError(
                f"sensor returned no samples in [{t0:.6f}, {t1:.6f}]s"
            )
        if len(samples) == 1:
            energy = samples[0].power_w * (t1 - t0)
        else:
            times = np.array([s.t for s in samples])
            powers = np.array([s.power_w for s in samples])
            # Clip the integration range to the requested window: interpolate
            # power at the window edges from the neighbouring grid samples.
            p0 = float(np.interp(t0, times, powers))
            p1 = float(np.interp(t1, times, powers))
            inside = (times > t0) & (times < t1)
            ts = np.concatenate(([t0], times[inside], [t1]))
            ps = np.concatenate(([p0], powers[inside], [p1]))
            energy = float(np.trapezoid(ps, ts))
        if self.trace.enabled:
            self.trace.add_span(
                self._track,
                "sensor.window",
                "measure",
                t0,
                t1,
                n_samples=len(samples),
                energy_j=energy,
            )
            self.trace.count("sensor.windows")
        return energy

    def measure_average_power(self, t0: float, t1: float) -> float:
        """Sensor-estimated mean power (W) over a window."""
        if t1 <= t0:
            samples = self.sample_window(t0, t0)
            if not samples:
                raise SensorDropoutError(
                    f"sensor returned no sample at t={t0:.6f}s"
                )
            return samples[-1].power_w
        return self.measure_energy(t0, t1) / (t1 - t0)
