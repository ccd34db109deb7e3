"""Consistency between the analytic sweep and actual device execution.

``measure_sweep`` computes time/energy directly from the timing/power
models for speed; the device's ``execute`` path must agree exactly — the
training data is only trustworthy if both paths describe the same machine.

The sweep-physics suite (marked ``validate``) asserts the invariants the
paper's verdicts rest on over real benchmark sweeps: physically bounded
energy and power, Fig. 4's single interior energy valley and its
``MIN_ENERGY ≤ MIN_EDP ≤ MIN_ED2P ≤ MAX_PERF`` clock order, the ES_x /
PL_x semantics of §5.2–5.3, and a consistent Pareto front (Figs. 2/7/8).
"""

import math

import numpy as np
import pytest

from oracles.pareto import front_violations
from repro.apps import get_benchmark
from repro.core.models import measure_sweep
from repro.core.sweepcache import scoped_cache
from repro.experiments.sweep import sweep_kernel
from repro.hw.cache import models_for
from repro.hw.device import SimulatedGPU
from repro.hw.specs import AMD_MI100, NVIDIA_V100
from repro.kernelir.instructions import InstructionMix
from repro.kernelir.kernel import KernelIR
from repro.metrics.targets import (
    MAX_PERF,
    MIN_ED2P,
    MIN_EDP,
    MIN_ENERGY,
    EnergyTarget,
    TargetKind,
)

KERNELS = [
    KernelIR("c", InstructionMix(float_add=30, float_mul=30, gl_access=2),
             work_items=1 << 22),
    KernelIR("m", InstructionMix(float_add=1, gl_access=6), work_items=1 << 23),
    KernelIR(
        "b",
        InstructionMix(float_add=10, float_div=4, sf=6, gl_access=8),
        work_items=1 << 22,
        locality=0.4,
    ),
]


@pytest.mark.parametrize("spec", [NVIDIA_V100, AMD_MI100], ids=["v100", "mi100"])
@pytest.mark.parametrize("kernel", KERNELS, ids=[k.name for k in KERNELS])
def test_sweep_matches_device_execution(spec, kernel):
    probe_freqs = spec.core_freqs_mhz[:: max(len(spec.core_freqs_mhz) // 5, 1)]
    freqs, times, energies = measure_sweep(spec, kernel, core_freqs_mhz=probe_freqs)
    for f, t, e in zip(freqs, times, energies):
        gpu = SimulatedGPU(spec)
        gpu.set_application_clocks(spec.default_mem_mhz, int(f))
        record = gpu.execute(kernel)
        assert record.time_s == pytest.approx(t, rel=1e-12)
        assert record.energy_j == pytest.approx(e, rel=1e-12)


def test_training_energy_positive_and_finite():
    from repro.core.models import build_training_set
    from repro.kernelir.microbench import generate_microbenchmarks

    ts = build_training_set(
        NVIDIA_V100,
        generate_microbenchmarks(random_count=4),
        core_freqs_mhz=NVIDIA_V100.core_freqs_mhz[::48],
    )
    assert np.all(np.isfinite(ts.X))
    assert np.all(ts.time_s > 0)
    assert np.all(ts.energy_j > 0)
    # EDP/ED2P ordering: ed2p = edp * t.
    assert np.allclose(ts.ed2p_js2, ts.edp_js * ts.time_s)
    # Kernel ids tag contiguous frequency blocks.
    n_freqs = len(NVIDIA_V100.core_freqs_mhz[::48])
    assert np.all(np.diff(ts.kernel_ids) >= 0)
    counts = np.bincount(ts.kernel_ids)
    assert np.all(counts == n_freqs)


#: Real benchmarks of the sweep-physics suite: the golden-scenario kernels
#: plus the Fig. 4 and Fig. 2 protagonists.
PHYSICS_KERNELS = ("gemm", "sobel3", "median", "black_scholes", "lin_reg_coeff")

#: Relative tolerance between algebraically equal quantities computed
#: along different paths.
RTOL = 1e-9


@pytest.mark.validate
@pytest.mark.parametrize("spec", [NVIDIA_V100, AMD_MI100], ids=["v100", "mi100"])
@pytest.mark.parametrize("name", PHYSICS_KERNELS)
def test_real_sweep_physics(spec, name):
    with scoped_cache():
        sweep = sweep_kernel(spec, get_benchmark(name).kernel)
    t = np.asarray(sweep.time_s, dtype=float)
    e = np.asarray(sweep.energy_j, dtype=float)

    # Finite, positive time and energy; P_idle <= E/t <= P_peak.
    assert np.all(np.isfinite(t)) and np.all(np.isfinite(e))
    assert np.all(t > 0) and np.all(e > 0)
    idle, peak = models_for(spec)[1].power_bounds()
    avg_power = e / t
    assert np.all(avg_power >= idle * (1.0 - RTOL))
    assert np.all(avg_power <= peak * (1.0 + RTOL))

    # One descend-then-ascend energy valley with an interior minimum.
    d = np.diff(e)
    slopes = np.sign(np.where(np.abs(d) <= RTOL * np.max(np.abs(e)), 0.0, d))
    slopes = slopes[slopes != 0]
    assert np.all(np.diff(slopes) >= 0), "energy(f) has more than one valley"
    assert 0 < int(np.argmin(e)) < e.size - 1, "energy minimum on a table edge"

    # Fig. 4: f(MIN_ENERGY) <= f(MIN_EDP) <= f(MIN_ED2P) <= f(MAX_PERF).
    freqs = [
        float(sweep.freqs_mhz[sweep.resolve(target)])
        for target in (MIN_ENERGY, MIN_EDP, MIN_ED2P, MAX_PERF)
    ]
    assert freqs == sorted(freqs), freqs

    # §5.2–5.3: ES_100 is the energy minimum, PL_0 is no slower than the
    # default, every ES/PL selection saves energy and both ladders only
    # get more frugal as x grows.
    e_default = float(e[sweep.default_index])
    es_100 = sweep.resolve(EnergyTarget(TargetKind.ES, 100.0))
    assert math.isclose(float(e[es_100]), float(np.min(e)), rel_tol=RTOL)
    pl_0 = sweep.resolve(EnergyTarget(TargetKind.PL, 0.0))
    assert float(t[pl_0]) <= float(t[sweep.default_index]) * (1.0 + RTOL)
    grid = (0.0, 25.0, 50.0, 75.0, 100.0)
    for kind in (TargetKind.ES, TargetKind.PL):
        ladder = [float(e[sweep.resolve(EnergyTarget(kind, x))]) for x in grid]
        assert all(v <= e_default * (1.0 + RTOL) for v in ladder), ladder
        assert all(
            a >= b - RTOL * abs(a) for a, b in zip(ladder, ladder[1:])
        ), ladder

    # Figs. 2/7/8: a consistent Pareto mask holding both extremes.
    mask = np.asarray(sweep.pareto_mask, dtype=bool)
    assert front_violations(sweep.speedup, sweep.normalized_energy, mask) == (0, 0)
    assert mask[int(np.argmin(t))] and mask[int(np.argmin(e))]
