"""Board energy integrators against their full-history oracles.

``SimulatedGPU.energy_between_many`` integrates windows against a lazily
maintained interval table, multiplying only the slice of it a batch
touches; ``energy_between`` is its one-window form. Both must give
exactly the bits of the full-history product in
:mod:`tests.oracles.energy`, and the full segment walk there stays an
independent witness at rel 1e-12. The property suite drives random timelines
(kernels, transfers, set/reset and equal-time clock changes, clock plans
with merges, bulk segment runs) with queries interleaved between commits,
so the table is refreshed from every kind of dirty horizon. Regression
tests pin the rejection of non-finite and reversed windows.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import energy as oracle
from repro.common.clock import VirtualClock
from repro.common.errors import SimulationError
from repro.hw.device import _BLAS_ALIGN, SimulatedGPU
from repro.hw.specs import NVIDIA_V100
from repro.kernelir.instructions import InstructionMix
from repro.kernelir.kernel import KernelIR

pytestmark = pytest.mark.engine

KERNELS = (
    KernelIR("fma", InstructionMix(float_add=40, float_mul=40, gl_access=2),
             work_items=1 << 16, locality=0.5),
    KernelIR("stream", InstructionMix(float_add=1, gl_access=4), work_items=1 << 18),
)
CORES = NVIDIA_V100.core_freqs_mhz
MEM = NVIDIA_V100.default_mem_mhz

#: Small non-negative steps; zero (equal-time changes, back-to-back
#: segments) is drawn often.
steps = st.one_of(st.just(0.0), st.floats(1e-6, 2e-3))
windows = st.tuples(
    st.floats(-0.05, 1.05),  # start, as a fraction of the history span
    st.one_of(st.just(0.0), st.floats(0.0, 1.2)),  # width, same scale
)
ops = st.one_of(
    st.tuples(st.just("execute"), st.integers(0, len(KERNELS) - 1), steps),
    st.tuples(st.just("transfer"), st.floats(0.0, 1e8), steps),
    st.tuples(st.just("set"), steps, st.sampled_from(CORES)),
    st.tuples(st.just("reset"), steps),
    st.tuples(
        st.just("plan"),
        st.lists(st.tuples(steps, st.sampled_from(CORES)), min_size=1, max_size=6),
    ),
    st.tuples(
        st.just("extend"),
        st.lists(st.tuples(steps, steps, st.floats(40.0, 300.0)),
                 min_size=1, max_size=8),
    ),
    st.tuples(st.just("advance"), steps),
    st.tuples(st.just("query"), st.lists(windows, min_size=1, max_size=6)),
)


def _apply(gpu: SimulatedGPU, op) -> None:
    """Commit one timeline mutation, keeping the clock past every change."""
    kind = op[0]
    clock = gpu.clock
    if kind == "execute":
        gpu.execute(KERNELS[op[1]], submit_time=max(0.0, clock.now - op[2]))
    elif kind == "transfer":
        gpu.transfer(op[1], submit_time=max(0.0, clock.now - op[2]))
    elif kind == "set":
        clock.advance(op[1])
        gpu.set_application_clocks(MEM, op[2])
    elif kind == "reset":
        clock.advance(op[1])
        gpu.reset_application_clocks()
    elif kind == "plan":
        times, t = [], clock.now
        for dt, _ in op[1]:
            t += dt
            times.append(t)
        gpu.apply_clock_plan(times, [(core, MEM) for _, core in op[1]])
        clock.advance_to(times[-1])
    elif kind == "extend":
        _extend(gpu, [(g, d) for g, d, _ in op[1]], [p for _, _, p in op[1]])
    elif kind == "advance":
        clock.advance(op[1])


def _extend(gpu: SimulatedGPU, gaps_durations, powers) -> None:
    """Append segments back to back from the busy horizon (gap, duration)."""
    starts, ends, t = [], [], gpu.busy_until
    for gap, duration in gaps_durations:
        starts.append(t + gap)
        ends.append(starts[-1] + duration)
        t = ends[-1]
    gpu.extend_power_timeline(starts, ends, powers)
    gpu.clock.advance_to(max(gpu.clock.now, t))


def _query(gpu: SimulatedGPU, fractions) -> None:
    """Batched and one-window queries scaled to the history, vs the oracles."""
    origin = gpu._clock_times[0]
    span = max(gpu.clock.now - origin, 1e-3)
    t0 = np.asarray([origin + f * span for f, _ in fractions])
    t1 = t0 + np.asarray([w * span for _, w in fractions])
    got = gpu.energy_between_many(t0, t1)
    want = oracle.energy_between_many(gpu, t0, t1)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    for a, b in zip(t0[:4], t1[:4]):
        one = gpu.energy_between(float(a), float(b))
        (want,) = oracle.energy_between_many(gpu, [a], [b])
        assert np.float64(one).view(np.int64) == want.view(np.int64)
        assert one == pytest.approx(
            oracle.energy_between(gpu, float(a), float(b)), rel=1e-12, abs=0.0
        )


@pytest.fixture(autouse=True)
def _serial_blas():
    with oracle.single_blas_thread():
        yield


#: Every mutation kind in one history: an equal-time clock overwrite, a
#: plan merging into it (and within itself), segments committed before
#: the last clock change, a zero-length segment, and windows before
#: creation, zero-width and past the end.
EVERY_MUTATION = [
    ("execute", 0, 0.0),
    ("set", 1e-3, CORES[-1]),
    ("plan", [(0.0, CORES[0]), (0.0, CORES[5]), (1e-3, CORES[40])]),
    ("set", 0.0, CORES[10]),
    ("query", [(0.5, 0.0), (0.2, 0.5)]),
    ("extend", [(0.0, 1e-3, 100.0), (0.0, 0.0, 50.0), (2e-4, 1e-4, 70.0)]),
    ("query", [(-0.05, 0.0), (-0.05, 0.5), (1.0, 0.2)]),
    ("transfer", 1e6, 2e-3),
    ("reset", 0.0),
]


class TestIntervalTableProperties:
    @example(0.25, EVERY_MUTATION, [(0.0, 1.0), (1.05, 0.0)])
    @given(
        st.sampled_from([0.0, 0.25]),
        st.lists(ops, min_size=1, max_size=30),
        st.lists(windows, min_size=1, max_size=6),
    )
    @settings(max_examples=80, deadline=None)
    def test_bitwise_equal_to_full_history(self, created, history, final):
        gpu = SimulatedGPU(NVIDIA_V100, clock=VirtualClock(created))
        for op in history:
            if op[0] == "query":
                _query(gpu, op[1])
            else:
                _apply(gpu, op)
        _query(gpu, final)

    @given(
        st.integers(0, 2**32 - 1),
        st.lists(ops.filter(lambda op: op[0] != "query"), max_size=6),
        st.sampled_from(["recent", "spread"]),
    )
    @settings(max_examples=8, deadline=None)
    def test_long_history_and_multi_chunk_batches(self, seed, tail, where):
        """Histories past one alignment block, batches past one row chunk."""
        rng = np.random.default_rng(seed)
        gpu = SimulatedGPU(NVIDIA_V100)
        for _ in range(3):
            n = int(rng.integers(1000, 1400))
            gaps = rng.exponential(1e-3, n) * (rng.random(n) < 0.8)
            gpu.clock.advance(float(rng.exponential(1e-3)))
            gpu.set_application_clocks(MEM, int(rng.choice(CORES)))
            _extend(gpu, zip(gaps, rng.exponential(1e-3, n)), rng.uniform(40, 300, n))
            _query(gpu, [(1.0, 0.0), (0.9, 0.1)])
        for op in tail:
            _apply(gpu, op)
        edges, _ = gpu._interval_table()
        assert edges.size > _BLAS_ALIGN
        rows = 2_000_000 // edges.size + 1 + int(rng.integers(0, 50))
        lo = 0.8 if where == "recent" else -0.05
        starts = rng.uniform(lo, 1.05, rows)
        widths = rng.exponential(0.05, rows) * (rng.random(rows) < 0.9)
        _query(gpu, list(zip(starts, widths)))


class TestWindowValidation:
    @pytest.mark.parametrize(
        "t0, t1, match",
        [
            (math.nan, 1.0, "not finite"),
            (0.0, math.nan, "not finite"),
            (0.0, math.inf, "not finite"),
            (-math.inf, 1.0, "not finite"),
            (1.0, 0.5, "reversed"),
        ],
    )
    def test_bad_windows_raise(self, v100, t0, t1, match):
        v100.clock.advance(1.0)
        with pytest.raises(SimulationError, match=match):
            v100.energy_between(t0, t1)
        with pytest.raises(SimulationError, match=match):
            v100.energy_between_many([0.0, t0], [1.0, t1])
