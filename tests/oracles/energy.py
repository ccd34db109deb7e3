"""Reference board energy integrators: full-history product and full walk.

The equivalence oracles for the two board integrators of
:class:`repro.hw.device.SimulatedGPU`:

- :func:`energy_between_many` rebuilds every breakpoint and interval power
  from the board's whole segment and clock history on each call and
  multiplies every window against every interval. The board method keeps
  an interval table and multiplies only the slice a window batch touches;
  it must return exactly these bits.
- :func:`energy_between` walks every segment from the first and scans
  every later clock change; the board method starts both by bisection and
  must add the same terms in the same order.

Bit-exactness of the batched product holds with numpy's BLAS on one
thread (:func:`single_blas_thread`): a multi-threaded OpenBLAS splits long
products across threads by shape, so a full-length product and its
suffix then reduce in different orders.
"""

from __future__ import annotations

import bisect
import contextlib
import ctypes
import glob
import os

import numpy as np

from repro.common.errors import SimulationError


def energy_between_many(gpu, t0s, t1s) -> np.ndarray:
    """True board energies (J) of ``gpu`` over many windows (full history)."""
    t0 = np.asarray(t0s, dtype=float)
    t1 = np.asarray(t1s, dtype=float)
    if t0.shape != t1.shape:
        raise SimulationError(
            f"window arrays have mismatched shapes ({t0.shape} vs {t1.shape})"
        )
    if t0.size == 0:
        return np.zeros_like(t0)
    if np.any(t1 < t0):
        i = int(np.argmax(t1 < t0))
        raise SimulationError(
            f"energy window reversed: [{t0.flat[i]!r}, {t1.flat[i]!r}]"
        )
    seg_s = np.asarray(gpu._seg_start, dtype=float)
    seg_e = np.asarray(gpu._seg_end, dtype=float)
    seg_p = np.asarray(gpu._seg_power, dtype=float)
    clk_t = np.asarray(gpu._clock_times, dtype=float)
    # Breakpoints: every instant the board's power can change, plus a
    # floor below every query so the first interval covers all windows.
    floor = min(float(t0.min()), float(clk_t[0]))
    edges = np.unique(np.concatenate(([floor], seg_s, seg_e, clk_t)))
    # Extend the last interval past every query (idle tail).
    ceil = max(float(t1.max()), float(edges[-1])) + 1.0
    lo, hi = edges, np.append(edges[1:], ceil)
    # Power over each interval [lo, hi): the busy segment covering it,
    # or idle power at the clocks then in effect.
    if seg_s.size:
        i = np.searchsorted(seg_s, lo, side="right") - 1
        ic = np.clip(i, 0, None)
        busy = (i >= 0) & (lo < seg_e[ic])
        p_busy = seg_p[ic]
    else:
        busy = np.zeros(lo.shape, dtype=bool)
        p_busy = np.zeros(lo.shape)
    j = np.maximum(np.searchsorted(clk_t, lo, side="right") - 1, 0)
    cores = np.asarray([c for c, _ in gpu._clock_values], dtype=float)[j]
    mems = np.asarray([m for _, m in gpu._clock_values], dtype=float)[j]
    p_idle = np.asarray(
        gpu.power_model.power(cores, mems, 0.0, 0.0), dtype=float
    )
    p = np.where(busy, p_busy, p_idle)
    # Window x interval overlap, chunked to bound peak memory.
    flat0, flat1 = t0.reshape(-1), t1.reshape(-1)
    out = np.empty(flat0.shape)
    chunk = max(1, 2_000_000 // max(lo.size, 1))
    for k in range(0, flat0.size, chunk):
        o0 = flat0[k : k + chunk, None]
        o1 = flat1[k : k + chunk, None]
        overlap = np.minimum(hi[None, :], o1) - np.maximum(lo[None, :], o0)
        out[k : k + chunk] = np.clip(overlap, 0.0, None) @ p
    return out.reshape(t0.shape)


def energy_between(gpu, t0: float, t1: float) -> float:
    """True board energy (J) of ``gpu`` over ``[t0, t1]`` (full walk)."""
    if t1 < t0:
        raise SimulationError(f"energy window reversed: [{t0!r}, {t1!r}]")
    energy = 0.0
    cursor = t0
    for s, e, p in zip(gpu._seg_start, gpu._seg_end, gpu._seg_power):
        if e <= t0:
            continue
        if s >= t1:
            break
        if s > cursor:
            energy += _idle_energy(gpu, cursor, min(s, t1))
            cursor = min(s, t1)
        lo, hi = max(s, cursor), min(e, t1)
        if hi > lo:
            energy += p * (hi - lo)
            cursor = hi
    if cursor < t1:
        energy += _idle_energy(gpu, cursor, t1)
    return energy


def _idle_energy(gpu, t0: float, t1: float) -> float:
    """Idle energy over a gap, scanning every later clock change."""
    energy = 0.0
    cursor = t0
    i = bisect.bisect_right(gpu._clock_times, t0)
    boundaries = [t for t in gpu._clock_times[i:] if t < t1] + [t1]
    for boundary in boundaries:
        core, mem = gpu.clocks_at(cursor)
        energy += gpu.power_model.idle_power(core, mem) * (boundary - cursor)
        cursor = boundary
    return energy


def _openblas_thread_control():
    """``(get, set)`` thread-count functions of numpy's bundled OpenBLAS."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                               ("openblas", "")):
            try:
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}")
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextlib.contextmanager
def single_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread.

    Changes nothing when no bundled OpenBLAS with a thread control is
    found.
    """
    control = _openblas_thread_control()
    if control is None:
        yield
        return
    get, set_ = control
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)
