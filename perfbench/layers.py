"""Per-layer tracing for the benchmark's traced run.

Every public entry point the three workloads reach is wrapped at the
binding its caller looks up: a method on its class, a module function in
every ``repro`` module (and the benchmark's own) that bound it. A wrapper opens a span (name,
start, end, parent, operation id), calls straight through and closes the
span, so the program computes exactly what it computes untraced. Spans
stay in memory and are written out when the run ends.

A span's self time is its duration minus the time its child spans cover;
wall time not covered by any top-level span is reported as ``other``.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

_clock = time.perf_counter


@dataclass(frozen=True)
class Entry:
    """One wrapped entry point and the layer metric it feeds."""

    layer: str  # per-layer metric prefix, e.g. "ml.fit"
    module: str  # module that defines it
    qualname: str  # "func" or "Class.method"
    #: Work items of one call (windows, kernels, nodes ...), from the
    #: call's arguments and result.
    items: Callable[[tuple, object], int] | None = None


#: Wrapped entry points; several may feed one layer.
ENTRIES: tuple[Entry, ...] = (
    Entry("ml.fit", "repro.core.models", "EnergyModelBundle.fit"),
    Entry("ml.predict", "repro.core.models", "EnergyModelBundle.predict_curves"),
    Entry("kernelir.features", "repro.kernelir.features", "extract_features"),
    Entry("core.compile", "repro.core.compiler", "SynergyCompiler.compile"),
    Entry("hw.sweep", "repro.core.models", "measure_sweep"),
    Entry("hw.sweep", "repro.experiments.sweep", "sweep_kernel"),
    Entry("core.plan", "repro.engine.payload", "plan_from_sweeps"),
    Entry("hw.energy_window", "repro.hw.device", "SimulatedGPU.energy_between"),
    Entry(
        "hw.energy_batch", "repro.hw.device", "SimulatedGPU.energy_between_many",
        items=lambda args, result: len(args[1]),
    ),
    Entry("core.queue_submit", "repro.core.queue", "SynergyQueue.submit"),
    Entry(
        "engine.batch", "repro.engine.executor", "execute_batch",
        items=lambda args, result: len(args[1]),
    ),
    Entry("engine.graph", "repro.distributed.runner", "run_graph"),
    Entry("slurm.submit", "repro.slurm.scheduler", "Scheduler.submit"),
    Entry("mpi.comm", "repro.mpi.launcher", "launch_ranks"),
    Entry("mpi.comm", "repro.mpi.comm", "SimulatedComm.barrier"),
    Entry("mpi.comm", "repro.mpi.comm", "SimulatedComm.allreduce"),
    Entry("mpi.comm", "repro.mpi.comm", "SimulatedComm.halo_exchange"),
    Entry("service.admit", "repro.service.plane", "SchedulingService.submit"),
    Entry("service.drain", "repro.service.plane", "SchedulingService.drain"),
    Entry("service.store_append", "repro.service.store", "JobStore.append"),
    Entry("distributed.comm_build", "repro.distributed.runner", "build_comm"),
    Entry(
        "distributed.graph_build", "repro.distributed.stencil",
        "build_stencil_graph",
        items=lambda args, result: len(result.nodes),
    ),
    Entry("core.global_plan", "repro.core.compiler", "plan_global_frequencies"),
)

#: Modules outside ``repro`` that bind entry points: the benchmark's own.
CALLERS = ("workloads",)

#: The layer whose batches may fall back to the scalar path.
_FALLBACK_LAYER = "engine.batch"


class Tracer:
    """In-memory span recorder with patch/unpatch of the entry points.

    ``spans`` holds ``(layer, start, end, parent_index, op_id, items,
    self_s)`` tuples; ``parent_index`` is -1 for a top-level span.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op_id = -1
        self.fallbacks = 0
        self._stack: list[list] = []  # [span index, child seconds]
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrapping

    def _wrap(self, entry: Entry, fn):
        spans, stack = self.spans, self._stack
        layer, items = entry.layer, entry.items
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _clock()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
            # A call that raised leaves its slot empty; the run fails anyway.
            spans[index] = (
                layer, t0, t1, parent, tracer.op_id,
                items(args, result) if items is not None else 0,
                t1 - t0 - frame[1],
            )
            if layer == _FALLBACK_LAYER and result.fallback:
                tracer.fallbacks += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every entry point at each binding that callers look up."""
        import importlib

        for entry in ENTRIES:
            module = importlib.import_module(entry.module)
            if "." in entry.qualname:
                cls_name, attr = entry.qualname.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrap(entry, original))
                continue
            original = getattr(module, entry.qualname)
            wrapper = self._wrap(entry, original)
            for name, mod in list(sys.modules.items()):
                if mod is None or not (
                    name.startswith("repro") or name in CALLERS
                ):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every patched binding."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------- output

    def write(self, path: Path) -> None:
        """Write the recorded spans as gzipped JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            out.write(
                json.dumps(
                    ["layer", "start_s", "end_s", "parent", "op", "items",
                     "self_s"]
                ) + "\n"
            )
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def top_percentile(n: int) -> float:
    """The highest of the usual percentiles with ten of ``n`` samples beyond it."""
    limit = 100.0 * (1.0 - 10.0 / n) if n else 0.0
    return next((p for p in (99.9, 99.0, 95.0, 90.0, 75.0) if p <= limit), 50.0)


class _Spans:
    """Column view of a set of spans."""

    def __init__(self, spans: list[tuple]) -> None:
        cols = list(zip(*spans)) or [()] * 7
        self.layer = np.array(cols[0], dtype=object)
        self.dur = np.subtract(cols[2], cols[1], dtype=float)
        self.top = np.equal(cols[3], -1)
        self.op = np.array(cols[4], dtype=int)
        self.items = np.array(cols[5], dtype=float)
        self.self_s = np.array(cols[6], dtype=float)

    def pick(self, layer: str) -> np.ndarray:
        return self.layer == layer


def table(spans: _Spans, n: int, wall: float) -> list[tuple[str, int, float, float]]:
    """``(layer, calls, inclusive s, self s)`` per layer, divided by ``n``.

    Sorted by self time, with the uncovered rest of ``wall`` as ``other``.
    """
    rows = []
    for layer in dict.fromkeys(e.layer for e in ENTRIES):
        mask = spans.pick(layer)
        if mask.any():
            rows.append((layer, int(mask.sum()) // n, spans.dur[mask].sum() / n,
                         spans.self_s[mask].sum() / n))
    rows.sort(key=lambda r: -r[3])
    other = max(wall - spans.dur[spans.top].sum() / n, 0.0)
    rows.append(("other", 0, other, other))
    return rows


def layer_metrics(
    tracer: Tracer, traced_walls: list[float], untraced_walls: list[float],
    sweep_hit_rate: float, setup_wall: float = 0.0,
) -> tuple[dict[str, tuple[float, str]], list[tuple], list[tuple]]:
    """Per-layer metrics, and the per-layer tables of operations and set-up.

    Spans with operation id -1 belong to the traced set-up; the set-up
    metrics ``hw.sweep_s`` and ``core.plan_s`` come from them, every other
    metric is per traced operation. Returns ``(metrics, op_rows,
    setup_rows)``; ``metrics`` maps each per-layer metric name to
    ``(value, unit)``.
    """
    done = [s for s in tracer.spans if s is not None]
    setup = _Spans([s for s in done if s[4] == -1])
    ops = _Spans([s for s in done if s[4] != -1])
    n_ops = max(len(traced_walls), 1)
    wall = sum(traced_walls) / n_ops
    op_rows = table(ops, n_ops, wall)
    other = op_rows[-1][2]

    m: dict[str, tuple[float, str]] = {}

    def sec(name: str, layer: str) -> None:
        m[name] = (float(ops.self_s[ops.pick(layer)].sum()) / n_ops, "s/op")

    def setup_sec(name: str, layer: str) -> None:
        m[name] = (float(setup.self_s[setup.pick(layer)].sum()), "s/setup")

    def calls(name: str, layer: str) -> None:
        m[name] = (int(ops.pick(layer).sum()) / n_ops, "calls/op")

    def per_op_items(name: str, layer: str) -> None:
        m[name] = (float(ops.items[ops.pick(layer)].sum()) / n_ops, "items/op")

    sec("ml.fit_s", "ml.fit")
    sec("ml.predict_s", "ml.predict")
    calls("ml.predict_calls", "ml.predict")
    sec("kernelir.features_s", "kernelir.features")
    sec("core.compile_s", "core.compile")
    setup_sec("hw.sweep_s", "hw.sweep")
    m["hw.sweep_cache_hit_rate"] = (sweep_hit_rate, "ratio")
    setup_sec("core.plan_s", "core.plan")
    sec("hw.energy_window_s", "hw.energy_window")
    calls("hw.energy_window_calls", "hw.energy_window")

    batch = ops.pick("hw.energy_batch")
    sec("hw.energy_batch_s", "hw.energy_batch")
    per_op_items("hw.energy_batch_windows", "hw.energy_batch")
    m["hw.energy_batch_us_per_window"] = (
        1e6 * float(ops.dur[batch].sum()) / max(float(ops.items[batch].sum()), 1.0),
        "us/window",
    )
    m["hw.energy_batch_growth"] = (
        _late_vs_early(ops.dur[batch], ops.items[batch], ops.op[batch]), "ratio"
    )

    sec("core.queue_submit_s", "core.queue_submit")
    calls("core.queue_submit_calls", "core.queue_submit")
    sec("engine.batch_s", "engine.batch")
    per_op_items("engine.batch_kernels", "engine.batch")
    m["engine.fallback_ratio"] = (
        tracer.fallbacks / max(int(ops.pick("engine.batch").sum()), 1), "ratio"
    )
    sec("engine.graph_s", "engine.graph")
    sec("slurm.submit_self_s", "slurm.submit")
    calls("slurm.jobs", "slurm.submit")
    sec("mpi.comm_s", "mpi.comm")

    admit = ops.pick("service.admit")
    sec("service.admit_s", "service.admit")
    m["service.admit_us"] = (
        1e6 * float(ops.dur[admit].mean()) if admit.any() else 0.0, "us/call"
    )
    calls("service.admit_calls", "service.admit")
    drain = ops.pick("service.drain")
    sec("service.drain_self_s", "service.drain")
    # Percentiles over every traced cycle; the top one is chosen from the
    # cycles of one operation, so it names the same rank in every run.
    cycles_ms = 1e3 * ops.dur[drain] if drain.any() else np.zeros(1)
    m["service.drain_cycle_ms_p50"] = (float(np.median(cycles_ms)), "ms/cycle")
    m["service.drain_cycle_ms_top"] = (
        float(np.percentile(cycles_ms, top_percentile(int(drain.sum()) // n_ops))),
        "ms/cycle",
    )
    sec("service.store_append_s", "service.store_append")
    calls("service.store_events", "service.store_append")

    sec("distributed.comm_build_s", "distributed.comm_build")
    sec("distributed.graph_build_s", "distributed.graph_build")
    per_op_items("distributed.graph_nodes", "distributed.graph_build")
    sec("core.global_plan_s", "core.global_plan")

    m["other_s"] = (other, "s/op")
    m["traced_wall_s"] = (wall, "s/op")
    untraced = float(np.median(untraced_walls)) if untraced_walls else wall
    m["tracing_overhead_frac"] = (
        float(np.median(traced_walls)) / untraced - 1.0 if untraced else 0.0,
        "ratio",
    )
    return m, op_rows, table(setup, 1, setup_wall)


def _late_vs_early(dur: np.ndarray, windows: np.ndarray, ops: np.ndarray) -> float:
    """Per-window cost of the last quarter of calls over the first quarter.

    Computed inside each operation (a session's late calls against its own
    early calls) and averaged over operations; 0 when the layer is idle.
    """
    ratios = []
    for op in np.unique(ops):
        d, w = dur[ops == op], windows[ops == op]
        q = len(d) // 4
        if q == 0:
            continue
        early = d[:q].sum() / max(w[:q].sum(), 1.0)
        late = d[-q:].sum() / max(w[-q:].sum(), 1.0)
        if early > 0:
            ratios.append(late / early)
    return float(np.mean(ratios)) if ratios else 0.0
