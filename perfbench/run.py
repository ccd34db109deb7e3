"""Benchmark of the SYnergy reproduction: three workloads, one command.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 30 --trace 0

``--workload`` picks ``pipeline`` (train, fit, compile, run Fig. 10 jobs
through SLURM, predict held-out clocks), ``service`` (one long
multi-tenant session) or ``distributed`` (a weak-scaling curve of the
halo stencil graph). The run sets the workload up five times (four times
in child processes) and reports the median set-up time, then repeats the
workload's operation until ``--seconds`` have passed and reports the
median. Every operation's outputs are checked.

Host times are reported at a reference machine speed: a speed probe
samples how fast the machine runs a fixed loop while each set-up and
operation runs, and the measured seconds are scaled by the median sample
(see README.md). Raw seconds are printed next to them.

With ``--trace 0`` the last line of output is a JSON object whose
``metrics`` are the end-to-end metrics of BENCHMARK.json. With
``--trace 1`` traced and untraced operations alternate; the metrics are
the per-layer ones, a per-layer table is printed, and the spans are
written under ``perfbench/out/``. The exit code is 0 only when every
check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

_START = time.perf_counter()

# One process, BLAS and OpenMP pools pinned to one thread, before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
#: Set-ups run in child processes, besides the run's own.
SETUP_CHILDREN = 4
#: Iterations of the speed probe's loop, and the seconds that loop takes
#: at the reference speed.
PROBE_LOOPS = 10_000
REFERENCE_S = 0.001
#: End-to-end metrics, as BENCHMARK.json declares them.
END_TO_END = ("setup_s", "peak_rss_mb", "e2e_s")

#: Workload-level figures printed in the report: (unit, better, kind).
FIGURES: dict[str, tuple[str, str, str]] = {
    "pipeline_s": ("s", "lower", "host"),
    "pipeline_saved_frac": ("ratio", "higher", "simulated"),
    "pipeline_edp_ape_pct": ("%", "lower", "simulated"),
    "service_sub_per_s": ("1/s", "higher", "host"),
    "service_cost_growth": ("ratio", "lower", "host"),
    "service_saved_frac": ("ratio", "higher", "simulated"),
    "service_p99_latency_s": ("virtual s", "lower", "simulated"),
    "service_reject_frac": ("ratio", "lower", "simulated"),
    "dist_nodes_per_s": ("1/s", "higher", "host"),
    "dist_saved_frac": ("ratio", "higher", "simulated"),
    "dist_sla_ratio": ("ratio", "lower", "simulated"),
}


class SpeedProbe:
    """Samples the machine's speed while a timed block runs.

    Host speed on shared cloud machines drifts by tens of percent over
    seconds. Every ``PERIOD_S`` a SIGALRM handler times a short fixed
    interpreter loop; the median sample says how fast the machine ran
    during the block, so the block's time can be put on one reference
    speed. The probe's own time is taken out of the block's.
    """

    PERIOD_S = 0.1

    def __enter__(self) -> "SpeedProbe":
        self.samples: list[float] = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.overhead_s = sum(self.samples)
        if not self.samples:  # shorter than one period: sample once now
            self._sample()

    def _sample(self, *_) -> None:
        t0 = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i * i % 7
        self.samples.append(time.perf_counter() - t0)

    def reference_s(self, host_s: float) -> float:
        """``host_s`` without the probe's time, at the reference speed."""
        return (host_s - self.overhead_s) * REFERENCE_S / statistics.median(
            self.samples
        )


def load_workloads():
    """Import the workloads against the program sources of this checkout."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise RuntimeError(f"no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise RuntimeError(f"imported repro from {repro.__file__}, not {SRC}")
    import workloads

    return workloads


def set_up(args, start: float, tracer=None):
    """Import the program and set the workload up; returns it and its times.

    The times are ``(raw seconds, seconds at the reference speed)`` from
    ``start`` to the first timed call. A tracer records the set-up as
    operation -1.
    """
    with SpeedProbe() as probe:
        workload = load_workloads().WORKLOADS[args.workload]()
        if tracer is not None:
            tracer.install()
        try:
            workload.setup(args.seed)
        finally:
            if tracer is not None:
                tracer.uninstall()
    raw = time.perf_counter() - start
    return workload, (raw, probe.reference_s(raw))


def child_set_up(args) -> tuple[float, float]:
    """Set-up times of a fresh process, from its start to the first op."""
    done = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, timeout=170, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{done.stderr}")
    raw, ref = done.stdout.split()[-2:]
    return float(raw), float(ref)


def sweep_lookups() -> tuple[int, int]:
    from repro.core.profiling import fastpath_cache_report

    sweep = fastpath_cache_report()["sweep"]
    return sweep["hits"], sweep["misses"]


def measure(workload, seconds: float, tracer=None):
    """Repeat operations for ``seconds``.

    Returns ``(untraced, traced, sweep_hit_rate)``. With a tracer,
    operations alternate untraced and traced, and at least one of each
    runs; the hit rate is over the traced ones. Stops at the first
    operation that raises, and then returns ``None`` as the hit rate.
    """
    untraced, traced = [], []
    lookups = [0, 0]
    deadline = time.perf_counter() + seconds
    i = 0
    while (
        time.perf_counter() < deadline
        or not untraced
        or (tracer is not None and not traced)
    ):
        trace_this = tracer is not None and i % 2 == 1
        gc.collect()  # the previous operation's garbage is not this one's cost
        if trace_this:
            tracer.op_id = i
            before = sweep_lookups()
            tracer.install()
        try:
            with SpeedProbe() as probe:
                result = workload.run_op()
        except Exception:  # report it as a failed op, then stop
            traceback.print_exc(file=sys.stderr)
            return untraced, traced, None
        finally:
            if trace_this:
                tracer.uninstall()
        result.ref_s = probe.reference_s(result.host_s)
        if trace_this:
            after = sweep_lookups()
            lookups[0] += after[0] - before[0]
            lookups[1] += after[1] - before[1]
            traced.append(result)
        else:
            untraced.append(result)
        i += 1
    return untraced, traced, lookups[0] / sum(lookups) if sum(lookups) else 0.0


def print_table(title: str, rows, wall: float) -> None:
    print(f"\n{title}")
    print(f"{'layer':<26}{'calls':>10}{'incl s':>12}{'self s':>12}{'self %':>8}")
    for layer, calls, incl, self_s in rows:
        share = 100 * self_s / wall if wall else 0.0
        print(f"{layer:<26}{calls:>10}{incl:>12.4f}{self_s:>12.4f}{share:>8.1f}")


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("pipeline", "service", "distributed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    tracer = None
    try:
        if args.setup_only:
            print(*set_up(args, _START)[1])
            return 0
        setups = [child_set_up(args) for _ in range(SETUP_CHILDREN)]
        if args.trace:
            import layers

            tracer = layers.Tracer()
        workload, own = set_up(args, time.perf_counter(), tracer)
        setups.append(own)
    except Exception:  # no program to measure: no result line
        traceback.print_exc(file=sys.stderr)
        print("perfbench: set-up failed", file=sys.stderr)
        return 2

    untraced, traced, hit_rate = measure(workload, args.seconds, tracer)
    ops = untraced + traced
    problems = [p for op in ops for p in op.problems]
    attempted = sum(op.attempted for op in ops)
    failed = sum(op.failed for op in ops)
    if hit_rate is None:
        attempted += 1
        failed += 1
        problems.append("an operation raised (traceback above)")
    sims = [op.sim for op in ops]
    if any(sim != sims[0] for sim in sims):
        problems.append(f"simulated results differ between operations: {sims}")
        failed = max(failed, 1)
    correct = not problems and failed == 0

    print(f"workload {args.workload}  seed {args.seed}  "
          f"ops {len(untraced)} untraced + {len(traced)} traced")
    raw_s = median(op.host_s for op in untraced)
    rows = [
        ("setup_s", median(ref for _, ref in setups), "s", "lower",
         "host, reference speed"),
        ("setup_raw_s", median(raw for raw, _ in setups), "s", "lower", "host"),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
         / 1024.0, "MB", "lower", "host"),
        ("failed_frac", failed / max(attempted, 1), "ratio", "lower", "check"),
        ("e2e_s", median(op.ref_s for op in untraced), "s", "lower",
         "host, reference speed"),
        ("e2e_raw_s", raw_s, "s", "lower", "host"),
    ]
    for name in untraced[0].host if untraced else ():
        rows.append((name, median(op.host[name] for op in untraced),
                     *FIGURES[name]))
    for name, value in ops[0].sim.items() if ops else ():
        rows.append((name, value, *FIGURES[name]))
    print(f"{'metric':<28}{'value':>16}  {'unit':<10}{'better':<8}kind")
    for name, value, unit, better, kind in rows:
        print(f"{name:<28}{value:>16.6g}  {unit:<10}{better:<8}{kind}")
    print("set-up seconds, raw / reference: "
          + ", ".join(f"{raw:.4f}/{ref:.4f}" for raw, ref in setups))
    print("operation seconds, raw / reference: "
          + ", ".join(f"{op.host_s:.4f}/{op.ref_s:.4f}" for op in untraced))
    for problem in problems:
        print(f"CHECK FAILED: {problem}")

    if tracer is None:
        metrics = {name: {"value": value, "unit": unit}
                   for name, value, unit, _, _ in rows if name in END_TO_END}
    else:
        per_layer, op_rows, setup_rows = layers.layer_metrics(
            tracer, [op.host_s for op in traced], [op.host_s for op in untraced],
            hit_rate or 0.0, own[0],
        )
        wall = per_layer["traced_wall_s"][0]
        print_table(f"per-layer cost per operation ({len(traced)} traced ops)",
                    op_rows, wall)
        print_table("per-layer cost of the traced set-up", setup_rows, own[0])
        print(f"tracing overhead: "
              f"{100 * per_layer['tracing_overhead_frac'][0]:.1f}% (traced "
              f"{wall:.4f} s vs untraced {raw_s:.4f} s per op, raw)")
        out = HERE / "out" / f"{args.workload}-seed{args.seed}.spans.jsonl.gz"
        tracer.write(out)
        print(f"spans: {out.relative_to(HERE.parent)}")
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in per_layer.items()}
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
