"""Distributed command-graph scheduling over the mini-SYCL runtime.

The Celerity-style layer: buffers carry distributed ranges, submitting a
command group derives inter-rank dependency edges and halo transfers
(:mod:`repro.distributed.graph`), per-rank clocks come from a *global*
energy target (:func:`repro.core.compiler.plan_global_frequencies`), and
the wave-vectorized multi-rank engine runs the graph in virtual time with
communication overlapping compute (:func:`repro.distributed.runner.run_graph`,
:mod:`repro.engine.multirank`).
"""

from repro.distributed.graph import GATHER, HALO, KERNEL, CommandGraph, CommandNode
from repro.distributed.runner import (
    ExecutionResult,
    build_comm,
    run_graph,
)
from repro.distributed.stencil import build_stencil_graph

__all__ = [
    "CommandGraph",
    "CommandNode",
    "KERNEL",
    "HALO",
    "GATHER",
    "ExecutionResult",
    "build_comm",
    "run_graph",
    "build_stencil_graph",
]
