"""Cross-stack invariant validation plane.

The reproduction's headline claims (Fig. 4 EDP/ED2P minima, §5.2–5.3
ES_x/PL_x semantics, §2.3 power capping) rest on physical and algebraic
invariants — energy = ∫P dt, a single interior energy minimum per
kernel, Pareto dominance, power-budget conservation. This package
encodes them as executable checks:

- :mod:`repro.validate.invariants` — pure invariant checkers over sweep,
  trace and power-cap results,
- :mod:`repro.validate.runner` — the ``repro-synergy validate`` driver
  running the catalog over real sweeps, power-cap states and the golden
  scenarios.

The plane sits on top of the runtime it checks: nothing below
:mod:`repro.cli` imports it. Differential contracts between paired
implementations (batched vs scalar engine, the graph executor vs its
per-rank oracle, extracted vs declared kernels, the service log audit)
live in the pytest suite, each in exactly one test module.
"""

from __future__ import annotations

from repro.validate.result import CheckResult, Severity, ValidationReport
from repro.validate.runner import run_validation

__all__ = [
    "CheckResult",
    "Severity",
    "ValidationReport",
    "run_validation",
]

