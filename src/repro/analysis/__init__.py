"""Static certification plane (`repro.analysis`).

Three passes that reason about the system *without executing it*:

- :mod:`repro.analysis.footprints` — per-work-item access footprints over
  the front end's affine CFG, with cross-work-item race detection
  (FE011/FE012) and statically-provable out-of-bounds accesses (FE013);
- :mod:`repro.analysis.graphaudit` — an independent shadow derivation of
  the distributed command graph's hazards: conflicting block accesses
  must be ordered by a dependency path, and the graph must be
  deadlock-free (cross-checks the builder's 3-pass derivation);
- :mod:`repro.analysis.certify` — interval arithmetic over the timing and
  power models, deriving makespan/energy bounds for frequency plans and
  typed :class:`~repro.analysis.certify.PlanCertificate` s that prove or
  refute DEADLINE/SLA feasibility before any virtual-time run.

`repro-synergy certify` drives all three; ``tests/test_analysis_certify.py``
asserts every certificate brackets the measured engine run.
"""

from repro.analysis.interval import Interval
from repro.analysis.footprints import (
    ReducedAccess,
    analyze_bounds,
    analyze_kernel_cfg,
    analyze_races,
    footprint,
    iter_reduced_accesses,
)
from repro.analysis.graphaudit import (
    GraphAudit,
    TimedAccess,
    audit_graph,
    audit_timed_accesses,
    find_cycle,
)
from repro.analysis.certify import (
    GraphCertificate,
    PlanCertificate,
    certify_frequency_plan,
    certify_graph,
)

__all__ = [
    "Interval",
    "ReducedAccess",
    "analyze_bounds",
    "analyze_kernel_cfg",
    "analyze_races",
    "footprint",
    "iter_reduced_accesses",
    "GraphAudit",
    "TimedAccess",
    "audit_graph",
    "audit_timed_accesses",
    "find_cycle",
    "GraphCertificate",
    "PlanCertificate",
    "certify_frequency_plan",
    "certify_graph",
]
