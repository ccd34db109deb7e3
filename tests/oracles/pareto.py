"""Reference consistency counts for a claimed Pareto mask.

The witness for :func:`repro.metrics.pareto.pareto_front_mask`: it
re-derives dominance pairwise against the claimed front instead of
against every point, so a mask that keeps a dominated point or drops an
undominated one shows up as a nonzero count.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ValidationError


def front_violations(speedup, energy, mask) -> tuple[int, int]:
    """Consistency counts for a claimed Pareto mask.

    Returns ``(dominated_front, uncovered_off_front)``: masked-in points
    dominated by another front point, and masked-out points not dominated
    by any front point. A consistent mask yields ``(0, 0)`` — the property
    the sweep-physics suite asserts for the Figs. 2/7/8 characterizations.
    """
    s = np.asarray(speedup, dtype=float)
    e = np.asarray(energy, dtype=float)
    m = np.asarray(mask, dtype=bool)
    if not (s.shape == e.shape == m.shape) or s.ndim != 1:
        raise ValidationError(
            f"speedup/energy/mask must be equal-length 1-D arrays "
            f"({s.shape}, {e.shape}, {m.shape})"
        )
    front = np.flatnonzero(m)

    def dominated_by_front(i: int) -> bool:
        c = front[front != i]
        return bool(
            np.any(
                (s[c] >= s[i]) & (e[c] <= e[i]) & ((s[c] > s[i]) | (e[c] < e[i]))
            )
        )

    dominated_front = sum(1 for i in front if dominated_by_front(i))
    uncovered_off = sum(
        1 for i in np.flatnonzero(~m) if not dominated_by_front(i)
    )
    return dominated_front, uncovered_off
