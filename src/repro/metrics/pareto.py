"""Pareto-front extraction on the speedup/energy plane.

The characterization figures (2, 7, 8) plot speedup (maximize) against
normalized per-task energy (minimize) for every frequency configuration and
highlight the Pareto front. A point dominates another if it is at least as
fast *and* at least as frugal, and strictly better in one of the two.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ValidationError


def pareto_front_mask(speedup, energy) -> np.ndarray:
    """Boolean mask of Pareto-optimal points (max speedup, min energy).

    Ties are kept: two identical points are both reported as optimal, which
    matches how the paper draws coincident configurations.
    """
    s = np.asarray(speedup, dtype=float)
    e = np.asarray(energy, dtype=float)
    if s.shape != e.shape or s.ndim != 1:
        raise ValidationError(
            f"speedup/energy must be equal-length 1-D arrays ({s.shape} vs {e.shape})"
        )
    n = s.size
    mask = np.ones(n, dtype=bool)
    for i in range(n):
        dominates = (s >= s[i]) & (e <= e[i]) & ((s > s[i]) | (e < e[i]))
        if np.any(dominates):
            mask[i] = False
    return mask


def pareto_points(speedup, energy) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pareto-optimal ``(indices, speedup, energy)`` sorted by speedup."""
    s = np.asarray(speedup, dtype=float)
    e = np.asarray(energy, dtype=float)
    mask = pareto_front_mask(s, e)
    idx = np.flatnonzero(mask)
    order = np.argsort(s[idx])
    idx = idx[order]
    return idx, s[idx], e[idx]
