"""The static feature-extraction compiler pass (paper §6.1, Table 1).

In the paper this is an LLVM pass over the SYCL kernel; here it is a pass
over :class:`~repro.kernelir.kernel.KernelIR`. The output is the feature
vector

``k = (k_int_add, k_int_mul, k_int_div, k_int_bw, k_float_add, k_float_mul,
k_float_div, k_sf, k_gl_access, k_loc_access)``

in exactly the order of the paper, suitable for stacking into the training
matrix ``T = (k, f, e, t, edp, ed2p)``.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.kernelir.kernel import KernelIR

#: Feature names in the canonical (paper) order.
FEATURE_NAMES: tuple[str, ...] = (
    "int_add",
    "int_mul",
    "int_div",
    "int_bw",
    "float_add",
    "float_mul",
    "float_div",
    "sf",
    "gl_access",
    "loc_access",
)

#: Dimensionality of the static feature vector.
N_FEATURES: int = len(FEATURE_NAMES)


def extract_features(kernel: KernelIR) -> np.ndarray:
    """Extract the Table-1 static feature vector from one kernel.

    Returns a float vector of shape ``(10,)`` ordered as
    :data:`FEATURE_NAMES`. Counts are static per-work-item counts, exactly
    what the paper's compiler pass computes (launch size is a runtime
    property and is deliberately *not* part of the static vector).

    ``k_gl_access`` is the *effective* DRAM access count: the pass runs
    after the compiler's locality/caching analysis, so accesses served from
    on-chip storage are discounted. Without this the models are blind to
    the cached-vs-streaming distinction that dominates a kernel's energy
    behaviour (a tiled GEMM would look like a bandwidth monster).
    """
    mix = kernel.mix.as_dict()
    vec = np.array([mix[name] for name in FEATURE_NAMES], dtype=float)
    gl_index = FEATURE_NAMES.index("gl_access")
    vec[gl_index] *= 1.0 - kernel.locality
    return vec


def feature_matrix(kernels: Iterable[KernelIR]) -> np.ndarray:
    """Stack feature vectors of many kernels into an ``(n, 10)`` matrix."""
    rows = [extract_features(k) for k in kernels]
    if not rows:
        return np.empty((0, N_FEATURES), dtype=float)
    return np.vstack(rows)

