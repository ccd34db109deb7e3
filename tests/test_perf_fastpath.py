"""Equivalence and correctness of the vectorized fast paths.

Each fast path is pinned to an independent oracle at tier-1 scale:

- vectorized ``TimingModel.sweep``, ``measure_sweep`` and
  ``sweep_kernel_2d`` vs :func:`~repro.analysis.certify.static_operating_point`
  (the scalar ``TimingModel.execute`` + ``PowerModel.power`` physics every
  launch commits) cell by cell: time, and power × time = energy. Across
  vendors (V100/A100/MI100) and kernel regimes (compute-, memory- and
  divider-bound, high/low locality), at 1e-12 relative tolerance
  (vectorized NumPy pow differs from scalar libm pow by ~1 ulp),
- the ``effective_bandwidth`` array contract,
- presorted tree/forest fitting and flattened prediction vs the
  per-node-argsort CART in ``tests/oracles/cart.py`` — **exact** equality,
- the keyed sweep cache (hits, read-only results, fingerprint semantics),
- memoization of derived sweep arrays and predictor curves.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles import cart
from repro.analysis.certify import static_operating_point
from repro.core.models import measure_sweep
from repro.core.predictor import FrequencyPredictor
from repro.core.sweepcache import (
    CURVE_STATS,
    SweepCache,
    kernel_fingerprint,
    spec_fingerprint,
)
from repro.experiments.sweep import FrequencySweep2D, sweep_kernel, sweep_kernel_2d
from repro.hw.specs import AMD_MI100, NVIDIA_A100, NVIDIA_TITAN_X, NVIDIA_V100
from repro.hw.timing import TimingModel
from repro.kernelir.instructions import InstructionMix
from repro.kernelir.kernel import KernelIR
from repro.metrics.targets import EnergyTarget
from repro.ml.forest import RandomForestRegressor
from repro.ml.serialization import serialize_estimator
from repro.ml.tree import DecisionTreeRegressor
from repro.common.rng import make_rng

RTOL = 1e-12

KERNEL_MIXES = {
    "compute": KernelIR(
        "k_compute",
        InstructionMix(float_add=40, float_mul=40, gl_access=2),
        work_items=1 << 20,
        locality=0.5,
    ),
    "memory": KernelIR(
        "k_memory",
        InstructionMix(float_add=1, gl_access=4),
        work_items=1 << 22,
    ),
    "divider": KernelIR(
        "k_divider",
        InstructionMix(float_div=12, int_div=4, gl_access=1),
        work_items=1 << 20,
    ),
    "local": KernelIR(
        "k_local",
        InstructionMix(float_add=8, gl_access=6, loc_access=8),
        work_items=1 << 21,
        locality=0.9,
    ),
}

SPECS = {"v100": NVIDIA_V100, "a100": NVIDIA_A100, "mi100": AMD_MI100}


def _oracle_point(spec, kernel, core_mhz, mem_mhz) -> tuple[float, float]:
    """``(time_s, energy_j)`` at one clock pair from the scalar physics."""
    time_s, power_w = static_operating_point(
        spec, kernel, float(core_mhz), float(mem_mhz)
    )
    return time_s, power_w * time_s


@pytest.mark.parametrize("spec_name", sorted(SPECS))
@pytest.mark.parametrize("kernel_name", sorted(KERNEL_MIXES))
class TestVectorizedSweep:
    def test_sweep_matches_scalar(self, spec_name, kernel_name):
        spec = SPECS[spec_name]
        kernel = KERNEL_MIXES[kernel_name]
        model = TimingModel(spec)
        freqs = np.asarray(spec.core_freqs_mhz, dtype=float)
        mem = float(spec.default_mem_mhz)
        vec = model.sweep(kernel, freqs, mem)
        assert len(vec) == freqs.size
        times = [static_operating_point(spec, kernel, f, mem)[0] for f in freqs]
        np.testing.assert_allclose(vec.time_s, times, rtol=RTOL, atol=0)
        for i, f in enumerate(freqs):
            ref = model.execute(kernel, f, mem)
            for got, want in (
                (vec.u_core[i], ref.u_core),
                (vec.u_mem[i], ref.u_mem),
                (vec.core_power_utilization[i], ref.core_power_utilization),
            ):
                assert got == pytest.approx(want, rel=RTOL, abs=0)
            assert vec.at(i).time_s == vec.time_s[i]

    def test_measure_sweep_matches_scalar(self, spec_name, kernel_name):
        spec = SPECS[spec_name]
        kernel = KERNEL_MIXES[kernel_name]
        freqs, times, energies = measure_sweep(spec, kernel, cache=False)
        np.testing.assert_array_equal(freqs, spec.core_freqs_mhz)
        mem = spec.default_mem_mhz
        ref = np.array([_oracle_point(spec, kernel, f, mem) for f in freqs])
        np.testing.assert_allclose(times, ref[:, 0], rtol=RTOL, atol=0)
        np.testing.assert_allclose(energies, ref[:, 1], rtol=RTOL, atol=0)


def test_sweep_broadcasts_2d_grid():
    model = TimingModel(NVIDIA_TITAN_X)
    core = np.asarray(NVIDIA_TITAN_X.core_freqs_mhz, dtype=float)
    mem = np.asarray(NVIDIA_TITAN_X.mem_freqs_mhz, dtype=float)
    grid = model.sweep(KERNEL_MIXES["memory"], core[None, :], mem[:, None])
    assert grid.time_s.shape == (mem.size, core.size)
    for i, fm in enumerate(mem):
        row = model.sweep(KERNEL_MIXES["memory"], core, float(fm))
        np.testing.assert_allclose(grid.time_s[i], row.time_s, rtol=RTOL)


@pytest.mark.parametrize("spec", [NVIDIA_TITAN_X, NVIDIA_V100])
def test_sweep_kernel_2d_matches_scalar(spec):
    kernel = KERNEL_MIXES["compute"]
    fast = sweep_kernel_2d(spec, kernel, cache=False)
    ref = np.array([
        [_oracle_point(spec, kernel, fc, fm) for fc in spec.core_freqs_mhz]
        for fm in spec.mem_freqs_mhz
    ])
    assert fast.time_s.shape == ref.shape[:2]
    np.testing.assert_allclose(fast.time_s, ref[..., 0], rtol=RTOL, atol=0)
    np.testing.assert_allclose(fast.energy_j, ref[..., 1], rtol=RTOL, atol=0)
    oracle = FrequencySweep2D(
        kernel_name=kernel.name,
        device_name=spec.name,
        core_mhz=fast.core_mhz,
        mem_mhz=fast.mem_mhz,
        time_s=ref[..., 0],
        energy_j=ref[..., 1],
    )
    assert fast.min_energy_config() == oracle.min_energy_config()
    assert fast.max_perf_config() == oracle.max_perf_config()


def test_effective_bandwidth_contract():
    model = TimingModel(NVIDIA_V100)
    mem = float(NVIDIA_V100.default_mem_mhz)
    arr = model.effective_bandwidth(np.asarray([800.0, 1200.0]), mem)
    assert isinstance(arr, np.ndarray) and arr.shape == (2,)
    # scalar and 0-d inputs stay 0-d ndarrays on the array path
    scalar = model.effective_bandwidth(800.0, mem)
    assert isinstance(scalar, np.ndarray) and scalar.shape == ()
    assert float(scalar) == pytest.approx(float(arr[0]), rel=RTOL)
    zero_d = model.effective_bandwidth(np.float64(800.0), mem)
    assert float(zero_d) == float(scalar)


# --------------------------------------------------------------------- ML


def _training_data(n=400, p=8, seed=5):
    rng = make_rng(seed)
    X = rng.normal(size=(n, p))
    y = X[:, 0] * 2.0 - np.abs(X[:, 1]) + 0.1 * rng.normal(size=n)
    # duplicated feature values exercise the tie/threshold handling
    X[:, 2] = np.round(X[:, 2] * 2.0) / 2.0
    return X, y


def test_tree_presorted_fit_identical_to_reference():
    X, y = _training_data()
    fast = DecisionTreeRegressor(max_depth=9, min_samples_leaf=2, seed=3).fit(X, y)
    ref = cart.fit_tree(
        DecisionTreeRegressor(max_depth=9, min_samples_leaf=2, seed=3), X, y
    )
    assert serialize_estimator(fast) == serialize_estimator(ref)


def test_tree_presorted_fit_identical_with_feature_subsampling():
    X, y = _training_data()
    fast = DecisionTreeRegressor(max_features=3, seed=7).fit(X, y)
    ref = cart.fit_tree(DecisionTreeRegressor(max_features=3, seed=7), X, y)
    assert serialize_estimator(fast) == serialize_estimator(ref)


def test_flat_predict_matches_node_walk():
    X, y = _training_data()
    tree = DecisionTreeRegressor(max_depth=8, seed=1).fit(X, y)
    Xq, _ = _training_data(n=257, seed=9)
    # rows sitting exactly on split thresholds pin the ``<=`` tie rule
    flat = tree.flat_tree()
    split = np.flatnonzero(flat.feature >= 0)
    on_split = X[split].copy()
    on_split[np.arange(split.size), flat.feature[split]] = flat.threshold[split]
    Xq = np.vstack([Xq, on_split])
    assert np.array_equal(tree.predict(Xq), cart.predict_tree(tree, Xq))


def test_flat_predict_after_scalar_fit():
    X, y = _training_data(n=120)
    # the oracle fit leaves no flat form; predict builds it lazily
    tree = cart.fit_tree(DecisionTreeRegressor(max_depth=5, seed=2), X, y)
    assert np.array_equal(tree.predict(X), cart.predict_tree(tree, X))


def test_forest_fit_matches_scalar_reference():
    X, y = _training_data(n=300)
    fast = RandomForestRegressor(n_estimators=6, seed=21).fit(X, y)
    ref = cart.fit_forest(RandomForestRegressor(n_estimators=6, seed=21), X, y)
    assert serialize_estimator(fast) == serialize_estimator(ref)


def test_forest_stacked_predict_matches_per_tree_walks():
    X, y = _training_data(n=300)
    forest = RandomForestRegressor(n_estimators=6, seed=21).fit(X, y)
    Xq, _ = _training_data(n=111, seed=4)
    assert np.array_equal(forest.predict(Xq), cart.predict_forest(forest, Xq))


# ------------------------------------------------------------------ caching


def test_sweep_cache_hits_and_freezes():
    cache = SweepCache()
    kernel = KERNEL_MIXES["compute"]
    f1, t1, e1 = measure_sweep(NVIDIA_V100, kernel, cache=cache)
    assert cache.stats.misses == 1 and cache.stats.hits == 0
    f2, t2, e2 = measure_sweep(NVIDIA_V100, kernel, cache=cache)
    assert cache.stats.hits == 1
    assert t1 is t2 and e1 is e2  # shared by reference
    assert not t1.flags.writeable
    with pytest.raises(ValueError):
        t1[0] = 0.0


def test_sweep_cache_distinguishes_devices_and_kernels():
    cache = SweepCache()
    measure_sweep(NVIDIA_V100, KERNEL_MIXES["compute"], cache=cache)
    measure_sweep(AMD_MI100, KERNEL_MIXES["compute"], cache=cache)
    measure_sweep(NVIDIA_V100, KERNEL_MIXES["memory"], cache=cache)
    assert cache.stats.misses == 3 and cache.stats.hits == 0


def test_kernel_fingerprint_ignores_name():
    kernel = KERNEL_MIXES["compute"]
    renamed = kernel.with_name("iteration_17#renamed")
    assert kernel_fingerprint(kernel) == kernel_fingerprint(renamed)
    changed = KernelIR(
        kernel.name, kernel.mix, kernel.work_items, locality=0.25
    )
    assert kernel_fingerprint(kernel) != kernel_fingerprint(changed)


def test_spec_fingerprint_is_content_based():
    assert spec_fingerprint(NVIDIA_V100) == spec_fingerprint(NVIDIA_V100)
    assert spec_fingerprint(NVIDIA_V100) != spec_fingerprint(AMD_MI100)


def test_frequency_sweep_memoizes_derived_arrays():
    sweep = sweep_kernel(NVIDIA_V100, KERNEL_MIXES["compute"], cache=False)
    assert sweep.speedup is sweep.speedup
    assert sweep.normalized_energy is sweep.normalized_energy
    assert sweep.edp is sweep.edp
    assert sweep.ed2p is sweep.ed2p
    assert sweep.pareto_mask is sweep.pareto_mask
    assert sweep.speedup[sweep.default_index] == pytest.approx(1.0)


def test_predictor_memoizes_curves(trained_bundle):
    predictor = FrequencyPredictor(trained_bundle, NVIDIA_V100)
    kernel = KERNEL_MIXES["compute"]
    targets = [EnergyTarget.parse(n) for n in ("MIN_EDP", "ES_50", "PL_50")]
    hits0, misses0 = CURVE_STATS.hits, CURVE_STATS.misses
    first = [predictor.predict_index(kernel, t) for t in targets]
    assert CURVE_STATS.misses == misses0 + 1
    assert CURVE_STATS.hits == hits0 + 2
    renamed = kernel.with_name("same_kernel_renamed")
    second = [predictor.predict_index(renamed, t) for t in targets]
    assert second == first
    assert CURVE_STATS.misses == misses0 + 1  # rename still hits the memo
