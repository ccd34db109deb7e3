"""Source-backed kernels: extraction equals declaration, end to end."""

import pytest

from repro.common.errors import ConfigurationError
from repro.frontend.kernels import KERNELS, backed_kernel_ir
from repro.kernelir.features import extract_features
from repro.kernelir.instructions import InstructionMix

pytestmark = pytest.mark.frontend

SYCLBENCH_BACKED = (
    "vec_add", "dram", "sf", "arith", "scalar_prod", "median", "gemm",
    "sobel3", "black_scholes",
)
MINIAPP_BACKED = (
    "mw_tendencies_x", "mw_tendencies_z", "mw_semi_discrete_step",
    "clover_ideal_gas", "clover_flux_calc",
)


def _declared_kernels():
    """Every app-layer kernel with a source-backed implementation."""
    from repro.apps import CloverLeaf, MiniWeather, get_benchmark

    declared = {name: get_benchmark(name).kernel for name in SYCLBENCH_BACKED}
    for app in (MiniWeather(), CloverLeaf()):
        for k in app.timestep_kernels():
            if k.name in MINIAPP_BACKED:
                declared.setdefault(k.name, k)
    return list(declared.values())


def _assert_matches_declaration(declared):
    """Extracted mix, rebuilt KernelIR and feature vector all equal."""
    dk = KERNELS[declared.name]
    assert dk.mix.as_dict() == declared.mix.as_dict()
    rebuilt = dk.kernel_ir(work_items=declared.work_items)
    assert rebuilt == declared
    assert tuple(extract_features(rebuilt)) == tuple(extract_features(declared))


def test_registry_covers_all_backed_kernels():
    assert set(KERNELS) == set(SYCLBENCH_BACKED) | set(MINIAPP_BACKED)


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_backed_kernel_is_diagnostic_clean(name):
    dk = KERNELS[name]
    # Lowering diagnostics and the FE011–FE013 race/bounds pass alike.
    assert dk.analysis.clean, [d.format() for d in dk.diagnostics + dk.races]


@pytest.mark.parametrize("name", SYCLBENCH_BACKED)
def test_syclbench_mix_extracted_not_declared(name):
    from repro.apps import get_benchmark

    kernel = get_benchmark(name).kernel
    _assert_matches_declaration(kernel)
    if name in ("vec_add", "dram", "sf", "arith"):
        # Streaming kernels are unpinned: the reuse estimate IS the locality.
        assert KERNELS[name].pinned_locality is None
        assert KERNELS[name].locality_estimate.value == kernel.locality


def test_miniweather_kernels_are_backed():
    from repro.apps import MiniWeather

    by_name = {k.name: k for k in MiniWeather().timestep_kernels()}
    for name in ("mw_tendencies_x", "mw_tendencies_z", "mw_semi_discrete_step"):
        _assert_matches_declaration(by_name[name])


def test_cloverleaf_kernels_are_backed():
    from repro.apps import CloverLeaf

    by_name = {k.name: k for k in CloverLeaf().timestep_kernels()}
    for name in ("clover_ideal_gas", "clover_flux_calc"):
        _assert_matches_declaration(by_name[name])


def test_backed_kernel_ir_cross_checks_mix():
    declared = KERNELS["vec_add"].mix
    ir = backed_kernel_ir("vec_add", declared, 1024, KERNELS["vec_add"].locality)
    assert ir.work_items == 1024
    drifted = InstructionMix(float_add=2, gl_access=3)
    with pytest.raises(ConfigurationError, match="float_add"):
        backed_kernel_ir("vec_add", drifted, 1024, KERNELS["vec_add"].locality)


def test_backed_kernel_ir_cross_checks_locality():
    with pytest.raises(ConfigurationError, match="locality"):
        backed_kernel_ir("gemm", KERNELS["gemm"].mix, 1024, 0.99)


# ------------------------------------------------- compiler integration

def _small_compiler():
    from repro.core.compiler import SynergyCompiler
    from repro.experiments.training import make_bundle, microbench_training_set
    from repro.hw.specs import NVIDIA_V100

    training = microbench_training_set(
        NVIDIA_V100, freq_stride=24, random_count=2
    )
    return SynergyCompiler(make_bundle("Linear", seed=7).fit(training),
                           NVIDIA_V100)


def test_compiler_accepts_device_kernels_directly():
    from repro.core.sweepcache import scoped_cache
    from repro.kernelir.kernel import KernelIR
    from repro.metrics.targets import ES_50, MIN_EDP

    with scoped_cache():
        compiler = _small_compiler()
        app = compiler.compile(
            [KERNELS["gemm"], KERNELS["sobel3"]],
            [MIN_EDP],
            work_items={"gemm": 1 << 20, "sobel3": 1 << 21},
        )
        assert app.plan.has("gemm", MIN_EDP)
        assert app.plan.has("sobel3", MIN_EDP)
        assert {k.name: k.work_items for k in app.kernels} == {
            "gemm": 1 << 20, "sobel3": 1 << 21,
        }
        # The plan is identical to compiling the emitted KernelIR.
        irs = [KERNELS["gemm"].kernel_ir(work_items=1 << 20),
               KERNELS["sobel3"].kernel_ir(work_items=1 << 21)]
        assert dict(compiler.compile(irs, [MIN_EDP]).plan.entries) == dict(
            app.plan.entries
        )
        # Every backed kernel: extracted and hand-built declarations
        # compile to entry-for-entry identical plans.
        declared = _declared_kernels()
        by_hand = [
            KernelIR(name=k.name, mix=k.mix, work_items=k.work_items,
                     word_bytes=k.word_bytes, locality=k.locality)
            for k in declared
        ]
        rebuilt = [
            KERNELS[k.name].kernel_ir(work_items=k.work_items) for k in declared
        ]
        targets = [MIN_EDP, ES_50]
        assert dict(compiler.compile(by_hand, targets).plan.entries) == dict(
            compiler.compile(rebuilt, targets).plan.entries
        )


def test_compiler_requires_launch_size_for_device_kernels():
    from repro.core.sweepcache import scoped_cache
    from repro.metrics.targets import MIN_EDP

    with scoped_cache():
        compiler = _small_compiler()
        with pytest.raises(ConfigurationError, match="launch size"):
            compiler.compile([KERNELS["vec_add"]], [MIN_EDP])
