"""Kernel IR: instruction mixes, kernels, the feature pass, micro-benchmarks."""

import numpy as np
import pytest

from repro.common.errors import ValidationError
from repro.kernelir.features import (
    FEATURE_NAMES,
    N_FEATURES,
    extract_features,
    feature_matrix,
)
from repro.kernelir.instructions import InstructionMix
from repro.kernelir.kernel import KernelIR
from repro.kernelir.microbench import MicrobenchGenerator, generate_microbenchmarks


class TestInstructionMix:
    def test_defaults_zero(self):
        mix = InstructionMix()
        assert mix.total_ops == 0.0

    def test_negative_count_rejected(self):
        with pytest.raises(ValidationError):
            InstructionMix(float_add=-1)

    def test_compute_and_memory_partition(self):
        mix = InstructionMix(float_add=2, int_div=1, gl_access=3, loc_access=4)
        assert mix.compute_ops == 3.0
        assert mix.memory_ops == 7.0
        assert mix.total_ops == 10.0

    def test_as_dict_order_matches_table1(self):
        assert tuple(InstructionMix().as_dict().keys()) == FEATURE_NAMES

    def test_arithmetic_intensity(self):
        mix = InstructionMix(float_add=8, gl_access=2)
        assert mix.arithmetic_intensity(word_bytes=4) == pytest.approx(1.0)

    def test_arithmetic_intensity_no_memory(self):
        assert InstructionMix(float_add=8).arithmetic_intensity() == float("inf")

    def test_scaled(self):
        mix = InstructionMix(float_add=2, gl_access=1).scaled(3.0)
        assert mix.float_add == 6.0
        assert mix.gl_access == 3.0

    def test_scaled_negative_rejected(self):
        with pytest.raises(ValidationError):
            InstructionMix(float_add=1).scaled(-1.0)


class TestKernelIR:
    def test_validation(self):
        mix = InstructionMix(float_add=1, gl_access=1)
        with pytest.raises(ValidationError):
            KernelIR("", mix, work_items=10)
        with pytest.raises(ValidationError):
            KernelIR("k", mix, work_items=0)
        with pytest.raises(ValidationError):
            KernelIR("k", mix, work_items=10, word_bytes=0)
        with pytest.raises(ValidationError):
            KernelIR("k", mix, work_items=10, locality=1.0)

    def test_global_bytes_with_locality(self):
        k = KernelIR(
            "k", InstructionMix(gl_access=10), work_items=100, locality=0.5
        )
        assert k.global_bytes == pytest.approx(10 * 100 * 4 * 0.5)

    def test_arithmetic_intensity_post_locality(self):
        k = KernelIR(
            "k",
            InstructionMix(float_add=8, gl_access=2),
            work_items=10,
            locality=0.5,
        )
        assert k.arithmetic_intensity == pytest.approx(8 * 10 / (2 * 10 * 4 * 0.5))

    def test_with_work_items(self):
        k = KernelIR("k", InstructionMix(gl_access=1), work_items=10)
        k2 = k.with_work_items(20)
        assert k2.work_items == 20 and k.work_items == 10
        assert k2.name == k.name

    def test_with_name(self):
        k = KernelIR("k", InstructionMix(gl_access=1), work_items=10)
        assert k.with_name("k_rk2").name == "k_rk2"


class TestFeatureExtraction:
    def test_vector_shape_and_order(self):
        mix = InstructionMix(
            int_add=1, int_mul=2, int_div=3, int_bw=4, float_add=5,
            float_mul=6, float_div=7, sf=8, gl_access=9, loc_access=10,
        )
        k = KernelIR("k", mix, work_items=64)
        vec = extract_features(k)
        assert vec.shape == (N_FEATURES,)
        assert list(vec) == [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]

    def test_launch_size_not_a_feature(self):
        mix = InstructionMix(float_add=5, gl_access=1)
        a = extract_features(KernelIR("a", mix, work_items=64))
        b = extract_features(KernelIR("b", mix, work_items=1 << 20))
        assert (a == b).all()

    def test_feature_matrix(self):
        ks = [
            KernelIR("a", InstructionMix(float_add=1, gl_access=1), work_items=8),
            KernelIR("b", InstructionMix(int_div=2, gl_access=1), work_items=8),
        ]
        M = feature_matrix(ks)
        assert M.shape == (2, N_FEATURES)

    def test_feature_matrix_empty(self):
        assert feature_matrix([]).shape == (0, N_FEATURES)


class TestMicrobenchGenerator:
    def test_default_suite_composition(self):
        suite = generate_microbenchmarks(random_count=10)
        names = [k.name for k in suite]
        assert len(names) == len(set(names))
        # 8 archetype classes x 3 work scales + 2 pure memory kernels.
        assert sum(n.startswith("mb_pure_") for n in names) == 26
        assert sum(n.startswith("mb_roofline_") for n in names) == 9
        assert sum(n.startswith("mb_random_") for n in names) == 10

    def test_deterministic(self):
        a = generate_microbenchmarks(seed=5, random_count=4)
        b = generate_microbenchmarks(seed=5, random_count=4)
        assert [k.mix for k in a] == [k.mix for k in b]

    def test_seed_changes_random_mixes(self):
        a = generate_microbenchmarks(seed=1, random_count=4)[-1]
        b = generate_microbenchmarks(seed=2, random_count=4)[-1]
        assert a.mix != b.mix

    def test_every_kernel_touches_memory(self):
        for k in generate_microbenchmarks(random_count=16):
            assert k.mix.gl_access >= 1.0

    def test_roofline_ramp_increases_intensity(self):
        ramp = MicrobenchGenerator().roofline_ramp(steps=6)
        intensities = [k.mix.arithmetic_intensity() for k in ramp]
        assert intensities == sorted(intensities)
        assert intensities[-1] > 4 * intensities[0]
