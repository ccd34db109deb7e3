"""Repository-wide determinism guarantees (fast checks)."""

import ast
import pathlib

import numpy as np

from repro.apps import get_benchmark
from repro.core.models import EnergyModelBundle, build_training_set
from repro.experiments.sweep import sweep_kernel
from repro.hw.device import SimulatedGPU
from repro.hw.sensor import PowerSensor
from repro.hw.specs import NVIDIA_V100
from repro.kernelir.microbench import generate_microbenchmarks


def test_sweeps_are_bit_reproducible():
    kernel = get_benchmark("black_scholes").kernel
    a = sweep_kernel(NVIDIA_V100, kernel)
    b = sweep_kernel(NVIDIA_V100, kernel)
    assert np.array_equal(a.time_s, b.time_s)
    assert np.array_equal(a.energy_j, b.energy_j)


def test_device_execution_reproducible(compute_kernel):
    def run():
        gpu = SimulatedGPU(NVIDIA_V100)
        record = gpu.execute(compute_kernel)
        return record.time_s, record.energy_j

    assert run() == run()


def test_sensor_noise_is_seeded(compute_kernel):
    def measure():
        gpu = SimulatedGPU(NVIDIA_V100, index=7)
        gpu.execute(compute_kernel.with_work_items(1 << 26))
        sensor = PowerSensor(gpu)
        return sensor.measure_energy(0.0, gpu.clock.now)

    assert measure() == measure()


def test_sensor_noise_differs_across_board_indices(compute_kernel):
    def measure(index):
        gpu = SimulatedGPU(NVIDIA_V100, index=index)
        gpu.execute(compute_kernel.with_work_items(1 << 26))
        sensor = PowerSensor(gpu)
        return sensor.measure_energy(0.0, gpu.clock.now)

    assert measure(1) != measure(2)


def test_trained_models_reproducible():
    kernels = generate_microbenchmarks(random_count=3)
    freqs = NVIDIA_V100.core_freqs_mhz[::48]

    def train_and_predict():
        ts = build_training_set(NVIDIA_V100, kernels, core_freqs_mhz=freqs)
        bundle = EnergyModelBundle(seed=4).fit(ts)
        kernel = get_benchmark("gemm").kernel
        curves = bundle.predict_curves(kernel, NVIDIA_V100.core_freqs_mhz[::24])
        return {name: arr.tolist() for name, arr in curves.items()}

    assert train_and_predict() == train_and_predict()


def test_plan_compilation_reproducible(trained_bundle):
    from repro.core.compiler import SynergyCompiler
    from repro.metrics.targets import ES_50, MIN_EDP

    kernels = [get_benchmark(n).kernel for n in ("gemm", "median")]
    compile_once = lambda: SynergyCompiler(  # noqa: E731
        trained_bundle, NVIDIA_V100
    ).compile(kernels, [MIN_EDP, ES_50]).plan.entries
    assert compile_once() == compile_once()


def _chaos_run(seed: int):
    """One faulted queue run: returns (fault log, per-kernel stats)."""
    from repro.core.queue import SynergyQueue
    from repro.faults import FaultPlan, FaultSpec
    from repro.kernelir.instructions import InstructionMix
    from repro.kernelir.kernel import KernelIR

    plan = FaultPlan(
        seed=seed,
        specs=(
            FaultSpec(site="nvml.set_clocks", probability=0.3),
            FaultSpec(site="hw.sensor_dropout", probability=0.2),
        ),
    )
    gpu = SimulatedGPU(NVIDIA_V100, index=0)
    gpu.fault_injector = plan.injector()
    queue = SynergyQueue(gpu)
    kernel = KernelIR(
        "chaos", InstructionMix(float_add=8, gl_access=2), work_items=1 << 20
    )
    clocks = (NVIDIA_V100.core_freqs_mhz[40], NVIDIA_V100.core_freqs_mhz[160])
    for i in range(12):
        queue.submit(
            877, clocks[i % 2], lambda h: h.parallel_for(kernel.work_items, kernel)
        )
    queue.wait()
    queue.device_energy_consumption()  # exercises the sensor-dropout path
    return gpu.fault_injector.log.to_dicts(), queue.kernel_stats()


def test_fault_injection_reproducible():
    """Identical fault plans replay byte-identical logs and kernel stats."""
    log_a, stats_a = _chaos_run(seed=13)
    log_b, stats_b = _chaos_run(seed=13)
    assert log_a == log_b
    assert stats_a == stats_b
    assert any(e["kind"] == "fault" for e in log_a)  # chaos actually ran


def test_fault_injection_seed_changes_outcomes():
    log_a, _ = _chaos_run(seed=13)
    log_b, _ = _chaos_run(seed=14)
    assert log_a != log_b


def test_microbench_generation_stable_across_calls():
    a = generate_microbenchmarks(seed=9, random_count=5)
    b = generate_microbenchmarks(seed=9, random_count=5)
    assert [(k.name, k.mix, k.locality) for k in a] == [
        (k.name, k.mix, k.locality) for k in b
    ]


def test_no_module_reads_the_environment():
    """Behaviour is set by arguments, not by environment variables."""
    import repro

    root = pathlib.Path(repro.__file__).parent
    reads = {"environ", "environb", "getenv", "getenvb"}
    offenders = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root)
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute):
                hit = (
                    node.attr in reads
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "os"
                )
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                hit = any(alias.name in reads for alias in node.names)
            else:
                continue
            if hit:
                offenders.append(f"{rel}:{node.lineno}")
    assert not offenders, offenders
