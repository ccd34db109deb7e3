"""Distributed command-graph scheduler tests.

Coverage for the tentpole layers: distributed ranges/buffers/accesses,
dependency-edge derivation (RAW through halo pulls, WAR against
same-wave neighbour transfers, WAW through last writers, gather
collectives), the array builder against the per-rank builder in
``tests/oracles/builder.py``, the global frequency planner (rank-uniform
clocks, the critical path at MAX_PERF, slack ranks downclocked inside
the SLA budget) against the per-rank planner in
``tests/oracles/planner.py``, parity between the wave-vectorized
executor and the per-rank queue walk in ``tests/oracles/graph.py``
(plain, power-capped and fault-armed communicators), the boards it
rejects, the fast path's no-node guarantee, and the retroactive per-rank
trace tracks.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.distributed.graph as graph_module
import repro.distributed.stencil as stencil_module
from repro.common.errors import ConfigurationError, ValidationError
from repro.core.compiler import plan_global_frequencies
from repro.core.frequency import DEFAULT_SWITCH_OVERHEAD_S
from repro.core.sweepcache import scoped_cache
from repro.distributed import (
    GATHER,
    HALO,
    KERNEL,
    CommandGraph,
    build_comm,
    build_stencil_graph,
    run_graph,
)
from repro.faults import RankFailure
from repro.faults.plan import FaultPlan, FaultSpec
from repro.hw.specs import get_spec
from repro.sycl import DistributedAccess, DistributedBuffer, DistributedRange
from repro.sycl.accessor import AccessMode

from oracles import builder as builder_oracle
from oracles import graph as oracle
from oracles import planner as planner_oracle

pytestmark = pytest.mark.distributed

RTOL = 1e-12

SPEC = get_spec("A100")


def _kernel(name: str):
    from repro.apps import get_benchmark

    return get_benchmark(name).kernel


@pytest.fixture(scope="module")
def stencil():
    """A warmed 6-rank stencil: comm, graph, plan and MAX_PERF baseline."""
    with scoped_cache():
        comm = build_comm(SPEC, 6)
        graph = build_stencil_graph(comm, steps=3, elems_per_rank=1 << 18)
        kernels = graph.rank_kernels()
        plan = plan_global_frequencies(
            SPEC, kernels, sla_factor=1.25, cache=True
        )
        baseline = plan_global_frequencies(
            SPEC, kernels, sla_factor=1.25, objective="MAX_PERF", cache=True
        )
        yield comm, graph, plan, baseline


# ------------------------------------------------------- ranges and buffers


class TestDistributedRange:
    def test_even_partition(self):
        rng = DistributedRange(12, 4)
        assert rng.counts.tolist() == [3, 3, 3, 3]
        assert rng.slice_of(2) == (6, 9)
        assert len(rng) == 12

    def test_uneven_partition_front_loads_remainder(self):
        rng = DistributedRange(10, 4)
        assert rng.counts.tolist() == [3, 3, 2, 2]
        assert rng.bounds.tolist() == [0, 3, 6, 8, 10]
        assert sum(rng.count_of(r) for r in range(4)) == 10

    def test_more_ranks_than_elements(self):
        rng = DistributedRange(2, 4)
        assert rng.counts.tolist() == [1, 1, 0, 0]
        assert rng.count_of(3) == 0

    def test_bad_arguments(self):
        with pytest.raises(ValidationError):
            DistributedRange(0, 4)
        with pytest.raises(ValidationError):
            DistributedRange(8, 0)
        with pytest.raises(ValidationError):
            DistributedRange(8, 2).slice_of(2)

    def test_partition_arrays_frozen(self):
        rng = DistributedRange(8, 2)
        with pytest.raises(ValueError):
            rng.counts[0] = 99


class TestDistributedBuffer:
    def test_block_nbytes(self):
        buf = DistributedBuffer(DistributedRange(10, 4), itemsize=8)
        assert buf.block_nbytes(0) == 24
        assert buf.block_nbytes(3) == 16

    def test_names_default_unique(self):
        rng = DistributedRange(4, 2)
        a, b = DistributedBuffer(rng), DistributedBuffer(rng)
        assert a.name != b.name

    def test_access_sugar_modes(self):
        buf = DistributedBuffer(DistributedRange(8, 2), name="f")
        assert buf.read(halo=2).mode is AccessMode.READ
        assert buf.write().mode is AccessMode.WRITE
        assert buf.read_write().mode is AccessMode.READ_WRITE
        assert buf.read(halo=3).halo_nbytes == 3 * buf.itemsize

    def test_halo_on_write_rejected(self):
        buf = DistributedBuffer(DistributedRange(8, 2))
        with pytest.raises(ValidationError):
            DistributedAccess(buf, AccessMode.WRITE, halo=1)
        with pytest.raises(ValidationError):
            DistributedAccess(buf, AccessMode.READ, halo=-1)

    def test_bad_itemsize(self):
        with pytest.raises(ValidationError):
            DistributedBuffer(DistributedRange(8, 2), itemsize=0)


# ------------------------------------------------------------ graph building


def _graph(n_ranks: int = 4) -> CommandGraph:
    return CommandGraph(n_ranks, [r // 2 for r in range(n_ranks)])


class TestGraphDerivation:
    def test_waw_chain_through_last_writer(self):
        g = _graph(2)
        buf = DistributedBuffer(DistributedRange(8, 2), name="b")
        k = _kernel("sobel3")
        first = g.parallel_for(k, [buf.write()])
        second = g.parallel_for(k, [buf.write()])
        for a, b in zip(first, second):
            assert a.nid in b.deps

    def test_raw_waits_on_own_halo_pull(self):
        g = _graph(3)
        buf = DistributedBuffer(DistributedRange(12, 3), name="b")
        k = _kernel("sobel3")
        g.parallel_for(k, [buf.write()])
        kernels = g.parallel_for(k, [buf.read(halo=2)])
        halos = [n for n in g.nodes if n.kind == HALO]
        assert len(halos) == 3  # every rank has at least one neighbour
        halo_of = {h.rank: h.nid for h in halos}
        for node in kernels:
            assert halo_of[node.rank] in node.deps

    def test_war_same_wave_neighbour_halo_blocks_write(self):
        g = _graph(3)
        buf = DistributedBuffer(DistributedRange(12, 3), name="b")
        k = _kernel("sobel3")
        g.parallel_for(k, [buf.write()])
        g.parallel_for(k, [buf.read(halo=2)])
        # Next wave writes the field: rank 1's write must wait for both
        # neighbours' halo pulls (they read rank 1's previous block).
        writers = g.parallel_for(k, [buf.read_write()])
        halos = {n.nid: n for n in g.nodes if n.kind == HALO}
        mid = writers[1]
        neighbour_pulls = [
            d for d in mid.deps if d in halos and halos[d].rank != 1
        ]
        assert sorted(halos[d].rank for d in neighbour_pulls) == [0, 2]

    def test_halo_costs_priced_by_network_distance(self):
        # Ranks 0|1 share a node; rank 1|2 cross nodes: the cross-node
        # pull must cost at least the intra-node one.
        g = CommandGraph(4, [0, 0, 1, 1])
        buf = DistributedBuffer(DistributedRange(16, 4), name="b")
        k = _kernel("sobel3")
        g.parallel_for(k, [buf.write()])
        g.parallel_for(k, [buf.read(halo=4)])
        cost = {n.rank: n.cost_s for n in g.nodes if n.kind == HALO}
        assert cost[1] >= cost[0] > 0.0
        assert cost[1] == cost[2]  # mirrored cross-node exchange

    def test_gather_depends_on_all_writers_and_orders_next_write(self):
        g = _graph(3)
        buf = DistributedBuffer(DistributedRange(12, 3), name="b")
        k = _kernel("sobel3")
        writers = g.parallel_for(k, [buf.write()])
        gather = g.gather(buf)
        assert gather.deps == tuple(sorted(w.nid for w in writers))
        assert gather.rank == -1
        assert gather.cost_s > 0.0
        after = g.parallel_for(k, [buf.write()])
        for node in after:
            assert gather.nid in node.deps

    def test_single_rank_gather_is_free(self):
        g = CommandGraph(1, [0])
        buf = DistributedBuffer(DistributedRange(8, 1), name="b")
        g.parallel_for(_kernel("sobel3"), [buf.write()])
        assert g.gather(buf).cost_s == 0.0
        # A one-rank stencil: no halos, and its only rank is critical.
        with scoped_cache():
            comm = build_comm(SPEC, 1)
            stencil = build_stencil_graph(comm, steps=2, elems_per_rank=1 << 18)
            plan = plan_global_frequencies(SPEC, stencil.rank_kernels(), cache=True)
            result = run_graph(stencil, comm, plan)
        assert HALO not in stencil.counts()
        assert plan.critical_rank == 0 and plan.rank_targets == ("MAX_PERF",)
        assert result.completion_s > 0.0

    def test_idle_ranks_skip_node_creation(self):
        g = _graph(4)
        buf = DistributedBuffer(DistributedRange(16, 4), name="b")
        k = _kernel("gemm")
        created = g.parallel_for([k, None, None, k], [buf.read_write()])
        assert [n.rank for n in created] == [0, 3]
        assert g.counts() == {KERNEL: 2}

    def test_builder_argument_validation(self):
        g = _graph(2)
        buf = DistributedBuffer(DistributedRange(8, 2), name="b")
        k = _kernel("sobel3")
        with pytest.raises(ValidationError):
            g.parallel_for([k], [buf.write()])  # wrong per-rank length
        with pytest.raises(ValidationError):
            g.parallel_for([None, None], [buf.write()])  # no active rank
        other = DistributedBuffer(DistributedRange(9, 3), name="c")
        with pytest.raises(ValidationError):
            g.parallel_for(k, [other.write()])  # rank-count mismatch
        with pytest.raises(ValidationError):
            CommandGraph(0, [])
        with pytest.raises(ValidationError):
            CommandGraph(2, [0])

    def test_edges_topological_and_deduped(self, stencil):
        _, graph, _, _ = stencil
        assert graph.check_edges()
        for node in graph.nodes:
            assert list(node.deps) == sorted(set(node.deps))
        # Derivation is deterministic: a rebuild gives the same graph.
        again = build_stencil_graph(
            build_comm(SPEC, graph.n_ranks), steps=3, elems_per_rank=1 << 18
        )
        assert [
            (n.nid, n.kind, n.rank, n.wave, n.label, n.deps, n.nbytes, n.cost_s)
            for n in again.nodes
        ] == [
            (n.nid, n.kind, n.rank, n.wave, n.label, n.deps, n.nbytes, n.cost_s)
            for n in graph.nodes
        ]

    def test_rank_kernels_matches_kernel_nodes(self, stencil):
        _, graph, _, _ = stencil
        per_rank = graph.rank_kernels()
        assert sum(len(ks) for ks in per_rank) == len(graph.kernel_nodes())
        # Edge ranks carry the boundary kernel; interior ranks don't.
        names0 = {k.name for k in per_rank[0]}
        names_mid = {k.name for k in per_rank[2]}
        assert "gemm" in names0 and "gemm" not in names_mid


#: The weak-scaling curve of perfbench's ``distributed`` workload.
CURVE = (256, 512, 1024, 2048, 4096)


def _oracle_stencil(monkeypatch, comm, **kwargs):
    """The stencil built by the per-rank reference builder."""
    with monkeypatch.context() as patch:
        patch.setattr(stencil_module, "CommandGraph", builder_oracle.CommandGraph)
        return build_stencil_graph(comm, **kwargs)


def _assert_same_graph(graph, ref) -> None:
    assert len(graph.nodes) == len(ref.nodes)
    assert builder_oracle.node_table(graph) == builder_oracle.node_table(ref)
    assert builder_oracle.record_table(graph) == builder_oracle.record_table(ref)
    assert graph.counts() == ref.counts()
    assert list(graph.counts()) == list(ref.counts())
    assert graph.rank_kernels() == ref.rank_kernels()
    assert [n.nid for n in graph.kernel_nodes()] == [
        n.nid for n in ref.kernel_nodes()
    ]
    assert graph.n_waves == ref.n_waves


class TestArrayBuilderParity:
    @pytest.mark.parametrize("n_ranks", CURVE)
    def test_curve_matches_reference_builder(self, monkeypatch, n_ranks):
        comm = build_comm(SPEC, n_ranks)
        graph = build_stencil_graph(comm, steps=4)
        _assert_same_graph(graph, _oracle_stencil(monkeypatch, comm, steps=4))
        assert graph.check_edges()

    @settings(max_examples=40, deadline=None)
    @given(
        n_ranks=st.integers(1, 6),
        node_size=st.integers(1, 3),
        waves=st.lists(
            st.tuples(
                st.booleans(),  # gather instead of parallel_for
                st.lists(  # (buffer, mode, halo) per access
                    st.tuples(
                        st.integers(0, 2),
                        st.sampled_from(["read", "write", "read_write"]),
                        st.sampled_from([0, 0, 1, 3]),
                    ),
                    min_size=0,
                    max_size=3,
                ),
                st.integers(1, 63),  # active-rank mask
                st.integers(0, 1),  # kernel
            ),
            min_size=1,
            max_size=8,
        ),
    )
    def test_random_waves_match_reference_builder(self, n_ranks, node_size, waves):
        kernels = [_kernel("sobel3"), _kernel("median")]
        nodes = [r // node_size for r in range(n_ranks)]
        graphs = [
            CommandGraph(n_ranks, nodes),
            builder_oracle.CommandGraph(n_ranks, nodes),
        ]
        rng = DistributedRange(64 * n_ranks, n_ranks)
        bufs = [DistributedBuffer(rng, name=f"b{i}") for i in range(3)]
        for is_gather, accesses, mask, ki in waves:
            if is_gather:
                for g in graphs:
                    g.gather(bufs[accesses[0][0] if accesses else 0])
                continue
            declared = [
                DistributedAccess(
                    bufs[b], AccessMode[mode.upper()],
                    halo=halo if mode != "write" else 0,
                )
                for b, mode, halo in accesses
            ]
            per_rank = [
                kernels[ki] if (mask >> (r % 6)) & 1 or r == n_ranks - 1 else None
                for r in range(n_ranks)
            ]
            created = [g.parallel_for(per_rank, declared) for g in graphs]
            assert [n.nid for n in created[0]] == [n.nid for n in created[1]]
        _assert_same_graph(*graphs)
        assert graphs[0].check_edges()

    def test_node_view_is_lazy_and_read_only(self):
        g = _graph(3)
        buf = DistributedBuffer(DistributedRange(12, 3), name="b")
        g.parallel_for(_kernel("sobel3"), [buf.write()])
        g.parallel_for(_kernel("sobel3"), [buf.read(halo=2)])
        nodes = g.nodes
        assert len(nodes) == 9
        assert nodes[-1] == nodes[8] == list(nodes)[8]
        assert [n.nid for n in nodes[2:5]] == [2, 3, 4]
        assert [n.nid for n in nodes[::4]] == [0, 4, 8]
        with pytest.raises(IndexError):
            nodes[9]
        with pytest.raises(TypeError):
            nodes[0] = nodes[1]
        with pytest.raises(ValueError):
            g.waves[0].deps[0, 0] = 5

    def test_check_edges_names_the_first_bad_dependency(self):
        import dataclasses

        g = _graph(2)
        buf = DistributedBuffer(DistributedRange(8, 2), name="b")
        g.parallel_for(_kernel("sobel3"), [buf.write()])
        g.parallel_for(_kernel("sobel3"), [buf.write()])
        wave = g.waves[1]
        deps = wave.deps.copy()
        deps[1, 0] = 3  # node 3 depending on itself
        g.waves[1] = dataclasses.replace(wave, deps=deps)
        with pytest.raises(ValidationError, match=r"node 3 \(sobel3\[r1\]\) depends on 3"):
            g.check_edges()


# ------------------------------------------------------------ global planner


class TestGlobalPlanner:
    def test_critical_rank_is_edge_and_maxperf(self, stencil):
        _, graph, plan, _ = stencil
        assert plan.critical_rank in (0, graph.n_ranks - 1)
        assert plan.rank_targets[plan.critical_rank] == "MAX_PERF"

    def test_slack_ranks_downclocked_within_budget(self, stencil):
        _, graph, plan, _ = stencil
        slack = [
            r for r, t in enumerate(plan.rank_targets) if t != "MAX_PERF"
        ]
        assert slack  # interior ranks have exploitable slack
        crit_core = plan.rank_clocks[plan.critical_rank][1]
        for r in slack:
            assert plan.rank_clocks[r][1] < crit_core
            assert plan.est_time_s[r] <= plan.budget_s
            assert plan.est_energy_j[r] <= plan.maxperf_energy_j[r]

    def test_energy_bound_vs_maxperf(self, stencil):
        comm, graph, plan, baseline = stencil
        assert plan.total_energy_j <= baseline.total_energy_j
        assert plan.saved_j > 0.0
        assert baseline.saved_j == 0.0
        # Executed, too: strict savings, and completion inside the SLA
        # budget plus one switch of headroom for boot-clock asymmetry.
        result = run_graph(graph, comm, plan)
        ref = run_graph(graph, build_comm(SPEC, comm.size), baseline)
        assert result.total_energy_j < ref.total_energy_j
        assert result.completion_s <= (
            plan.sla_factor * ref.completion_s * (1.0 + 1e-9)
            + DEFAULT_SWITCH_OVERHEAD_S
        )

    def test_rank_uniform_entries(self, stencil):
        _, graph, plan, _ = stencil
        for rank, ks in enumerate(graph.rank_kernels()):
            pairs = {plan.clocks_for(rank, k.name) for k in ks}
            assert pairs == {plan.rank_clocks[rank]}

    def test_clocks_for_unplanned_kernel_raises(self, stencil):
        _, _, plan, _ = stencil
        with pytest.raises(ConfigurationError):
            plan.clocks_for(0, "not_planned")
        with pytest.raises(ConfigurationError):
            plan.clocks_for(10_000, "sobel3")

    def test_planner_argument_validation(self):
        k = _kernel("sobel3")
        with pytest.raises(ConfigurationError):
            plan_global_frequencies(SPEC, [[k]], sla_factor=0.5)
        with pytest.raises(ConfigurationError):
            plan_global_frequencies(SPEC, [])
        with pytest.raises(ConfigurationError):
            plan_global_frequencies(SPEC, [[k], []])
        with pytest.raises(ConfigurationError):
            plan_global_frequencies(SPEC, [[k]], objective="FASTEST")

    def test_min_energy_objective_saves_at_least_as_much(self):
        with scoped_cache():
            comm = build_comm(SPEC, 4)
            graph = build_stencil_graph(
                comm, steps=2, elems_per_rank=1 << 18
            )
            kernels = graph.rank_kernels()
            edp = plan_global_frequencies(SPEC, kernels, cache=True)
            mine = plan_global_frequencies(
                SPEC, kernels, objective="MIN_ENERGY", cache=True
            )
        assert mine.total_energy_j <= edp.total_energy_j + 1e-12


def _plan_bits(plan) -> tuple:
    """Every plan field, floats as bit patterns, entries in order."""
    def bits(x):
        if isinstance(x, float):
            return x.hex()
        if isinstance(x, tuple):
            return tuple(bits(v) for v in x)
        return x

    return tuple(
        bits(getattr(plan, f))
        for f in (
            "device_name", "sla_factor", "budget_s", "critical_rank",
            "rank_targets", "rank_clocks", "est_time_s", "est_energy_j",
            "maxperf_time_s", "maxperf_energy_j",
        )
    ) + (list(plan.entries.items()),)


OBJECTIVES = ("MIN_EDP", "MIN_ENERGY", "MAX_PERF")


def _assert_same_plan(rank_kernels, **kwargs) -> None:
    for objective in OBJECTIVES:
        plan = plan_global_frequencies(
            SPEC, rank_kernels, objective=objective, cache=True, **kwargs
        )
        ref = planner_oracle.plan_global_frequencies(
            SPEC, rank_kernels, objective=objective, cache=True, **kwargs
        )
        assert plan == ref
        assert _plan_bits(plan) == _plan_bits(ref)


class TestPlannerParity:
    @pytest.mark.parametrize("n_ranks", CURVE)
    def test_curve_matches_reference_planner(self, n_ranks):
        graph = build_stencil_graph(build_comm(SPEC, n_ranks), steps=4)
        with scoped_cache():
            _assert_same_plan(graph.rank_kernels(), sla_factor=1.25)

    @settings(max_examples=30, deadline=None)
    @given(
        templates=st.lists(
            st.lists(st.integers(0, 2), min_size=1, max_size=5),
            min_size=1,
            max_size=4,
        ),
        picks=st.lists(st.integers(0, 7), min_size=0, max_size=10),
        sla=st.sampled_from([1.0, 1.1, 1.25, 2.0]),
    )
    def test_multisets_match_reference_planner(self, templates, picks, sla):
        pool = [_kernel("sobel3"), _kernel("median"), _kernel("gemm")]
        # Every template runs on two ranks (a MAX_PERF tie between equal
        # multisets), and reversed on a third: the same multiset in a
        # different first-appearance order.
        shapes = templates + templates + [t[::-1] for t in templates]
        shapes += [templates[p % len(templates)] for p in picks]
        rank_kernels = [[pool[i] for i in t] for t in shapes]
        with scoped_cache():
            _assert_same_plan(rank_kernels, sla_factor=sla)


# ---------------------------------------------------------------- executors


def _assert_parity(batched, scalar) -> None:
    for field in ("start_s", "finish_s", "rank_energy_j", "rank_time_s"):
        np.testing.assert_allclose(
            getattr(batched, field), getattr(scalar, field), rtol=RTOL
        )
    assert batched.rank_switches.tolist() == scalar.rank_switches.tolist()
    assert batched.completion_s == pytest.approx(
        scalar.completion_s, rel=RTOL
    )


def _half_capped(n_ranks: int):
    comm = build_comm(SPEC, n_ranks)
    for gpu in comm.gpus[::2]:
        gpu.set_power_limit(
            SPEC.idle_power_w
            + 0.5 * (gpu.default_power_limit_w - SPEC.idle_power_w),
            privileged=True,
        )
    return comm


class TestExecutors:
    def test_batched_scalar_parity(self, stencil):
        comm, graph, plan, _ = stencil
        free = run_graph(graph, comm, plan)  # pure — boards untouched
        _assert_parity(free, oracle.run_graph(graph, comm, plan))

    def test_powercap_matches_oracle(self, stencil):
        comm, graph, plan, _ = stencil
        free = run_graph(graph, comm, plan)
        capped = run_graph(graph, _half_capped(graph.n_ranks), plan)
        _assert_parity(
            capped, oracle.run_graph(graph, _half_capped(graph.n_ranks), plan)
        )
        # The caps really throttle: the same plan uncapped costs more.
        assert capped.total_energy_j < free.total_energy_j

    def test_rank_fail_plans_match_oracle(self, stencil):
        _, graph, plan, _ = stencil
        outcomes = []
        for seed in range(6):
            def comm(seed=seed):
                fault_plan = FaultPlan(
                    seed=seed,
                    specs=(FaultSpec(site="mpi.rank_fail", probability=0.04),),
                )
                return build_comm(
                    SPEC, graph.n_ranks, injector=fault_plan.injector()
                )

            try:
                batched = run_graph(graph, comm(), plan)
            except RankFailure as exc:
                with pytest.raises(RankFailure) as ref:
                    oracle.run_graph(graph, comm(), plan)
                assert ref.value.rank == exc.rank
                assert ref.value.t == pytest.approx(exc.t, rel=RTOL)
                outcomes.append("failed")
            else:
                _assert_parity(batched, oracle.run_graph(graph, comm(), plan))
                outcomes.append("completed")
        # The seeds exercise both outcomes.
        assert set(outcomes) == {"failed", "completed"}

    def test_rank_uniform_plan_costs_one_switch_per_rank(self, stencil):
        comm, graph, plan, _ = stencil
        result = run_graph(graph, comm, plan)
        assert all(s <= 1 for s in result.rank_switches.tolist())

    def test_halo_overlaps_compute(self, stencil):
        comm, graph, plan, _ = stencil
        r = run_graph(graph, comm, plan)
        halo_iv = [
            (r.start_s[n.nid], r.finish_s[n.nid])
            for n in graph.nodes if n.kind == HALO and n.cost_s > 0.0
        ]
        kern_iv = [
            (r.start_s[n.nid], r.finish_s[n.nid])
            for n in graph.nodes if n.kind == KERNEL
        ]
        assert any(
            hs < ke and ks < he
            for hs, he in halo_iv for ks, ke in kern_iv
        )

    def test_comm_size_mismatch_rejected(self, stencil):
        _, graph, plan, _ = stencil
        small = build_comm(SPEC, 2)
        with pytest.raises(ValidationError):
            run_graph(graph, small, plan)
        with pytest.raises(ValidationError):
            oracle.run_graph(graph, small, plan)

    @pytest.mark.parametrize("case", ["mixed_spec", "board_injector", "restricted"])
    def test_unsupported_boards_rejected(self, stencil, case):
        from repro.common.clock import VirtualClock
        from repro.hw.device import SimulatedGPU

        _, graph, plan, _ = stencil
        comm = build_comm(SPEC, graph.n_ranks)
        if case == "mixed_spec":
            # Each rank is priced off its own board: the A100-only clock
            # plan is invalid on the V100, exactly as a per-event submit
            # rejects it.
            comm.gpus[-1] = SimulatedGPU(get_spec("V100"), clock=VirtualClock())
            expected, match = ConfigurationError, "V100"
        elif case == "board_injector":
            # Board-level faults (here a thermal throttle pinning the
            # minimum clock) are per-event draws the waves cannot replay.
            for gpu in comm.gpus:
                gpu.fault_injector = FaultPlan(
                    seed=0,
                    specs=(FaultSpec(
                        site="hw.thermal_throttle", at_s=0.0, duration_s=10.0,
                        param=SPEC.min_core_mhz, target=gpu.index,
                    ),),
                ).injector()
            expected, match = ValidationError, "gpu0"
        else:
            comm.gpus[1].set_api_restriction(True)
            expected, match = ValidationError, "gpu1.*API-restricted"
        with pytest.raises(expected, match=match):
            run_graph(graph, comm, plan)

    def test_result_arrays_read_only_and_summary(self, stencil):
        comm, graph, plan, _ = stencil
        r = run_graph(graph, comm, plan)
        with pytest.raises(ValueError):
            r.start_s[0] = 1.0
        s = r.summary()
        assert s["ranks"] == float(graph.n_ranks)
        assert s["kernels"] == float(r.n_kernels)
        assert s["kernel_energy_j"] == pytest.approx(r.total_energy_j)
        assert s["clock_switches"] == float(r.rank_switches.sum())

    def test_build_comm_validation(self):
        with pytest.raises(ValidationError):
            build_comm(SPEC, 0)
        with pytest.raises(ValidationError):
            build_comm(SPEC, 4, ranks_per_node=0)


class TestFirstRejectedNode:
    """The engine raises what a per-node walk raises at its first bad node."""

    def _partial_plan(self, graph):
        # Plan only the flux and update kernels: the edge ranks' gemm
        # (wave 1 onwards) has no planned clocks.
        flux, update = (_kernel("sobel3"), _kernel("median"))
        return plan_global_frequencies(
            SPEC, [[flux, update]] * graph.n_ranks, cache=True
        )

    def test_unplanned_kernel_raises_clocks_for_error(self, stencil):
        comm, graph, _, _ = stencil
        with pytest.raises(
            ConfigurationError, match="kernel 'gemm' on rank 0"
        ):
            run_graph(graph, comm, self._partial_plan(graph))

    def test_earlier_restricted_switch_wins(self, stencil):
        _, graph, _, _ = stencil
        comm = build_comm(SPEC, graph.n_ranks)
        comm.gpus[2].set_api_restriction(True)  # switched in wave 0
        with pytest.raises(ValidationError, match="gpu2.*API-restricted"):
            run_graph(graph, comm, self._partial_plan(graph))


def test_fast_path_builds_no_per_rank_nodes(monkeypatch):
    """Curve point at 1,024 ranks: only the gather collectives' nodes."""
    built = []
    real = graph_module.CommandNode

    def counted(*args, **kwargs):
        built.append(kwargs.get("kind"))
        return real(*args, **kwargs)

    monkeypatch.setattr(graph_module, "CommandNode", counted)
    with scoped_cache():
        comm = build_comm(SPEC, 1024)
        graph = build_stencil_graph(comm, steps=4)
        plan = plan_global_frequencies(SPEC, graph.rank_kernels(), cache=True)
        result = run_graph(graph, comm, plan)
        assert len(graph.nodes) == 12_298 == len(result.start_s)
        assert graph.check_edges()
    # ``gather`` returns its collective's node; nothing else is built.
    assert built == [GATHER] * graph.counts()[GATHER] == [GATHER, GATHER]


# ------------------------------------------------------------- obs tracks


class TestGraphTrace:
    def test_emits_per_rank_tracks(self, stencil):
        from repro.obs import TraceSession
        from repro.obs.dist import emit_graph_trace

        comm, graph, plan, _ = stencil
        result = run_graph(graph, comm, plan)
        session = TraceSession()
        emitted = emit_graph_trace(session, graph, result)
        assert emitted == len(graph.nodes)
        spans = session.tracer.spans
        tracks = {s.track for s in spans}
        assert {f"rank{r}" for r in range(graph.n_ranks)} <= tracks
        assert "mpi" in tracks
        cats = {s.track: s.category for s in spans}
        assert cats["mpi"] == "collective"

    def test_disabled_session_is_noop(self, stencil):
        from repro.obs import NULL_TRACE
        from repro.obs.dist import emit_graph_trace

        comm, graph, plan, _ = stencil
        result = run_graph(graph, comm, plan)
        assert emit_graph_trace(NULL_TRACE, graph, result) == 0
