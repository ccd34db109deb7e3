"""Reference command-graph builder: the per-rank hazard walk.

The equivalence oracle for :class:`repro.distributed.graph.CommandGraph`.
It derives every node with a Python loop per rank over dict/list hazard
state — a last-writer list and a reader list per ``(buffer, rank)`` — in
three passes per wave (halo transfers, kernels, committed effects), and
keeps every node as a :class:`~repro.distributed.graph.CommandNode` in a
plain list. The array builder must produce the same nodes (ids, kinds,
ranks, waves, labels, dependencies, byte counts and costs) and the same
:class:`~repro.distributed.graph.WaveRecord` log for any command
sequence.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.common.errors import ValidationError
from repro.distributed.graph import (
    GATHER,
    HALO,
    KERNEL,
    CommandNode,
    WaveRecord,
)
from repro.kernelir.kernel import KernelIR
from repro.mpi.network import NetworkModel
from repro.sycl.distributed import DistributedAccess, DistributedBuffer


class CommandGraph:
    """Builder and container for a distributed command DAG."""

    def __init__(
        self,
        n_ranks: int,
        node_of_rank: Sequence[int],
        network: NetworkModel | None = None,
    ) -> None:
        if n_ranks <= 0:
            raise ValidationError(f"graph needs at least one rank ({n_ranks})")
        if len(node_of_rank) != n_ranks:
            raise ValidationError(
                f"node_of_rank length {len(node_of_rank)} != ranks {n_ranks}"
            )
        self.n_ranks = int(n_ranks)
        self.node_of_rank = list(node_of_rank)
        self.network = network if network is not None else NetworkModel()
        self.nodes: list[CommandNode] = []
        self.submissions: list[WaveRecord] = []
        self._wave = -1
        # Per (buffer, rank) hazard state: the node id of the last write,
        # and ids of reads since then. Owned by the graph (not the buffer)
        # so independently-built graphs never interfere.
        self._last_writer: dict[DistributedBuffer, list[int | None]] = {}
        self._readers: dict[DistributedBuffer, list[list[int]]] = {}

    # -------------------------------------------------------------- plumbing

    def _state(
        self, buf: DistributedBuffer
    ) -> tuple[list[int | None], list[list[int]]]:
        if buf.n_ranks != self.n_ranks:
            raise ValidationError(
                f"buffer {buf.name!r} is distributed over {buf.n_ranks} "
                f"ranks; graph has {self.n_ranks}"
            )
        if buf not in self._last_writer:
            self._last_writer[buf] = [None] * self.n_ranks
            self._readers[buf] = [[] for _ in range(self.n_ranks)]
        return self._last_writer[buf], self._readers[buf]

    def _neighbours(self, rank: int) -> list[int]:
        """Non-periodic ±1 neighbours (stencil codes pin the boundary)."""
        out = []
        if rank > 0:
            out.append(rank - 1)
        if rank < self.n_ranks - 1:
            out.append(rank + 1)
        return out

    def _add(self, **kwargs) -> CommandNode:
        node = CommandNode(nid=len(self.nodes), wave=self._wave, **kwargs)
        self.nodes.append(node)
        return node

    @staticmethod
    def _dedup(deps: list[int]) -> tuple[int, ...]:
        return tuple(sorted(set(deps)))

    # ------------------------------------------------------------ submission

    def parallel_for(
        self,
        kernel: KernelIR | Sequence[KernelIR | None],
        accesses: Sequence[DistributedAccess],
    ) -> list[CommandNode]:
        """Submit one SPMD command group; returns the created kernel nodes.

        ``kernel`` is either one :class:`KernelIR` every rank runs, or a
        per-rank sequence where ``None`` marks an idle rank (heterogeneous
        waves — e.g. boundary-condition kernels on edge ranks only).
        Dependency edges are derived from ``accesses`` as described in the
        module docstring.
        """
        if isinstance(kernel, KernelIR):
            per_rank: list[KernelIR | None] = [kernel] * self.n_ranks
        else:
            per_rank = list(kernel)
            if len(per_rank) != self.n_ranks:
                raise ValidationError(
                    f"per-rank kernel list covers {len(per_rank)} ranks; "
                    f"graph has {self.n_ranks}"
                )
        if not any(k is not None for k in per_rank):
            raise ValidationError("command group has no active rank")
        self._wave += 1

        # Pass 1 — halo transfers, derived from the *pre-wave* state. Each
        # active rank with a halo access gets one transfer node pulling
        # both neighbour boundaries; the node registers immediately as a
        # reader of the neighbour blocks so same-wave writes order behind
        # it (the WAR edge that keeps boundary pulls sound).
        halo_of: dict[tuple[int, int], int] = {}  # (rank, access idx) -> nid
        for ai, access in enumerate(accesses):
            if not access.halo:
                continue
            writers, readers = self._state(access.buffer)
            for rank in range(self.n_ranks):
                if per_rank[rank] is None:
                    continue
                neighbours = self._neighbours(rank)
                if not neighbours:
                    continue
                deps = [
                    writers[n] for n in neighbours if writers[n] is not None
                ]
                # Both directions proceed concurrently; the slower link
                # bounds the exchange (send + receive, as in
                # SimulatedComm.halo_exchange).
                cost = 2.0 * max(
                    self.network.transfer_time(
                        access.halo_nbytes,
                        self.node_of_rank[rank],
                        self.node_of_rank[n],
                    )
                    for n in neighbours
                )
                node = self._add(
                    kind=HALO,
                    rank=rank,
                    label=f"halo:{access.buffer.name}[r{rank}]",
                    deps=self._dedup(deps),
                    nbytes=float(access.halo_nbytes),
                    cost_s=cost,
                )
                halo_of[(rank, ai)] = node.nid
                for n in neighbours:
                    readers[n].append(node.nid)

        # Pass 2 — kernel nodes, deps from the pre-wave state plus this
        # wave's halo nodes. Effects are *not* committed yet: same-wave
        # kernels on different ranks are concurrent, never ordered against
        # each other through their own wave's reads.
        created: list[CommandNode] = []
        for rank in range(self.n_ranks):
            k = per_rank[rank]
            if k is None:
                continue
            deps: list[int] = []
            for ai, access in enumerate(accesses):
                writers, readers = self._state(access.buffer)
                if access.mode.reads:
                    if writers[rank] is not None:
                        deps.append(writers[rank])
                    hid = halo_of.get((rank, ai))
                    if hid is not None:
                        deps.append(hid)
                if access.mode.writes:
                    if writers[rank] is not None:
                        deps.append(writers[rank])
                    deps.extend(readers[rank])
            node = self._add(
                kind=KERNEL,
                rank=rank,
                label=f"{k.name}[r{rank}]",
                deps=self._dedup(deps),
                kernel=k,
            )
            created.append(node)

        # Pass 3 — commit this wave's effects. Writes supersede the block's
        # reader set (later writers transitively order behind them through
        # the new last-writer edge); pure reads join it.
        for node in created:
            for access in accesses:
                writers, readers = self._state(access.buffer)
                if access.mode.writes:
                    writers[node.rank] = node.nid
                    readers[node.rank] = []
                else:
                    readers[node.rank].append(node.nid)
        self.submissions.append(
            WaveRecord(
                wave=self._wave,
                kind="parallel_for",
                accesses=tuple(accesses),
                buffer=None,
                kernel_nids=tuple((n.rank, n.nid) for n in created),
                halo_nids=tuple(halo_of.items()),
                gather_nid=None,
            )
        )
        return created

    def gather(
        self, buf: DistributedBuffer, *, nbytes: float | None = None
    ) -> CommandNode:
        """Submit a global gather/reduction over every block of ``buf``.

        Depends on every rank's last writer and registers as a reader of
        every block, so subsequent writes order behind the collective.
        Costed with the ring-allreduce model over the per-rank
        contribution (the largest block, unless ``nbytes`` overrides).
        """
        self._wave += 1
        writers, readers = self._state(buf)
        deps = [w for w in writers if w is not None]
        if nbytes is None:
            nbytes = float(int(buf.range.counts.max()) * buf.itemsize)
        cost = (
            self.network.allreduce_time(nbytes, self.node_of_rank)
            if self.n_ranks > 1
            else 0.0
        )
        node = self._add(
            kind=GATHER,
            rank=-1,
            label=f"gather:{buf.name}",
            deps=self._dedup(deps),
            nbytes=float(nbytes),
            cost_s=cost,
        )
        for rank in range(self.n_ranks):
            readers[rank].append(node.nid)
        self.submissions.append(
            WaveRecord(
                wave=self._wave,
                kind="gather",
                accesses=(),
                buffer=buf,
                kernel_nids=(),
                halo_nids=(),
                gather_nid=node.nid,
            )
        )
        return node

    # ------------------------------------------------------------ inspection

    @property
    def n_waves(self) -> int:
        """Number of submitted waves."""
        return self._wave + 1

    def kernel_nodes(self) -> list[CommandNode]:
        """All kernel nodes in id (= topological) order."""
        return [n for n in self.nodes if n.kind == KERNEL]

    def counts(self) -> dict[str, int]:
        """Node count per kind."""
        out: dict[str, int] = {}
        for n in self.nodes:
            out[n.kind] = out.get(n.kind, 0) + 1
        return out

    def rank_kernels(self) -> list[list[KernelIR]]:
        """Per-rank kernel sequence, in execution (id) order.

        This is exactly the shape
        :func:`repro.core.compiler.plan_global_frequencies` consumes to
        choose per-rank clocks from a global energy target.
        """
        out: list[list[KernelIR]] = [[] for _ in range(self.n_ranks)]
        for n in self.nodes:
            if n.kind == KERNEL:
                assert n.kernel is not None
                out[n.rank].append(n.kernel)
        return out

    def check_edges(self) -> bool:
        """Structural soundness: acyclic-by-construction edge contract.

        Returns ``True`` when every dependency id precedes its node id
        (so id order is a topological order); raises otherwise.
        """
        for node in self.nodes:
            for dep in node.deps:
                if not 0 <= dep < node.nid:
                    raise ValidationError(
                        f"node {node.nid} ({node.label}) depends on "
                        f"{dep}, violating the topological id order"
                    )
        return True


def node_table(graph) -> list[tuple]:
    """Every node as ``(nid, kind, rank, wave, label, deps, nbytes, cost_s)``.

    The floats are compared through their bit patterns.
    """
    return [
        (
            n.nid, n.kind, n.rank, n.wave, n.label, n.deps,
            float(n.nbytes).hex(), float(n.cost_s).hex(), n.kernel,
        )
        for n in graph.nodes
    ]


def record_table(graph) -> list[tuple]:
    """The :class:`WaveRecord` log with buffers named, not identified.

    Two builds of one command sequence use different buffer objects, so
    accesses compare by buffer name, mode and halo width.
    """
    return [
        (
            r.wave, r.kind,
            tuple((a.buffer.name, a.mode, a.halo) for a in r.accesses),
            None if r.buffer is None else r.buffer.name,
            r.kernel_nids, r.halo_nids, r.gather_nid,
        )
        for r in graph.submissions
    ]
