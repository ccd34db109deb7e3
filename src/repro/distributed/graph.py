"""The distributed command graph.

Submitting a command group against distributed buffers does not execute
anything: it *derives structure*. For every rank the builder creates a
kernel node, and from the declared access modes it derives

- **RAW edges** — a reading access depends on the last command that
  wrote the rank's block (and, with a halo, on the halo transfer that
  materializes the neighbour boundary),
- **WAR edges** — a writing access depends on every command that read
  the block since its last write, *including neighbour halo transfers of
  the same wave* (a rank must not overwrite its boundary while a
  neighbour is still pulling the previous version),
- **WAW edges** — via the last-writer dependency,
- **halo-transfer nodes** — one per (rank, halo access), costed from the
  :class:`~repro.mpi.network.NetworkModel` between the owning nodes,
- **gather nodes** — a global collective depending on every rank's last
  writer, costed with the ring-allreduce model.

Node ids are assigned in creation order and every dependency points to a
smaller id, so the id order is a valid topological order. Each builder
call is one *wave*; within a wave, halo nodes precede kernel nodes. The
executor (:mod:`repro.engine.multirank`) exploits this static wave
structure. Communication costs are computed once here, so any walk of
the graph sees bitwise the same comm timeline.

The graph is stored as arrays, one :class:`Wave` per builder call, and
the hazards are derived with NumPy over all ranks at once. Per buffer
the builder keeps a last-writer array (node id per rank, ``-1`` for
none) and a list of *reader layers*: each layer holds at most one reading
node per rank, and a write clears the written ranks from every layer.
The ±1 halo neighbours are index arithmetic on the rank axis. ``nodes``
is a lazy read-only sequence that builds :class:`CommandNode` objects
only when indexed or iterated.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from repro.common.errors import ValidationError
from repro.kernelir.kernel import KernelIR
from repro.mpi.network import NetworkModel
from repro.sycl.distributed import DistributedAccess, DistributedBuffer

#: Node kinds.
KERNEL = "kernel"
HALO = "halo"
GATHER = "gather"

#: Node kinds by the codes of :attr:`Wave.kind`.
KINDS = (KERNEL, HALO, GATHER)
KERNEL_CODE, HALO_CODE, GATHER_CODE = range(3)

#: Sort key of an absent dependency while rows are ordered.
_ABSENT = np.iinfo(np.int64).max


@dataclass(frozen=True)
class WaveRecord:
    """What one builder call *declared*, before any edge was derived.

    The static auditor (:mod:`repro.analysis.graphaudit`) re-derives every
    block access from these records alone — never from the builder's edge
    state — so it cross-checks the array hazard derivation with an
    independent algorithm. ``kernel_nids`` maps active ranks to their
    kernel node, ``halo_nids`` maps ``(rank, access index)`` to the halo
    transfer that serves that access.
    """

    wave: int
    kind: str  # "parallel_for" or "gather"
    accesses: tuple[DistributedAccess, ...]
    buffer: "DistributedBuffer | None"
    kernel_nids: tuple[tuple[int, int], ...]
    halo_nids: tuple[tuple[tuple[int, int], int], ...]
    gather_nid: int | None


@dataclass(frozen=True)
class CommandNode:
    """One scheduled command: a rank-local kernel or a transfer.

    ``deps`` are node ids that must finish before this node may start;
    all of them are smaller than ``nid``. ``cost_s`` is the precomputed
    communication cost for transfer nodes (0 for kernels — their duration
    depends on the frequency plan and is resolved at execution time).
    """

    nid: int
    kind: str
    rank: int  # -1 for global collectives
    wave: int
    label: str
    deps: tuple[int, ...]
    kernel: KernelIR | None = None
    nbytes: float = 0.0
    cost_s: float = 0.0


@dataclass(frozen=True, eq=False)
class Wave:
    """One builder call's nodes as read-only arrays, one entry per node.

    The wave holds node ids ``start … start + size - 1``. A
    ``parallel_for`` wave lists its ``n_halo`` halo transfers first
    (grouped by access, ranks ascending), then its kernels by rank; a
    gather wave holds its one collective. ``kernel`` indexes
    :attr:`CommandGraph.kernels` (``-1`` for transfers), ``buffer``
    indexes ``names`` for transfers (``-1`` for kernels). ``deps`` rows
    list a node's dependency ids ascending, padded with ``-1``.
    """

    start: int
    kind: np.ndarray
    rank: np.ndarray
    kernel: np.ndarray
    buffer: np.ndarray
    nbytes: np.ndarray
    cost_s: np.ndarray
    deps: np.ndarray
    n_halo: int
    names: tuple[str, ...]

    def __post_init__(self) -> None:
        for arr in (
            self.kind, self.rank, self.kernel, self.buffer,
            self.nbytes, self.cost_s, self.deps,
        ):
            arr.setflags(write=False)

    @property
    def size(self) -> int:
        """Number of nodes in the wave."""
        return len(self.kind)

    @property
    def is_gather(self) -> bool:
        """Whether the wave is one global collective."""
        return self.kind[0] == GATHER_CODE


def _dep_rows(candidates: np.ndarray) -> np.ndarray:
    """Candidate dependency ids as ascending, duplicate-free rows.

    ``candidates`` holds one row per node (``-1`` for no candidate); the
    result is padded with ``-1`` to its widest row, at least one column.
    """
    if candidates.shape[1] == 0:
        return np.full((len(candidates), 1), -1, dtype=np.int64)
    mat = np.where(candidates < 0, _ABSENT, candidates)
    mat.sort(axis=1)
    mat[:, 1:][mat[:, 1:] == mat[:, :-1]] = _ABSENT
    mat.sort(axis=1)
    width = max(int((mat != _ABSENT).sum(axis=1).max(initial=0)), 1)
    mat = mat[:, :width]
    mat[mat == _ABSENT] = -1
    return mat


class NodeView(Sequence[CommandNode]):
    """Read-only lazy view of a graph's nodes ``lo … hi - 1``.

    ``len`` is O(1); a :class:`CommandNode` is built from the wave arrays
    each time one is indexed or iterated. Slices are views too.
    """

    def __init__(self, graph: "CommandGraph", lo: int, hi: int | None) -> None:
        self._graph = graph
        self._lo = lo
        self._hi = hi  # None: up to the graph's current end

    def _bounds(self) -> tuple[int, int]:
        hi = self._graph._n_nodes if self._hi is None else self._hi
        return self._lo, hi

    def __len__(self) -> int:
        lo, hi = self._bounds()
        return hi - lo

    def __getitem__(self, index):
        lo, hi = self._bounds()
        if isinstance(index, slice):
            a, b, step = index.indices(hi - lo)
            if step == 1:
                return NodeView(self._graph, lo + a, lo + max(a, b))
            return [self[i] for i in range(a, b, step)]
        i = int(index)
        if i < 0:
            i += hi - lo
        if not 0 <= i < hi - lo:
            raise IndexError(f"node index {index} out of range")
        return self._graph._node(lo + i)

    def __iter__(self) -> Iterator[CommandNode]:
        lo, hi = self._bounds()
        graph = self._graph
        w = bisect_right(graph._starts, lo) - 1
        nid = lo
        while nid < hi:
            wave = graph.waves[w]
            end = min(hi, wave.start + wave.size)
            for j in range(nid - wave.start, end - wave.start):
                yield graph._wave_node(w, j)
            nid = end
            w += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        lo, hi = self._bounds()
        return f"NodeView(nodes {lo}..{hi - 1})"


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
        self.waves: list[Wave] = []
        self.submissions: list[WaveRecord] = []
        #: Distinct kernel objects, indexed by :attr:`Wave.kernel`.
        self.kernels: list[KernelIR] = []
        self._kernel_index: dict[int, int] = {}
        self._n_nodes = 0
        self._starts: list[int] = []
        self._nodes_of_rank = np.asarray(self.node_of_rank, dtype=np.int64)
        # Per buffer hazard state: the last writer of each rank's block
        # (-1: none) and the reader layers since then. Owned by the graph
        # (not the buffer) so independently-built graphs never interfere.
        self._last_writer: dict[DistributedBuffer, np.ndarray] = {}
        self._readers: dict[DistributedBuffer, list[np.ndarray]] = {}

    # -------------------------------------------------------------- plumbing

    @property
    def nodes(self) -> NodeView:
        """Every node in id (= topological) order, as a lazy sequence."""
        return NodeView(self, 0, None)

    def _check_buffer(self, buf: DistributedBuffer) -> None:
        if buf.n_ranks != self.n_ranks:
            raise ValidationError(
                f"buffer {buf.name!r} is distributed over {buf.n_ranks} "
                f"ranks; graph has {self.n_ranks}"
            )

    def _state(self, buf: DistributedBuffer) -> tuple[np.ndarray, list[np.ndarray]]:
        if buf not in self._last_writer:
            self._last_writer[buf] = np.full(self.n_ranks, -1, dtype=np.int64)
            self._readers[buf] = []
        return self._last_writer[buf], self._readers[buf]

    def _kernel_codes(self, per_rank: Sequence[KernelIR | None]) -> np.ndarray:
        """Per-rank index into :attr:`kernels` (``-1`` for idle ranks)."""
        index = self._kernel_index
        for key, k in {id(k): k for k in per_rank if k is not None}.items():
            if key not in index:
                index[key] = len(self.kernels)
                self.kernels.append(k)
        code_of = {**index, id(None): -1}
        return np.fromiter(
            map(code_of.__getitem__, map(id, per_rank)),
            dtype=np.int64, count=len(per_rank),
        )

    def _halo_costs(self, nbytes: float, ranks: np.ndarray) -> np.ndarray:
        """Exchange cost per rank: twice the slower of its neighbour links.

        Both directions proceed concurrently; the slower link bounds the
        exchange (send + receive, as in ``SimulatedComm.halo_exchange``).
        """
        node = self._nodes_of_rank
        cost = np.full(len(ranks), -np.inf)
        for side in (ranks - 1, ranks + 1):
            ok = (side >= 0) & (side < self.n_ranks)
            link = self.network.transfer_times(
                nbytes, node[ranks[ok]], node[side[ok]]
            )
            cost[ok] = np.maximum(cost[ok], link)
        return 2.0 * cost

    def _append(self, wave: Wave, record: WaveRecord) -> None:
        self._starts.append(wave.start)
        self.waves.append(wave)
        self.submissions.append(record)
        self._n_nodes += wave.size

    def _wave_node(self, w: int, j: int) -> CommandNode:
        wave = self.waves[w]
        code = int(wave.kind[j])
        rank = int(wave.rank[j])
        row = wave.deps[j]
        kernel = None
        if code == KERNEL_CODE:
            kernel = self.kernels[wave.kernel[j]]
            label = f"{kernel.name}[r{rank}]"
        elif code == HALO_CODE:
            label = f"halo:{wave.names[wave.buffer[j]]}[r{rank}]"
        else:
            label = f"gather:{wave.names[wave.buffer[j]]}"
        return CommandNode(
            nid=wave.start + j,
            kind=KINDS[code],
            rank=rank,
            wave=w,
            label=label,
            deps=tuple(row[row >= 0].tolist()),
            kernel=kernel,
            nbytes=float(wave.nbytes[j]),
            cost_s=float(wave.cost_s[j]),
        )

    def _node(self, nid: int) -> CommandNode:
        w = bisect_right(self._starts, nid) - 1
        return self._wave_node(w, nid - self.waves[w].start)

    # ------------------------------------------------------------ submission

    def parallel_for(
        self,
        kernel: KernelIR | Sequence[KernelIR | None],
        accesses: Sequence[DistributedAccess],
    ) -> NodeView:
        """Submit one SPMD command group; returns the created kernel nodes.

        ``kernel`` is either one :class:`KernelIR` every rank runs, or a
        per-rank sequence where ``None`` marks an idle rank (heterogeneous
        waves — e.g. boundary-condition kernels on edge ranks only).
        Dependency edges are derived from ``accesses`` as described in the
        module docstring.
        """
        n = self.n_ranks
        if not isinstance(kernel, KernelIR):
            per_rank = list(kernel)
            if len(per_rank) != n:
                raise ValidationError(
                    f"per-rank kernel list covers {len(per_rank)} ranks; "
                    f"graph has {n}"
                )
            if not any(k is not None for k in per_rank):
                raise ValidationError("command group has no active rank")
        accesses = tuple(accesses)
        for access in accesses:
            self._check_buffer(access.buffer)
        if isinstance(kernel, KernelIR):
            codes = np.full(n, self._kernel_codes([kernel])[0], dtype=np.int64)
        else:
            codes = self._kernel_codes(per_rank)
        wave_no = len(self.waves)
        start = self._n_nodes
        active = np.flatnonzero(codes >= 0)
        n_active = len(active)

        # Pass 1 — halo transfers, derived from the *pre-wave* state. Each
        # active rank with a neighbour gets one transfer node per halo
        # access pulling both neighbour boundaries; the node registers at
        # once as a reader of the neighbour blocks (two reader layers), so
        # same-wave writes order behind it (the WAR edge that keeps
        # boundary pulls sound).
        senders = active if n > 1 else active[:0]
        m = len(senders)
        halos = []  # (access index, node ids, dependency rows, costs)
        nid = start
        for ai, access in enumerate(accesses):
            if not access.halo or not m:
                continue
            writer, layers = self._state(access.buffer)
            hids = nid + np.arange(m, dtype=np.int64)
            nid += m
            deps = []
            for side in (senders - 1, senders + 1):
                ok = (side >= 0) & (side < n)
                deps.append(np.where(ok, writer[np.clip(side, 0, n - 1)], -1))
                layer = np.full(n, -1, dtype=np.int64)
                layer[side[ok]] = hids[ok]
                layers.append(layer)
            costs = self._halo_costs(access.halo_nbytes, senders)
            halos.append((ai, hids, _dep_rows(np.column_stack(deps)), costs))
        halo_of = {ai: hids for ai, hids, _, _ in halos}

        # Pass 2 — kernel nodes, deps from the pre-wave state plus this
        # wave's halo nodes. Effects are *not* committed yet: same-wave
        # kernels on different ranks are concurrent, never ordered against
        # each other through their own wave's reads.
        knids = nid + np.arange(n_active, dtype=np.int64)
        columns = []
        for ai, access in enumerate(accesses):
            writer, layers = self._state(access.buffer)
            columns.append(writer[active])  # RAW (reads) or WAW (writes)
            if access.mode.reads and ai in halo_of:
                columns.append(halo_of[ai])
            if access.mode.writes:
                columns.extend(layer[active] for layer in layers)
        kernel_deps = _dep_rows(
            np.column_stack(columns) if columns
            else np.empty((n_active, 0), dtype=np.int64)
        )

        # Pass 3 — commit this wave's effects. Writes supersede the block's
        # readers (later writers transitively order behind them through
        # the new last-writer edge); pure reads add a reader layer.
        for access in accesses:
            writer, layers = self._state(access.buffer)
            if access.mode.writes:
                writer[active] = knids
                for layer in layers:
                    layer[active] = -1
                layers[:] = [layer for layer in layers if (layer >= 0).any()]
            else:
                layer = np.full(n, -1, dtype=np.int64)
                layer[active] = knids
                layers.append(layer)

        n_halo = nid - start
        none = np.full(n_active, -1, dtype=np.int64)
        self._append(
            Wave(
                start=start,
                kind=np.repeat(
                    np.array([HALO_CODE, KERNEL_CODE], dtype=np.int8),
                    [n_halo, n_active],
                ),
                rank=np.concatenate([senders] * len(halos) + [active]),
                kernel=np.concatenate([np.full(n_halo, -1), codes[active]]),
                buffer=np.concatenate(
                    [np.full(m, b) for b in range(len(halos))] + [none]
                ),
                nbytes=np.concatenate(
                    [np.full(m, float(accesses[h[0]].halo_nbytes)) for h in halos]
                    + [np.zeros(n_active)]
                ),
                cost_s=np.concatenate([h[3] for h in halos] + [np.zeros(n_active)]),
                deps=_stack_rows([h[2] for h in halos] + [kernel_deps]),
                n_halo=n_halo,
                names=tuple(accesses[h[0]].buffer.name for h in halos),
            ),
            WaveRecord(
                wave=wave_no,
                kind="parallel_for",
                accesses=accesses,
                buffer=None,
                kernel_nids=tuple(zip(active.tolist(), knids.tolist())),
                halo_nids=tuple(
                    chain.from_iterable(
                        zip(zip(senders.tolist(), repeat(ai)), hids.tolist())
                        for ai, hids, _, _ in halos
                    )
                ),
                gather_nid=None,
            ),
        )
        return NodeView(self, int(knids[0]), int(knids[-1]) + 1)

    def gather(
        self, buf: DistributedBuffer, *, nbytes: float | None = None
    ) -> CommandNode:
        """Submit a global gather/reduction over every block of ``buf``.

        Depends on every rank's last writer and registers as a reader of
        every block, so subsequent writes order behind the collective.
        Costed with the ring-allreduce model over the per-rank
        contribution (the largest block, unless ``nbytes`` overrides).
        """
        self._check_buffer(buf)
        writer, layers = self._state(buf)
        nid = self._n_nodes
        if nbytes is None:
            nbytes = float(int(buf.range.counts.max()) * buf.itemsize)
        cost = (
            self.network.allreduce_time(nbytes, self.node_of_rank)
            if self.n_ranks > 1
            else 0.0
        )
        layers.append(np.full(self.n_ranks, nid, dtype=np.int64))
        self._append(
            Wave(
                start=nid,
                kind=np.array([GATHER_CODE], dtype=np.int8),
                rank=np.array([-1], dtype=np.int64),
                kernel=np.array([-1], dtype=np.int64),
                buffer=np.array([0], dtype=np.int64),
                nbytes=np.array([float(nbytes)]),
                cost_s=np.array([cost], dtype=float),
                deps=_dep_rows(writer[None, :]),
                n_halo=0,
                names=(buf.name,),
            ),
            WaveRecord(
                wave=len(self.waves),
                kind="gather",
                accesses=(),
                buffer=buf,
                kernel_nids=(),
                halo_nids=(),
                gather_nid=nid,
            ),
        )
        return self._node(nid)

    # ------------------------------------------------------------ inspection

    @property
    def n_waves(self) -> int:
        """Number of submitted waves."""
        return len(self.waves)

    def kernel_nodes(self) -> list[CommandNode]:
        """All kernel nodes in id (= topological) order."""
        return [
            self._wave_node(w, int(j))
            for w, wave in enumerate(self.waves)
            for j in np.flatnonzero(wave.kind == KERNEL_CODE)
        ]

    def counts(self) -> dict[str, int]:
        """Node count per kind, in order of first appearance."""
        out: dict[str, int] = {}
        for wave in self.waves:
            codes, first, n = np.unique(
                wave.kind, return_index=True, return_counts=True
            )
            for i in np.argsort(first):
                kind = KINDS[codes[i]]
                out[kind] = out.get(kind, 0) + int(n[i])
        return out

    def rank_kernels(self) -> list[list[KernelIR]]:
        """Per-rank kernel sequence, in execution (id) order.

        This is exactly the shape
        :func:`repro.core.compiler.plan_global_frequencies` consumes to
        choose per-rank clocks from a global energy target.
        """
        none = [np.zeros(0, dtype=np.int64)]  # no waves yet
        rank = np.concatenate(none + [w.rank[w.kind == KERNEL_CODE] for w in self.waves])
        code = np.concatenate(none + [w.kernel[w.kind == KERNEL_CODE] for w in self.waves])
        order = np.argsort(rank, kind="stable")
        kernels = [self.kernels[i] for i in code[order].tolist()]
        ends = np.cumsum(np.bincount(rank, minlength=self.n_ranks)).tolist()
        return [kernels[a:b] for a, b in zip([0] + ends[:-1], ends)]

    def check_edges(self) -> bool:
        """Structural soundness: acyclic-by-construction edge contract.

        Returns ``True`` when every dependency id precedes its node id
        (so id order is a topological order); raises otherwise.
        """
        for w, wave in enumerate(self.waves):
            nids = wave.start + np.arange(wave.size)[:, None]
            bad = (wave.deps >= nids) | (wave.deps < -1)
            if bad.any():
                j, c = np.argwhere(bad)[0]
                node = self._wave_node(w, int(j))
                raise ValidationError(
                    f"node {node.nid} ({node.label}) depends on "
                    f"{int(wave.deps[j, c])}, violating the topological id order"
                )
        return True


def _stack_rows(blocks: list[np.ndarray]) -> np.ndarray:
    """Dependency-row blocks stacked, padded with ``-1`` to one width."""
    width = max(b.shape[1] for b in blocks)
    return np.concatenate(
        [
            np.pad(b, ((0, 0), (0, width - b.shape[1])), constant_values=-1)
            for b in blocks
        ]
    )

