"""The shared issue-to-issue latency model for dependence edges.

Both the BUG assignment heuristic (completion-cycle estimates) and the list
scheduler (hard constraints) must price edges identically, otherwise BUG's
greedy choices would be made against a different cost model than the one the
final schedule obeys.  This module is that single pricing function.

``dst.issue >= src.issue + edge_issue_latency(...)`` where:

* ``DATA``  — producer's latency, plus the inter-cluster delay when the
  consumer executes on a different cluster than the producer (the paper's
  remote-register-file access penalty);
* ``ANTI``  — 0 (read happens at issue, before the same-cycle write lands);
* ``OUTPUT``— producer's latency (second write must land strictly later);
* ``MEM``   — 1 after a store-like op (its memory effect lands at end of
  cycle), 0 after a load (a later store may share the cycle: reads are
  performed before writes within a cycle);
* ``CTRL``  — 1 after a check's branch (it must resolve before the guarded
  instruction executes); producer's full latency for the terminator
  barrier (the block's branch leaves only after everything completed).

Only the DATA term depends on placement.  :func:`block_shape` therefore
prices every edge of a block once, into the tables BUG and the list
scheduler read; a consumer adds the inter-cluster delay to an edge's DATA
latency when the edge crosses clusters.  :class:`ShapeCache` keeps one set
of shapes per function and latency table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ScheduleError
from repro.ir.basic_block import BasicBlock
from repro.ir.dfg import DepKind, Edge, dependence_edges
from repro.ir.function import Function
from repro.isa.instruction import Instruction
from repro.isa.opcodes import LatencyClass, Opcode
from repro.isa.registers import Reg
from repro.machine.config import MachineConfig
from repro.obs import get_telemetry


# Enum members bound once: a class-attribute lookup on an ``Enum`` runs
# Python code on 3.11, and block shapes price every edge.
_DATA, _ANTI, _OUTPUT, _MEM, _CTRL = (
    DepKind.DATA, DepKind.ANTI, DepKind.OUTPUT, DepKind.MEM, DepKind.CTRL
)
_CHKBR = Opcode.CHKBR


def _edge_latency(kind: DepKind, src: Instruction, src_latency: int) -> int:
    """Same-cluster price of a ``kind`` edge out of ``src``, whose own
    latency on the machine is ``src_latency``."""
    if kind is _DATA or kind is _OUTPUT:
        return src_latency
    if kind is _CTRL:
        return 1 if src.opcode is _CHKBR else src_latency
    if kind is _ANTI:
        return 0
    if kind is _MEM:
        info = src.opcode.info
        return 1 if (info.is_store or info.is_out) else 0
    raise ScheduleError(f"unknown dependence kind {kind}")  # pragma: no cover


def same_cluster_edge_latency(edge: Edge, src: Instruction, machine: MachineConfig) -> int:
    """Edge latency assuming no cluster crossing: the cluster-independent price."""
    return _edge_latency(edge.kind, src, machine.latency_of(src.opcode))


def edge_issue_latency(
    edge: Edge,
    src: Instruction,
    machine: MachineConfig,
    src_cluster: int | None = None,
    dst_cluster: int | None = None,
) -> int:
    """Minimum issue-cycle distance implied by ``edge`` for the given clusters.

    A DATA edge needs both clusters: it pays the inter-cluster delay when
    they differ.
    """
    lat = same_cluster_edge_latency(edge, src, machine)
    if edge.kind is _DATA:
        if src_cluster is None or dst_cluster is None:
            raise ScheduleError("DATA edge pricing needs both clusters")
        if src_cluster != dst_cluster:
            lat += machine.inter_cluster_delay
    return lat


#: ``(dst, latency, data_latency)``: one dependence edge, priced.
#: ``latency`` is its same-cluster price; ``data_latency`` equals it for a
#: DATA edge and is -1 otherwise.  Across clusters a DATA edge needs
#: ``data_latency + delay``.
PricedEdge = tuple[int, int, int]


@dataclass(frozen=True)
class BlockShape:
    """The cluster-independent facts BUG and the list scheduler need.

    ``succs[i]`` holds the edges out of instruction ``i`` (see
    :data:`PricedEdge`) and ``n_preds[i]`` counts the edges into it.
    ``heights[i]`` is its critical-path height under same-cluster
    latencies, ``latency[i]`` its own latency, and ``remote_reads[i]`` the
    registers it reads from outside the block, in operand order and with
    repeats.  None of it depends on the cluster assignment, the issue width
    or the inter-cluster delay, so one shape serves every placement and
    grid point of a block.  It is valid only while the block's instruction
    list is unchanged.
    """

    succs: list[tuple[PricedEdge, ...]]
    n_preds: list[int]
    heights: list[int]
    latency: list[int]
    remote_reads: list[tuple[Reg, ...]]

    @property
    def n(self) -> int:
        return len(self.heights)

    @property
    def nbytes(self) -> int:
        """Estimated size: about 250 bytes per instruction (0.95-1.02x of
        what ``tracemalloc`` counts for the kernels' post-ED shapes)."""
        return 250 * len(self.heights)


def block_shape(block: BasicBlock, machine: MachineConfig) -> BlockShape:
    """Price ``block``'s dependence edges into a :class:`BlockShape`."""
    insns = block.instructions
    n = len(insns)
    latencies = machine.latencies
    own = [latencies[insn.opcode.info.latency] for insn in insns]
    succs: list[list[PricedEdge]] = [[] for _ in range(n)]
    n_preds = [0] * n
    for src, dst, kind, _reg in dependence_edges(insns):
        lat = _edge_latency(kind, insns[src], own[src])
        succs[src].append((dst, lat, lat if kind is _DATA else -1))
        n_preds[dst] += 1

    heights = [0] * n
    for i in range(n - 1, -1, -1):
        best = 0
        for dst, lat, _ in succs[i]:
            if lat + heights[dst] > best:
                best = lat + heights[dst]
        heights[i] = best

    # A read is remote unless an earlier instruction of the block defines
    # the register (the in-block DATA edge prices those).
    remote_reads: list[tuple[Reg, ...]] = []
    defined: set[Reg] = set()
    for insn in insns:
        srcs = insn.srcs
        if not defined.isdisjoint(srcs):
            srcs = tuple(r for r in srcs if r not in defined)
        remote_reads.append(srcs)
        defined.update(insn.dests)
    return BlockShape(
        succs=[tuple(edges) for edges in succs],
        n_preds=n_preds,
        heights=heights,
        latency=own,
        remote_reads=remote_reads,
    )


def _latency_key(machine: MachineConfig) -> tuple[int, ...]:
    return tuple(machine.latencies[lc] for lc in LatencyClass)


@dataclass(eq=False)
class ShapeCache:
    """The block shapes of one function, built once per latency table.

    A shape depends on the machine only through its latencies, so every
    issue width and delay of the paper's grid shares one set.  The
    function must not change while the cache is in use; the shared
    compile prefix (:class:`repro.pipeline.CompilePrefix`) holds one for
    its read-only IR.  Lookups count as ``compile.shape_cache.{hits,misses}``.
    """

    function: Function
    _by_latencies: dict[tuple[int, ...], dict[str, BlockShape]] = field(
        default_factory=dict, init=False, repr=False
    )

    def shapes(self, machine: MachineConfig) -> dict[str, BlockShape]:
        """``{label: shape}`` for every block under ``machine``'s latencies."""
        key = _latency_key(machine)
        found = self._by_latencies.get(key)
        get_telemetry().count(
            f"compile.shape_cache.{'misses' if found is None else 'hits'}"
        )
        if found is None:
            found = self._by_latencies[key] = {
                block.label: block_shape(block, machine)
                for block in self.function.blocks()
            }
        return found

    @property
    def nbytes(self) -> int:
        return sum(
            shape.nbytes
            for shapes in self._by_latencies.values()
            for shape in shapes.values()
        )
