"""The ``CUDA_computation`` kernel: functional execution + cost tally.

Each step processes the working set's neighborhood exactly as the
paper's kernels do (Figure 9): read the working set, process each active
node (compute its level/distance), visit its neighbors, and mark
improved neighbors in the update vector.  The *results* come from
vectorized NumPy; the *cost* comes from
:func:`repro.kernels.mapping.computation_tally`, fed with the structural
profile (which nodes were active, their outdegrees, how many relaxations
improved).

BFS levels use ``int64`` with ``-1`` as "unset"; SSSP distances use
``float64`` with ``inf`` as "unset".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import KernelError
from repro.graph.csr import CSRGraph
from repro.graph.properties import _ragged_gather_indices
from repro.gpusim.device import DeviceSpec
from repro.gpusim.kernel import KernelTally
from repro.kernels import costs
from repro.kernels.mapping import ComputationShape, computation_tally
from repro.kernels.variants import Variant
from repro.kernels.workset import Workset
from repro.utils.arrays import sorted_unique

__all__ = [
    "StepResult",
    "bfs_relax",
    "bfs_step",
    "sssp_relax",
    "sssp_step",
    "OrderedSsspState",
    "OrderedStepResult",
    "sssp_ordered_step",
]

UNSET_LEVEL = np.int64(-1)
INF = np.float64(np.inf)


@dataclass(frozen=True)
class StepResult:
    """Outcome of one computation-kernel launch."""

    #: sorted unique ids of nodes whose state improved (the update vector)
    updated: np.ndarray
    tally: KernelTally
    improved_relaxations: int
    edges_scanned: int
    #: nodes that actually did neighborhood work this step
    processed: int


#: Dense edge sweep once the frontier's out-edges exceed this share of
#: |E|: sweeping every edge in CSR order then costs less than building
#: the ragged edge index (DESIGN.md §6).
_DENSE_EDGE_SHARE = 0.4
#: Sort-based apply while ``touched * _SPARSE_APPLY_FACTOR < |V|``; above
#: it one O(|V|) ``minimum.at`` pass is cheaper than O(k log k) sorting.
_SPARSE_APPLY_FACTOR = 16
#: BFS candidate of a non-frontier source on the dense sweep: it can
#: never improve a level.
_LEVEL_SENTINEL = np.iinfo(np.int64).max


def _gather_edges(graph: CSRGraph, nodes: np.ndarray):
    """Edge indices, destinations and per-node degrees for *nodes*."""
    starts = graph.row_offsets[nodes]
    ends = graph.row_offsets[nodes + 1]
    degrees = (ends - starts).astype(np.int64)
    idx = _ragged_gather_indices(starts, ends)
    return idx, graph.col_indices[idx].astype(np.int64), degrees


def _sweep(graph: CSRGraph, frontier: np.ndarray, per_frontier: np.ndarray, sentinel):
    """The frontier's out-edges as ``(edges, dst, src_values, degrees, total)``.

    ``src_values`` repeats each frontier node's entry of *per_frontier*
    once per out-edge; ``edges`` selects the swept edges of the CSR
    arrays.  Sparse path: a ragged edge index.  Dense path (the frontier
    owns most edges): ``slice(None)`` over every edge in CSR order, with
    non-frontier sources carrying *sentinel*.  The dense path needs
    strictly increasing frontier ids (a duplicate would count its edges
    once instead of twice), so any other frontier takes the sparse path.
    """
    starts = graph.row_offsets[frontier]
    ends = graph.row_offsets[frontier + 1]
    degrees = ends - starts
    total = int(degrees.sum())
    if (
        total > _DENSE_EDGE_SHARE * graph.num_edges
        and (frontier[1:] > frontier[:-1]).all()
    ):
        per_node = np.full(graph.num_nodes, sentinel, dtype=per_frontier.dtype)
        per_node[frontier] = per_frontier
        src = per_node.repeat(graph.out_degrees)
        return slice(None), graph.col_indices, src, degrees, total
    edges = _ragged_gather_indices(starts, ends)
    src = per_frontier.repeat(degrees)
    return edges, graph.col_indices.take(edges), src, degrees, total


def _apply_min(values: np.ndarray, dst: np.ndarray, cand: np.ndarray, unset) -> np.ndarray:
    """``values[d] = min(values[d], cand)`` per destination, with *unset*
    ranking above every candidate; returns the sorted int64 ids whose
    value changed.  The per-destination min does not depend on the
    order of the candidates, so both paths give identical values (and
    the sort need not be stable)."""
    if dst.size * _SPARSE_APPLY_FACTOR < values.size:
        order = dst.argsort()
        dst = dst.take(order)
        first = np.empty(dst.size, dtype=bool)
        first[0] = True
        np.not_equal(dst[1:], dst[:-1], out=first[1:])
        heads = first.nonzero()[0]
        ids = dst.take(heads).astype(np.int64)
        best = np.minimum.reduceat(cand.take(order), heads)
        old = values.take(ids)
        changed = (best < old) | (old == unset)
        if not changed.all():
            ids, best = ids[changed], best[changed]
        values[ids] = best
        return ids
    if values.dtype.kind == "f":
        work = values  # unset is +inf, already above every candidate
        before = values.copy()
    else:
        work = np.where(values == unset, np.iinfo(values.dtype).max, values)
        before = work.copy()
    np.minimum.at(work, dst, cand)
    updated = (work < before).nonzero()[0]
    if work is not values:
        values[updated] = work.take(updated)
    return updated


def _relax(values, dst, cand, improving, degrees, total, unset):
    """Shared tail: one selection of the improving edges, then apply."""
    pos = improving.nonzero()[0]
    if pos.size:
        updated = _apply_min(values, dst.take(pos), cand.take(pos), unset)
    else:
        updated = np.empty(0, dtype=np.int64)
    return updated, degrees, int(pos.size), total


# ----------------------------------------------------------------------
# BFS (ordered and unordered share the level-synchronous flow; the
# ordered version visits a node only while its level is unset, the
# unordered one whenever the level would decrease — Figure 4)
# ----------------------------------------------------------------------

def bfs_relax(
    graph: CSRGraph,
    frontier: np.ndarray,
    levels: np.ndarray,
    *,
    ordered: bool = False,
):
    """The BFS relaxation itself, independent of the execution substrate.

    Mutates *levels* in place and returns
    ``(updated_ids, degrees, improved_count, edges_scanned)``.  Shared by
    the simulated GPU kernels and the hybrid runtime's CPU iterations.
    """
    edges, dst, cand, degrees, total = _sweep(
        graph, frontier, levels[frontier] + 1, _LEVEL_SENTINEL
    )
    old = levels.take(dst)
    improving = old == UNSET_LEVEL
    if isinstance(edges, slice):
        improving &= cand != _LEVEL_SENTINEL
    if not ordered:
        improving |= cand < old
    return _relax(levels, dst, cand, improving, degrees, total, UNSET_LEVEL)


def bfs_step(
    graph: CSRGraph,
    workset: Workset,
    levels: np.ndarray,
    variant: Variant,
    threads_per_block: int,
    device: DeviceSpec,
    *,
    name: str = "bfs_comp",
) -> StepResult:
    """One BFS sweep over *workset*; mutates *levels* in place."""
    frontier = workset.nodes
    if frontier.size == 0:
        raise KernelError("bfs_step called with an empty working set")
    updated, degrees, improved_count, edges = bfs_relax(
        graph, frontier, levels, ordered=variant.ordering.value == "O"
    )

    shape = ComputationShape(
        name=name,
        num_nodes=graph.num_nodes,
        active_ids=frontier,
        degrees=degrees,
        edge_cost=costs.C_EDGE,
        improved=improved_count,
        updated_count=int(updated.size),
        guard_cost=costs.C_PAIR_CHECK if variant.ordering.value == "O" else 0.0,
        weight_streams=0,
    )
    tally = computation_tally(
        shape, variant.mapping, variant.workset, threads_per_block, device
    )
    return StepResult(
        updated=updated,
        tally=tally,
        improved_relaxations=improved_count,
        edges_scanned=edges,
        processed=int(frontier.size),
    )


# ----------------------------------------------------------------------
# Unordered SSSP (Bellman-Ford sweeps over the working set — Figure 5)
# ----------------------------------------------------------------------

def sssp_relax(graph: CSRGraph, frontier: np.ndarray, dist: np.ndarray):
    """The SSSP relaxation itself, independent of the execution substrate.

    Mutates *dist* in place and returns
    ``(updated_ids, degrees, improved_count, edges_scanned)``.
    """
    edges, dst, cand, degrees, total = _sweep(graph, frontier, dist[frontier], INF)
    weights = graph.weights
    cand += weights[edges] if isinstance(edges, slice) else weights.take(edges)
    return _relax(dist, dst, cand, cand < dist.take(dst), degrees, total, INF)


def sssp_step(
    graph: CSRGraph,
    workset: Workset,
    dist: np.ndarray,
    variant: Variant,
    threads_per_block: int,
    device: DeviceSpec,
    *,
    name: str = "sssp_comp",
) -> StepResult:
    """One unordered SSSP sweep; mutates *dist* in place."""
    if graph.weights is None:
        raise KernelError("SSSP requires a weighted graph")
    frontier = workset.nodes
    if frontier.size == 0:
        raise KernelError("sssp_step called with an empty working set")
    updated, degrees, improved_count, edges = sssp_relax(graph, frontier, dist)

    shape = ComputationShape(
        name=name,
        num_nodes=graph.num_nodes,
        active_ids=frontier,
        degrees=degrees,
        edge_cost=costs.C_EDGE_WEIGHTED,
        improved=improved_count,
        updated_count=int(updated.size),
        weight_streams=1,
    )
    tally = computation_tally(
        shape, variant.mapping, variant.workset, threads_per_block, device
    )
    return StepResult(
        updated=updated,
        tally=tally,
        improved_relaxations=improved_count,
        edges_scanned=edges,
        processed=int(frontier.size),
    )


# ----------------------------------------------------------------------
# Ordered SSSP (GPU Dijkstra: findmin by reduction + selective process)
# ----------------------------------------------------------------------

@dataclass
class OrderedSsspState:
    """Device state of the ordered SSSP traversal.

    The ordered working set of Figure 5 is a multiset of
    ``(node, distance)`` pairs — "the same node can appear multiple times
    in the working set with different weight values".  How the pairs are
    stored depends on the representation:

    - **queue**: the pairs live verbatim in the queue, duplicates and
      all (``dedupe=False``) — the working set can grow toward O(m);
    - **bitmap**: a bitmap cannot hold a multiset, so insertions
      ``atomicMin`` into a per-node key slot (``dedupe=True``), and the
      working set stays bounded by n.
    """

    dist: np.ndarray
    ws_nodes: np.ndarray
    ws_keys: np.ndarray
    dedupe: bool

    @classmethod
    def initial(cls, num_nodes: int, source: int, *, dedupe: bool) -> "OrderedSsspState":
        return cls(
            dist=np.full(num_nodes, INF, dtype=np.float64),
            ws_nodes=np.array([source], dtype=np.int64),
            ws_keys=np.array([0.0], dtype=np.float64),
            dedupe=dedupe,
        )

    @property
    def workset_size(self) -> int:
        return int(self.ws_nodes.size)


@dataclass(frozen=True)
class OrderedStepResult:
    """Outcome of one ordered-SSSP computation launch."""

    tally: KernelTally
    settled: int
    improved_relaxations: int
    edges_scanned: int
    workset_size: int


def sssp_ordered_step(
    graph: CSRGraph,
    state: OrderedSsspState,
    min_key: float,
    variant: Variant,
    threads_per_block: int,
    device: DeviceSpec,
    *,
    name: str = "sssp_ordered_comp",
) -> OrderedStepResult:
    """Process the minimum-key subset of the working set (Dijkstra order).

    Every working-set element pays the key-comparison guard; only the
    elements at the minimum key settle and expand (Section IV.A:
    "ordered algorithms effectively process only a subset of the working
    set" each iteration).  Mutates *state* in place.
    """
    if graph.weights is None:
        raise KernelError("SSSP requires a weighted graph")
    active = state.ws_nodes
    keys = state.ws_keys
    if active.size == 0:
        raise KernelError("ordered step called with an empty working set")
    ws_size = int(active.size)
    at_min = keys <= min_key
    selected = active[at_min]
    rem_nodes = active[~at_min]
    rem_keys = keys[~at_min]

    # Settle: nodes whose distance is still unset take the min key; stale
    # pairs (node already settled via a shorter path) are dropped.
    fresh = sorted_unique(selected[~np.isfinite(state.dist[selected])])
    state.dist[fresh] = min_key

    improved_count = 0
    edges = 0
    ins_nodes = np.empty(0, dtype=np.int64)
    ins_keys = np.empty(0, dtype=np.float64)
    degrees_all = np.zeros(ws_size, dtype=np.int64)
    if fresh.size:
        idx, dst, degrees = _gather_edges(graph, fresh)
        edges = int(idx.size)
        cand = np.repeat(state.dist[fresh], degrees) + graph.weights[idx]
        open_dst = ~np.isfinite(state.dist[dst])
        improved_count = int(open_dst.sum())
        ins_nodes = dst[open_dst]
        ins_keys = cand[open_dst]
        # Attribute edge work to working-set slots for the warp profile.
        if state.dedupe:
            # Sorted-unique working set: exact slot per fresh node.
            degrees_all[np.searchsorted(active, fresh)] = degrees
        else:
            # Pair multiset: one arbitrary selected slot per fresh node
            # (slot choice only shifts which warp carries the work).
            sel_pos = np.flatnonzero(at_min)
            degrees_all[sel_pos[: fresh.size]] = degrees

    if state.dedupe:
        # Bitmap: atomicMin into per-node slots, one entry per node.
        merged_nodes = np.concatenate([rem_nodes, ins_nodes])
        merged_keys = np.concatenate([rem_keys, ins_keys])
        if merged_nodes.size:
            order = np.lexsort((merged_keys, merged_nodes))
            merged_nodes = merged_nodes[order]
            merged_keys = merged_keys[order]
            first = np.ones(merged_nodes.size, dtype=bool)
            first[1:] = merged_nodes[1:] != merged_nodes[:-1]
            merged_nodes = merged_nodes[first]
            merged_keys = merged_keys[first]
        state.ws_nodes, state.ws_keys = merged_nodes, merged_keys
    else:
        # Queue: pairs pile up verbatim.
        state.ws_nodes = np.concatenate([rem_nodes, ins_nodes])
        state.ws_keys = np.concatenate([rem_keys, ins_keys])

    shape = ComputationShape(
        name=name,
        num_nodes=graph.num_nodes,
        active_ids=active if state.dedupe else np.arange(ws_size, dtype=np.int64),
        degrees=degrees_all,
        edge_cost=costs.C_EDGE_WEIGHTED,
        improved=improved_count,
        updated_count=(
            max(1, int(sorted_unique(ins_nodes).size)) if ins_nodes.size else 0
        ),
        guard_cost=costs.C_PAIR_CHECK,
        weight_streams=1,
    )
    tally = computation_tally(
        shape, variant.mapping, variant.workset, threads_per_block, device
    )
    return OrderedStepResult(
        tally=tally,
        settled=int(fresh.size),
        improved_relaxations=improved_count,
        edges_scanned=edges,
        workset_size=ws_size,
    )
