"""1D vertex partitioning of a CSR graph across simulated devices.

Scaling past one GPU means splitting the CSR row-wise: shard *s* owns a
contiguous global vertex range ``[start, stop)`` and holds exactly those
rows of the edge vector on its device.  Column indices stay *global*, so
an edge may point at a vertex owned by another shard — a **ghost**
vertex.  The sharded driver (:mod:`repro.engine.shard`) relaxes each
shard's owned frontier locally and ships updates to ghost vertices to
their owners at the exchange barrier, priced over the interconnect
model (:mod:`repro.gpusim.interconnect`).

Two split strategies, both producing contiguous ranges (so a shard's
rows are a literal slice of the original arrays):

- ``"contiguous"`` — equal *vertex* counts; cheap and deterministic,
  but skewed degree distributions leave some shards with most of the
  edges;
- ``"balanced"`` — range boundaries chosen on the row-offset array so
  every shard holds roughly equal *edge* counts (degree-balanced), the
  split that matters for per-device work and memory.

:func:`reassemble` is the exact inverse of :func:`partition_graph`: the
shard CSR slices concatenate back to the original graph bit-for-bit (a
property the test suite checks with hypothesis).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSRGraph, INDEX_DTYPE, OFFSET_DTYPE
from repro.utils.arrays import sorted_unique

__all__ = ["PARTITION_STRATEGIES", "GraphShard", "partition_graph", "reassemble"]

PARTITION_STRATEGIES = ("contiguous", "balanced")


@dataclass(frozen=True)
class GraphShard:
    """One device's slice of a 1D-partitioned graph.

    ``csr`` holds the owned rows only (``stop - start`` rows) with
    **global** column ids, so its arrays are what the shard's device
    keeps resident and :meth:`CSRGraph.device_bytes` prices the
    per-device footprint honestly.  ``ghost_targets`` is the shard's
    ghost-vertex map: every global id its edges reference outside the
    owned range — exactly the set of vertices it may need to send
    updates to at an exchange barrier.
    """

    shard_index: int
    num_shards: int
    #: owned global vertex range ``[start, stop)``
    start: int
    stop: int
    #: owned rows, global column ids (built ``validate=False``)
    csr: CSRGraph
    #: sorted unique global ids referenced by local edges but owned
    #: elsewhere (the ghost-vertex map)
    ghost_targets: np.ndarray
    #: name of the graph this shard was cut from
    graph_name: str
    #: lazily built full-width CSR view (see :meth:`view`)
    _view: List[Optional[CSRGraph]] = field(
        default_factory=lambda: [None], repr=False, compare=False
    )

    @property
    def num_owned(self) -> int:
        return self.stop - self.start

    @property
    def num_ghosts(self) -> int:
        return int(self.ghost_targets.size)

    @property
    def num_edges(self) -> int:
        return self.csr.num_edges

    def owned_mask(self, nodes: np.ndarray) -> np.ndarray:
        """Boolean mask of *nodes* (global ids) this shard owns."""
        return (nodes >= self.start) & (nodes < self.stop)

    def owned_slice(self, frontier: np.ndarray) -> np.ndarray:
        """The subset of a sorted global frontier this shard owns."""
        lo = int(np.searchsorted(frontier, self.start, side="left"))
        hi = int(np.searchsorted(frontier, self.stop, side="left"))
        return frontier[lo:hi]

    def device_bytes(self) -> int:
        """Bytes of this shard's CSR slice resident on its device."""
        return self.csr.device_bytes()

    def view(self, num_nodes: int) -> CSRGraph:
        """A full-width (*num_nodes*-row) CSR view of this shard.

        Rows outside the owned range have zero degree; rows inside it
        are the shard's own adjacency lists with global column ids.
        The single-source relaxation kernels consume this view with
        global frontiers and global value arrays unchanged — which is
        what keeps sharded relaxation bit-identical to the one-device
        run.  Built lazily and cached (the padded row-offset array is
        a host-side simulation artifact, not a device allocation).
        """
        cached = self._view[0]
        if cached is not None and cached.num_nodes == num_nodes:
            return cached
        if num_nodes < self.stop:
            raise GraphError(
                f"shard {self.shard_index} owns [{self.start}, {self.stop}) "
                f"but the requested view has only {num_nodes} nodes"
            )
        offsets = np.zeros(num_nodes + 1, dtype=OFFSET_DTYPE)
        offsets[self.start : self.stop + 1] = self.csr.row_offsets
        offsets[self.stop + 1 :] = self.csr.row_offsets[-1]
        view = CSRGraph(
            offsets,
            self.csr.col_indices,
            self.csr.weights,
            name=f"{self.graph_name}[shard {self.shard_index}/{self.num_shards}]",
            validate=False,
        )
        self._view[0] = view
        return view


def _bounds_contiguous(num_nodes: int, num_shards: int) -> np.ndarray:
    return np.linspace(0, num_nodes, num_shards + 1).round().astype(np.int64)


def _bounds_balanced(row_offsets: np.ndarray, num_shards: int) -> np.ndarray:
    """Range boundaries that roughly equalize per-shard edge counts."""
    num_nodes = row_offsets.size - 1
    num_edges = int(row_offsets[-1])
    targets = np.linspace(0, num_edges, num_shards + 1)
    bounds = np.searchsorted(row_offsets, targets, side="left").astype(np.int64)
    bounds[0] = 0
    bounds[-1] = num_nodes
    # A single huge-degree vertex can collapse several targets onto the
    # same boundary; keep boundaries non-decreasing (empty shards are
    # legal — they simply idle) but never out of range.
    np.maximum.accumulate(bounds, out=bounds)
    np.clip(bounds, 0, num_nodes, out=bounds)
    return bounds


def partition_graph(
    graph: CSRGraph, num_shards: int, *, strategy: str = "contiguous"
) -> List[GraphShard]:
    """Split *graph* into *num_shards* contiguous row ranges.

    Returns one :class:`GraphShard` per range, in order.  Every vertex
    is owned by exactly one shard and every edge lives with its source
    vertex's owner, so :func:`reassemble` can rebuild the original
    graph exactly.
    """
    if num_shards < 1:
        raise GraphError(f"num_shards must be >= 1, got {num_shards}")
    if strategy not in PARTITION_STRATEGIES:
        raise GraphError(
            f"unknown partition strategy {strategy!r}; expected one of "
            f"{', '.join(PARTITION_STRATEGIES)}"
        )
    if num_shards > max(1, graph.num_nodes):
        raise GraphError(
            f"cannot cut {graph.num_nodes} nodes into {num_shards} shards"
        )
    row_offsets = graph.row_offsets
    if strategy == "balanced":
        bounds = _bounds_balanced(row_offsets, num_shards)
    else:
        bounds = _bounds_contiguous(graph.num_nodes, num_shards)

    shards: List[GraphShard] = []
    for index in range(num_shards):
        start = int(bounds[index])
        stop = int(bounds[index + 1])
        edge_lo = int(row_offsets[start])
        edge_hi = int(row_offsets[stop])
        local_offsets = row_offsets[start : stop + 1] - row_offsets[start]
        cols = graph.col_indices[edge_lo:edge_hi]
        weights = (
            graph.weights[edge_lo:edge_hi] if graph.weights is not None else None
        )
        local = CSRGraph(
            local_offsets,
            cols,
            weights,
            name=f"{graph.name}[shard {index}/{num_shards}]",
            validate=False,
        )
        ghosts = sorted_unique(cols[(cols < start) | (cols >= stop)]).astype(
            INDEX_DTYPE, copy=False
        )
        shards.append(
            GraphShard(
                shard_index=index,
                num_shards=num_shards,
                start=start,
                stop=stop,
                csr=local,
                ghost_targets=ghosts,
                graph_name=graph.name,
            )
        )
    return shards


def reassemble(shards: Sequence[GraphShard]) -> CSRGraph:
    """Rebuild the original graph from its shards (exact inverse of
    :func:`partition_graph`)."""
    if not shards:
        raise GraphError("cannot reassemble zero shards")
    ordered = sorted(shards, key=lambda s: s.shard_index)
    expected = 0
    for index, shard in enumerate(ordered):
        if shard.shard_index != index:
            raise GraphError(
                f"shard set is not contiguous: expected shard {index}, "
                f"got {shard.shard_index}"
            )
        if shard.start != expected:
            raise GraphError(
                f"shard {index} starts at {shard.start}, expected {expected} "
                "(ranges must tile the vertex space)"
            )
        expected = shard.stop
    num_nodes = ordered[-1].stop
    offsets = np.zeros(num_nodes + 1, dtype=OFFSET_DTYPE)
    base = 0
    col_parts = []
    weight_parts = []
    weighted = ordered[0].csr.weights is not None
    for shard in ordered:
        offsets[shard.start : shard.stop + 1] = shard.csr.row_offsets + base
        base += shard.csr.num_edges
        col_parts.append(shard.csr.col_indices)
        if weighted:
            if shard.csr.weights is None:
                raise GraphError(
                    f"shard {shard.shard_index} lost its weights; cannot "
                    "reassemble a weighted graph"
                )
            weight_parts.append(shard.csr.weights)
    cols = (
        np.concatenate(col_parts)
        if col_parts
        else np.empty(0, dtype=INDEX_DTYPE)
    )
    weights = np.concatenate(weight_parts) if weighted else None
    return CSRGraph(offsets, cols, weights, name=ordered[0].graph_name)
