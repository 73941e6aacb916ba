"""Structural graph transforms: symmetrize, relabel, subgraph extraction,
connected components.

These are host-side preprocessing steps; the paper symmetrizes the road
and co-citation networks (they are undirected datasets) and traverses the
giant component of the directed ones.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import GraphError
from repro.graph.builder import from_edge_list
from repro.graph.csr import CSRGraph
from repro.utils.arrays import sorted_unique

__all__ = [
    "symmetrize",
    "rank_oriented_adjacency",
    "relabel",
    "degree_sort_relabel",
    "induced_subgraph",
    "weakly_connected_components",
    "largest_weakly_connected_subgraph",
    "edge_arrays",
]


def edge_arrays(graph: CSRGraph) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Return ``(sources, targets, weights)`` arrays for *graph*'s edges."""
    src = np.repeat(np.arange(graph.num_nodes, dtype=np.int64), graph.out_degrees)
    dst = graph.col_indices.astype(np.int64)
    return src, dst, graph.weights


def symmetrize(graph: CSRGraph) -> CSRGraph:
    """Add the reverse of every edge (deduplicated, min weight kept)."""
    src, dst, w = edge_arrays(graph)
    return from_edge_list(
        src,
        dst,
        w,
        num_nodes=graph.num_nodes,
        name=graph.name,
        symmetric=True,
        dedupe=True,
    )


def relabel(graph: CSRGraph, mapping: np.ndarray) -> CSRGraph:
    """Rename node ids: node *i* becomes ``mapping[i]`` (a permutation)."""
    mapping = np.asarray(mapping, dtype=np.int64)
    n = graph.num_nodes
    if mapping.shape != (n,):
        raise GraphError(f"mapping must have shape ({n},), got {mapping.shape}")
    if not np.array_equal(np.sort(mapping), np.arange(n)):
        raise GraphError("mapping must be a permutation of 0..n-1")
    src, dst, w = edge_arrays(graph)
    return from_edge_list(
        mapping[src], mapping[dst], w, num_nodes=n, name=graph.name
    )


def degree_sort_relabel(
    graph: CSRGraph, *, descending: bool = True
) -> Tuple[CSRGraph, np.ndarray]:
    """Relabel nodes in outdegree order — a divergence-reduction
    preprocessing for thread-mapped kernels.

    A warp's cost is the max of its 32 lanes' outdegrees; after sorting,
    similar-degree nodes share warps, so the sum of per-warp maxima
    approaches the sum of degrees.  (Only helps bitmap working sets,
    whose warp composition follows node ids; queues repack by frontier
    order anyway.)

    Returns ``(relabeled_graph, mapping)`` where ``mapping[old] == new``;
    results on the relabeled graph can be mapped back by indexing:
    ``values_new[mapping]`` gives per-old-node values.
    """
    deg = graph.out_degrees
    order = np.argsort(-deg if descending else deg, kind="stable")
    mapping = np.empty(graph.num_nodes, dtype=np.int64)
    mapping[order] = np.arange(graph.num_nodes)
    return relabel(graph, mapping), mapping


def induced_subgraph(graph: CSRGraph, nodes) -> Tuple[CSRGraph, np.ndarray]:
    """Subgraph induced by *nodes*, with ids compacted to ``0..k-1``.

    Returns ``(subgraph, kept)`` where ``kept[i]`` is the original id of
    the subgraph's node *i*.
    """
    kept = sorted_unique(np.asarray(nodes, dtype=np.int64))
    if kept.size and (kept[0] < 0 or kept[-1] >= graph.num_nodes):
        raise GraphError("subgraph nodes out of range")
    inverse = np.full(graph.num_nodes, -1, dtype=np.int64)
    inverse[kept] = np.arange(kept.size)
    src, dst, w = edge_arrays(graph)
    mask = (inverse[src] >= 0) & (inverse[dst] >= 0)
    sub_w = w[mask] if w is not None else None
    sub = from_edge_list(
        inverse[src[mask]],
        inverse[dst[mask]],
        sub_w,
        num_nodes=kept.size,
        name=f"{graph.name}[{kept.size}]",
    )
    return sub, kept


def weakly_connected_components(graph: CSRGraph) -> np.ndarray:
    """Component label per node (labels are the min node id per component).

    Implemented as vectorized label propagation over the symmetrized edge
    set: each round every label becomes the minimum over its neighborhood,
    converging in O(diameter) rounds of O(m) work.
    """
    n = graph.num_nodes
    labels = np.arange(n, dtype=np.int64)
    if graph.num_edges == 0:
        return labels
    src, dst, _ = edge_arrays(graph)
    us = np.concatenate([src, dst])
    vs = np.concatenate([dst, src])
    while True:
        # Pull the minimum neighbor label along every (undirected) edge.
        candidate = labels.copy()
        np.minimum.at(candidate, vs, labels[us])
        # Pointer-jump: compress label chains so convergence is fast even
        # on path graphs.
        candidate = candidate[candidate]
        if np.array_equal(candidate, labels):
            return labels
        labels = candidate


def largest_weakly_connected_subgraph(graph: CSRGraph) -> Tuple[CSRGraph, np.ndarray]:
    """The induced subgraph of the largest weakly connected component."""
    labels = weakly_connected_components(graph)
    uniq, counts = np.unique(labels, return_counts=True)
    big = uniq[np.argmax(counts)]
    return induced_subgraph(graph, np.flatnonzero(labels == big))


def rank_oriented_adjacency(graph: CSRGraph) -> Tuple[np.ndarray, np.ndarray]:
    """Degree-rank orientation of an undirected graph, as CSR arrays.

    Every undirected edge ``{u, v}`` is kept once, directed from the
    lower-ranked endpoint to the higher-ranked one under the total
    order ``(degree, id)`` — the standard forward orientation for
    triangle counting: each triangle survives as exactly one wedge
    ``u -> v, u -> w, v -> w`` pivoted at its lowest-ranked corner, and
    the heaviest hubs keep the *shortest* adjacency lists.  Returns
    ``(indptr, indices)`` with each node's neighbor list ascending;
    duplicate input edges and self-loops are dropped.  The GPU spec and
    the CPU reference both count through this exact orientation, which
    is what keeps their per-node counts bit-identical.
    """
    n = graph.num_nodes
    src, dst, _ = edge_arrays(graph)
    deg = graph.out_degrees.astype(np.int64)
    keep = (deg[src] < deg[dst]) | ((deg[src] == deg[dst]) & (src < dst))
    src, dst = src[keep], dst[keep]
    if src.size:
        # Dedupe on the (src, dst) pair and sort by (src, dst) so every
        # per-node neighbor slice comes out ascending.
        key = src * n + dst
        key = sorted_unique(key)
        src, dst = key // n, key % n
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, dst.astype(np.int64)
