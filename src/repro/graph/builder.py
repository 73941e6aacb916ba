"""Constructing :class:`~repro.graph.csr.CSRGraph` from other forms.

The hot path (:func:`from_edge_list`) is fully vectorized: a stable sort
by source plus a bincount produces the CSR arrays in O(m log m) with no
Python-level loops, which matters for the multi-million-edge SNS-scale
analogues.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSRGraph, INDEX_DTYPE, OFFSET_DTYPE, WEIGHT_DTYPE

__all__ = [
    "BuildStats",
    "from_edge_list",
    "from_coo",
    "from_networkx",
    "to_networkx",
]


@dataclass
class BuildStats:
    """Counts of the edges :func:`from_edge_list` quarantined/repaired.

    Filled in-place when passed as ``stats=``; the ingestion layer
    (:mod:`repro.graph.io`) surfaces these in its
    :class:`~repro.graph.io.IngestReport`.
    """

    self_loops_dropped: int = 0
    duplicates_collapsed: int = 0
    dangling_dropped: int = 0

    @property
    def total(self) -> int:
        return (
            self.self_loops_dropped
            + self.duplicates_collapsed
            + self.dangling_dropped
        )


def from_edge_list(
    sources,
    targets,
    weights=None,
    *,
    num_nodes: Optional[int] = None,
    name: str = "graph",
    dedupe: bool = False,
    drop_self_loops: bool = False,
    symmetric: bool = False,
    drop_dangling: bool = False,
    stats: Optional[BuildStats] = None,
) -> CSRGraph:
    """Build a CSR graph from parallel source/target arrays.

    Parameters
    ----------
    sources, targets:
        Integer array-likes of equal length, one entry per directed edge.
    weights:
        Optional parallel array of non-negative edge weights.
    num_nodes:
        Total node count; inferred as ``max(id) + 1`` when omitted.
    dedupe:
        Collapse duplicate ``(u, v)`` pairs, keeping the minimum weight
        (the only weight that can matter for shortest paths).
    drop_self_loops:
        Remove ``u -> u`` edges (they never change BFS/SSSP results).
    symmetric:
        Also insert the reverse of every edge (same weight), producing an
        undirected graph in directed representation — how the paper treats
        the road and co-citation networks.
    drop_dangling:
        With an explicit *num_nodes*, quarantine edges whose endpoint ids
        fall outside ``[0, num_nodes)`` instead of raising (lenient
        ingestion's repair path).
    stats:
        Optional :class:`BuildStats` filled in-place with how many edges
        each repair removed.
    """
    src = np.asarray(sources, dtype=np.int64).ravel()
    dst = np.asarray(targets, dtype=np.int64).ravel()
    if src.shape != dst.shape:
        raise GraphError(
            f"sources and targets must have equal length, got {src.size} and {dst.size}"
        )
    w: Optional[np.ndarray] = None
    if weights is not None:
        w = np.asarray(weights, dtype=WEIGHT_DTYPE).ravel()
        if w.shape != src.shape:
            raise GraphError(
                f"weights length {w.size} must match edge count {src.size}"
            )

    if symmetric and src.size:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        if w is not None:
            w = np.concatenate([w, w])

    if drop_dangling and num_nodes is not None and src.size:
        keep = (src >= 0) & (src < num_nodes) & (dst >= 0) & (dst < num_nodes)
        if stats is not None:
            stats.dangling_dropped += int(src.size - keep.sum())
        src, dst = src[keep], dst[keep]
        if w is not None:
            w = w[keep]

    if drop_self_loops and src.size:
        keep = src != dst
        if stats is not None:
            stats.self_loops_dropped += int(src.size - keep.sum())
        src, dst = src[keep], dst[keep]
        if w is not None:
            w = w[keep]

    if src.size:
        lo = min(src.min(), dst.min())
        if lo < 0:
            raise GraphError(f"negative node id {lo} in edge list")
        inferred = int(max(src.max(), dst.max())) + 1
    else:
        inferred = 0
    if num_nodes is None:
        n = inferred
    else:
        if num_nodes < inferred:
            raise GraphError(
                f"num_nodes={num_nodes} is smaller than max node id + 1 ({inferred})"
            )
        n = int(num_nodes)

    if dedupe and src.size:
        # Sort by (u, v, w) so the first of each (u, v) run has min weight.
        order = _edge_order(src, dst, n, w)
        src, dst = src[order], dst[order]
        if w is not None:
            w = w[order]
        first = np.ones(src.size, dtype=bool)
        first[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
        if stats is not None:
            stats.duplicates_collapsed += int(src.size - first.sum())
        src, dst = src[first], dst[first]
        if w is not None:
            w = w[first]

    # CSR assembly: canonical (source, target) order — adjacency lists
    # come out sorted, which makes graph equality well-defined and keeps
    # the coalescing model's "contiguous segment" assumption honest.
    order = _edge_order(src, dst, n)
    col_indices = dst[order].astype(INDEX_DTYPE)
    out_weights = w[order] if w is not None else None
    counts = np.bincount(src, minlength=n) if src.size else np.zeros(n, dtype=np.int64)
    row_offsets = np.zeros(n + 1, dtype=OFFSET_DTYPE)
    np.cumsum(counts, out=row_offsets[1:])
    return CSRGraph(row_offsets, col_indices, out_weights, name=name)


def _edge_order(
    src: np.ndarray, dst: np.ndarray, n: int, w: Optional[np.ndarray] = None
) -> np.ndarray:
    """The stable permutation sorting edges by ``(src, dst[, w])``.

    Equal to ``np.lexsort((dst, src))`` (``np.lexsort((w, dst, src))``
    with *w*) but about twice as fast: one stable sort of the int64 key
    ``src * n + dst`` (after a stable sort by *w*, which then breaks
    ties).  Falls back to ``lexsort`` when the key could overflow.
    """
    if n * n > np.iinfo(np.int64).max:
        return np.lexsort((dst, src) if w is None else (w, dst, src))
    key = src * n
    key += dst
    if w is None:
        return key.argsort(kind="stable")
    by_w = w.argsort(kind="stable")
    key = key.take(by_w)
    return by_w.take(key.argsort(kind="stable"))


def from_coo(
    coo_pairs: Iterable[Tuple[int, int]],
    *,
    weights=None,
    num_nodes: Optional[int] = None,
    name: str = "graph",
    **kwargs,
) -> CSRGraph:
    """Build a CSR graph from an iterable of ``(u, v)`` pairs."""
    pairs = np.asarray(list(coo_pairs), dtype=np.int64)
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise GraphError("coo_pairs must be an iterable of (u, v) pairs")
    return from_edge_list(
        pairs[:, 0], pairs[:, 1], weights, num_nodes=num_nodes, name=name, **kwargs
    )


def from_networkx(nx_graph, *, weight_attr: Optional[str] = None, name: Optional[str] = None) -> CSRGraph:
    """Convert a ``networkx`` (Di)Graph with integer-labelable nodes.

    Nodes are relabelled to ``0..n-1`` in sorted order.  Undirected
    networkx graphs become symmetric CSR graphs.
    """
    nodes = sorted(nx_graph.nodes())
    index = {node: i for i, node in enumerate(nodes)}
    directed = nx_graph.is_directed()
    src, dst, wts = [], [], []
    for u, v, data in nx_graph.edges(data=True):
        src.append(index[u])
        dst.append(index[v])
        if weight_attr is not None:
            wts.append(float(data.get(weight_attr, 1.0)))
    weights = wts if weight_attr is not None else None
    return from_edge_list(
        src,
        dst,
        weights,
        num_nodes=len(nodes),
        name=name or getattr(nx_graph, "name", None) or "networkx",
        symmetric=not directed,
    )


def to_networkx(graph: CSRGraph):
    """Convert to a ``networkx.DiGraph`` (weights become a 'weight' attr)."""
    import networkx as nx

    g = nx.DiGraph(name=graph.name)
    g.add_nodes_from(range(graph.num_nodes))
    src = np.repeat(
        np.arange(graph.num_nodes, dtype=np.int64), graph.out_degrees
    )
    if graph.has_weights:
        g.add_weighted_edges_from(
            zip(src.tolist(), graph.col_indices.tolist(), graph.weights.tolist())
        )
    else:
        g.add_edges_from(zip(src.tolist(), graph.col_indices.tolist()))
    return g
