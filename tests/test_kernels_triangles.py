"""Triangle counting kernel vs the CPU merge-path oracle on adversarial
small graphs, under several schedule chunk sizes.

Besides the per-node counts, every iteration's ``edges_scanned`` must
equal the merge-path comparison count of its chunk, computed here
straight from the oriented adjacency, so the pricing cannot drift from
the work a merge-path intersection does.
"""

import itertools

import numpy as np
import pytest

from repro.cpu import cpu_triangles
from repro.graph.builder import from_edge_list
from repro.graph.properties import is_symmetric
from repro.graph.transforms import rank_oriented_adjacency, symmetrize
from repro.kernels.triangles import run_triangles

CHUNKS = (1, 3, 256)


def _graph(edges, num_nodes, name):
    src = np.array([u for u, _ in edges], dtype=np.int64)
    dst = np.array([v for _, v in edges], dtype=np.int64)
    return from_edge_list(src, dst, num_nodes=num_nodes, name=name)


def _clique_edges(nodes):
    return [(u, v) for u, v in itertools.permutations(nodes, 2)]


def _empty():
    return _graph([], 0, "empty")


def _single():
    return _graph([], 1, "single")


def _k5():
    return _graph(_clique_edges(range(5)), 5, "k5")


def _star():
    # Hub degree 100, far above the warp size; no triangles.
    edges = [(0, leaf) for leaf in range(1, 101)]
    return _graph(edges + [(v, u) for u, v in edges], 101, "star")


def _loops_and_duplicates():
    # K4 with every edge listed twice, plus self-loops on two corners
    # and a pendant edge.
    edges = _clique_edges(range(4)) * 2 + [(0, 0), (2, 2), (3, 4), (4, 3)]
    return _graph(edges, 5, "loops-dups")


def _disjoint_cliques():
    edges = (
        _clique_edges(range(0, 4))
        + _clique_edges(range(4, 9))
        + _clique_edges(range(9, 15))
    )
    return _graph(edges, 16, "cliques")


def _chain():
    edges = [(i, i + 1) for i in range(299)]
    return _graph(edges, 300, "chain")


GRAPHS = {
    "empty": (_empty, 0),
    "single": (_single, 0),
    "k5": (_k5, 10),
    "star": (_star, 0),
    "loops-dups": (_loops_and_duplicates, 4),
    "cliques": (_disjoint_cliques, 4 + 10 + 20),
    "chain": (_chain, 0),
}


def _merge_path_work(graph, chunk):
    """Per-iteration comparisons of the merge-path loop: for each pivot
    u, walk N+(u), then scan N+(u) and N+(v) once for every v in N+(u)."""
    work = graph if is_symmetric(graph) else symmetrize(graph)
    indptr, indices = rank_oriented_adjacency(work)
    degree = np.diff(indptr)
    per_node = [
        int(degree[u])
        + sum(int(degree[u] + degree[v]) for v in indices[indptr[u] : indptr[u + 1]])
        for u in range(work.num_nodes)
    ]
    return [
        sum(per_node[start : start + chunk])
        for start in range(0, work.num_nodes, chunk)
    ]


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_matches_cpu_oracle(name, chunk):
    make, total = GRAPHS[name]
    graph = make()
    result = run_triangles(graph, chunk=chunk)
    oracle = cpu_triangles(graph)
    assert np.array_equal(result.values, oracle.counts)
    assert int(result.values.sum()) == total == oracle.total_triangles
    scanned = [rec.edges_scanned for rec in result.iterations]
    assert scanned == _merge_path_work(graph, chunk)
    assert [rec.improved_relaxations for rec in result.iterations] == [
        int(oracle.counts[start : start + chunk].sum())
        for start in range(0, graph.num_nodes, chunk)
    ]

