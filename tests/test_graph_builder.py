"""Tests for repro.graph.builder."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.builder import from_coo, from_edge_list, from_networkx, to_networkx


class TestFromEdgeList:
    def test_basic(self):
        g = from_edge_list([0, 0, 1], [1, 2, 2], num_nodes=3)
        assert g.num_edges == 3
        assert g.neighbors(0).tolist() == [1, 2]

    def test_infers_num_nodes(self):
        g = from_edge_list([0], [9])
        assert g.num_nodes == 10

    def test_num_nodes_too_small(self):
        with pytest.raises(GraphError):
            from_edge_list([0], [5], num_nodes=3)

    def test_rejects_negative_ids(self):
        with pytest.raises(GraphError, match="negative"):
            from_edge_list([-1], [0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(GraphError):
            from_edge_list([0, 1], [1])

    def test_empty_edge_list(self):
        g = from_edge_list([], [], num_nodes=4)
        assert g.num_nodes == 4
        assert g.num_edges == 0

    def test_symmetric(self):
        g = from_edge_list([0], [1], num_nodes=2, symmetric=True)
        assert g.num_edges == 2
        assert g.neighbors(1).tolist() == [0]

    def test_drop_self_loops(self):
        g = from_edge_list([0, 1], [0, 0], num_nodes=2, drop_self_loops=True)
        assert g.num_edges == 1

    def test_dedupe_keeps_min_weight(self):
        g = from_edge_list(
            [0, 0, 0], [1, 1, 2], weights=[5.0, 2.0, 9.0], num_nodes=3, dedupe=True
        )
        assert g.num_edges == 2
        pos = g.neighbors(0).tolist().index(1)
        assert g.edge_weights_of(0)[pos] == 2.0

    def test_dedupe_without_weights(self):
        g = from_edge_list([0, 0, 0], [1, 1, 1], num_nodes=2, dedupe=True)
        assert g.num_edges == 1

    def test_weights_length_mismatch(self):
        with pytest.raises(GraphError, match="weights"):
            from_edge_list([0], [1], weights=[1.0, 2.0])

    def test_unsorted_input_sorted_in_csr(self):
        g = from_edge_list([2, 0, 1], [0, 1, 2], num_nodes=3)
        assert g.neighbors(0).tolist() == [1]
        assert g.neighbors(2).tolist() == [0]

    def test_symmetric_duplicates_weights(self):
        g = from_edge_list([0], [1], weights=[3.0], num_nodes=2, symmetric=True)
        assert g.edge_weights_of(1).tolist() == [3.0]


class TestFromCoo:
    def test_pairs(self):
        g = from_coo([(0, 1), (1, 2)], num_nodes=3)
        assert g.num_edges == 2

    def test_empty(self):
        g = from_coo([], num_nodes=2)
        assert g.num_edges == 0

    def test_bad_shape(self):
        with pytest.raises(GraphError):
            from_coo([(0, 1, 2)])


class TestNetworkxRoundtrip:
    def test_digraph_roundtrip(self, tiny_graph):
        nxg = to_networkx(tiny_graph)
        assert nxg.number_of_nodes() == tiny_graph.num_nodes
        assert nxg.number_of_edges() == tiny_graph.num_edges
        back = from_networkx(nxg)
        assert back == tiny_graph

    def test_weighted_roundtrip(self, tiny_weighted):
        nxg = to_networkx(tiny_weighted)
        back = from_networkx(nxg, weight_attr="weight")
        assert np.allclose(back.weights, tiny_weighted.weights)

    def test_undirected_becomes_symmetric(self):
        import networkx as nx

        nxg = nx.path_graph(4)
        g = from_networkx(nxg)
        assert g.num_edges == 6  # 3 undirected edges -> 6 arcs


# ----------------------------------------------------------------------
# The key sort in from_edge_list is lexsort's permutation, exactly.
# ----------------------------------------------------------------------

from hypothesis import given, settings, strategies as st

from repro.graph.builder import _edge_order
from repro.obs.manifest import graph_fingerprint


@st.composite
def _edges_with_weights(draw):
    """Edge lists rich in duplicate (u, v) pairs, with tied and untied
    weights (including +0.0 and -0.0, which compare equal)."""
    n = draw(st.integers(1, 12))
    m = draw(st.integers(0, 60))
    node = st.integers(0, n - 1)
    src = draw(st.lists(node, min_size=m, max_size=m))
    dst = draw(st.lists(node, min_size=m, max_size=m))
    w = draw(st.lists(st.sampled_from([0.0, -0.0, 1.0, 1.0, 2.5, 7.0]),
                      min_size=m, max_size=m))
    return n, np.array(src, np.int64), np.array(dst, np.int64), np.array(w, np.float32)


def _lexsort_build(src, dst, w, n, dedupe):
    """CSR arrays as assembled with np.lexsort."""
    if dedupe and src.size:
        order = np.lexsort((w, dst, src))
        src, dst, w = src[order], dst[order], w[order]
        first = np.ones(src.size, dtype=bool)
        first[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
        src, dst, w = src[first], dst[first], w[first]
    order = np.lexsort((dst, src))
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=offsets[1:])
    return offsets, dst[order].astype(np.int32), w[order]


class TestEdgeOrder:
    @given(_edges_with_weights())
    @settings(max_examples=100, deadline=None)
    def test_permutation_equals_lexsort(self, case):
        n, src, dst, w = case
        np.testing.assert_array_equal(_edge_order(src, dst, n), np.lexsort((dst, src)))
        np.testing.assert_array_equal(
            _edge_order(src, dst, n, w), np.lexsort((w, dst, src))
        )

    @given(_edges_with_weights(), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_csr_arrays_and_digest_unchanged(self, case, dedupe):
        n, src, dst, w = case
        graph = from_edge_list(src, dst, w, num_nodes=n, dedupe=dedupe)
        offsets, cols, weights = _lexsort_build(src, dst, w, n, dedupe)
        np.testing.assert_array_equal(graph.row_offsets, offsets)
        assert graph.col_indices.tobytes() == cols.tobytes()
        assert graph.weights.tobytes() == weights.tobytes()
        want = type(graph)(offsets, cols, weights, name=graph.name)
        assert graph_fingerprint(graph) == graph_fingerprint(want)

    def test_overflowing_key_falls_back_to_lexsort(self):
        n = 2**32  # n * n exceeds int64: the key src * n + dst would wrap
        src = np.array([n - 1, 0, n - 1, 5, 0], dtype=np.int64)
        dst = np.array([3, n - 1, 2, 5, n - 1], dtype=np.int64)
        w = np.array([1.0, 2.0, 0.5, 1.0, 1.0], dtype=np.float32)
        np.testing.assert_array_equal(_edge_order(src, dst, n), np.lexsort((dst, src)))
        np.testing.assert_array_equal(
            _edge_order(src, dst, n, w), np.lexsort((w, dst, src))
        )
