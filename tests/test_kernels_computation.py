"""Tests for repro.kernels.computation (functional step semantics)."""

import numpy as np
import pytest

from repro.errors import KernelError
from repro.graph.generators import attach_uniform_weights, chain_graph, star_graph
from repro.gpusim.device import TESLA_C2070
from repro.kernels.computation import (
    INF,
    OrderedSsspState,
    UNSET_LEVEL,
    bfs_step,
    sssp_ordered_step,
    sssp_step,
)
from repro.kernels.findmin import findmin
from repro.kernels.variants import Variant, WorksetRepr
from repro.kernels.workset import Workset


def fresh_levels(n, source):
    levels = np.full(n, UNSET_LEVEL, dtype=np.int64)
    levels[source] = 0
    return levels


def fresh_dist(n, source):
    dist = np.full(n, INF, dtype=np.float64)
    dist[source] = 0.0
    return dist


UTBM = Variant.parse("U_T_BM")
OTBM = Variant.parse("O_T_BM")


class TestBfsStep:
    def test_one_step_expands_frontier(self, tiny_graph):
        levels = fresh_levels(5, 0)
        ws = Workset.from_update_ids(np.array([0]), WorksetRepr.BITMAP)
        step = bfs_step(tiny_graph, ws, levels, UTBM, 192, TESLA_C2070)
        assert step.updated.tolist() == [1, 2]
        assert levels[1] == 1 and levels[2] == 1

    def test_no_rediscovery(self, tiny_graph):
        levels = fresh_levels(5, 0)
        ws = Workset.from_update_ids(np.array([0]), WorksetRepr.BITMAP)
        step = bfs_step(tiny_graph, ws, levels, UTBM, 192, TESLA_C2070)
        ws2 = Workset.from_update_ids(step.updated, WorksetRepr.BITMAP)
        step2 = bfs_step(tiny_graph, ws2, levels, UTBM, 192, TESLA_C2070)
        # 1->2 does not re-add node 2 (level would not improve).
        assert 2 not in step2.updated.tolist()
        assert step2.updated.tolist() == [3, 4]

    def test_ordered_first_touch_only(self, tiny_graph):
        levels = fresh_levels(5, 0)
        ws = Workset.from_update_ids(np.array([0]), WorksetRepr.BITMAP)
        step = bfs_step(tiny_graph, ws, levels, OTBM, 192, TESLA_C2070)
        assert step.updated.tolist() == [1, 2]

    def test_empty_workset_rejected(self, tiny_graph):
        levels = fresh_levels(5, 0)
        ws = Workset.from_update_ids(np.array([]), WorksetRepr.BITMAP)
        with pytest.raises(KernelError):
            bfs_step(tiny_graph, ws, levels, UTBM, 192, TESLA_C2070)

    def test_edges_scanned_counts_frontier_degrees(self, star_64):
        levels = fresh_levels(64, 0)
        ws = Workset.from_update_ids(np.array([0]), WorksetRepr.QUEUE)
        step = bfs_step(star_64, ws, levels, UTBM, 192, TESLA_C2070)
        assert step.edges_scanned == 63
        assert step.updated.size == 63


class TestSsspStep:
    def test_relaxation(self, tiny_weighted):
        dist = fresh_dist(5, 0)
        ws = Workset.from_update_ids(np.array([0]), WorksetRepr.QUEUE)
        step = sssp_step(tiny_weighted, ws, dist, UTBM, 192, TESLA_C2070)
        assert dist[1] == 1.0 and dist[2] == 4.0
        assert step.updated.tolist() == [1, 2]

    def test_improvement_only(self, tiny_weighted):
        dist = fresh_dist(5, 0)
        dist[1], dist[2] = 1.0, 3.0  # 2 already better than via 0 (4.0)
        ws = Workset.from_update_ids(np.array([0]), WorksetRepr.QUEUE)
        step = sssp_step(tiny_weighted, ws, dist, UTBM, 192, TESLA_C2070)
        assert step.updated.size == 0

    def test_multiple_candidates_take_min(self):
        # two paths into node 2: 0->2 (10) and 1->2 (1); frontier {0,1}
        g = attach_uniform_weights(chain_graph(3), seed=0)
        g = g.with_weights([5.0, 5.0, 1.0, 1.0])  # 0-1 (5), 1-2 (1)
        dist = fresh_dist(3, 0)
        dist[1] = 5.0
        ws = Workset.from_update_ids(np.array([0, 1]), WorksetRepr.QUEUE)
        sssp_step(g, ws, dist, UTBM, 192, TESLA_C2070)
        assert dist[2] == 6.0

    def test_requires_weights(self, tiny_graph):
        dist = fresh_dist(5, 0)
        ws = Workset.from_update_ids(np.array([0]), WorksetRepr.QUEUE)
        with pytest.raises(KernelError):
            sssp_step(tiny_graph, ws, dist, UTBM, 192, TESLA_C2070)


class TestOrderedSssp:
    def test_settles_min_first(self, tiny_weighted):
        state = OrderedSsspState.initial(5, 0, dedupe=True)
        step = sssp_ordered_step(
            tiny_weighted, state, findmin(state.ws_keys), OTBM, 192, TESLA_C2070
        )
        assert state.dist[0] == 0.0
        assert step.settled == 1
        # neighbors of 0 inserted with their candidate keys
        assert set(state.ws_nodes.tolist()) == {1, 2}

    def test_full_run_matches_dijkstra(self, tiny_weighted):
        from repro.cpu import cpu_dijkstra

        state = OrderedSsspState.initial(5, 0, dedupe=True)
        for _ in range(100):
            if state.workset_size == 0:
                break
            sssp_ordered_step(
                tiny_weighted, state, findmin(state.ws_keys), OTBM, 192, TESLA_C2070
            )
        oracle = cpu_dijkstra(tiny_weighted, 0, method="heap")
        assert np.allclose(state.dist, oracle.distances)

    def test_queue_multiset_grows(self, star_64):
        """Queue (dedupe=False) keeps duplicate pairs; bitmap dedupes."""
        g = attach_uniform_weights(star_64, seed=1)
        q_state = OrderedSsspState.initial(64, 1, dedupe=False)  # leaf source
        b_state = OrderedSsspState.initial(64, 1, dedupe=True)
        for state in (q_state, b_state):
            variant = OTBM
            for _ in range(3):
                if state.workset_size == 0:
                    break
                sssp_ordered_step(
                    g, state, findmin(state.ws_keys), variant, 192, TESLA_C2070
                )
        # hub expansion inserts one pair per leaf either way, but the
        # bitmap state can never exceed n entries.
        assert b_state.workset_size <= 64

    def test_stale_pairs_dropped(self, tiny_weighted):
        state = OrderedSsspState.initial(5, 0, dedupe=False)
        # Manually inject a stale pair for an already-settled node.
        state.dist[1] = 0.5
        state.ws_nodes = np.array([1], dtype=np.int64)
        state.ws_keys = np.array([2.0], dtype=np.float64)
        step = sssp_ordered_step(
            tiny_weighted, state, 2.0, OTBM, 192, TESLA_C2070
        )
        assert step.settled == 0
        assert state.dist[1] == 0.5  # untouched


# ----------------------------------------------------------------------
# Differential relax tests: the size-switched relax core against the
# straightforward formulation it replaced (kept below as the oracle).
# ----------------------------------------------------------------------

import tracemalloc

from hypothesis import given, settings, strategies as st

from repro.graph.builder import from_edge_list
from repro.graph.partition import partition_graph
from repro.kernels import computation
from repro.kernels.computation import bfs_relax, sssp_relax


def _oracle_gather(graph, nodes):
    starts = graph.row_offsets[nodes]
    ends = graph.row_offsets[nodes + 1]
    degrees = (ends - starts).astype(np.int64)
    if degrees.sum():
        idx = np.concatenate([np.arange(s, e) for s, e in zip(starts, ends)])
    else:
        idx = np.empty(0, dtype=np.int64)
    return idx, graph.col_indices[idx].astype(np.int64), degrees


def oracle_bfs_relax(graph, frontier, levels, *, ordered=False):
    idx, dst, degrees = _oracle_gather(graph, frontier)
    cand = np.repeat(levels[frontier] + 1, degrees)
    old = levels[dst]
    if ordered:
        improving = old == UNSET_LEVEL
    else:
        improving = (old == UNSET_LEVEL) | (cand < old)
    improved_count = int(improving.sum())
    touched = dst[improving]
    if touched.size:
        big = np.iinfo(np.int64).max
        before = np.where(levels == UNSET_LEVEL, big, levels)
        work = before.copy()
        np.minimum.at(work, touched, cand[improving])
        changed = work < before
        levels[changed] = work[changed]
        updated = np.flatnonzero(changed).astype(np.int64)
    else:
        updated = np.empty(0, dtype=np.int64)
    return updated, degrees, improved_count, int(idx.size)


def oracle_sssp_relax(graph, frontier, dist):
    idx, dst, degrees = _oracle_gather(graph, frontier)
    cand = np.repeat(dist[frontier], degrees) + graph.weights[idx]
    improving = cand < dist[dst]
    improved_count = int(improving.sum())
    touched = dst[improving]
    if touched.size:
        before = dist.copy()
        np.minimum.at(dist, touched, cand[improving])
        updated = np.flatnonzero(dist < before).astype(np.int64)
    else:
        updated = np.empty(0, dtype=np.int64)
    return updated, degrees, improved_count, int(idx.size)


def _assert_identical(a, b):
    """Arrays equal in dtype, shape and bit pattern (so -0.0 != 0.0)."""
    assert a.dtype == b.dtype
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def check_bfs(graph, frontier, levels, *, ordered=False):
    frontier = np.asarray(frontier, dtype=np.int64)
    got_levels, want_levels = levels.copy(), levels.copy()
    got = bfs_relax(graph, frontier, got_levels, ordered=ordered)
    want = oracle_bfs_relax(graph, frontier, want_levels, ordered=ordered)
    _assert_identical(got_levels, want_levels)
    _assert_identical(got[0], want[0])
    _assert_identical(got[1], want[1])
    assert type(got[2]) is int and got[2] == want[2]
    assert type(got[3]) is int and got[3] == want[3]
    return got


def check_sssp(graph, frontier, dist):
    frontier = np.asarray(frontier, dtype=np.int64)
    got_dist, want_dist = dist.copy(), dist.copy()
    got = sssp_relax(graph, frontier, got_dist)
    want = oracle_sssp_relax(graph, frontier, want_dist)
    _assert_identical(got_dist, want_dist)
    _assert_identical(got[0], want[0])
    _assert_identical(got[1], want[1])
    assert type(got[2]) is int and got[2] == want[2]
    assert type(got[3]) is int and got[3] == want[3]
    return got


def _is_dense(graph, frontier):
    """Whether the relax core sweeps every edge for *frontier*."""
    frontier = np.asarray(frontier, dtype=np.int64)
    values = np.zeros(graph.num_nodes, dtype=np.int64)
    edges = computation._sweep(graph, frontier, values[frontier], 0)[0]
    return isinstance(edges, slice)


@st.composite
def relax_cases(draw):
    """A small weighted multigraph (self-loops, duplicate edges with
    distinct weights, zero weights, isolated nodes), a partial BFS/SSSP
    state and a frontier (sorted unique, or raw with repeats)."""
    n = draw(st.integers(1, 24))
    m = draw(st.integers(0, 80))
    node = st.integers(0, n - 1)
    src = draw(st.lists(node, min_size=m, max_size=m))
    dst = draw(st.lists(node, min_size=m, max_size=m))
    w = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 7.25]),
                      min_size=m, max_size=m))
    graph = from_edge_list(src, dst, w, num_nodes=n)
    levels = np.array(
        draw(st.lists(st.integers(-1, 6), min_size=n, max_size=n)), dtype=np.int64
    )
    dist = np.array(
        draw(st.lists(st.sampled_from([np.inf, 0.0, 1.0, 2.5, 4.0, 9.0]),
                      min_size=n, max_size=n)),
        dtype=np.float64,
    )
    raw = draw(st.lists(node, min_size=0, max_size=2 * n))
    frontier = raw if draw(st.booleans()) else sorted(set(raw))
    return graph, frontier, levels, dist


class TestRelaxDifferential:
    @given(relax_cases(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_hypothesis_bfs(self, case, ordered):
        graph, frontier, levels, _ = case
        check_bfs(graph, frontier, levels, ordered=ordered)

    @given(relax_cases())
    @settings(max_examples=150, deadline=None)
    def test_hypothesis_sssp(self, case):
        graph, frontier, _, dist = case
        check_sssp(graph, frontier, dist)

    def _both(self, graph, frontier, source=None):
        n = graph.num_nodes
        src = frontier[0] if source is None else source
        for ordered in (False, True):
            check_bfs(graph, frontier, fresh_levels(n, src), ordered=ordered)
        if graph.weights is not None:
            check_sssp(graph, frontier, fresh_dist(n, src))

    def test_empty_frontier_neighbourhood(self):
        # Frontier nodes with no out-edges at all.
        graph = from_edge_list([0, 1], [1, 2], [1.0, 1.0], num_nodes=6)
        self._both(graph, [3, 4, 5])
        self._both(graph, [2])
        self._both(graph, [], source=0)

    def test_isolated_nodes_and_edgeless_graph(self):
        graph = from_edge_list([], [], [], num_nodes=5)
        self._both(graph, [0, 1, 2, 3, 4])

    def test_self_loops(self):
        graph = from_edge_list([0, 0, 1, 1, 2], [0, 1, 1, 2, 2],
                               [1.0, 2.0, 0.0, 3.0, 1.0], num_nodes=3)
        self._both(graph, [0])
        self._both(graph, [0, 1, 2])

    def test_duplicate_edges_with_different_weights(self):
        graph = from_edge_list([0, 0, 0, 1, 1], [1, 1, 1, 2, 2],
                               [5.0, 2.0, 9.0, 0.0, 4.0], num_nodes=3)
        self._both(graph, [0])
        self._both(graph, [0, 1])

    def test_zero_weight_edges(self):
        graph = from_edge_list([0, 1, 2, 0], [1, 2, 3, 3],
                               [0.0, 0.0, 0.0, 0.0], num_nodes=4)
        self._both(graph, [0])
        self._both(graph, [0, 1, 2])

    def test_star_hub_far_above_warp_size(self):
        graph = attach_uniform_weights(star_graph(1000), seed=2)
        self._both(graph, [0])
        levels = fresh_levels(1000, 0)
        levels[1:500] = 1
        check_bfs(graph, np.arange(1, 1000), levels)

    def test_long_chain(self):
        graph = attach_uniform_weights(chain_graph(5000), seed=3)
        self._both(graph, [0])
        self._both(graph, [2500])
        self._both(graph, np.arange(0, 5000, 7))

    def test_shard_view_with_padded_rows(self):
        base = from_edge_list(
            np.concatenate([np.arange(300), [0, 5, 9]]),
            np.concatenate([(np.arange(300) + 1) % 300, [7, 5, 250]]),
            np.arange(303, dtype=np.float64) % 11,
            num_nodes=300,
        )
        n = base.num_nodes
        for shard in partition_graph(base, 3):
            view = shard.view(n)
            owned = np.arange(shard.start, shard.stop)
            # Global frontiers straddling the padded zero-degree rows.
            for frontier in (owned, np.arange(n), owned[:3], np.array([0, n - 1])):
                self._both(view, frontier, source=int(frontier[0]))
                dist = np.linspace(0.0, 50.0, n)
                check_sssp(view, frontier, dist)

    def test_dense_cut_boundary(self):
        # A directed chain: a k-node frontier owns k of its 1000 edges.
        graph = from_edge_list(np.arange(1000), np.arange(1, 1001),
                               np.arange(1000) % 4, num_nodes=1001)
        cut = int(computation._DENSE_EDGE_SHARE * graph.num_edges)
        below, above = np.arange(cut), np.arange(cut + 1)
        assert not _is_dense(graph, below)
        assert _is_dense(graph, above)
        for frontier in (below, above):
            levels = fresh_levels(1001, 0)
            levels[frontier] = frontier % 3
            check_bfs(graph, frontier, levels)
            check_bfs(graph, frontier, levels, ordered=True)
            dist = np.full(1001, INF)
            dist[frontier] = frontier * 0.5
            check_sssp(graph, frontier, dist)

    def test_sparse_apply_cut_boundary(self):
        n = 1600
        for touched in (99, 100, 101):
            # Hub 0 reaches exactly *touched* fresh nodes; the rest of
            # the graph is a chain so the dense sweep stays off.
            src = np.concatenate([np.zeros(touched, np.int64), np.arange(1, n - 1)])
            dst = np.concatenate([np.arange(1, touched + 1), np.arange(2, n)])
            w = (np.arange(src.size) % 5).astype(np.float64)
            graph = from_edge_list(src, dst, w, num_nodes=n)
            sparse = touched * computation._SPARSE_APPLY_FACTOR < n
            assert sparse == (touched < 100)
            updated = check_bfs(graph, [0], fresh_levels(n, 0))[0]
            assert updated.size == touched
            check_bfs(graph, [0], fresh_levels(n, 0), ordered=True)
            check_sssp(graph, [0], fresh_dist(n, 0))

    def test_unsorted_and_duplicate_frontiers_fall_back(self):
        graph = attach_uniform_weights(chain_graph(50), seed=6)
        everything = np.arange(50)
        for frontier in (everything[::-1], np.concatenate([everything, everything]),
                         np.array([3, 3, 4, 5, 6])):
            assert not _is_dense(graph, frontier)
            levels = fresh_levels(50, 0)
            levels[frontier] = 1
            check_bfs(graph, frontier, levels)
            check_bfs(graph, frontier, levels, ordered=True)
            check_sssp(graph, frontier, np.where(np.isin(everything, frontier), 1.0, INF))
        assert _is_dense(graph, everything)


class TestRelaxComplexity:
    """A 1-node frontier relax allocates O(degree), not O(|V|)."""

    N = 200_000
    LIMIT = 64 * 1024

    @pytest.fixture(scope="class")
    def chain(self):
        return attach_uniform_weights(chain_graph(self.N), seed=7)

    def _peak(self, fn):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_bfs_single_node_frontier(self, chain):
        levels = fresh_levels(self.N, self.N // 2)
        frontier = np.array([self.N // 2], dtype=np.int64)
        peak = self._peak(lambda: bfs_relax(chain, frontier, levels))
        assert levels[self.N // 2 + 1] == 1
        assert peak < self.LIMIT, f"peak {peak} B for a 1-node frontier"

    def test_sssp_single_node_frontier(self, chain):
        dist = fresh_dist(self.N, self.N // 2)
        frontier = np.array([self.N // 2], dtype=np.int64)
        peak = self._peak(lambda: sssp_relax(chain, frontier, dist))
        assert np.isfinite(dist[self.N // 2 + 1])
        assert peak < self.LIMIT, f"peak {peak} B for a 1-node frontier"
