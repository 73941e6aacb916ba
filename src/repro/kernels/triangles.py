"""Triangle counting on the GPU frame — the fusion pass's showcase workload.

Exact triangle counting over the degree-rank orientation
(:func:`repro.graph.transforms.rank_oriented_adjacency`): every
triangle survives as one wedge ``u -> v, u -> w`` closed by an oriented
edge ``v -> w`` and is attributed to its lowest-ranked corner, so
``result.values[u]`` is the number of triangles pivoted at *u* — exact
integers, identical under every variant and bit-identical to the CPU
reference (``cpu_exact``).

The step is the classic two-phase shape the spec-fusion pass
(:mod:`repro.engine.fusion`) exists for: a heavy intersection kernel
over the scheduled chunk, then a trivial generation kernel that
materializes the next chunk of the precomputed schedule.  Because the
schedule is loop-invariant, the per-iteration chunk descriptor the host
ships before each launch (:attr:`~repro.engine.spec.AlgorithmSpec.\
iteration_h2d_bytes`) is hoistable, and the generation kernel is always
a single launch — a fused plan merges every iteration, which is what
``benchmarks/bench_fusion_savings.py`` measures.

The graph is symmetrized on the host first (triangles live in the
undirected graph), and the oriented CSR rides the initial transfer as
an extra H2D payload, like DOBFS's reverse CSR.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.engine.driver import FrameContext, run_frame
from repro.engine.registry import AlgorithmInfo, register_algorithm
from repro.engine.spec import AlgorithmSpec, FrameState, StepOutcome
from repro.engine.types import StaticPolicy, TraversalResult, VariantPolicy
from repro.errors import KernelError
from repro.graph.csr import CSRGraph
from repro.graph.properties import _ragged_gather_indices, is_symmetric
from repro.graph.transforms import rank_oriented_adjacency, symmetrize
from repro.gpusim.device import DeviceSpec, TESLA_C2070
from repro.gpusim.kernel import CostParams
from repro.gpusim.transfer import record_transfer
from repro.kernels import costs
from repro.kernels.mapping import ComputationShape, computation_tally
from repro.kernels.variants import Variant

__all__ = ["TrianglesSpec", "traverse_triangles", "run_triangles"]

#: default nodes per scheduled chunk (one frame iteration)
DEFAULT_CHUNK = 256


class TrianglesSpec(AlgorithmSpec):
    """Chunked rank-oriented triangle counting as an engine spec."""

    name = "triangles"
    source_based = False
    checkpointable = False
    default_variant = "U_T_QU"
    #: the per-iteration chunk descriptor (bounds + schedule cursor +
    #: launch params) the host uploads before each computation launch;
    #: loop-invariant, so a fused plan hoists it
    iteration_h2d_bytes = 64

    def __init__(self, chunk: int = DEFAULT_CHUNK, assume_symmetric: bool = False):
        if int(chunk) < 1:
            raise KernelError(f"chunk must be >= 1, got {chunk}")
        self.chunk = int(chunk)
        self.assume_symmetric = bool(assume_symmetric)

    def prepare(self, graph: CSRGraph):
        if not self.assume_symmetric and not is_symmetric(graph):
            work_graph = symmetrize(graph)
            return work_graph, work_graph.num_edges * 12e-9
        return graph, 0.0

    def extra_transfers(self, ctx: FrameContext) -> None:
        # The oriented CSR rides the initial transfer; keep it for
        # init_state so the orientation is built exactly once.
        indptr, indices = rank_oriented_adjacency(ctx.graph)
        self._oriented = (indptr, indices)
        ctx.timeline.add_transfer(
            record_transfer("h2d", indptr.nbytes + indices.nbytes, ctx.device)
        )

    def init_state(self, ctx: FrameContext) -> FrameState:
        n = ctx.graph.num_nodes
        indptr, indices = self._oriented
        degrees = np.diff(indptr)
        first = np.arange(min(self.chunk, n), dtype=np.int64)
        return FrameState(
            np.zeros(n, dtype=np.int64),
            first,
            tri_indptr=indptr,
            tri_indices=indices,
            tri_degrees=degrees,
            # Sorted oriented edge keys u*n + w: the membership table
            # that closes each wedge (indptr came from these keys).
            tri_keys=np.repeat(np.arange(n, dtype=np.int64), degrees) * n + indices,
            cursor=int(first.size),
        )

    def default_cap(self, graph: CSRGraph) -> int:
        return -(-graph.num_nodes // self.chunk) + 2

    def cap_message(self, cap: int) -> str:
        return f"triangle counting exceeded {cap} iterations (schedule bug)"

    def compute(self, ctx, state, variant, tpb) -> StepOutcome:
        indptr, indices = state.tri_indptr, state.tri_indices
        degrees, keys = state.tri_degrees, state.tri_keys
        chunk_nodes = state.frontier
        n = ctx.graph.num_nodes
        # Wedges (u, v, w) of the chunk: v in N+(u), then w in N+(v).
        first_leg = _ragged_gather_indices(
            indptr[chunk_nodes], indptr[chunk_nodes + 1]
        )
        v = indices[first_leg]
        d_u = degrees[chunk_nodes]
        d_v = degrees[v]
        v_slot = np.repeat(np.arange(chunk_nodes.size), d_u)
        second_leg = _ragged_gather_indices(indptr[v], indptr[v + 1])
        w_slot = np.repeat(v_slot, d_v)
        # A wedge closes when (u, w) is an oriented edge too.
        wedge_keys = chunk_nodes[w_slot] * n + indices[second_leg]
        pos = np.searchsorted(keys, wedge_keys)
        closed = keys[np.minimum(pos, max(keys.size - 1, 0))] == wedge_keys
        found = np.bincount(w_slot[closed], minlength=chunk_nodes.size)
        state.values[chunk_nodes] = found
        triangles = int(found.sum())
        # Merge-path work per pivot: d_u to walk N+(u), plus one scan of
        # both lists (d_u + d_v) for every v in N+(u).
        ends = np.cumsum(d_u)
        cum_d_v = np.concatenate([[0], np.cumsum(d_v)])
        work_units = d_u * (1 + d_u) + cum_d_v[ends] - cum_d_v[ends - d_u]
        comparisons = int(work_units.sum())
        next_chunk = np.arange(
            state.cursor, min(state.cursor + self.chunk, n), dtype=np.int64
        )
        state.cursor += int(next_chunk.size)
        shape = ComputationShape(
            name="triangles_comp",
            num_nodes=n,
            active_ids=chunk_nodes,
            degrees=work_units,
            edge_cost=costs.C_CHECK,
            improved=triangles,
            updated_count=int(next_chunk.size),
        )
        ctx.price(
            computation_tally(shape, variant.mapping, variant.workset, tpb, ctx.device)
        )
        return StepOutcome(
            next_frontier=next_chunk,
            updated_count=int(next_chunk.size),
            processed=int(chunk_nodes.size),
            edges_scanned=comparisons,
            improved_relaxations=triangles,
        )


def traverse_triangles(
    graph: CSRGraph,
    policy: VariantPolicy,
    *,
    chunk: int = DEFAULT_CHUNK,
    assume_symmetric: bool = False,
    device: DeviceSpec = TESLA_C2070,
    cost_params: Optional[CostParams] = None,
    max_iterations: Optional[int] = None,
    queue_gen: str = "atomic",
    watchdog=None,
    checkpoint_keeper=None,
    resume_from=None,
    fault_hook=None,
    memory=None,
    fusion=None,
) -> TraversalResult:
    """Count triangles under *policy*; ``result.values`` are the per-node
    pivot counts (``values.sum()`` is the triangle total).  *chunk* sets
    the scheduled nodes per iteration; the reliability keywords raise
    (the spec is not checkpointable), *memory* and *fusion* are engine
    pass-throughs as in :func:`~repro.kernels.frame.traverse_bfs`."""
    return run_frame(
        graph,
        -1,
        policy,
        TrianglesSpec(chunk=chunk, assume_symmetric=assume_symmetric),
        device=device,
        cost_params=cost_params,
        max_iterations=max_iterations,
        queue_gen=queue_gen,
        watchdog=watchdog,
        checkpoint_keeper=checkpoint_keeper,
        resume_from=resume_from,
        fault_hook=fault_hook,
        memory=memory,
        fusion=fusion,
    )


def run_triangles(
    graph: CSRGraph,
    variant: Union[Variant, str] = "U_T_QU",
    *,
    chunk: int = DEFAULT_CHUNK,
    assume_symmetric: bool = False,
    device: DeviceSpec = TESLA_C2070,
    cost_params: Optional[CostParams] = None,
    max_iterations: Optional[int] = None,
    queue_gen: str = "atomic",
    fusion=None,
) -> TraversalResult:
    """One static variant of triangle counting (see
    :func:`traverse_triangles`)."""
    if isinstance(variant, str):
        variant = Variant.parse(variant)
    return traverse_triangles(
        graph,
        StaticPolicy(variant),
        chunk=chunk,
        assume_symmetric=assume_symmetric,
        device=device,
        cost_params=cost_params,
        max_iterations=max_iterations,
        queue_gen=queue_gen,
        fusion=fusion,
    )


def _cpu_triangles_reference(graph, source, **params):
    from repro.cpu import cpu_triangles

    result = cpu_triangles(graph)
    return result.counts, result


register_algorithm(
    AlgorithmInfo(
        name="triangles",
        summary="exact rank-oriented triangle counting (chunked schedule)",
        make_spec=TrianglesSpec,
        traverse=lambda graph, source, policy, **kw: traverse_triangles(
            graph, policy, **kw
        ),
        cpu_run=_cpu_triangles_reference,
        source_based=False,
        checkpointable=False,
        param_names=("chunk", "assume_symmetric"),
    )
)
