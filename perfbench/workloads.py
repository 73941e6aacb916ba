"""The benchmark's three workloads: ``road``, ``analytics`` and ``serve``.

Each workload has the same four steps, which ``run.py`` drives:

``setup(seed)``
    Generate the graph, draw sources or queries and build the objects a
    caller builds before its first query.  Timed as ``setup_s``.
``run_pass(state, recorder)``
    Run the workload's fixed job list once and return a
    :class:`PassResult`.  With a :class:`~tracer.SpanRecorder` each job
    (and a fresh setup) is a root span.
``references(state, passes)``
    Untimed reference answers, computed once per run.
``check(state, refs, result)``
    Compare one pass against the references; returns error strings.

The program only ever receives the generated graphs, sources, queries
and mutation batches; everything it returns is checked.
"""

from __future__ import annotations

import gc
import hashlib
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path

import repro.core.runtime as runtime
import repro.obs.manifest as manifest_mod
from repro.engine.batch import BatchFrame
from repro.engine.registry import get_algorithm
from repro.graph.csr import CSRGraph
from repro.graph.datasets import make_dataset
from repro.graph.dynamic import EdgeBatch, MutationOp
from repro.gpusim.device import TESLA_C2070
from repro.obs import Observer
from repro.serve.batch import BatchQuery
from repro.serve.loop import ServeLoop
from repro.serve.session import GraphSession

from simtime import SimLedger
from tracer import Patches

DEVICE = TESLA_C2070


def values_sha256(values) -> str:
    """SHA-256 of an answer array's bytes (the serve responses' digest)."""
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


@dataclass
class PassResult:
    """One run of a workload's fixed job list."""

    #: host seconds of the pass (jobs only; untimed set-up excluded)
    wall_s: float
    #: wall seconds per job, keyed by job name (road, analytics)
    job_walls: Dict[str, float] = field(default_factory=dict)
    #: per-query host latencies (serve) and per-job or per-query
    #: simulated latencies, in seconds
    latencies_s: List[float] = field(default_factory=list)
    sim_latencies_s: List[float] = field(default_factory=list)
    #: operations attempted (jobs, or queries plus mutation batches)
    attempted: int = 0
    #: exceptions and non-ok answers found while running
    errors: List[str] = field(default_factory=list)
    #: deterministic record: must repeat exactly between passes and runs
    record: dict = field(default_factory=dict)
    #: the program's own float total of simulated seconds, and the
    #: timelines it came from (``serve`` fills in the ledger itself)
    sim_reported: float = 0.0
    timelines: list = field(default_factory=list)
    ledger: Optional[SimLedger] = None
    #: per-layer counts (decisions, iterations, edges scanned, ...)
    counts: Dict[str, float] = field(default_factory=dict)
    #: answers to check: key -> values array (road, analytics) or
    #: digest (serve)
    answers: Dict[object, object] = field(default_factory=dict)

    def sim_ledger(self) -> SimLedger:
        """Exact simulated-time attribution (built on first use: the
        rational sums are too slow to do for every pass)."""
        if self.ledger is None:
            self.ledger = SimLedger().extend(self.timelines)
        return self.ledger


def _adjacency(graph: CSRGraph) -> csr_matrix:
    n = graph.num_nodes
    return csr_matrix(
        (np.ones(graph.num_edges, dtype=np.int8), graph.col_indices,
         graph.row_offsets),
        shape=(n, n),
    )


def _largest_component(graph: CSRGraph, connection: str) -> np.ndarray:
    _, labels = connected_components(_adjacency(graph), directed=True,
                                     connection=connection)
    return np.flatnonzero(labels == np.bincount(labels).argmax())


def _member(keys: np.ndarray, sorted_set: np.ndarray) -> np.ndarray:
    """Which of *keys* occur in the sorted array *sorted_set*."""
    at = np.minimum(np.searchsorted(sorted_set, keys), len(sorted_set) - 1)
    return sorted_set[at] == keys


def _contains(sorted_set: np.ndarray, key: int) -> bool:
    at = int(np.searchsorted(sorted_set, key))
    return at < len(sorted_set) and int(sorted_set[at]) == key


def _fresh(graph: CSRGraph) -> CSRGraph:
    """A new graph object over copied arrays: nothing memoised on the
    original object or its arrays carries over."""
    weights = None if graph.weights is None else graph.weights.copy()
    return CSRGraph(graph.row_offsets.copy(), graph.col_indices.copy(),
                    weights, name=graph.name)


def _traversal_counts(results) -> Dict[str, float]:
    """Decision, iteration and edge counts over adaptive results."""
    counts = {"core.decisions": 0, "core.switches": 0, "engine.iterations": 0,
              "kernels.edges_scanned": 0, "improved": 0}
    for result in results:
        counts["core.decisions"] += result.trace.num_decisions
        counts["core.switches"] += result.trace.num_switches
        counts["engine.iterations"] += result.traversal.num_iterations
        for record in result.traversal.iterations:
            counts["kernels.edges_scanned"] += record.edges_scanned
            counts["improved"] += record.improved_relaxations
    return counts


def _job_record(result) -> dict:
    traversal = result.traversal
    return {
        "values_sha256": values_sha256(traversal.values),
        "sim_hex": float(traversal.total_seconds).hex(),
        "launches": traversal.timeline.num_launches,
        "decisions": result.trace.num_decisions,
        "switches": result.trace.num_switches,
    }


class _JobListWorkload:
    """Shared pass/check logic of ``road`` and ``analytics``: a fixed
    list of single-graph jobs, each timed on its own."""

    name = ""

    def jobs(self, state) -> List[Tuple[str, str, int]]:
        """(job name, algorithm, source) in run order."""
        raise NotImplementedError

    def run_job(self, state, algorithm: str, source: int):
        """Run one job; returns (adaptive result, seconds timed)."""
        raise NotImplementedError

    def run_pass(self, state, recorder=None) -> PassResult:
        out = PassResult(wall_s=0.0)
        results = []
        if recorder is not None:
            with recorder.root("setup"):
                self.setup(state["seed"])
        for job, algorithm, source in self.jobs(state):
            gc.collect()
            out.attempted += 1
            try:
                if recorder is not None:
                    with recorder.root("job"):
                        result, wall = self.run_job(state, algorithm, source)
                else:
                    result, wall = self.run_job(state, algorithm, source)
            except Exception as exc:  # a failed job is counted, not fatal
                out.errors.append(f"{job}: {type(exc).__name__}: {exc}")
                continue
            out.wall_s += wall
            out.job_walls[job] = wall
            out.sim_latencies_s.append(result.traversal.total_seconds)
            out.sim_reported += result.traversal.total_seconds
            out.timelines.append(result.traversal.timeline)
            out.record[job] = _job_record(result)
            out.answers[job] = result.traversal.values
            results.append(result)
        out.counts = _traversal_counts(results)
        return out

    def check(self, state, refs, result: PassResult) -> List[str]:
        errors = []
        for job, algorithm, _ in self.jobs(state):
            values, expected = result.answers.get(job), refs[job]
            if values is None:
                continue  # failed (counted) or a verified exact repeat
            if get_algorithm(algorithm).cpu_exact:
                same = values.dtype == expected.dtype and np.array_equal(
                    values, expected)
            else:
                # PageRank's float reduction order differs from the CPU
                # reference; numpy's default tolerance, as `repro run`.
                same = np.allclose(values, expected)
            if not same:
                errors.append(f"{job}: values differ from the CPU reference")
        return errors

    def references(self, state, passes) -> dict:
        refs = {}
        for job, algorithm, source in self.jobs(state):
            graph = self.reference_graph(state)
            refs[job], _ = get_algorithm(algorithm).cpu_run(graph, source)
        return refs

    def reference_graph(self, state) -> CSRGraph:
        return state["graph"]


class Road(_JobListWorkload):
    """Adaptive BFS and SSSP on the co-road analogue from a fixed list
    of sources, one graph object reused across every job."""

    name = "road"
    SCALE = 0.05
    SOURCES = 6
    CANDIDATES = 48

    def setup(self, seed: int) -> dict:
        graph = make_dataset("co-road", scale=self.SCALE, weighted=True, seed=seed)
        rng = np.random.default_rng([seed, 1])
        members = _largest_component(graph, "weak")
        candidates = rng.choice(members, self.CANDIDATES, replace=False)
        # A road BFS runs one iteration per level, so a source's
        # eccentricity sets its work.  Sources at evenly spaced
        # eccentricity quantiles of the candidates keep the job list's
        # work steady from seed to seed.
        hops = shortest_path(_adjacency(graph), unweighted=True, indices=candidates)
        ecc = np.where(np.isfinite(hops), hops, 0).max(axis=1)
        ranked = candidates[np.lexsort((candidates, ecc))]
        picks = ((2 * np.arange(self.SOURCES) + 1) * self.CANDIDATES) // (2 * self.SOURCES)
        return {"seed": seed, "graph": graph,
                "sources": [int(s) for s in ranked[picks]]}

    def jobs(self, state):
        return [(f"{alg}@{src}", alg, src)
                for src in state["sources"] for alg in ("bfs", "sssp")]

    def run_job(self, state, algorithm, source):
        start = time.perf_counter()
        result = runtime.adaptive_run(state["graph"], algorithm, source, device=DEVICE)
        return result, time.perf_counter() - start


class Analytics(_JobListWorkload):
    """Adaptive whole-graph analytics on the citeseer analogue, each job
    on a freshly constructed graph object and ending in a run manifest,
    as one ``repro run --manifest`` invocation does."""

    name = "analytics"
    SCALE = 0.04
    ALGORITHMS = ("cc", "pagerank", "kcore", "triangles")

    def setup(self, seed: int) -> dict:
        graph = make_dataset("citeseer", scale=self.SCALE, seed=seed)
        return {"seed": seed, "graph": graph}

    def jobs(self, state):
        return [(alg, alg, -1) for alg in self.ALGORITHMS]

    def run_job(self, state, algorithm, source):
        graph = _fresh(state["graph"])  # built before the clock starts
        start = time.perf_counter()
        observer = Observer()
        result = runtime.adaptive_run(graph, algorithm, device=DEVICE, observe=observer)
        manifest = manifest_mod.build_manifest(
            result, graph=graph, algorithm=algorithm, mode="adaptive",
            source=-1, device=DEVICE, observer=observer,
        )
        manifest.to_json()
        return result, time.perf_counter() - start

    def reference_graph(self, state):
        return _fresh(state["graph"])


class _ServeHooks:
    """Collects, for the simulated-time ledger, every object the serve
    loop creates out of the caller's sight: batch frames, finished rows,
    fallback results and compactions.  One call per frame, pump or
    barrier; installed for traced and untraced passes alike."""

    def __init__(self):
        self.reset()
        self._patches = Patches()
        hooks = self

        def frame_init(init):
            def wrapper(frame, *args, **kwargs):
                init(frame, *args, **kwargs)
                hooks.frames.append(frame)
            return wrapper

        def take_finished(take):
            def wrapper(frame):
                finished = take(frame)
                hooks.rows.extend(finished)
                return finished
            return wrapper

        def compact(fn):
            def wrapper(overlay, *args, **kwargs):
                result = fn(overlay, *args, **kwargs)
                hooks.compactions.append(result)
                return result
            return wrapper

        def fallback(fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                hooks.fallbacks.append(result)
                return result
            return wrapper

        patches = self._patches
        patches.replace("repro.engine.batch:BatchFrame.__init__", frame_init)
        patches.replace("repro.engine.batch:BatchFrame.take_finished", take_finished)
        patches.replace("repro.graph.dynamic:DeltaOverlayGraph.compact", compact)
        # Only the serve loop's single-source fallback runs adaptive_run here.
        patches.replace("repro.serve.batch:adaptive_run", fallback)

    def reset(self):
        self.frames: List[BatchFrame] = []
        self.rows = []
        self.compactions = []
        self.fallbacks = []

    def close(self):
        self._patches.undo()


class Serve:
    """A closed loop of logical clients against one continuous
    ``ServeLoop`` over the weighted sns analogue, with seeded mutation
    batches applied at super-iteration barriers."""

    name = "serve"
    SCALE = 0.02
    CLIENTS = 16
    FRAME_ROWS = 8
    QUEUE_CAPACITY = 64
    QUERIES = 256
    SOURCE_POOL = 8
    MUTATE_EVERY = 64
    MUTATION_EDGES = 32

    def __init__(self):
        self.hooks = _ServeHooks()

    def close(self):
        self.hooks.close()

    def setup(self, seed: int) -> dict:
        graph = make_dataset("sns", scale=self.SCALE, weighted=True, seed=seed)
        rng = np.random.default_rng([seed, 2])
        members = _largest_component(graph, "strong")
        pool = rng.choice(members, self.SOURCE_POOL, replace=False)
        # Every (algorithm, source) pair equally often, in seeded order.
        pairs = [(alg, int(src)) for alg in ("bfs", "sssp") for src in pool]
        order = rng.permutation(np.arange(self.QUERIES) % len(pairs))
        queries = [pairs[i] for i in order]
        batches = self._mutations(graph, rng)
        session = GraphSession(graph, device=DEVICE)
        return {"seed": seed, "graph": graph, "queries": queries,
                "batches": batches, "session": session}

    def _mutations(self, graph: CSRGraph, rng) -> List[List[MutationOp]]:
        """Strict-valid batches: each deletes edges present and inserts
        edges absent in the graph version it lands on."""
        n = graph.num_nodes
        src = np.repeat(np.arange(n, dtype=np.int64), graph.out_degrees)
        present = np.sort(src * n + graph.col_indices)
        present = present[np.concatenate([[True], present[1:] != present[:-1]])]
        count = self.QUERIES // self.MUTATE_EVERY - 1
        batches = []
        for _ in range(count):
            deletes = rng.choice(present, self.MUTATION_EDGES, replace=False)
            inserts: List[int] = []
            while len(inserts) < self.MUTATION_EDGES:
                u, v = (int(x) for x in rng.integers(0, n, 2))
                key = u * n + v
                if u != v and not _contains(present, key) and key not in inserts:
                    inserts.append(key)
            weights = rng.integers(1, 101, self.MUTATION_EDGES)
            ops = [MutationOp(op="insert", u=k // n, v=k % n, weight=float(w),
                              line=i + 1)
                   for i, (k, w) in enumerate(zip(inserts, weights))]
            ops += [MutationOp(op="delete", u=int(k // n), v=int(k % n),
                               line=len(ops) + i + 1)
                    for i, k in enumerate(deletes)]
            batches.append(ops)
            present = np.sort(np.concatenate(
                [present[~_member(present, np.sort(deletes))], inserts]))
        return batches

    def run_pass(self, state, recorder=None) -> PassResult:
        if recorder is not None:
            with recorder.root("setup"):
                session = self.setup(state["seed"])["session"]
        else:
            # The set-up's session serves the first pass; mutations re-key
            # it, so each later pass gets a new one, built untimed.
            session = state.pop("session", None) or GraphSession(
                state["graph"], device=DEVICE)
        gc.collect()
        self.hooks.reset()
        if recorder is not None:
            with recorder.root("serve"):
                return self._closed_loop(state, session)
        return self._closed_loop(state, session)

    def _closed_loop(self, state, session) -> PassResult:
        queries, batches = state["queries"], state["batches"]
        total, clients = len(queries), self.CLIENTS
        loop = ServeLoop(session, queue_capacity=self.QUEUE_CAPACITY,
                         max_batch_rows=self.FRAME_ROWS, scheduler="continuous",
                         mutation_mode="strict")
        out = PassResult(wall_s=0.0, attempted=total + len(batches))
        next_query = list(range(clients))  # client c sends c, c+16, ...
        seq_to_query: Dict[int, int] = {}
        submitted_at = [0.0] * total
        answers: List[Optional[dict]] = [None] * total
        submitted = 0

        def submit(client: int) -> None:
            nonlocal submitted
            index = next_query[client]
            if index >= total:
                return
            next_query[client] += clients
            algorithm, source = queries[index]
            submitted += 1
            seq_to_query[submitted] = index  # the queue numbers offers 1, 2, ...
            submitted_at[index] = time.perf_counter()
            loop.submit(BatchQuery(algorithm=algorithm, source=source))
            batch_no = submitted // self.MUTATE_EVERY
            if submitted % self.MUTATE_EVERY == 0 and batch_no <= len(batches):
                loop.submit_mutation(EdgeBatch(batches[batch_no - 1],
                                               path=f"batch{batch_no}"))

        start = time.perf_counter()
        answered = 0
        try:
            for client in range(min(clients, total)):
                submit(client)
            while answered < total:
                progressed = loop.pump()
                now = time.perf_counter()
                for doc in loop.take_responses():
                    index = seq_to_query.get(doc["seq"])
                    if index is None or answers[index] is not None:
                        out.errors.append(f"unexpected response seq {doc['seq']}")
                        continue
                    answers[index] = doc
                    out.latencies_s.append(now - submitted_at[index])
                    answered += 1
                    submit(index % clients)
                if not progressed and not loop.busy:
                    out.errors.append(f"serve loop idle with {total - answered} "
                                      "queries unanswered")
                    break
            loop.drain()
        except Exception as exc:  # the pass fails; the run goes on
            out.errors.append(f"serve loop: {type(exc).__name__}: {exc}")
        out.wall_s = time.perf_counter() - start
        report = loop.finalize()
        self._collect(out, loop, report, queries, answers)
        return out

    def _collect(self, out: PassResult, loop, report, queries, answers) -> None:
        hooks = self.hooks
        records = []
        for index, doc in enumerate(answers):
            if doc is None:
                out.errors.append(f"query {index}: no response")
                records.append(None)
                continue
            records.append([doc["algorithm"], doc["source"], doc["graph_epoch"],
                            doc["path"], doc.get("values_sha256")])
            if (doc["algorithm"], doc["source"]) != queries[index]:
                out.errors.append(f"query {index}: answered {doc['algorithm']}"
                                  f"@{doc['source']}, sent {queries[index]}")
                continue
            if not doc["ok"]:
                out.errors.append(f"query {index}: {doc['path']}: {doc.get('error')}")
                continue
            out.sim_latencies_s.append(doc["latency_sim_s"])
            out.answers[index] = doc
        if report.mutations_rejected:
            out.errors.append(f"{report.mutations_rejected} mutation batches rejected")
        # The batch share comes from the frames' own timelines: the
        # report's batch_sim_seconds counts only what step() charges,
        # not the admission uploads and value readbacks.
        batch = SimLedger().extend(frame.timeline for frame in hooks.frames)
        fallback = SimLedger().extend(r.traversal.timeline for r in hooks.fallbacks)
        compaction = SimLedger()
        for result in hooks.compactions:
            compaction.add_host(result.host_seconds)
            compaction.add_transfer(result.transfer)
        out.ledger = SimLedger()
        for part in (batch, fallback, compaction):
            out.ledger.absorb(part)
        out.sim_reported = loop.sim_now
        traces = [r.trace for r in hooks.rows] + [r.trace for r in hooks.fallbacks]
        iterations = [rec for r in hooks.rows for rec in r.iterations]
        iterations += [rec for r in hooks.fallbacks for rec in r.traversal.iterations]
        super_iterations = sum(frame.super_iterations for frame in hooks.frames)
        out.counts = {
            "core.decisions": sum(t.num_decisions for t in traces if t is not None),
            "core.switches": sum(t.num_switches for t in traces if t is not None),
            "engine.iterations": super_iterations,
            "engine.rows_per_step": (
                sum(len(r.iterations) for r in hooks.rows) / super_iterations
                if super_iterations else 0.0),
            "kernels.edges_scanned": sum(r.edges_scanned for r in iterations),
            "improved": sum(r.improved_relaxations for r in iterations),
            "serve.queue_depth_max": report.queue_depth_high_water,
            "serve.fallbacks": report.fallbacks,
            "serve.mutation_barriers": sum(
                1 for e in report.mutation_events if e.get("ok")),
            "serve.sim_batch_s": batch.seconds,
            "serve.sim_fallback_s": fallback.seconds,
            "serve.sim_compaction_s": compaction.seconds,
            "serve.sim_batch_unreported_s": float(
                batch.total - Fraction(report.batch_sim_seconds)),
        }
        out.record = {
            "answers": records,
            "sim_hex": float(loop.sim_now).hex(),
            "launches": out.ledger.launches,
            "decisions": out.counts["core.decisions"],
        }
        hooks.reset()

    # -- references ------------------------------------------------------

    def references(self, state, passes) -> dict:
        """Digest of the registry's serial CPU reference (``cpu_exact``
        for BFS and SSSP, so bit-identical to a correct single-source
        run) for every (graph epoch, algorithm, source) some pass
        answered.  The epoch graphs are rebuilt from the benchmark's own
        edge lists, not by the program's overlay."""
        needed = sorted({(doc["graph_epoch"], doc["algorithm"], doc["source"])
                         for result in passes for doc in result.answers.values()
                         if doc is not None})
        graph = state["graph"]
        n = graph.num_nodes
        src = np.repeat(np.arange(n, dtype=np.int64), graph.out_degrees)
        dst = graph.col_indices.astype(np.int64)
        weights = graph.weights.astype(np.float64)
        refs, epoch = {}, 0
        epoch_graph = graph
        for key in needed:
            while epoch < key[0]:
                ops = state["batches"][epoch]
                epoch += 1
                gone = np.sort([op.u * n + op.v for op in ops if op.op == "delete"])
                keep = ~_member(src * n + dst, gone)
                added = [op for op in ops if op.op == "insert"]
                src = np.concatenate([src[keep], [op.u for op in added]])
                dst = np.concatenate([dst[keep], [op.v for op in added]])
                weights = np.concatenate([weights[keep], [op.weight for op in added]])
                order = np.argsort(src, kind="stable")
                offsets = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=n))])
                epoch_graph = CSRGraph(offsets, dst[order], weights[order],
                                       name=f"{graph.name}@{epoch}")
            values, _ = get_algorithm(key[1]).cpu_run(epoch_graph, key[2])
            refs[key] = values_sha256(values)
        return refs

    def check(self, state, refs, result: PassResult) -> List[str]:
        errors = []
        for index, doc in result.answers.items():
            if doc is None:
                continue  # an exact repeat of a checked pass
            key = (doc["graph_epoch"], doc["algorithm"], doc["source"])
            if doc["values_sha256"] != refs.get(key):
                errors.append(f"query {index} {key}: digest differs from the "
                              "CPU reference")
        return errors


WORKLOADS = {"road": Road, "analytics": Analytics, "serve": Serve}
