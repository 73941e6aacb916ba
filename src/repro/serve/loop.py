"""The fault-isolated continuous-batching serve loop.

:class:`ServeLoop` is the resilient core behind ``repro serve``.  It
connects four pieces the rest of the stack already provides:

- an :class:`~repro.serve.admission.AdmissionQueue` in front — bounded,
  priority-aware, deadline clocks armed at **admission** so queue wait
  burns budget;
- a long-lived :class:`~repro.engine.batch.BatchFrame` in the middle —
  new queries join the fused slab at the next super-iteration
  (*continuous batching*) instead of waiting for the running batch to
  drain, and a fault attributable to one query ejects only that row;
- the guarded single-source fallback
  (:func:`~repro.reliability.guard.guarded_query`) behind it — ejected
  and unbatchable queries are re-run in isolation;
- a :class:`~repro.reliability.CircuitBreaker` across both paths —
  a (path, algorithm, mode) combination that keeps failing is routed
  around (batch rows go straight to the fallback; a broken fallback is
  answered with an explicit error) instead of failing again per query.

Invariants the chaos harness (:mod:`repro.serve.chaos`) asserts:

1. **No crash** — every failure mode becomes an error *response*.
2. **Exactly once** — every submitted query produces exactly one
   response (shed, deadline, error or value), keyed by ``seq``.
3. **Isolation** — queries untouched by faults answer SHA-identical to
   a fault-free run (the engine fuses pricing, never values).

Two scheduler modes exist so the benefit is measurable
(``benchmarks/bench_serve_slo.py``): ``"continuous"`` admits queued
queries into the live frame before every super-iteration;
``"drain"`` is the classic drain-then-refill baseline that only admits
when the frame is empty.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Union

from repro.errors import GraphError, ReproError
from repro.graph.dynamic import DeltaOverlayGraph, EdgeBatch
from repro.obs.context import current_observer
from repro.obs.manifest import RunManifest, build_serve_manifest
from repro.reliability.breaker import CircuitBreaker
from repro.serve.admission import AdmissionQueue, AdmittedQuery
from repro.serve.batch import BatchQuery, BatchRunner, _sha256
from repro.serve.session import GraphSession, SessionCache

__all__ = ["ServeLoop", "ServeReport", "percentile"]

#: response ``path`` values, the full vocabulary
RESPONSE_PATHS = ("batch", "fallback", "shed", "deadline", "error")

_SCHEDULERS = ("continuous", "drain")


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]); 0.0 for no samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(round(q / 100.0 * (len(ordered) - 1)))))
    return float(ordered[rank])


@dataclass
class ServeReport:
    """The session's SLO story, JSON-shaped for the serve manifest."""

    scheduler: str
    submitted: int = 0
    admitted: int = 0
    answered: int = 0
    ok: int = 0
    shed: int = 0
    deadline_misses: int = 0
    fallbacks: int = 0
    rows_ejected: int = 0
    errors: int = 0
    super_iterations: int = 0
    queue_depth_high_water: int = 0
    batch_sim_seconds: float = 0.0
    fallback_sim_seconds: float = 0.0
    wall_latencies_s: List[float] = field(default_factory=list)
    sim_latencies_s: List[float] = field(default_factory=list)
    breaker: dict = field(default_factory=dict)
    breaker_transitions: List[dict] = field(default_factory=list)
    #: mutation batches applied at super-iteration barriers
    mutations_applied: int = 0
    #: rejected mutation batches (validation failures become events,
    #: never crashes)
    mutations_rejected: int = 0
    #: the session's final graph epoch (0 = never mutated)
    graph_epoch: int = 0
    #: one event dict per mutation barrier (counts, digests, pricing)
    mutation_events: List[dict] = field(default_factory=list)

    @property
    def total_sim_seconds(self) -> float:
        return self.batch_sim_seconds + self.fallback_sim_seconds

    def result_dict(self) -> dict:
        """The manifest's free-form ``result`` payload."""
        return {
            "kind": "serve",
            "scheduler": self.scheduler,
            "submitted": self.submitted,
            "admitted": self.admitted,
            "answered": self.answered,
            "ok": self.ok,
            "errors": self.errors,
            "shed": self.shed,
            "deadline_misses": self.deadline_misses,
            "fallbacks": self.fallbacks,
            "rows_ejected": self.rows_ejected,
            "super_iterations": self.super_iterations,
            "queue_depth_high_water": self.queue_depth_high_water,
            "total_sim_seconds": float(self.total_sim_seconds),
            "batch_sim_seconds": float(self.batch_sim_seconds),
            "fallback_sim_seconds": float(self.fallback_sim_seconds),
            "latency_wall_s": {
                "p50": percentile(self.wall_latencies_s, 50),
                "p99": percentile(self.wall_latencies_s, 99),
                "max": max(self.wall_latencies_s, default=0.0),
            },
            "latency_sim_s": {
                "p50": percentile(self.sim_latencies_s, 50),
                "p99": percentile(self.sim_latencies_s, 99),
                "max": max(self.sim_latencies_s, default=0.0),
            },
            "breaker": self.breaker,
            "breaker_transitions": self.breaker_transitions,
            "mutations_applied": self.mutations_applied,
            "mutations_rejected": self.mutations_rejected,
            "graph_epoch": self.graph_epoch,
            "mutation_events": self.mutation_events,
        }


class ServeLoop:
    """Admission → continuous batch frame → guarded fallback, with a
    circuit breaker across the seams.

    Drive it with :meth:`submit` per query, :meth:`pump` to make
    progress (one super-iteration plus any fallback work), and
    :meth:`drain` to run everything to completion.  Responses accumulate
    in order of *completion* and are collected with
    :meth:`take_responses` — each is a JSON-shaped dict carrying the
    query's ``seq``/``line``, its ``path`` (one of
    :data:`RESPONSE_PATHS`), and admission-to-answer latencies.
    """

    def __init__(
        self,
        session: GraphSession,
        *,
        queue_capacity: int = 64,
        max_batch_rows: int = 32,
        default_deadline_s: Optional[float] = None,
        scheduler: str = "continuous",
        max_iterations: Optional[int] = None,
        fault_injector=None,
        breaker: Optional[CircuitBreaker] = None,
        clock: Callable[[], float] = time.monotonic,
        cache: Optional[SessionCache] = None,
        mutation_mode: Optional[str] = "strict",
    ):
        if scheduler not in _SCHEDULERS:
            raise ReproError(
                f"unknown scheduler {scheduler!r} (choose from {_SCHEDULERS})"
            )
        if max_batch_rows < 1:
            raise ReproError(
                f"max_batch_rows must be >= 1, got {max_batch_rows}"
            )
        if default_deadline_s is not None and default_deadline_s <= 0:
            raise ReproError(
                f"default deadline must be positive, got {default_deadline_s}"
            )
        self.session = session
        self.scheduler = scheduler
        self.max_batch_rows = max_batch_rows
        self.default_deadline_s = default_deadline_s
        self.fault_injector = fault_injector
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self._clock = clock
        self.queue = AdmissionQueue(capacity=queue_capacity, clock=clock)
        self._runner = BatchRunner(session, max_iterations=max_iterations)
        self._frame = None
        #: BatchFrame row index -> AdmittedQuery (exactly-once ledger)
        self._in_flight: Dict[int, AdmittedQuery] = {}
        self._responses: List[dict] = []
        self.report = ServeReport(scheduler=scheduler)
        #: live graph mutation state (``repro serve --mutations``)
        self.cache = cache
        self.mutation_mode = mutation_mode
        self.graph_epoch = 0
        self._pending_mutations: List[EdgeBatch] = []
        #: simulated seconds of frames already retired at mutation
        #: barriers plus compaction work — keeps :attr:`sim_now`
        #: monotonic across frame rebuilds
        self._retired_sim_seconds = 0.0
        #: timelines of the frames retired at mutation barriers (the
        #: batch share of :attr:`_retired_sim_seconds`)
        self._retired_frame_seconds = 0.0

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(
        self, query: Union[BatchQuery, dict], *, line: Optional[int] = None
    ) -> None:
        """Offer one query to the admission queue.

        Malformed *query* dicts raise
        :class:`~repro.errors.RuntimeConfigError` — a protocol error the
        caller turns into its own error response.  Overload never
        raises: shed queries get explicit shed responses.
        """
        if not isinstance(query, BatchQuery):
            query = BatchQuery.from_dict(query)
        self.report.submitted += 1
        deadline = (
            query.deadline_s
            if query.deadline_s is not None
            else self.default_deadline_s
        )
        outcome = self.queue.offer(
            query, line=line, deadline_s=deadline, sim_now=self.sim_now
        )
        if outcome.shed is not None:
            self._respond_shed(outcome.shed)
        self._note_queue_depth()

    # ------------------------------------------------------------------
    # Progress
    # ------------------------------------------------------------------

    @property
    def sim_now(self) -> float:
        """The loop's simulated clock: retired frames + the live batch
        timeline + fallback runs + compaction work."""
        batch = self._frame.timeline.total_seconds if self._frame else 0.0
        return self._retired_sim_seconds + batch + self.report.fallback_sim_seconds

    @property
    def batch_sim_seconds(self) -> float:
        """Simulated seconds on the batch frames' timelines: every
        step plus the admission uploads and value readbacks that
        ``admit``/``take_finished`` charge to the same frames."""
        live = self._frame.timeline.total_seconds if self._frame else 0.0
        return self._retired_frame_seconds + live

    @property
    def busy(self) -> bool:
        """Work outstanding: queued entries, live frame rows or
        mutation batches awaiting their barrier."""
        if len(self.queue) or self._pending_mutations:
            return True
        return bool(self._frame is not None and self._in_flight)

    def pump(self) -> bool:
        """One scheduling round: expire overdue queue entries, apply
        pending mutations at the barrier (the frame drained), admit
        into the frame (continuous: always; drain: only when the frame
        is empty), run one super-iteration, route whatever finished.
        Returns True when it made progress."""
        progressed = False
        for entry in self.queue.expire_overdue():
            self._respond_deadline(
                entry, "deadline exceeded while queued "
                f"(budget {entry.deadline_s} s)"
            )
            progressed = True

        # Mutation barrier: pending batches stall admission; once the
        # live rows drain, the graph epoch advances and the frame is
        # rebuilt on the compacted graph.  Every in-flight query keeps
        # the graph it was dispatched on (exactly-once untouched).
        if self._pending_mutations and not self._in_flight:
            self._apply_mutations()
            progressed = True

        admit_ok = not self._pending_mutations and (
            self.scheduler == "continuous" or not self._in_flight
        )
        if admit_ok and len(self.queue):
            taken = self.queue.pop(
                self.max_batch_rows - len(self._in_flight)
            )
            for entry in taken:
                self._dispatch(entry)
                progressed = True

        if self._frame is not None and self._in_flight:
            stepped = self._step_frame()
            progressed = progressed or stepped
            for outcome in self._frame.take_finished():
                entry = self._in_flight.pop(outcome.index, None)
                if entry is None:  # pragma: no cover - ledger invariant
                    continue
                self._route_outcome(entry, outcome)
                progressed = True
        return progressed

    def drain(self) -> None:
        """Run until every submitted query has been answered."""
        while self.busy:
            if not self.pump():  # pragma: no cover - liveness backstop
                raise ReproError(
                    "serve loop stalled with work outstanding "
                    f"({len(self.queue)} queued, "
                    f"{len(self._in_flight)} in flight)"
                )

    def take_responses(self) -> List[dict]:
        """Responses completed since the last call, completion-ordered."""
        out, self._responses = self._responses, []
        return out

    # ------------------------------------------------------------------
    # Graph mutations (applied at super-iteration barriers)
    # ------------------------------------------------------------------

    def submit_mutation(self, batch: EdgeBatch) -> None:
        """Queue one mutation batch for the next barrier.

        The batch is held until the live frame drains, then applied
        through the delta overlay, compacted (priced: host rebuild +
        delta PCIe upload burn simulated time, so deadline clocks feel
        mutations), and the session is patched in place — the next
        dispatch runs on the new graph epoch.
        """
        self._pending_mutations.append(batch)

    def _apply_mutations(self) -> None:
        """The barrier: fold every pending batch into the session.

        A batch that fails validation becomes a rejected mutation
        *event* (invariant 1: failures never crash the loop); the
        remaining batches still apply.  All surviving batches share one
        compaction and one epoch bump.
        """
        batches, self._pending_mutations = self._pending_mutations, []
        # Retire the drained frame's timeline into the monotonic base
        # before rebuilding it on the new graph.
        if self._frame is not None:
            self._retired_sim_seconds += self._frame.timeline.total_seconds
            self._retired_frame_seconds += self._frame.timeline.total_seconds
            self._frame = None
        overlay = DeltaOverlayGraph(self.session.graph)
        deltas = []
        for batch in batches:
            try:
                deltas.append(overlay.apply(batch, mode=self.mutation_mode))
            except GraphError as exc:
                self.report.mutations_rejected += 1
                self.report.mutation_events.append(
                    {
                        "ok": False,
                        "graph_epoch": self.graph_epoch,
                        "error": str(exc),
                        "ops": len(batch.ops),
                        "path": batch.path,
                    }
                )
        if not deltas:
            return
        old_digest = self.session.digest
        compaction = overlay.compact(
            device=self.session.device, name=self.session.graph.name
        )
        self._retired_sim_seconds += compaction.seconds
        if self.cache is not None:
            self.cache.patch(self.session, compaction.graph)
        else:
            self.session.refresh(compaction.graph)
        # One epoch per applied batch (even when a barrier coalesces
        # several): epoch k always names the graph after the first k
        # batches, which is what the chaos harness verifies against.
        self.graph_epoch += len(deltas)
        self.report.mutations_applied += len(deltas)
        self.report.graph_epoch = self.graph_epoch
        event = {
            "ok": True,
            "graph_epoch": self.graph_epoch,
            "batches": len(deltas),
            "edges_inserted": sum(d.num_inserts for d in deltas),
            "edges_deleted": sum(d.num_deletes for d in deltas),
            "nodes_added": sum(d.nodes_added for d in deltas),
            "old_digest": old_digest,
            "new_digest": self.session.digest,
            "compaction_seconds": float(compaction.seconds),
            "delta_bytes": int(compaction.delta_bytes),
        }
        self.report.mutation_events.append(event)
        observer = current_observer()
        if observer is not None:
            observer.metrics.counter("serve.mutation_barriers").inc()
            observer.metrics.gauge("dynamic.epoch").set(self.graph_epoch)

    # ------------------------------------------------------------------
    # Dispatch: queue entry -> batch row or fallback
    # ------------------------------------------------------------------

    def _dispatch(self, entry: AdmittedQuery) -> None:
        query = entry.query
        try:
            plan = self._runner._route(query)
        except ReproError as exc:
            self._respond_error(entry, str(exc))
            return
        batch_key = ("batch", query.algorithm, query.mode)
        if plan is not None and self.breaker.allow(batch_key):
            frame = self._ensure_frame()
            row = frame.admit(
                [plan], watchdogs=[entry.watchdog], isolate_capacity=True
            )[0]
            self._in_flight[row.index] = entry
            return
        # Unbatchable, or the batch path's circuit is open.
        self._fallback(entry, reason=None)

    def _ensure_frame(self):
        if self._frame is None:
            from repro.engine.batch import BatchFrame

            self._frame = BatchFrame(
                self.session.graph,
                device=self.session.device,
                max_iterations=self._runner.max_iterations,
                queue_gen=self.session.config.queue_gen,
                fault_hook=self.fault_injector,
            )
        return self._frame

    def _step_frame(self) -> bool:
        if self.fault_injector is not None:
            with self.fault_injector.installed():
                stepped = self._frame.step()
        else:
            stepped = self._frame.step()
        self.report.super_iterations = self._frame.super_iterations
        return stepped

    # ------------------------------------------------------------------
    # Routing finished rows
    # ------------------------------------------------------------------

    def _route_outcome(self, entry: AdmittedQuery, outcome) -> None:
        query = entry.query
        batch_key = ("batch", query.algorithm, query.mode)
        if outcome.ok:
            self.breaker.record_success(batch_key)
            # Latency on the simulated clock, admission to completion:
            # queue wait while earlier batches ran counts (that is the
            # whole continuous-vs-drain story), plus the row's share of
            # every pass it rode (outcome.sim_seconds is the in-frame
            # part alone).
            self._respond_ok(
                entry, path="batch", values=outcome.values,
                iterations=outcome.num_iterations,
                sim_latency=max(0.0, self.sim_now - entry.admitted_sim),
            )
            return
        if outcome.ejected and outcome.eject_kind == "deadline":
            self._respond_deadline(entry, outcome.error)
            return
        if outcome.ejected:  # kind == "fault"
            self.breaker.record_failure(batch_key)
            self.report.rows_ejected += 1
            self._fallback(entry, reason=outcome.error)
            return
        if outcome.error.startswith("admission refused"):
            # No room on the device for another row: the fallback runs
            # it alone (its own h2d, its own timeline).
            self._fallback(entry, reason=None)
            return
        # Plain per-query error (validation, iteration cap): the query's
        # own fault — answer it, leave the breaker alone.
        self._respond_error(entry, outcome.error)

    # ------------------------------------------------------------------
    # The guarded fallback path
    # ------------------------------------------------------------------

    def _fallback(self, entry: AdmittedQuery, *, reason: Optional[str]) -> None:
        query = entry.query
        if entry.deadline_s is not None and entry.watchdog.remaining_s == 0.0:
            self._respond_deadline(
                entry, "deadline exceeded before fallback "
                f"(budget {entry.deadline_s} s)"
            )
            return
        key = ("fallback", query.algorithm, query.mode)
        if not self.breaker.allow(key):
            detail = f" (after {reason})" if reason else ""
            self._respond_error(
                entry,
                f"fallback circuit open for {query.algorithm}/{query.mode}"
                f"{detail}",
            )
            return
        if self.fault_injector is not None:
            with self.fault_injector.installed():
                result = self._runner._run_single(entry.seq, query)
        else:
            result = self._runner._run_single(entry.seq, query)
        self.report.fallback_sim_seconds += result.seconds
        self.report.fallbacks += 1
        observer = current_observer()
        if observer is not None:
            observer.metrics.counter("serve.fallbacks").inc()
        if result.ok:
            self.breaker.record_success(key)
            self._respond_ok(
                entry, path="fallback", values=result.values,
                iterations=result.iterations,
                sim_latency=max(0.0, self.sim_now - entry.admitted_sim),
            )
        else:
            self.breaker.record_failure(key)
            self._respond_error(entry, result.error)

    # ------------------------------------------------------------------
    # Responses (the only way a query leaves the loop)
    # ------------------------------------------------------------------

    def _base_response(self, entry: AdmittedQuery, path: str) -> dict:
        return {
            "seq": entry.seq,
            "line": entry.line,
            "algorithm": entry.query.algorithm,
            "source": entry.query.source,
            "mode": entry.query.mode,
            "priority": entry.priority,
            "deadline_s": entry.deadline_s,
            "path": path,
            "graph_epoch": self.graph_epoch,
            "latency_wall_s": max(0.0, self._clock() - entry.admitted_at),
        }

    def _emit(self, doc: dict) -> None:
        self._responses.append(doc)
        self.report.answered += 1
        if doc["ok"]:
            self.report.ok += 1
        else:
            self.report.errors += 1
        self.report.wall_latencies_s.append(doc["latency_wall_s"])
        self.report.sim_latencies_s.append(doc.get("latency_sim_s", 0.0))
        observer = current_observer()
        if observer is not None:
            observer.metrics.counter("serve.answered").inc()
            observer.metrics.histogram("serve.latency_wall_s").observe(
                doc["latency_wall_s"]
            )
            observer.metrics.histogram("serve.latency_sim_s").observe(
                doc.get("latency_sim_s", 0.0)
            )
        self._note_queue_depth()

    def _respond_ok(
        self, entry: AdmittedQuery, *, path: str, values, iterations: int,
        sim_latency: float,
    ) -> None:
        doc = self._base_response(entry, path)
        doc.update(
            ok=True,
            iterations=iterations,
            values_sha256=_sha256(values),
            latency_sim_s=float(sim_latency),
        )
        self._emit(doc)

    def _respond_error(self, entry: AdmittedQuery, message: str) -> None:
        doc = self._base_response(entry, "error")
        doc.update(ok=False, values_sha256=None, error=message)
        self._emit(doc)

    def _respond_deadline(self, entry: AdmittedQuery, message: str) -> None:
        self.report.deadline_misses += 1
        observer = current_observer()
        if observer is not None:
            observer.metrics.counter("serve.deadline_misses").inc()
        doc = self._base_response(entry, "deadline")
        doc.update(ok=False, values_sha256=None, error=message)
        self._emit(doc)

    def _respond_shed(self, entry: AdmittedQuery) -> None:
        doc = self._base_response(entry, "shed")
        doc.update(
            ok=False,
            values_sha256=None,
            error=(
                "shed: admission queue full "
                f"(capacity {self.queue.capacity}); retry later"
            ),
        )
        self.report.shed += 1
        self._emit(doc)

    def _note_queue_depth(self) -> None:
        depth = len(self.queue)
        if depth > self.report.queue_depth_high_water:
            self.report.queue_depth_high_water = depth

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def finalize(self) -> ServeReport:
        """Freeze the report: admitted/shed totals, batch simulated
        seconds, breaker snapshot and transition history."""
        self.report.admitted = self.queue.admitted_total
        self.report.batch_sim_seconds = self.batch_sim_seconds
        self.report.shed = self.queue.shed_total
        self.report.breaker = self.breaker.snapshot()
        self.report.breaker_transitions = self.breaker.transition_log()
        return self.report

    def to_manifest(self, *, observer=None) -> RunManifest:
        """The session's :class:`~repro.obs.RunManifest` (mode
        ``serve``)."""
        self.finalize()
        return build_serve_manifest(
            self.report.result_dict(),
            graph=self.session.graph,
            device=self.session.device,
            config=self.session.config,
            observer=observer,
        )
