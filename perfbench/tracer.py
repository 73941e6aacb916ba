"""Outside-in span recorder for the traced benchmark run.

The benchmark does not instrument the program.  It wraps named public
functions of each layer for the duration of a traced pass and records
one span per call: name, start, end and the span that was open when
the call began (its parent).  A span's *self time* is its duration
minus the time its child spans cover; calls on one thread nest, so the
children never overlap and the self times of all spans (the benchmark's
own root spans included) add up to the traced wall time.

A function is patched at every name its callers bind: the defining
module and every other ``repro`` module that imported it with ``from
... import``.  Methods are patched on their class, which is where an
instance call looks them up.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

#: layer metric name -> the functions it times, as "module:attribute"
#: ("module:Class.method" for methods)
LAYER_FUNCTIONS: Dict[str, Tuple[str, ...]] = {
    "graph.is_symmetric": ("repro.graph.properties:is_symmetric",),
    "graph.rank_oriented": ("repro.graph.transforms:rank_oriented_adjacency",),
    "graph.overlay_apply": ("repro.graph.dynamic:DeltaOverlayGraph.apply",),
    "graph.compact": ("repro.graph.dynamic:DeltaOverlayGraph.compact",),
    "graph.build": ("repro.graph.builder:from_edge_list",),
    "core.policy_choose": ("repro.core.policies:AdaptivePolicy.choose",),
    "core.policy_notify": ("repro.core.policies:AdaptivePolicy.notify",),
    "kernels.relax": (
        "repro.kernels.computation:bfs_relax",
        "repro.kernels.computation:sssp_relax",
    ),
    "kernels.whole_graph_step": (
        "repro.kernels.cc:cc_step",
        "repro.kernels.pagerank:pagerank_step",
        "repro.kernels.kcore:kcore_peel_step",
    ),
    "kernels.triangles_compute": ("repro.kernels.triangles:TrianglesSpec.compute",),
    "kernels.tally": (
        "repro.kernels.mapping:computation_tally",
        "repro.kernels.workset:workset_gen_tallies",
    ),
    "gpusim.price": ("repro.gpusim.kernel:CostModel.price",),
    "engine.frame": ("repro.engine.driver:run_frame",),
    "engine.batch_step": ("repro.engine.batch:BatchFrame.step",),
    "obs.manifest": ("repro.obs.manifest:build_manifest",),
    "serve.pump": ("repro.serve.loop:ServeLoop.pump",),
    "serve.admission": (
        "repro.serve.admission:AdmissionQueue.offer",
        "repro.serve.admission:AdmissionQueue.pop",
    ),
    "serve.session_refresh": ("repro.serve.session:GraphSession.refresh",),
}

#: modules whose ``from ... import`` bindings must exist before patching
_CALLER_MODULES = (
    "repro.core.runtime",
    "repro.core.oracle",
    "repro.engine.batch",
    "repro.engine.incremental",
    "repro.kernels.frame",
    "repro.kernels.cc",
    "repro.kernels.pagerank",
    "repro.kernels.kcore",
    "repro.kernels.triangles",
    "repro.kernels.multisource",
    "repro.serve.loop",
)


class Patches:
    """Replacements applied to the program, undone in reverse order."""

    def __init__(self):
        self._undo: List[Tuple[object, str, object]] = []

    def replace(self, target: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``module:attr`` (or ``module:Class.method``) with
        ``make(original)``.  A module function is rebound in every
        ``repro`` module that holds the same object."""
        module_name, _, path = target.partition(":")
        module = importlib.import_module(module_name)
        owner_name, _, method = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[method]
            self._set(owner, method, make(original))
            return
        original = getattr(module, path)
        wrapped = make(original)
        holders = [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "repro" or name.startswith("repro."))
        ]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._set(holder, key, wrapped)

    def _set(self, holder, key: str, value) -> None:
        self._undo.append((holder, key, getattr(holder, key)))
        setattr(holder, key, value)

    def undo(self) -> None:
        while self._undo:
            holder, key, value = self._undo.pop()
            setattr(holder, key, value)


class SpanRecorder:
    """Spans kept in memory; per-name call counts and self times."""

    def __init__(self):
        #: [name, start, end, parent index or -1]
        self.spans: List[list] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        #: wall seconds covered by root spans (the traced wall)
        self.root_s = 0.0
        #: open spans: [index, seconds covered by finished children]
        self._stack: List[list] = []
        #: wrappers record only inside :meth:`tracing`; a module that
        #: imported a wrapper while it was installed keeps it afterwards
        self._active = False

    def enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([len(self.spans), 0.0])
        self.spans.append([name, time.perf_counter(), 0.0, parent])

    def exit(self) -> None:
        end = time.perf_counter()
        index, children = self._stack.pop()
        span = self.spans[index]
        span[2] = end
        duration = end - span[1]
        self.calls[span[0]] += 1
        self.self_s[span[0]] += duration - children
        if self._stack:
            self._stack[-1][1] += duration
        else:
            self.root_s += duration

    @contextlib.contextmanager
    def root(self, name: str):
        """One of the benchmark's own root spans."""
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder._active:
                return fn(*args, **kwargs)
            recorder.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.exit()

        return wrapper

    @contextlib.contextmanager
    def tracing(self):
        """Wrap every function of :data:`LAYER_FUNCTIONS` for the body."""
        for module_name in _CALLER_MODULES:
            importlib.import_module(module_name)
        patches = Patches()
        try:
            for layer, targets in LAYER_FUNCTIONS.items():
                for target in targets:
                    patches.replace(
                        target, lambda fn, layer=layer: self._wrap(layer, fn)
                    )
            self._active = True
            yield
        finally:
            self._active = False
            patches.undo()

    def check_closure(self) -> float:
        """How far the self times miss the traced wall (0 when every
        second is attributed exactly once)."""
        return abs(sum(self.self_s.values()) - self.root_s)

    def write(self, path) -> None:
        """Write every span as ``[name, start, end, parent]`` rows."""
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh, separators=(",", ":"))
