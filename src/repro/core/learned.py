"""Learned decision maker: fit offline from manifests, infer online.

The paper's decision maker is a hand-tuned rule (three thresholds over
two graph properties, Figure 11).  Merrill's follow-up line of work —
"Using Graph Properties to Speed-up GPU-based Graph Traversal: A
Model-driven Approach" (see PAPERS.md) — shows per-step *predictive
models* beat fixed heuristics, and everything needed for training
already rides in this library's :class:`~repro.obs.RunManifest`
documents: every decision's iteration index, working-set size, average
outdegree and memory pressure.  This module closes that loop:

1. **Features** (:data:`FEATURE_NAMES`) come straight from a manifest's
   per-iteration decision trace.
2. **Labels** are the oracle-best variant per decision, obtained by
   re-pricing all four unordered variants on a surrogate frontier
   reconstructed from the recorded properties — through the *same*
   :func:`~repro.kernels.mapping.computation_tally` /
   :func:`~repro.kernels.workset.workset_gen_tallies` /
   :class:`~repro.gpusim.kernel.CostModel` stack the per-iteration
   oracle uses (:func:`variant_costs`).
3. **Model**: a dependency-free, cost-sensitive CART
   (:func:`fit_policy`) whose splits minimize total *regret* — the sum
   of each leaf's best-single-variant cost — rather than label
   impurity, so a near-tie between variants never forces a split.
4. **Artifact**: a versioned, digest-pinned JSON document
   (:class:`PolicyArtifact`) that :class:`LearnedDecisionMaker` loads
   as a drop-in :class:`~repro.core.decision.DecisionMaker`
   replacement — including the memory-pressure overrides, which are
   *borrowed from* ``DecisionMaker`` rather than re-implemented.

``repro fit-policy runs/*.json --out policy.json`` drives the offline
step; ``repro run --policy learned:policy.json`` deploys the artifact.
See ``docs/learned-policy.md`` for the full workflow.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.decision import DecisionMaker
from repro.core.policies import AdaptivePolicy
from repro.errors import ReproError, RuntimeConfigError
from repro.gpusim.device import DeviceSpec, TESLA_C2070, device_registry
from repro.gpusim.kernel import CostModel, CostParams
from repro.kernels import costs as kcosts
from repro.kernels.mapping import ComputationShape, computation_tally
from repro.kernels.variants import Mapping, Variant, unordered_variants
from repro.kernels.workset import workset_gen_tallies
from repro.obs.manifest import RunManifest
from repro.utils.arrays import sorted_unique

__all__ = [
    "POLICY_SCHEMA_VERSION",
    "FEATURE_NAMES",
    "TrainingSample",
    "PolicyArtifact",
    "variant_costs",
    "extract_samples",
    "load_manifest_corpus",
    "fit_policy",
    "load_policy",
    "resolve_policy",
    "LearnedDecisionMaker",
    "LearnedPolicy",
]

#: bump when the artifact document shape changes incompatibly
POLICY_SCHEMA_VERSION = 1

#: the model family this build fits and evaluates
POLICY_KIND = "decision_tree"

#: per-decision features, in artifact column order — all recoverable
#: from a RunManifest's decision trace without re-running anything, and
#: all observable by the running policy *before* the iteration executes
#: ("growth" is the frontier's size relative to the previous decision's,
#: the momentum signal that predicts how big the next workset — and so
#: the generation kernel's bill — will be)
FEATURE_NAMES: Tuple[str, ...] = (
    "iteration",
    "workset_size",
    "workset_ratio",
    "avg_out_degree",
    "growth",
    "memory_pressure",
)


# ----------------------------------------------------------------------
# Labels: surrogate per-variant pricing
# ----------------------------------------------------------------------

def _surrogate_frontier(
    workset_size: int, avg_out_degree: float, num_nodes: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Reconstruct a frontier with the recorded aggregate properties.

    Node ids are spread evenly over the id space (a scattered frontier,
    the common case — warp packing under the bitmap representation is
    priced from the ids themselves); degrees are as uniform as integers
    allow while summing to ``round(workset_size * avg_out_degree)``.
    """
    size = max(1, min(int(workset_size), int(num_nodes)))
    ids = sorted_unique(
        np.linspace(0, max(0, num_nodes - 1), size).round().astype(np.int64)
    )
    edges = int(round(size * max(0.0, avg_out_degree)))
    base, extra = divmod(edges, size)
    degrees = np.full(size, base, dtype=np.int64)
    degrees[:extra] += 1
    if ids.size != size:  # collapsed duplicates: keep arrays parallel
        degrees = degrees[: ids.size]
    return ids, degrees


def variant_costs(
    workset_size: int,
    avg_out_degree: float,
    num_nodes: int,
    device: DeviceSpec = TESLA_C2070,
    *,
    updated_count: Optional[int] = None,
    weighted: bool = False,
    cost_params: Optional[CostParams] = None,
    candidates: Optional[Sequence[Variant]] = None,
) -> Dict[str, float]:
    """Price every candidate variant on a surrogate frontier.

    This is the per-iteration oracle's pricing loop
    (:func:`~repro.core.oracle.per_iteration_oracle`) applied to a
    frontier *reconstructed* from (size, average outdegree) instead of
    materialized by a traversal — which is exactly the information a
    manifest's decision trace records, so training labels can be
    derived offline from manifests alone.
    """
    if num_nodes <= 0:
        raise ReproError(f"num_nodes must be > 0, got {num_nodes}")
    DecisionMaker._check_inputs(workset_size, avg_out_degree)
    ids, degrees = _surrogate_frontier(workset_size, avg_out_degree, num_nodes)
    if updated_count is None:
        updated_count = int(ids.size)
    updated_count = max(0, min(int(updated_count), int(num_nodes)))
    model = CostModel(device, cost_params)
    shape = ComputationShape(
        name="policy_label",
        num_nodes=int(num_nodes),
        active_ids=ids,
        degrees=degrees,
        edge_cost=kcosts.C_EDGE_WEIGHTED if weighted else kcosts.C_EDGE,
        improved=updated_count,
        updated_count=updated_count,
        weight_streams=1 if weighted else 0,
    )
    out: Dict[str, float] = {}
    for variant in candidates if candidates is not None else unordered_variants():
        tpb = variant.threads_per_block(avg_out_degree, device)
        seconds = model.price(
            computation_tally(shape, variant.mapping, variant.workset, tpb, device)
        ).seconds
        for tally in workset_gen_tallies(
            int(num_nodes), updated_count, variant.workset, device
        ):
            seconds += model.price(tally).seconds
        out[variant.code] = seconds
    return out


# ----------------------------------------------------------------------
# Feature extraction from manifests
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TrainingSample:
    """One decision-trace row, featurized and labeled with per-variant
    costs (the label is implicit: the cost-minimal variant)."""

    features: Tuple[float, ...]
    costs: Dict[str, float]
    algorithm: str
    graph: str


def _device_for(manifest: RunManifest) -> DeviceSpec:
    """The device a manifest ran on, resolved from the registry by name
    (unknown or absent names fall back to the C2070 default)."""
    name = (manifest.device or {}).get("name")
    for spec in device_registry().values():
        if spec.name == name:
            return spec
    return TESLA_C2070


def extract_samples(
    manifest: RunManifest,
    *,
    cost_params: Optional[CostParams] = None,
) -> List[TrainingSample]:
    """Featurize and label every decision in one manifest's trace.

    Each decision contributes one sample; the *next* decision's
    working-set size stands in for the iteration's updated count (the
    generated frontier), which the trace would not otherwise record.
    Manifests without a decision trace (static, batch, serve modes)
    contribute nothing.
    """
    num_nodes = int(manifest.graph.get("num_nodes", 0))
    if num_nodes <= 0 or not manifest.decisions:
        return []
    device = _device_for(manifest)
    weighted = manifest.algorithm == "sssp"
    samples: List[TrainingSample] = []
    for i, decision in enumerate(manifest.decisions):
        ws = int(decision["workset_size"])
        deg = float(decision["avg_out_degree"])
        nxt = manifest.decisions[i + 1] if i + 1 < len(manifest.decisions) else None
        updated = int(nxt["workset_size"]) if nxt is not None else None
        prev = (
            int(manifest.decisions[i - 1]["workset_size"]) if i > 0 else ws
        )
        samples.append(
            TrainingSample(
                features=(
                    float(decision["iteration"]),
                    float(ws),
                    ws / num_nodes,
                    deg,
                    ws / max(1, prev),
                    float(decision.get("memory_pressure", 0.0)),
                ),
                costs=variant_costs(
                    ws,
                    deg,
                    num_nodes,
                    device,
                    updated_count=updated,
                    weighted=weighted,
                    cost_params=cost_params,
                ),
                algorithm=manifest.algorithm,
                graph=manifest.graph.get("name", "unknown"),
            )
        )
    return samples


def load_manifest_corpus(
    paths: Sequence[Union[str, os.PathLike]]
) -> List[Tuple[str, RunManifest]]:
    """Read a manifest corpus, failing loudly per file.

    Schema-version mismatches and malformed documents surface as one
    :class:`~repro.errors.ReproError` naming the offending file, so a
    stale corpus member cannot silently skew the fit.
    """
    corpus: List[Tuple[str, RunManifest]] = []
    for path in paths:
        try:
            corpus.append((str(path), RunManifest.read(path)))
        except (ValueError, OSError) as exc:
            raise ReproError(f"fit-policy: {path}: {exc}") from exc
    return corpus


# ----------------------------------------------------------------------
# Cost-sensitive tree fitting
# ----------------------------------------------------------------------

def _leaf(classes: Sequence[str], regret_matrix: np.ndarray) -> dict:
    totals = regret_matrix.sum(axis=0)
    best = int(np.argmin(totals))
    return {
        "variant": classes[best],
        "samples": int(regret_matrix.shape[0]),
        "regret": float(totals[best]),
    }


def _best_split(
    X: np.ndarray, regret_matrix: np.ndarray, min_samples_leaf: int
) -> Optional[Tuple[int, float, float]]:
    """The (feature, threshold, resulting-regret) split minimizing the
    sum of the two children's best-single-variant regrets; None when no
    legal split exists."""
    n = X.shape[0]
    best: Optional[Tuple[int, float, float]] = None
    for f in range(X.shape[1]):
        order = np.argsort(X[:, f], kind="stable")
        values = X[order, f]
        prefix = np.cumsum(regret_matrix[order], axis=0)
        total = prefix[-1]
        # split after position i (1-based count = i+1) requires a value
        # change, so both children are non-empty and reachable at
        # inference time
        cut = np.flatnonzero(np.diff(values) > 0) + 1
        cut = cut[(cut >= min_samples_leaf) & (cut <= n - min_samples_leaf)]
        if cut.size == 0:
            continue
        left = prefix[cut - 1].min(axis=1)
        right = (total - prefix[cut - 1]).min(axis=1)
        combined = left + right
        k = int(np.argmin(combined))
        cost = float(combined[k])
        if best is None or cost < best[2]:
            threshold = float((values[cut[k] - 1] + values[cut[k]]) / 2.0)
            best = (f, threshold, cost)
    return best


def _impurity_split(
    X: np.ndarray, regret_matrix: np.ndarray, min_samples_leaf: int
) -> Optional[Tuple[int, float, float]]:
    """Fallback criterion when the regret objective stalls: weighted
    Gini impurity over the per-sample best-variant labels, each sample
    weighted by how much a wrong pick would cost it (its regret
    spread).  Greedy regret minimization can hit nodes where every
    single split's gains cancel exactly even though a two-level split
    would help (the classic XOR failure of greedy CART); impurity
    strictly decreases on any separating split, so it tunnels through
    such plateaus and lets regret-improving splits reappear deeper."""
    labels = np.argmin(regret_matrix, axis=1)
    weights = regret_matrix.max(axis=1)
    if sorted_unique(labels).size < 2 or weights.sum() <= 0:
        return None
    n = X.shape[0]
    num_classes = regret_matrix.shape[1]
    onehot = np.zeros((n, num_classes))
    onehot[np.arange(n), labels] = weights
    best: Optional[Tuple[int, float, float]] = None
    for f in range(X.shape[1]):
        order = np.argsort(X[:, f], kind="stable")
        values = X[order, f]
        prefix = np.cumsum(onehot[order], axis=0)
        total = prefix[-1]
        cut = np.flatnonzero(np.diff(values) > 0) + 1
        cut = cut[(cut >= min_samples_leaf) & (cut <= n - min_samples_leaf)]
        if cut.size == 0:
            continue
        left = prefix[cut - 1]
        right = total - left
        lw = left.sum(axis=1)
        rw = right.sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            gini = np.where(
                lw > 0, lw - (left ** 2).sum(axis=1) / np.maximum(lw, 1e-300), 0.0
            ) + np.where(
                rw > 0, rw - (right ** 2).sum(axis=1) / np.maximum(rw, 1e-300), 0.0
            )
        k = int(np.argmin(gini))
        score = float(gini[k])
        if best is None or score < best[2]:
            threshold = float((values[cut[k] - 1] + values[cut[k]]) / 2.0)
            best = (f, threshold, score)
    if best is None:
        return None
    parent = weights.sum() - float((onehot.sum(axis=0) ** 2).sum()) / weights.sum()
    if best[2] >= parent - 1e-15:
        return None
    return best


def _fit_node(
    X: np.ndarray,
    regret_matrix: np.ndarray,
    classes: Sequence[str],
    depth: int,
    max_depth: int,
    min_samples_leaf: int,
) -> dict:
    leaf = _leaf(classes, regret_matrix)
    if depth >= max_depth or X.shape[0] < 2 * min_samples_leaf:
        return leaf
    split = _best_split(X, regret_matrix, min_samples_leaf)
    if split is None or split[2] >= leaf["regret"] - 1e-15:
        split = _impurity_split(X, regret_matrix, min_samples_leaf)
        if split is None:
            return leaf
    f, threshold, _ = split
    mask = X[:, f] <= threshold
    return {
        "feature": FEATURE_NAMES[f],
        "threshold": threshold,
        "samples": int(X.shape[0]),
        "left": _fit_node(
            X[mask], regret_matrix[mask], classes, depth + 1, max_depth,
            min_samples_leaf,
        ),
        "right": _fit_node(
            X[~mask], regret_matrix[~mask], classes, depth + 1, max_depth,
            min_samples_leaf,
        ),
    }


def _prune(node: dict) -> dict:
    """Collapse subtrees whose leaves all agree (impurity-fallback
    splits can leave same-variant siblings behind)."""
    if "variant" in node:
        return node
    left = _prune(node["left"])
    right = _prune(node["right"])
    if (
        "variant" in left
        and "variant" in right
        and left["variant"] == right["variant"]
    ):
        return {
            "variant": left["variant"],
            "samples": node["samples"],
            "regret": left["regret"] + right["regret"],
        }
    return {**node, "left": left, "right": right}


def _tree_stats(node: dict) -> Tuple[int, int]:
    """(num_leaves, max_depth) of a fitted tree."""
    if "variant" in node:
        return 1, 0
    left_leaves, left_depth = _tree_stats(node["left"])
    right_leaves, right_depth = _tree_stats(node["right"])
    return left_leaves + right_leaves, 1 + max(left_depth, right_depth)


# ----------------------------------------------------------------------
# The versioned, digest-pinned artifact
# ----------------------------------------------------------------------

def _artifact_digest(doc: dict) -> str:
    """SHA-256 over the canonical JSON of everything but the digest."""
    body = {k: v for k, v in doc.items() if k != "digest"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class PolicyArtifact:
    """A fitted policy as a plain, versioned JSON document.

    The digest pins the exact tree that was fitted: it is recomputed on
    load and on every :meth:`from_dict`, so a hand-edited artifact (or a
    corrupted transfer) is rejected rather than silently deployed.  Runs
    deployed with ``--policy learned:…`` record this digest in their
    manifest, closing the provenance loop.
    """

    tree: dict
    classes: Tuple[str, ...]
    feature_names: Tuple[str, ...] = FEATURE_NAMES
    schema_version: int = POLICY_SCHEMA_VERSION
    kind: str = POLICY_KIND
    training: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind != POLICY_KIND:
            raise ReproError(
                f"unsupported policy kind {self.kind!r} "
                f"(this build evaluates {POLICY_KIND!r})"
            )
        if tuple(self.feature_names) != FEATURE_NAMES:
            raise ReproError(
                f"policy feature schema {list(self.feature_names)} does not "
                f"match this build's {list(FEATURE_NAMES)}"
            )

    @property
    def digest(self) -> str:
        return _artifact_digest(self._body())

    @property
    def num_leaves(self) -> int:
        return _tree_stats(self.tree)[0]

    @property
    def depth(self) -> int:
        return _tree_stats(self.tree)[1]

    def _body(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "kind": self.kind,
            "feature_names": list(self.feature_names),
            "classes": list(self.classes),
            "tree": self.tree,
            "training": self.training,
        }

    def to_dict(self) -> dict:
        doc = self._body()
        doc["digest"] = _artifact_digest(doc)
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "PolicyArtifact":
        version = doc.get("schema_version")
        if version != POLICY_SCHEMA_VERSION:
            raise ReproError(
                f"unsupported policy schema_version {version!r} "
                f"(this build reads {POLICY_SCHEMA_VERSION})"
            )
        expected = doc.get("digest")
        if expected is not None and expected != _artifact_digest(doc):
            raise ReproError(
                "policy artifact digest mismatch: the document was modified "
                "after fitting (refit or restore the original artifact)"
            )
        try:
            return cls(
                tree=doc["tree"],
                classes=tuple(doc["classes"]),
                feature_names=tuple(doc["feature_names"]),
                schema_version=version,
                kind=doc.get("kind", POLICY_KIND),
                training=doc.get("training", {}),
            )
        except KeyError as exc:
            raise ReproError(f"policy artifact is missing field {exc}") from exc

    def save(self, path: Union[str, os.PathLike]) -> str:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return str(path)

    @classmethod
    def load(cls, path: Union[str, os.PathLike]) -> "PolicyArtifact":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ReproError(f"cannot load policy artifact {path}: {exc}") from exc
        return cls.from_dict(doc)


def fit_policy(
    corpus: Sequence[Union[RunManifest, Tuple[str, RunManifest]]],
    *,
    max_depth: int = 8,
    min_samples_leaf: int = 2,
    cost_params: Optional[CostParams] = None,
) -> PolicyArtifact:
    """Fit a decision-tree policy from a corpus of run manifests.

    Mixed-algorithm corpora are welcome — the labels are priced with
    each manifest's own algorithm's edge cost, and the fitted tree just
    sees more of the feature space.  An empty corpus, or one whose
    manifests carry no decision traces (static/batch/serve runs), is an
    error: there is nothing to fit.
    """
    if max_depth < 1:
        raise ReproError(f"max_depth must be >= 1, got {max_depth}")
    if min_samples_leaf < 1:
        raise ReproError(f"min_samples_leaf must be >= 1, got {min_samples_leaf}")
    pairs = [
        item if isinstance(item, tuple) else (f"manifest[{i}]", item)
        for i, item in enumerate(corpus)
    ]
    if not pairs:
        raise ReproError(
            "fit-policy: empty manifest corpus (pass at least one "
            "RunManifest JSON written by `repro profile`)"
        )
    samples: List[TrainingSample] = []
    sources: List[dict] = []
    for name, manifest in pairs:
        extracted = extract_samples(manifest, cost_params=cost_params)
        samples.extend(extracted)
        sources.append(
            {
                "manifest": os.path.basename(str(name)),
                "graph": manifest.graph.get("name", "unknown"),
                "graph_digest": manifest.graph.get("digest", ""),
                "algorithm": manifest.algorithm,
                "mode": manifest.mode,
                "decisions": len(extracted),
            }
        )
    if not samples:
        raise ReproError(
            "fit-policy: no decision traces in the corpus (profile with "
            "--mode adaptive so manifests carry per-iteration decisions)"
        )
    classes = tuple(v.code for v in unordered_variants())
    X = np.array([s.features for s in samples], dtype=np.float64)
    cost_matrix = np.array(
        [[s.costs[c] for c in classes] for s in samples], dtype=np.float64
    )
    # Normalize each row to *relative* regret (cost / best - 1): every
    # decision counts equally in the objective regardless of how
    # expensive its graph's iterations are in absolute seconds, which
    # is also exactly the fractional-regret metric the benches report.
    row_min = cost_matrix.min(axis=1, keepdims=True)
    regret_matrix = cost_matrix / np.maximum(row_min, 1e-300) - 1.0
    tree = _prune(
        _fit_node(X, regret_matrix, classes, 0, max_depth, min_samples_leaf)
    )
    training = {
        "samples": len(samples),
        "algorithms": sorted({s.algorithm for s in samples}),
        "max_depth": int(max_depth),
        "min_samples_leaf": int(min_samples_leaf),
        "manifests": sources,
    }
    return PolicyArtifact(tree=tree, classes=classes, training=training)


# ----------------------------------------------------------------------
# Deployment: spec parsing + the drop-in decision maker / policy
# ----------------------------------------------------------------------

def load_policy(path: Union[str, os.PathLike]) -> PolicyArtifact:
    """Load and digest-verify a policy artifact from disk."""
    return PolicyArtifact.load(path)


def resolve_policy(spec: Union[str, PolicyArtifact]) -> PolicyArtifact:
    """Resolve a ``--policy`` spec: ``learned:<path>`` or an artifact."""
    if isinstance(spec, PolicyArtifact):
        return spec
    if isinstance(spec, str) and spec.startswith("learned:"):
        path = spec[len("learned:"):]
        if not path:
            raise ReproError("--policy learned: requires an artifact path")
        return load_policy(path)
    raise ReproError(
        f"unknown policy spec {spec!r} (supported: 'learned:<policy.json>')"
    )


class LearnedDecisionMaker:
    """Evaluates a fitted tree as a drop-in
    :class:`~repro.core.decision.DecisionMaker` replacement.

    The memory-pressure overrides are *the* PR-2 overrides — the
    footprint-minimal representation pick and the BLOCK→THREAD demotion
    are borrowed from ``DecisionMaker`` unchanged, so a learned policy
    under pressure behaves exactly like the threshold policy under
    pressure (the tree only replaces the Figure-11 region lookup).
    """

    # Reuse, not reimplementation: the pressure helpers are shared with
    # the threshold decision maker.
    under_pressure = DecisionMaker.under_pressure
    _minimal_workset = DecisionMaker._minimal_workset
    _check_inputs = staticmethod(DecisionMaker._check_inputs)

    def __init__(
        self,
        artifact: PolicyArtifact,
        *,
        num_nodes: Optional[int] = None,
        pressure_threshold: float = 0.85,
    ):
        self.artifact = artifact
        self.num_nodes = num_nodes
        if not 0.0 < pressure_threshold <= 1.0:
            raise RuntimeConfigError(
                f"pressure_threshold must be in (0, 1], got {pressure_threshold}"
            )
        self.pressure_threshold = float(pressure_threshold)
        #: telemetry for the policy.* catalog metrics
        self.evaluations = 0
        self.overrides = 0
        self.leaf_depths: List[int] = []

    def _features(
        self, iteration: int, workset_size: int, avg_out_degree: float,
        growth: float, memory_pressure: float,
    ) -> Tuple[float, ...]:
        ratio = (
            workset_size / self.num_nodes
            if self.num_nodes
            else 0.0
        )
        return (
            float(iteration),
            float(workset_size),
            ratio,
            float(avg_out_degree),
            float(growth),
            float(memory_pressure),
        )

    def _evaluate(self, features: Sequence[float]) -> Tuple[str, int]:
        index = {name: i for i, name in enumerate(self.artifact.feature_names)}
        node = self.artifact.tree
        depth = 0
        while "variant" not in node:
            value = features[index[node["feature"]]]
            node = node["left"] if value <= node["threshold"] else node["right"]
            depth += 1
        self.evaluations += 1
        self.leaf_depths.append(depth)
        return node["variant"], depth

    def decide(
        self,
        workset_size: int,
        avg_out_degree: float,
        *,
        iteration: int = 0,
        growth: float = 1.0,
        memory_pressure: float = 0.0,
    ) -> Variant:
        """Tree lookup, then the shared memory-pressure override."""
        self._check_inputs(workset_size, avg_out_degree)
        code, _ = self._evaluate(
            self._features(
                iteration, workset_size, avg_out_degree, growth, memory_pressure
            )
        )
        variant = Variant.parse(code)
        if self.under_pressure(memory_pressure):
            workset = self._minimal_workset(workset_size)
            mapping = variant.mapping
            if mapping is Mapping.BLOCK:
                mapping = Mapping.THREAD
            if variant.workset is not workset or variant.mapping is not mapping:
                self.overrides += 1
            variant = Variant(variant.ordering, mapping, workset)
        return variant

    def region(
        self,
        workset_size: int,
        avg_out_degree: float,
        *,
        iteration: int = 0,
        growth: float = 1.0,
        memory_pressure: float = 0.0,
    ) -> str:
        """Leaf-depth region label (telemetry / decision traces)."""
        self._check_inputs(workset_size, avg_out_degree)
        index = {name: i for i, name in enumerate(self.artifact.feature_names)}
        features = self._features(
            iteration, workset_size, avg_out_degree, growth, memory_pressure
        )
        node = self.artifact.tree
        depth = 0
        while "variant" not in node:
            value = features[index[node["feature"]]]
            node = node["left"] if value <= node["threshold"] else node["right"]
            depth += 1
        suffix = "/mem-pressure" if self.under_pressure(memory_pressure) else ""
        return f"learned/leaf-depth-{depth}{suffix}"


class LearnedPolicy(AdaptivePolicy):
    """The adaptive runtime's policy with the tree in the driver's seat.

    Everything around the decision is inherited from
    :class:`~repro.core.policies.AdaptivePolicy` — the inspector's
    sampling cadence, precise-mode degree monitoring, the ``rebuild``
    switch-cost ablation and the budget fit-check — only the
    decision-maker consultation (:meth:`_decide`) is replaced, so the
    learned and threshold policies are directly comparable run-for-run.
    """

    def __init__(
        self,
        graph,
        artifact: PolicyArtifact,
        config=None,
        *,
        device: DeviceSpec,
        memory=None,
    ):
        super().__init__(graph, config, device=device, memory=memory)
        self.artifact = artifact
        self.decision_maker = LearnedDecisionMaker(
            artifact,
            num_nodes=graph.num_nodes,
            pressure_threshold=self.config.pressure_threshold,
        )
        self.name = "learned"
        self._last_workset: Optional[int] = None

    def _decide(self, iteration: int, workset_size: int, pressure: float):
        dm = self.decision_maker
        # Frontier momentum, measured exactly as training saw it: this
        # decision's size over the previous *decision's* (samples, not
        # raw iterations, when sampling_interval > 1).
        growth = (
            workset_size / max(1, self._last_workset)
            if self._last_workset is not None
            else 1.0
        )
        self._last_workset = workset_size
        unconstrained = dm.decide(
            workset_size, self._avg_degree, iteration=iteration, growth=growth
        )
        variant = dm.decide(
            workset_size,
            self._avg_degree,
            iteration=iteration,
            growth=growth,
            memory_pressure=pressure,
        )
        region = dm.region(
            workset_size,
            self._avg_degree,
            iteration=iteration,
            growth=growth,
            memory_pressure=pressure,
        )
        return unconstrained, variant, region

    def policy_info(self) -> dict:
        """Provenance dict recorded in :class:`AdaptiveResult` and the
        run's manifest."""
        return {
            "kind": self.artifact.kind,
            "digest": self.artifact.digest,
            "classes": list(self.artifact.classes),
            "num_leaves": self.artifact.num_leaves,
            "depth": self.artifact.depth,
        }
