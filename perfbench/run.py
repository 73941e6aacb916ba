#!/usr/bin/env python3
"""Two-clock benchmark of the adaptive graph runtime.

Run from the root of a checkout::

    python3 perfbench/run.py --workload road --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json (host
wall time and simulated time, set-up time, peak memory, throughput and
latency); ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import os

# One process on one thread: pin BLAS/OpenMP pools before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
#: set-ups per run (at least SETUP_REPEATS, and until SETUP_SECONDS
#: are spent for cheap ones); setup_s is their median
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
SETUP_MAX_REPEATS = 25
DEFAULT_SEED = 1
WORKLOAD_NAMES = ("road", "analytics", "serve")


def _code_digest() -> str:
    """Digest of the program and benchmark sources: the exact-repeat
    record compares runs of the same code only."""
    digest = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py"))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _percentile(samples, q: float) -> float:
    """Linear-interpolated percentile; 0 when every operation failed."""
    import numpy as np

    if not samples:
        return 0.0
    return float(np.percentile(np.asarray(samples, dtype=float), q))


def _job_medians(passes) -> dict:
    """Each job's median wall time across passes (road, analytics)."""
    walls = {}
    for result in passes:
        for job, wall in result.job_walls.items():
            walls.setdefault(job, []).append(wall)
    return {job: statistics.median(w) for job, w in walls.items()}


def _pass_wall(name: str, passes) -> float:
    """``serve``: the median pass wall time.  Job lists: the sum over
    jobs of each job's median, so one slow pass of one job cannot
    dominate."""
    if name == "serve":
        return statistics.median(p.wall_s for p in passes)
    return sum(_job_medians(passes).values())


def _keep_first(result, earlier):
    """Drop the answer arrays and timelines of a pass that repeats the
    first one exactly, so memory does not grow with the pass count.  A
    pass that differs keeps them and is reported as drift."""
    if earlier and result.record == earlier[0].record:
        result.timelines = []
        result.answers = dict.fromkeys(result.answers)
    return result


def _compare_record(path: Path, record: dict) -> list:
    """Write the run's exact-repeat record, or compare it with the one
    an earlier run of the same code and seed left."""
    if path.exists():
        previous = json.loads(path.read_text())
        if previous.get("code") == record["code"]:
            if previous != record:
                return [f"exact-repeat record differs from {path.name}: "
                        "simulated time or digests drifted between runs"]
            return []
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    return []


def _end_to_end(name, passes, setup_times, peak_rss_mb) -> dict:
    if name == "serve":
        latencies = [s for p in passes for s in p.latencies_s]
    else:  # one sample per job: its median over passes
        latencies = list(_job_medians(passes).values())
    sim_latencies = [s for p in passes for s in p.sim_latencies_s]
    wall = _pass_wall(name, passes)
    print(f"{name}: {len(latencies)} latency samples")
    return {
        "wall_s": wall,
        "sim_s": passes[0].sim_ledger().seconds,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
        # every pass answers the same queries (the exact-repeat check)
        "qps": len(passes[0].answers) / wall if wall else 0.0,
        "latency_p50_ms": 1e3 * _percentile(latencies, 50),
        "latency_p95_ms": 1e3 * _percentile(latencies, 95),
        "sim_latency_p95_ms": 1e3 * _percentile(sim_latencies, 95),
    }


def _per_layer(name, passes, traced, recorder) -> dict:
    from tracer import LAYER_FUNCTIONS

    k = len(traced)
    out = {}
    for layer in LAYER_FUNCTIONS:
        out[f"{layer}.calls"] = recorder.calls.get(layer, 0) / k
        out[f"{layer}.self_s"] = recorder.self_s.get(layer, 0.0) / k
    counts = dict(traced[0].counts)
    improved = counts.pop("improved")
    out.update(counts)
    out["kernels.useful_frac"] = (
        improved / counts["kernels.edges_scanned"]
        if counts["kernels.edges_scanned"] else 0.0)
    out.update(traced[0].sim_ledger().metrics())
    layer_self = sum(v for key, v in recorder.self_s.items() if key in LAYER_FUNCTIONS)
    out["trace.wall_s"] = recorder.root_s / k
    out["unattributed_s"] = (recorder.root_s - layer_self) / k
    out["trace.overhead_frac"] = _pass_wall(name, traced) / _pass_wall(name, passes) - 1.0
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from tracer import SpanRecorder
    from workloads import WORKLOADS

    workload = WORKLOADS[name]()
    errors = []
    setup_times = []
    while len(setup_times) < SETUP_REPEATS or (
            sum(setup_times) < SETUP_SECONDS
            and len(setup_times) < SETUP_MAX_REPEATS):
        gc.collect()
        start = time.perf_counter()
        state = workload.setup(seed)
        setup_times.append(time.perf_counter() - start)

    passes, traced = [], []
    recorder = SpanRecorder() if trace else None
    deadline = time.perf_counter() + seconds
    while True:
        passes.append(_keep_first(workload.run_pass(state), passes))
        if recorder is not None:
            with recorder.tracing():
                traced.append(_keep_first(workload.run_pass(state, recorder), traced))
        if time.perf_counter() >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if hasattr(workload, "close"):
        workload.close()

    everything = passes + traced
    first = everything[0]
    for result in everything:
        if result.record != first.record:
            errors.append("a pass's digests or simulated time differ from the "
                          "first pass of this run")
    # Later passes repeat these two exactly (the record check above).
    for result in (passes[0],) + tuple(traced[:1]):
        problem = result.sim_ledger().closure_error(result.sim_reported)
        if problem:
            errors.append(problem)
    refs = workload.references(state, everything)
    for result in everything:
        errors.extend(result.errors)
        errors.extend(workload.check(state, refs, result))
    if recorder is not None:
        drift = recorder.check_closure()
        if drift > 1e-6 * max(recorder.root_s, 1.0):
            errors.append(f"span self times miss the traced wall by {drift} s")

    OUT.mkdir(exist_ok=True)
    record = {"code": _code_digest(), "workload": name, "seed": seed,
              "record": first.record}
    errors.extend(_compare_record(OUT / f"record-{name}-seed{seed}.json", record))
    if recorder is not None:
        recorder.write(OUT / f"spans-{name}-seed{seed}.json")

    attempted = sum(p.attempted for p in everything)
    if recorder is not None:
        metrics = _per_layer(name, passes, traced, recorder)
    else:
        metrics = _end_to_end(name, passes, setup_times, peak_rss_mb)
    for message in errors[:20]:
        print(f"error: {message}", file=sys.stderr)
    print(f"{name}: {len(passes)} untraced and {len(traced)} traced passes")
    return {"correct": not errors, "attempted": attempted,
            "failed": min(len(errors), attempted) if errors else 0,
            "metrics": metrics}


def _declared(section: str) -> dict:
    """Metric name -> unit for one section of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def run_all(args) -> int:
    """Every workload in its own process (so peak memory is per
    workload), printed as one table."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"perfbench: workload {name} exited {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        *notes, last = proc.stdout.strip().splitlines()
        print("\n".join(notes))
        result = json.loads(last)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            print(f"{name:<10} {metric:<32} {entry['value']:>16.6g} {entry['unit']}")
            combined["metrics"][f"{name}.{metric}"] = entry
        print(f"{name:<10} attempted {result['attempted']}, failed {result['failed']}")
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {src.name}/repro; run from "
              "the root of a full checkout", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print("perfbench: BENCHMARK.json missing at the checkout root", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path[:0] = [str(src), str(HERE)]
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not this "
              "checkout", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    # A layer the workload leaves idle reports 0 for its per-layer metrics.
    declared = _declared("per_layer" if args.trace else "end_to_end")
    undeclared = set(result["metrics"]) - set(declared)
    if undeclared or (not args.trace and set(declared) - set(result["metrics"])):
        print(f"perfbench: metrics differ from BENCHMARK.json: {sorted(undeclared)}",
              file=sys.stderr)
        return 2
    result["metrics"] = {
        name: {"value": result["metrics"].get(name, 0), "unit": unit}
        for name, unit in declared.items()
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
