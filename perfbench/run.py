"""Benchmark entry point: one seeded workload, checked, with named metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 15 --trace 0

Runs the workload's timed phase with tracing off, checks every output
against an independent referee (untimed), and prints a human summary to
stderr and, as the last line of stdout, one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` also runs a
traced phase over the same work and reports the per-layer metrics.  The
exit code is 0 only when every output is correct and nothing failed.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space for temp journals and span dumps (git-ignored).
WORK_DIR = os.path.join(ROOT, ".perfbench-out")

#: Latency limit of the goodput metric per workload, in milliseconds (also
#: stated in each workload's ``why`` in BENCHMARK.json).  serve-hot's fits
#: its cold misses; the offline limits sit above the slowest single
#: request, so goodput drops only when a request's latency blows up.
LATENCY_LIMIT_MS = {"sweep-cold": 1000.0, "plan-models": 5000.0, "serve-hot": 250.0}
#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "goodput_rps": "1/s",
    "peak_rss_mb": "MiB",
}

LAYERS = ("service", "core", "dataflow", "plan", "arch", "verify", "server", "shard", "generator")

PER_LAYER: Dict[str, str] = {
    "core.optimize_intra.calls": "count",
    "core.optimize_intra.self_s": "s",
    "core.optimize_intra.p50_ms": "ms",
    "core.optimize_intra.p99_ms": "ms",
    "core.optimize_fused.calls": "count",
    "core.optimize_fused.self_s": "s",
    "core.nra_cache.hit_ratio": "ratio",
    "dataflow.memory_access.calls": "count",
    "dataflow.memory_access.self_s": "s",
    "dataflow.buffer_footprint.calls": "count",
    "dataflow.buffer_footprint.self_s": "s",
    "plan.plan_dag.self_s": "s",
    "plan.enumerate_plans.self_s": "s",
    "plan.cost_partition.calls": "count",
    "arch.platform_compare.self_s": "s",
    "verify.certify.self_s": "s",
    "service.intra_cache.hit_ratio": "ratio",
    "service.fused_cache.hit_ratio": "ratio",
    "service.engine.overhead_s": "s",
    "service.parse_key.self_us": "us",
    "service.cache.hit_ratio": "ratio",
    "service.journal.appended": "count",
    "service.journal.bytes": "bytes",
    "server.analyze_s": "s",
    "server.refused": "count",
    "shard.transport_ms": "ms",
    "shard.balance": "ratio",
    "generator.sched_late_p99_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_share": "ratio",
    "trace.wall_s": "s",
    **{f"layer.{layer}.self_s": "s" for layer in LAYERS},
}

#: Spans every traced run of a workload must record; a call site the
#: wrappers missed would read zero calls.
REACHED = {
    "sweep-cold": (
        "service.engine", "service.run_payload", "service.parse_key",
        "core.optimize_intra", "core.optimize_fused", "core.decide_fusion",
        "dataflow.memory_access", "dataflow.buffer_footprint", "verify.certify",
    ),
    "plan-models": (
        "service.engine", "service.run_payload", "service.parse_key",
        "service.intra_cache", "service.fused_cache",
        "core.optimize_intra", "core.optimize_fused", "core.optimize_graph",
        "dataflow.memory_access", "dataflow.buffer_footprint",
        "plan.plan_dag", "plan.enumerate_plans", "plan.cost_partition",
        "arch.platform_compare",
    ),
    "serve-hot": ("client.analyze", "generator.wait"),
}


def _prepare_imports() -> None:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"perfbench: no program to measure at {SRC}/repro")
    sys.path[:0] = [SRC, HERE]


def _require_reached(workload: str, spans: Dict[str, Any], result: Dict[str, Any]) -> None:
    """Mark the run failed if a span the workload must reach has no calls."""
    unreached = [name for name in REACHED[workload] if not spans[name].calls]
    if unreached:
        print(f"perfbench: traced run never reached {unreached}", file=sys.stderr)
        result["correct"] = False


def _ratio(hits: float, total: float) -> float:
    return hits / total if total else 0.0


# ----------------------------------------------------------------------
# Set-up time
# ----------------------------------------------------------------------
def probe_setup(workload: str) -> float:
    """Import plus engine (or fleet) start until ready, in this process."""
    started = time.perf_counter()
    if workload == "serve-hot":
        import shutil

        from serve import start_fleet

        fleet = start_fleet(WORK_DIR)
        elapsed = time.perf_counter() - started
        fleet.stop()
        shutil.rmtree(fleet.temp, ignore_errors=True)
        return elapsed
    import_offline()
    from repro.service import BatchEngine, EngineConfig

    BatchEngine(EngineConfig(jobs=1, executor="thread"))
    return time.perf_counter() - started


def import_offline() -> None:
    """Import what the offline workloads use, so no timed request pays it."""
    import repro.plan  # noqa: F401 - imported lazily by dag_plan requests
    import repro.service  # noqa: F401
    import repro.verify  # noqa: F401 - imported lazily by certify requests


def measure_setup(workload: str) -> float:
    """Median set-up time over fresh interpreter processes."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--probe-setup", workload],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


# ----------------------------------------------------------------------
# Offline workloads
# ----------------------------------------------------------------------
def _latency_metrics(
    workload: str, latencies_ms: List[float], good: List[bool], wall_s: float
) -> Dict[str, float]:
    from tracer import percentile

    limit = LATENCY_LIMIT_MS[workload]
    within = sum(1 for ok, ms in zip(good, latencies_ms) if ok and ms <= limit)
    return {
        "throughput_rps": sum(good) / wall_s,
        "latency_p50_ms": percentile(latencies_ms, 50),
        "latency_p90_ms": percentile(latencies_ms, 90),
        "goodput_rps": within / wall_s,
    }


def offline_set(workload: str, seed: int) -> List[List[List[Dict[str, Any]]]]:
    """The units of the seed's set: lists of batches."""
    import itertools

    import offline

    if workload == "sweep-cold":
        from workloads import SWEEP_SET, sweep_cold_blocks

        blocks = list(itertools.islice(sweep_cold_blocks(seed), SWEEP_SET))
        offline.assert_distinct(blocks)
        return [[block] for block in blocks]
    from workloads import plan_models_cycle

    return [plan_models_cycle(seed)]


def run_offline(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    import itertools

    import offline
    from checker import UNREFEREED, check_record, engine_evaluate
    from serve import peak_rss_mb
    from tracer import Tracer, layer_split, percentile, summarize

    import_offline()
    units = offline_set(workload, seed)
    phase = offline.run_phase(itertools.cycle(units), seconds, min_units=len(units))
    rss = peak_rss_mb()
    folded = offline.fold_repeats(phase, len(units))

    # The referee judges the first answer to each request; every repeat
    # must have answered the same.
    evaluate = engine_evaluate()
    good: List[bool] = []
    failed = 0
    for (payload, record, _), runs, mismatches in zip(folded.first, folded.runs, folded.mismatches):
        problems = check_record(payload, record, evaluate)
        failed += runs if problems else mismatches
        if mismatches:
            problems.append(f"{mismatches} of {runs} repeats answered differently")
        good.append(not problems)
        if problems:
            print(f"perfbench: WRONG {json.dumps(payload)}: {problems}", file=sys.stderr)
    if workload == "sweep-cold":
        print(f"perfbench: regime mix {offline.regime_mix(folded.first)}", file=sys.stderr)
    kinds = sorted({p["kind"] for p, _, _ in folded.first if p["kind"] in UNREFEREED})
    if kinds:
        print(f"perfbench: no referee for {kinds}; checked MA >= ideal only", file=sys.stderr)
    print(
        f"perfbench: {len(phase.units)} units in {phase.wall_s:.1f} s, a set of {len(units)} "
        f"repeated {min(folded.runs)}-{max(folded.runs)} times",
        file=sys.stderr,
    )

    latencies = [seconds_ * 1e3 for seconds_ in folded.seconds]
    metrics: Dict[str, float] = {
        **_latency_metrics(workload, latencies, good, sum(folded.unit_s)),
        "peak_rss_mb": rss,
    }
    result = {"attempted": len(phase.results), "failed": failed, "correct": all(good)}
    if not trace:
        return dict(result, metrics=metrics)

    tracer = Tracer()
    replay = offline.run_phase(units, None, tracer)
    if [r for _, r, _ in replay.results] != [r for _, r, _ in folded.first]:
        raise RuntimeError("traced replay produced different records")
    tracer.write(os.path.join(WORK_DIR, f"spans-{workload}-{seed}.tsv.gz"))
    spans = summarize(tracer.spans)
    split = layer_split(tracer.spans, replay.wall_s, offline.GLUE)
    _require_reached(workload, spans, result)
    requests = len(replay.results)

    lookups = replay.lookups
    layer = dict.fromkeys(PER_LAYER, 0.0)
    layer.update({
        "core.optimize_intra.calls": spans["core.optimize_intra"].calls,
        "core.optimize_intra.self_s": spans["core.optimize_intra"].self_s,
        "core.optimize_intra.p50_ms": percentile(spans["core.optimize_intra"].durations, 50) * 1e3,
        "core.optimize_intra.p99_ms": percentile(spans["core.optimize_intra"].durations, 99) * 1e3,
        "core.optimize_fused.calls": spans["core.optimize_fused"].calls,
        "core.optimize_fused.self_s": spans["core.optimize_fused"].self_s,
        "core.nra_cache.hit_ratio": _ratio(lookups["nra"][0], sum(lookups["nra"])),
        "dataflow.memory_access.calls": spans["dataflow.memory_access"].calls,
        "dataflow.memory_access.self_s": spans["dataflow.memory_access"].self_s,
        "dataflow.buffer_footprint.calls": spans["dataflow.buffer_footprint"].calls,
        "dataflow.buffer_footprint.self_s": spans["dataflow.buffer_footprint"].self_s,
        "plan.plan_dag.self_s": spans["plan.plan_dag"].self_s,
        "plan.enumerate_plans.self_s": spans["plan.enumerate_plans"].self_s,
        "plan.cost_partition.calls": spans["plan.cost_partition"].calls,
        "arch.platform_compare.self_s": spans["arch.platform_compare"].self_s,
        "verify.certify.self_s": spans["verify.certify"].self_s,
        "service.intra_cache.hit_ratio": _ratio(lookups["intra"][0], sum(lookups["intra"])),
        "service.fused_cache.hit_ratio": _ratio(lookups["fused"][0], sum(lookups["fused"])),
        "service.engine.overhead_s": spans["service.engine"].total_s - spans["service.run_payload"].total_s,
        "service.parse_key.self_us": spans["service.parse_key"].self_s / requests * 1e6,
        "trace.overhead_ratio": sum(replay.unit_walls) / sum(folded.unit_s),
        "trace.unattributed_share": split["unattributed"] / replay.wall_s,
        "trace.wall_s": replay.wall_s,
    })
    for name in LAYERS:
        layer[f"layer.{name}.self_s"] = split.get(name, 0.0)
    unknown = set(split) - set(LAYERS) - {"unattributed"}
    if unknown:
        raise RuntimeError(f"spans outside the known layers: {sorted(unknown)}")
    return dict(result, metrics=layer)


# ----------------------------------------------------------------------
# serve-hot
# ----------------------------------------------------------------------
def _serve_outcomes(phase: Any, pool: List[Any], schedule: List[Tuple[float, int]]) -> List[bool]:
    """Per request: answered, byte-identical to in-process, and refereed."""
    from checker import check_record, engine_evaluate
    from serve import reference_lines

    reference = reference_lines(pool, [key for _, key in schedule])
    evaluate = engine_evaluate()
    verdict = {}
    for key, line in reference.items():
        problems = check_record(pool[key], json.loads(line), evaluate)
        if problems:
            print(f"perfbench: WRONG {json.dumps(pool[key])}: {problems}", file=sys.stderr)
        verdict[key] = not problems
    good = []
    for sent, (_, key) in zip(phase.sent, schedule):
        ok = sent.error is None and sent.line == reference[key] and verdict[key]
        if sent.error is None and sent.line != reference[key]:
            print(f"perfbench: served line differs from in-process for {pool[key]}", file=sys.stderr)
        good.append(ok)
    return good


def _stats_delta(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, Any]:
    """What the timed phase added to the fleet's ``/stats`` counters."""

    def analyze_s(stats: Dict[str, Any]) -> float:
        return stats["latency"]["mean"] * stats["latency"]["count"]

    def engine(stats: Dict[str, Any], key: str) -> int:
        return stats["engine_counters"].get(key, 0)

    def per_shard(stats: Dict[str, Any], section: str, key: str) -> List[int]:
        return [shard["stats"][section][key] for shard in stats["shards"]["shards"]]

    def grew(section: str, key: str) -> List[int]:
        return [a - b for a, b in zip(per_shard(after, section, key), per_shard(before, section, key))]

    return {
        "analyze_s": analyze_s(after) - analyze_s(before),
        "requests": engine(after, "requests") - engine(before, "requests"),
        "computed": engine(after, "computed") - engine(before, "computed"),
        "appended": sum(grew("journal", "appended")),
        "journal_bytes": after["shards"]["journal_bytes"] - before["shards"]["journal_bytes"],
        "served": grew("serving", "requests_served"),
    }


def run_serve(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    from serve import peak_rss_mb, run_serve_phase
    from tracer import Tracer, percentile, summarize
    from workloads import SERVE_WARM, serve_pool, serve_schedule

    pool = serve_pool(seed)
    schedule = serve_schedule(seed, seconds)
    warm = pool[:SERVE_WARM]
    phase = run_serve_phase(pool, schedule, warm, WORK_DIR)
    rss = peak_rss_mb() + phase.fleet_peak_rss_mb
    good = _serve_outcomes(phase, pool, schedule)
    if not phase.shutdown_clean:
        print(
            f"perfbench: unclean shutdown: exit {phase.exit_code}, journals {phase.journal_reports}",
            file=sys.stderr,
        )
    latencies = [(s.done - s.due) * 1e3 for s in phase.sent]
    metrics = {**_latency_metrics("serve-hot", latencies, good, phase.wall_s), "peak_rss_mb": rss}
    result = {
        "attempted": len(good),
        "failed": good.count(False),
        "correct": phase.shutdown_clean and all(good),
    }
    if not trace:
        return dict(result, metrics=metrics)

    tracer = Tracer()
    traced = run_serve_phase(pool, schedule, warm, WORK_DIR, tracer)
    tracer.write(os.path.join(WORK_DIR, f"spans-serve-hot-{seed}.tsv.gz"))
    spans = summarize(tracer.spans)
    _require_reached("serve-hot", spans, result)
    requests = len(traced.sent)
    # The router and the shards parse and key every request in the daemon;
    # time the same public functions on the same payloads here.
    from repro.service import parse_request, request_key

    started = time.perf_counter()
    for _, key in schedule:
        request_key(parse_request(pool[key]))
    parse_key_s = time.perf_counter() - started
    timed = _stats_delta(traced.stats_before, traced.stats)
    client_s = sum(s.done - s.sent for s in traced.sent)
    wait_s = spans["generator.wait"].total_s
    walls = sum(traced.thread_walls)
    layer = dict.fromkeys(PER_LAYER, 0.0)
    layer.update({
        "service.parse_key.self_us": parse_key_s / requests * 1e6,
        "service.cache.hit_ratio": 1.0 - _ratio(timed["computed"], timed["requests"]),
        "service.journal.appended": timed["appended"],
        "service.journal.bytes": timed["journal_bytes"],
        "server.analyze_s": timed["analyze_s"],
        "server.refused": sum(1 for s in traced.sent if s.error in (429, 503)),
        "shard.transport_ms": (client_s - timed["analyze_s"]) / requests * 1e3,
        "shard.balance": max(timed["served"]) / max(min(timed["served"]), 1),
        "generator.sched_late_p99_ms": percentile(phase.late_ms, 99),
        # Stalled exchanges dominate summed client time and vary run to
        # run, so the overhead compares the median exchange.
        "trace.overhead_ratio": percentile([s.done - s.sent for s in traced.sent], 50)
        / percentile([s.done - s.sent for s in phase.sent], 50),
        "trace.unattributed_share": (walls - client_s - wait_s) / walls,
        "trace.wall_s": walls,
        "layer.server.self_s": timed["analyze_s"],
        "layer.shard.self_s": client_s - timed["analyze_s"],
        "layer.generator.self_s": wait_s,
    })
    return dict(result, metrics=layer)


# ----------------------------------------------------------------------
def main(argv: List[str] = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _prepare_imports()
    os.makedirs(WORK_DIR, exist_ok=True)
    if args.probe_setup:
        print(repr(probe_setup(args.probe_setup)))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    setup_s = None if args.trace else measure_setup(args.workload)
    if args.workload == "serve-hot":
        result = run_serve(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_offline(args.workload, args.seed, args.seconds, bool(args.trace))
    if not args.trace:
        result["metrics"]["setup_s"] = setup_s
    units = END_TO_END if not args.trace else PER_LAYER
    metrics = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()}
    for name, entry in metrics.items():
        print(f"perfbench: {args.workload} {name} = {entry['value']:.6g} {entry['unit']}", file=sys.stderr)
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
