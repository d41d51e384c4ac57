"""The offline workloads: ``sweep-cold`` and ``plan-models``.

Both drive ``BatchEngine.run_batch`` with the engine defaults of
``repro batch`` (thread executor, ``jobs=1``) in this process.  A unit of
work -- a ``sweep-cold`` block, or a ``plan-models`` cycle -- is one
fresh job: the process-wide caches are cleared (and asserted empty) and
a new engine is made before it starts.  Its batches then run on that
engine, so within a ``plan-models`` cycle the caches fill as they would
in one long ``repro batch`` run, while every unit, and so every run,
starts from the same state.

A run's work is a fixed *set* of units (one ``plan-models`` cycle, or a
few ``sweep-cold`` blocks).  The timed phase repeats the set, unit by
unit, until ``seconds`` have passed, and :func:`fold_repeats` takes each
unit's and each request's median over its repeats: the host's speed
drifts by tens of percent over seconds, and a median over identical
cold repeats sees past a slow stretch where a sum over distinct work
cannot.  The traced phase replays the set once.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from tracer import Target, Tracer, traced
from workloads import Payload

#: Process-wide caches whose hit ratios the traced run reports.
CACHES = ("nra", "intra", "fused")

#: Spans that only mark a batch or a request: their self time is code
#: outside every layer span, so the layer split counts it unattributed.
GLUE = ("service.engine", "service.run_payload")


@dataclass
class Phase:
    """What one timed phase did."""

    #: The units run, each a list of batches (replayable as a plan).
    units: List[List[List[Payload]]] = field(default_factory=list)
    #: ``(payload, result record, engine seconds)`` per request, in order.
    results: List[Tuple[Payload, Dict, float]] = field(default_factory=list)
    #: Per unit run: seconds from making its engine to its last answer.
    unit_walls: List[float] = field(default_factory=list)
    wall_s: float = 0.0
    #: Cache lookups over the phase: name -> [hits, misses].
    lookups: Dict[str, List[int]] = field(default_factory=lambda: {n: [0, 0] for n in CACHES})


def _cache_counters() -> Dict[str, Tuple[int, int]]:
    from repro.core.nra import nra_cache_info
    from repro.service import fused_cache_stats, intra_cache_stats

    nra = nra_cache_info()
    intra, fused = intra_cache_stats(), fused_cache_stats()
    return {
        "nra": (nra.hits, nra.misses),
        "intra": (intra.hits, intra.misses),
        "fused": (fused.hits, fused.misses),
    }


def clear_caches() -> None:
    from repro.core.nra import clear_nra_cache
    from repro.service import clear_fused_cache, clear_intra_cache

    clear_nra_cache()
    clear_intra_cache()
    clear_fused_cache()


def assert_cold() -> None:
    """Raise unless every process-wide cache is empty with zeroed counters."""
    from repro.core.nra import nra_cache_info
    from repro.service import fused_cache_stats, intra_cache_stats

    nra = nra_cache_info()
    for name, stats in (("intra", intra_cache_stats()), ("fused", fused_cache_stats())):
        if stats.size or stats.hits or stats.misses:
            raise RuntimeError(f"{name} cache is not cold: {stats}")
    if nra.currsize or nra.hits or nra.misses:
        raise RuntimeError(f"NRA cache is not cold: {nra}")


def assert_distinct(batches: Sequence[Sequence[Payload]]) -> None:
    """Raise unless all request keys in ``batches`` are distinct."""
    from repro.service import parse_request, request_key

    keys = [request_key(parse_request(dict(p))) for batch in batches for p in batch]
    if len(set(keys)) != len(keys):
        raise RuntimeError(f"{len(keys) - len(set(keys))} repeated request keys")


def run_phase(
    plan: Iterable[List[List[Payload]]],
    seconds: Optional[float] = None,
    tracer: Optional[Tracer] = None,
    min_units: int = 1,
) -> Phase:
    """Run units of ``plan`` until ``seconds`` pass (all of them if None).

    At least ``min_units`` units run, however long they take.
    """
    from repro.service import BatchEngine, EngineConfig

    phase = Phase()
    with traced(tracer, trace_targets()) if tracer else contextlib.nullcontext():
        started = time.perf_counter()
        for unit in plan:
            clear_caches()
            assert_cold()
            unit_started = time.perf_counter()
            engine = BatchEngine(EngineConfig(jobs=1, executor="thread"))
            for batch in unit:
                before = _cache_counters()
                report = engine.run_batch(batch)
                after = _cache_counters()
                for name in CACHES:
                    for slot in (0, 1):
                        phase.lookups[name][slot] += after[name][slot] - before[name][slot]
                phase.results.extend(
                    (payload, entry.result_record(), entry.seconds)
                    for payload, entry in zip(batch, report.entries)
                )
            phase.unit_walls.append(time.perf_counter() - unit_started)
            phase.units.append(unit)
            if len(phase.units) < min_units:
                continue
            if seconds is not None and time.perf_counter() - started >= seconds:
                break
        phase.wall_s = time.perf_counter() - started
    return phase


@dataclass
class Folded:
    """A repeated set of units, folded into one pass over it."""

    #: Per unit of the set: median wall seconds over its repeats.
    unit_s: List[float]
    #: Per request of the set, in order: the first repeat's result.
    first: List[Tuple[Payload, Dict, float]]
    #: Per request: median engine seconds over its repeats.
    seconds: List[float]
    #: Per request: how often it ran, and how many repeats answered
    #: differently from the first.
    runs: List[int]
    mismatches: List[int]


def fold_repeats(phase: Phase, set_size: int) -> Folded:
    """Fold a phase that ran a set of ``set_size`` units round-robin."""
    sizes = [sum(len(batch) for batch in unit) for unit in phase.units[:set_size]]
    offsets = [sum(sizes[:index]) for index in range(set_size)]
    first = phase.results[: sum(sizes)]
    seconds: List[List[float]] = [[] for _ in first]
    mismatches = [0] * len(first)
    walls: List[List[float]] = [[] for _ in range(set_size)]
    position = 0
    for index, wall in enumerate(phase.unit_walls):
        slot = index % set_size
        walls[slot].append(wall)
        for offset in range(sizes[slot]):
            request = offsets[slot] + offset
            _, record, elapsed = phase.results[position]
            seconds[request].append(elapsed)
            mismatches[request] += record != first[request][1]
            position += 1
    return Folded(
        unit_s=[statistics.median(times) for times in walls],
        first=first,
        seconds=[statistics.median(times) for times in seconds],
        runs=[len(times) for times in seconds],
        mismatches=mismatches,
    )


def trace_targets() -> List[Target]:
    """The layer boundaries the traced offline run records."""
    import repro.arch.accelerators as accelerators
    import repro.core.fusion as fusion
    import repro.core.graph_optimizer as graph_optimizer
    import repro.core.intra as intra
    import repro.dataflow.cost as cost
    import repro.dataflow.fusion_nest as fusion_nest
    import repro.dataflow.tiling as tiling
    import repro.plan.enumerative as enumerative
    import repro.plan.partition as partition
    import repro.service.engine as engine
    import repro.service.intra_cache as intra_cache
    import repro.service.requests as requests
    import repro.service.workers as workers
    import repro.verify.certify as certify
    import repro.verify.plan_audit as plan_audit

    return [
        Target("service.engine", engine.BatchEngine, "run_batch"),
        Target("service.run_payload", workers, "run_payload", new_request=True),
        Target("service.parse_key", requests, "parse_request"),
        Target("service.parse_key", requests, "request_key"),
        Target("service.intra_cache", intra_cache, "cached_optimize_intra"),
        Target("service.fused_cache", intra_cache, "cached_optimize_fused"),
        Target("core.optimize_intra", intra, "optimize_intra"),
        Target("core.optimize_fused", fusion, "optimize_fused"),
        Target("core.decide_fusion", fusion, "decide_fusion"),
        Target("core.optimize_graph", graph_optimizer, "optimize_graph"),
        Target("dataflow.memory_access", cost, "memory_access"),
        Target("dataflow.memory_access", fusion_nest, "fused_memory_access"),
        Target("dataflow.buffer_footprint", tiling.Tiling, "buffer_footprint"),
        Target("dataflow.buffer_footprint", fusion_nest.FusedDataflow, "buffer_footprint"),
        Target("plan.plan_dag", partition, "plan_dag"),
        Target("plan.enumerate_plans", enumerative, "enumerate_plans"),
        Target("plan.cost_partition", partition, "cost_partition"),
        Target("arch.platform_compare", accelerators, "evaluate_graph"),
        Target("verify.certify", certify, "certify_intra"),
        Target("verify.certify", certify, "certify_fused"),
        Target("verify.certify", plan_audit, "certify_plan"),
    ]


def regime_mix(results: Iterable[Tuple[Payload, Dict, float]]) -> Dict[str, int]:
    """Count of each buffer regime among the ``intra`` result records."""
    mix: Dict[str, int] = {}
    for _, record, _ in results:
        if record.get("ok") and record.get("kind") == "intra":
            regime = str(record["result"]["regime"])
            mix[regime] = mix.get(regime, 0) + 1
    return dict(sorted(mix.items()))
