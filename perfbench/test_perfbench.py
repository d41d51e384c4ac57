"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import collections
import itertools
import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import run  # noqa: E402
from checker import check_record, engine_evaluate  # noqa: E402
from tracer import Target, Tracer, layer_split, self_times, summarize, traced  # noqa: E402
from workloads import (  # noqa: E402
    PLAN_BUFFERS,
    SERVE_RATE,
    plan_models_cycle,
    serve_pool,
    serve_schedule,
    sweep_cold_blocks,
    sweep_cold_slots,
)


def _keys(payloads):
    from repro.service import parse_request, request_key

    return [request_key(parse_request(dict(p))) for p in payloads]


def _requests(workload, seed):
    if workload == "sweep-cold":
        return [p for block in itertools.islice(sweep_cold_blocks(seed), 5) for p in block]
    if workload == "plan-models":
        return [p for group in plan_models_cycle(seed) for p in group]
    pool = serve_pool(seed)
    return [pool[key] for _, key in serve_schedule(seed, 10.0)]


@pytest.mark.parametrize("workload", ["sweep-cold", "plan-models", "serve-hot"])
def test_seed_determines_request_keys(workload):
    first = _keys(_requests(workload, 7))
    assert first == _keys(_requests(workload, 7))
    assert first != _keys(_requests(workload, 8))


def test_sweep_cold_keys_distinct_and_every_slot_in_its_regime(monkeypatch):
    import workloads
    from repro.core import classify_buffer
    from repro.ir import matmul

    draws = []
    draw = workloads._sweep_slot
    monkeypatch.setattr(workloads, "_sweep_slot", lambda *args: draws.append(args) or draw(*args))
    slots = [slot for block in itertools.islice(sweep_cold_slots(2), 100) for slot in block]
    assert len(draws) > len(slots)  # some repeated keys were redrawn
    assert len(set(_keys(p for _, p in slots))) == len(slots)
    for regime, p in slots:
        found = classify_buffer(matmul("mm", p["m"], p["k"], p["l"]), p["buffer_elems"])
        assert found.regime.value == regime, p


def test_plan_models_cycle_is_balanced():
    cycle = plan_models_cycle(4)
    dag_plans = [p for group in cycle for p in group if p["kind"] == "dag_plan"]
    buffers = [group[0]["buffer_elems"] for group in cycle]
    assert sorted(buffers) == sorted(PLAN_BUFFERS * 2)
    assert all(len({p["buffer_elems"] for p in group}) == 1 for group in cycle)
    baselines = [p["scenario"] for p in dag_plans if p.get("baseline")]
    assert len(baselines) == len(dag_plans) // 4
    assert all(baselines.count(scenario) == 2 for scenario in set(baselines))
    assert all(sum(1 for p in group if p.get("baseline")) == 1 for group in cycle)


def test_fold_repeats_takes_medians_over_a_repeated_set():
    from offline import Phase, fold_repeats

    first, second, third = ({"kind": "intra", "m": m} for m in (1, 2, 3))
    unit_a, unit_b = [[first, second]], [[third]]

    def answers(seconds, second_record="y"):
        return [(first, {"r": "x"}, seconds[0]), (second, {"r": second_record}, seconds[1])]

    phase = Phase(
        units=[unit_a, unit_b, unit_a, unit_b, unit_a],
        unit_walls=[1.0, 10.0, 3.0, 20.0, 2.0],
        results=answers([0.1, 0.5]) + [(third, {"r": "z"}, 7.0)]
        + answers([0.3, 0.4], second_record="changed") + [(third, {"r": "z"}, 9.0)]
        + answers([0.2, 0.6]),
    )
    folded = fold_repeats(phase, set_size=2)
    assert folded.unit_s == [2.0, 15.0]
    assert [payload for payload, _, _ in folded.first] == [first, second, third]
    assert folded.seconds == [0.2, 0.5, 8.0]
    assert folded.runs == [3, 3, 2]
    assert folded.mismatches == [0, 1, 0]


def test_serve_schedule_offers_a_fixed_load():
    schedule = serve_schedule(5, 10.0)
    assert len(schedule) == round(SERVE_RATE * 10.0)
    dues = [due for due, _ in schedule]
    assert dues == sorted(dues) and 0.0 <= dues[-1] <= 10.0
    # Another seed reorders the same gaps and the same key ranks.
    other = serve_schedule(6, 10.0)
    assert sorted(k for _, k in other) == sorted(k for _, k in schedule)
    assert [k for _, k in other] != [k for _, k in schedule]
    gaps = lambda s: collections.Counter(round(b[0] - a[0], 6) for a, b in zip(s, s[1:]))
    # Each seed leaves out the gap it shuffled last; all others match.
    assert sum((gaps(other) & gaps(schedule)).values()) >= len(schedule) - 2


def _record(payload):
    return engine_evaluate()(dict(payload))


def test_checker_accepts_then_rejects_intra_ma_off_by_one():
    payload = {"kind": "intra", "m": 96, "k": 64, "l": 80, "buffer_elems": 1500}
    record = _record(payload)
    evaluate = engine_evaluate()
    assert check_record(payload, record, evaluate) == []
    bad = json.loads(json.dumps(record))
    bad["result"]["memory_access"] += 1
    assert check_record(payload, bad, evaluate)


def test_checker_rejects_fusion_ma_off_by_one():
    payload = {"kind": "fusion", "m": 64, "k": 32, "l": 48, "n": 40, "buffer_elems": 2000}
    record = _record(payload)
    evaluate = engine_evaluate()
    assert check_record(payload, record, evaluate) == []
    for field in ("fused_memory_access", "unfused_memory_access"):
        bad = json.loads(json.dumps(record))
        bad["result"][field] += 1
        assert check_record(payload, bad, evaluate)


def test_checker_rejects_error_records():
    payload = {"kind": "intra", "m": 96, "k": 64, "l": 80, "buffer_elems": 1500}
    error = {"index": 0, "key": None, "kind": "intra", "ok": False, "error": {"type": "X"}}
    assert check_record(payload, error, engine_evaluate())


def test_metric_names_and_units_match_benchmark_json():
    name = re.compile(r"[A-Za-z0-9_.-]+")
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared_e2e == run.END_TO_END
    assert declared_layer == run.PER_LAYER
    for metric in list(run.END_TO_END) + list(run.PER_LAYER):
        assert name.fullmatch(metric) and len(metric) <= 64
    assert {w["name"] for w in spec["workloads"]} == {"sweep-cold", "plan-models", "serve-hot"}


def test_self_time_arithmetic_on_a_span_tree():
    # root [0, 10] -> a [1, 4] -> a1 [2, 3]; root -> b [5, 9]; c [10, 11] top-level.
    spans = [
        ["service.root", 0.0, 10.0, -1, 0],
        ["core.a", 1.0, 4.0, 0, 0],
        ["dataflow.a1", 2.0, 3.0, 1, 0],
        ["core.b", 5.0, 9.0, 0, 0],
        ["plan.c", 10.0, 11.0, -1, 1],
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]
    summary = summarize(spans)
    assert summary["core.a"].self_s + summary["core.b"].self_s == 6.0
    assert summary["core.a"].calls == 1 and summary["core.b"].total_s == 4.0
    split = layer_split(spans, wall_s=12.0)
    assert split == {"service": 3.0, "core": 6.0, "dataflow": 1.0, "plan": 1.0, "unattributed": 1.0}
    assert sum(split.values()) == 12.0
    # A glue span's self time is code outside every layer span.
    glued = layer_split(spans, wall_s=12.0, glue=("service.root",))
    assert glued == {"core": 6.0, "dataflow": 1.0, "plan": 1.0, "unattributed": 4.0}


def test_traced_wraps_every_call_site_and_restores_them():
    import repro.core as core
    import repro.core.intra as intra
    import repro.service.workers as workers

    original = intra.optimize_intra
    tracer = Tracer()
    with traced(tracer, [Target("core.optimize_intra", intra, "optimize_intra")]):
        assert workers.optimize_intra is not original
        assert core.optimize_intra is workers.optimize_intra
        workers.run_payload({"kind": "intra", "m": 32, "k": 16, "l": 24, "buffer_elems": 512})
    assert intra.optimize_intra is original and workers.optimize_intra is original
    assert [span[0] for span in tracer.spans] == ["core.optimize_intra"]
