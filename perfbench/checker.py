"""Independent output checks, run untimed after the timed phase.

Each result record is judged by a referee that does not share the code
path that produced it:

* ``intra``: the dataflow is rebuilt from its JSON form and recounted by
  the ``repro.verify`` auditors (memory access and footprint); MA must be
  at least the ideal, recomputed here from the shape.
* ``fusion`` and ``dag_plan``: the request is re-run with
  ``certify: true``; the certificate must pass with equal MA.  A
  ``dag_plan`` with ``baseline: true`` must report that the enumerative
  baseline agrees.
* ``graph_plan`` and ``platform_compare`` have no referee in the
  repository, so only MA >= ideal (and, for a graph plan, segment MAs
  summing to the total) is checked; :data:`UNREFEREED` says so in the
  benchmark output.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping

Record = Mapping[str, Any]
Evaluate = Callable[[Dict[str, Any]], Dict[str, Any]]

UNREFEREED = ("graph_plan", "platform_compare")


def _certified(record: Record) -> bool:
    """True when a record is ok and every certificate in it passed."""
    if not record.get("ok"):
        return False
    certification = record["result"].get("certification")
    if not certification:
        return False
    if "ok" in certification:
        return bool(certification["ok"])
    return all(entry.get("ok") for entry in certification.values())


def _check_intra(params: Mapping[str, Any], result: Record) -> List[str]:
    from repro.dataflow import PartialSumConvention, dataflow_from_dict
    from repro.ir import matmul
    from repro.verify import audit_footprint, audit_memory_access

    m, k, l = params["m"], params["k"], params["l"]
    operator = matmul("mm", m, k, l)
    dataflow = dataflow_from_dict(result["dataflow"])
    convention = PartialSumConvention(params["convention"])
    problems = []
    audited = audit_memory_access(operator, dataflow, convention)
    if audited != result["memory_access"]:
        problems.append(f"memory_access {result['memory_access']} != audit {audited}")
    footprint = audit_footprint(operator, dataflow)
    if footprint > params["buffer_elems"]:
        problems.append(f"footprint {footprint} > buffer {params['buffer_elems']}")
    ideal = m * k + k * l + m * l
    if result["ideal"] != ideal or result["memory_access"] < ideal:
        problems.append(f"memory_access {result['memory_access']} / ideal {result['ideal']} vs {ideal}")
    if params["certify"] and not result.get("certification", {}).get("ok"):
        problems.append("certify requested but certificate missing or failed")
    return problems


def _check_fusion(params: Mapping[str, Any], result: Record, evaluate: Evaluate) -> List[str]:
    referee = evaluate(dict(params, kind="fusion", certify=True))
    if not _certified(referee):
        return [f"certified re-run failed: {referee.get('error') or 'certificate not ok'}"]
    problems = []
    for field in ("fused_memory_access", "unfused_memory_access"):
        if referee["result"][field] != result[field]:
            problems.append(f"{field} {result[field]} != certified {referee['result'][field]}")
    return problems


def _check_dag_plan(params: Mapping[str, Any], result: Record, evaluate: Evaluate) -> List[str]:
    problems = []
    if result["total_memory_access"] < result["ideal_memory_access"]:
        problems.append("total_memory_access below ideal")
    if params["baseline"] and not result.get("baseline", {}).get("agrees"):
        problems.append("enumerative baseline disagrees")
    referee = evaluate(dict(params, kind="dag_plan", certify=True, baseline=False))
    if not _certified(referee):
        problems.append(f"certified re-run failed: {referee.get('error') or 'certificate not ok'}")
    elif referee["result"]["total_memory_access"] != result["total_memory_access"]:
        problems.append(
            f"total_memory_access {result['total_memory_access']} != certified "
            f"{referee['result']['total_memory_access']}"
        )
    return problems


def _graph_ideal(model: str) -> int:
    from repro.workloads import build_layer_graph, model_by_name

    return build_layer_graph(model_by_name(model)).ideal_memory_access()


def _check_graph_plan(params: Mapping[str, Any], result: Record) -> List[str]:
    problems = []
    total = result["total_memory_access"]
    if sum(segment["memory_access"] for segment in result["segments"]) != total:
        problems.append("segment memory_access does not sum to the total")
    if total < _graph_ideal(params["model"]):
        problems.append("total_memory_access below ideal")
    return problems


def _check_platform_compare(params: Mapping[str, Any], result: Record) -> List[str]:
    ideal = _graph_ideal(params["model"])
    return [
        f"{row['platform']} memory_access below ideal"
        for row in result["rows"]
        if row["memory_access"] < ideal
    ]


def check_record(payload: Mapping[str, Any], record: Record, evaluate: Evaluate) -> List[str]:
    """Problems found in ``record``, the answer to ``payload`` (empty = correct).

    ``evaluate`` runs one payload in-process and returns its result
    record; the certified re-runs go through it.
    """

    from repro.service import parse_request

    if not record.get("ok"):
        return [f"error record: {record.get('error')}"]
    request = parse_request(dict(payload))
    if record.get("kind") != request.kind:
        return [f"kind {record.get('kind')!r} != {request.kind!r}"]
    params = request.param_dict
    result = record["result"]
    try:
        if request.kind == "intra":
            return _check_intra(params, result)
        if request.kind == "fusion":
            return _check_fusion(params, result, evaluate)
        if request.kind == "dag_plan":
            return _check_dag_plan(params, result, evaluate)
        if request.kind == "graph_plan":
            return _check_graph_plan(params, result)
        if request.kind == "platform_compare":
            return _check_platform_compare(params, result)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed record: {type(exc).__name__}: {exc}"]
    return [f"no check for kind {request.kind!r}"]


def engine_evaluate() -> Evaluate:
    """An in-process evaluator: a fresh engine, so no result-cache answers."""
    from repro.service import BatchEngine

    def evaluate(payload: Dict[str, Any]) -> Dict[str, Any]:
        return BatchEngine().evaluate(payload)

    return evaluate
