"""Process-wide memoization of intra-operator optimization.

Sweeps and the graph planner re-derive the same intra-operator optimum
for identical (dims, buffer) tuples -- a figure harness sweeping buffer
sizes, the chain planner costing single-operator segments, and a bisection
over the MA(BS) curve can each ask for ``optimize_intra`` on the same
operator shape thousands of times.  This module holds one shared bounded
LRU over those results.

Keys are *structural*: the operator's dims, indexing pattern, dtypes and
repetition count -- not its name -- so ``mm1`` and ``proj_q`` with the same
shape share an entry.  On a hit whose cached operator differs from the
requested one, the cached *dataflow* is re-scored against the requested
operator through the ordinary cost model (one ``memory_access`` call
instead of a full candidate enumeration), so returned results always carry
the caller's operator and tensor names.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..core.fusion import FusionMedium, optimize_fused
from ..core.intra import IntraResult, optimize_intra
from ..core.regimes import classify_buffer
from ..dataflow.cost import PartialSumConvention, memory_access
from ..ir.operator import TensorOperator
from .cache import CacheStats, LRUCache

#: Default bound of the shared cache (entries, not bytes).
DEFAULT_INTRA_CACHE_SIZE = 8192

#: Default bound of the shared fused-segment cache.  Fused results embed
#: their chain (op names included), so entries are keyed exactly and the
#: cache mainly serves searches that re-cost the same segment: the chain
#: DP revisits every (start, end) window, and the enumerative DAG mapper
#: revisits the same segment across thousands of candidate partitions.
DEFAULT_FUSED_CACHE_SIZE = 4096

_cache = LRUCache(DEFAULT_INTRA_CACHE_SIZE)
_fused_cache = LRUCache(DEFAULT_FUSED_CACHE_SIZE)


def operator_signature(operator: TensorOperator) -> Tuple:
    """A name-free structural identity for an operator.

    Two operators with equal signatures have identical optimization
    problems: same loop extents (in canonical order), same tensor indexing
    patterns, same dtypes, same repetition count.
    """

    tensors = list(operator.inputs) + [operator.output]
    return (
        tuple(operator.dims.items()),
        tuple(tuple(operator.indexing[tensor.name]) for tensor in tensors),
        tuple(tensor.dtype_bytes for tensor in tensors),
        operator.count,
    )


def cached_optimize_intra(
    operator: TensorOperator,
    buffer_elems: int,
    convention: PartialSumConvention = PartialSumConvention.SINGLE,
) -> IntraResult:
    """Drop-in :func:`repro.core.optimize_intra` backed by the shared cache.

    Infeasible/unsupported operators raise exactly as the uncached function
    does; failures are never cached.
    """

    key = (operator_signature(operator), buffer_elems, convention.value)
    hit: Optional[IntraResult] = _cache.get(key)
    if hit is not None:
        if hit.operator.name == operator.name:
            return hit
        # Same structure, different name: re-score the winning dataflow
        # against the caller's operator so names in the report are right.
        report = memory_access(operator, hit.dataflow, convention)
        regime = (
            None if hit.regime is None else classify_buffer(operator, buffer_elems)
        )
        return IntraResult(
            operator=operator,
            dataflow=hit.dataflow,
            report=report,
            regime=regime,
            label=hit.label,
        )
    result = optimize_intra(operator, buffer_elems, convention)
    _cache.put(key, result)
    return result


def fused_segment_key(
    ops: Sequence[TensorOperator],
    buffer_elems: int,
    convention: PartialSumConvention,
    medium: FusionMedium,
    register_elems: Optional[int],
) -> Tuple:
    """Exact cache key for one fused-segment optimization problem.

    Unlike :func:`operator_signature` this includes operator *names*:
    a :class:`~repro.core.fusion.FusedResult` embeds its chain (tensors
    and all), so sharing entries across renamed chains would require a
    full rebuild on every hit.  Name-keyed entries still collapse the
    dominant repetition -- search layers re-costing one segment many
    times.
    """

    return (
        tuple((op.name, operator_signature(op)) for op in ops),
        buffer_elems,
        convention.value,
        medium.value,
        register_elems,
    )


def cached_optimize_fused(
    ops: Sequence[TensorOperator],
    buffer_elems: int,
    convention: PartialSumConvention = PartialSumConvention.SINGLE,
    medium: FusionMedium = FusionMedium.MEMORY,
    register_elems: Optional[int] = None,
):
    """Memoized :func:`repro.core.fusion.optimize_fused` (memory medium etc.).

    Infeasible outcomes (``None``) are cached too -- the enumerative DAG
    mapper asks about the same impossible segment across many candidate
    partitions, and re-deriving "does not fit" each time is as expensive
    as re-deriving a feasible dataflow.
    """

    key = fused_segment_key(ops, buffer_elems, convention, medium, register_elems)
    hit = _fused_cache.get(key)
    if hit is not None:
        return hit[0]
    result = optimize_fused(
        list(ops),
        buffer_elems,
        convention=convention,
        medium=medium,
        register_elems=register_elems,
    )
    _fused_cache.put(key, (result,))
    return result


def intra_cache_stats() -> CacheStats:
    """Counters of the shared intra-operator cache."""
    return _cache.stats()


def fused_cache_stats() -> CacheStats:
    """Counters of the shared fused-segment cache."""
    return _fused_cache.stats()


def clear_intra_cache() -> None:
    """Drop all entries and reset counters (mainly for tests)."""
    _cache.clear()
    _cache.reset_stats()


def clear_fused_cache() -> None:
    """Drop all fused-segment entries and reset counters."""
    _fused_cache.clear()
    _fused_cache.reset_stats()


def configure_intra_cache(maxsize: int) -> None:
    """Replace the shared cache with a fresh one bounded at ``maxsize``."""
    global _cache
    _cache = LRUCache(maxsize)
