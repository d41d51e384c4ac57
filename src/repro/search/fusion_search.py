"""Searching-based inter-operator (fused) dataflow optimization.

The inter-operator analogue of :mod:`repro.search.exhaustive`: enumerate
global tile vectors for a fused chain and keep the best *fusable* dataflow
-- the paper's DAT baseline applied to fusion.  The fused space is much
larger than the intra space (tiles over the union of both operators' dims),
which is the paper's point about search time exploding when fusion enters
the picture.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..ir.operator import TensorOperator
from ..dataflow.cost import PartialSumConvention
from ..dataflow.fusion_nest import (
    FusedChain,
    FusedDataflow,
    fused_memory_access,
)
from ..dataflow.tiling import Tiling
from .space import power_of_two_tiles


@dataclass(frozen=True)
class FusedSearchResult:
    """Outcome of a fused-space search."""

    chain: FusedChain
    dataflow: FusedDataflow
    memory_access: int
    evaluations: int
    label: str

    def describe(self) -> str:
        ops = "+".join(op.name for op in self.chain.ops)
        return (
            f"{self.label}[{ops}]: MA={self.memory_access} after "
            f"{self.evaluations} evaluations [{self.dataflow.describe(self.chain)}]"
        )


def _default_structure(chain: FusedChain) -> Tuple[Tuple[str, ...], Dict[str, Tuple[str, ...]]]:
    common = chain.common_dims
    shared_order = tuple(common)
    private_orders = {}
    common_set = set(common)
    for index, op in enumerate(chain.ops):
        private_orders[op.name] = tuple(
            dim for dim in chain.op_global_dims(index) if dim not in common_set
        )
    return shared_order, private_orders


def exhaustive_fused_search(
    ops: Sequence[TensorOperator],
    buffer_elems: int,
    grid: Optional[Dict[str, Tuple[int, ...]]] = None,
    convention: PartialSumConvention = PartialSumConvention.SINGLE,
) -> Optional[FusedSearchResult]:
    """Brute-force the fused tile space of a chain.

    Tiles default to powers of two plus the full extent per global dim.
    Returns ``None`` when no grid point is simultaneously feasible (fits the
    buffer) and fusable (non-redundant intermediates).
    """

    chain = FusedChain.from_ops(ops)
    shared_order, private_orders = _default_structure(chain)
    if grid is None:
        grid = {
            dim: power_of_two_tiles(extent)
            for dim, extent in chain.global_dims.items()
        }
    dims = tuple(chain.global_dims)
    best: Optional[Tuple[FusedDataflow, int]] = None
    evaluations = 0
    for tiles in itertools.product(*(grid[dim] for dim in dims)):
        dataflow = FusedDataflow(
            shared_order=shared_order,
            private_orders=private_orders,
            tiling=Tiling(dict(zip(dims, tiles))),
        )
        if dataflow.buffer_footprint(chain) > buffer_elems:
            continue
        evaluations += 1
        report = fused_memory_access(chain, dataflow, convention)
        if not report.fusable:
            continue
        if best is None or report.total < best[1]:
            best = (dataflow, report.total)
    if best is None:
        return None
    return FusedSearchResult(
        chain=chain,
        dataflow=best[0],
        memory_access=best[1],
        evaluations=evaluations,
        label="exhaustive-fused",
    )

