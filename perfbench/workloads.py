"""Seeded request generators for the three benchmark workloads.

Every generator is a pure function of its seed: the same seed yields the
same request payloads, in the same order.  The program under test only
ever sees these payloads (plain ``repro batch`` JSON objects).

Variance control: each workload is built from fixed-composition *blocks*
(sweep-cold), one balanced *cycle* (plan-models) or a fixed key pool with
stratified arrivals and keys (serve-hot).  The seed varies shapes,
buffers, flags and order, but not how much of each kind of work a run
contains, so two seeds measure the same mix and their figures are
comparable.  An offline run repeats the seed's set of blocks, or its
cycle, unchanged.
"""

from __future__ import annotations

import json
import math
import random
from typing import Dict, Iterator, List, Tuple

Payload = Dict[str, object]

WORKLOADS = ("sweep-cold", "plan-models", "serve-hot")

#: The paper's four buffer regimes (``repro.core.regimes``), in order.
REGIMES = ("tiny", "small", "medium", "large")

#: Matmul extent classes: small, medium and large dims, and skinny K
#: (a reduction dim far below M and L).  A request slot fixes the class of
#: each dim; the seed draws the extent inside it.
DIM_CLASSES = {
    "S": (64, 96, 128, 192, 256),
    "M": (384, 512, 768, 1024),
    "L": (1536, 2048, 3072, 4096),
    "K": (8, 16, 24, 32, 48),
}

#: Table II models (``repro.workloads.PAPER_MODELS``) and the ``dag_plan``
#: scenario catalog (``repro.plan.list_scenarios``).
MODELS = ("Bert", "GPT-2", "Blenderbot", "XLM", "DeBERTa-v2", "LLaMA2", "ALBERT")
SCENARIOS = ("attention", "decode", "moe", "training-backward")
#: Buffer sizes (elements) plan-models draws from: few enough that
#: sub-problems repeat across requests, which is what its caches serve.
PLAN_BUFFERS = (4096, 16384, 65536, 262144)


def payload_id(payload: Payload) -> str:
    """Canonical JSON of a payload (the benchmark's own identity)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def regime_buffer(rng: random.Random, m: int, k: int, l: int, regime: str) -> int:
    """A buffer size (elements) inside ``regime`` for an ``M x K x L`` matmul.

    Mirrors the thresholds of ``repro.core.regimes.classify_buffer``:
    tiny <= d_min^2/4 < small <= d_min^2/2 < medium <= Tensor_min < large.
    """

    d_min = min(m, k, l)
    tensor_min = min(m * k, k * l, m * l)
    low, high = {
        "tiny": (max(8, d_min * d_min // 16), d_min * d_min // 4),
        "small": (d_min * d_min // 4 + 1, d_min * d_min // 2),
        "medium": (d_min * d_min // 2 + 1, tensor_min),
        "large": (tensor_min + 1, 2 * tensor_min),
    }[regime]
    return rng.randint(low, max(low, high))


# ----------------------------------------------------------------------
# sweep-cold
# ----------------------------------------------------------------------
#: One block: per regime, four ``intra`` shape classes (M, K, L) and one
#: ``fusion`` shape class (M, K, L, N); two ``intra`` slots certify.
#: Every block has this composition, so blocks and seeds cost alike.
SWEEP_INTRA = ("LKL", "MMM", "SML", "LSM")
SWEEP_FUSION = {"tiny": "SMSM", "small": "MMMM", "medium": "SSSS", "large": "SMSM"}
SWEEP_CERTIFY = (("small", "MMM"), ("large", "SML"))
SWEEP_BLOCK = len(REGIMES) * (len(SWEEP_INTRA) + 1)
#: Blocks in a seed's set; a run repeats the set (see ``offline``).
SWEEP_SET = 3


class _Decks:
    """Extents dealt from a shuffled deck per dim class, refilled when empty.

    Every extent of a class comes up equally often, so a block's cost
    depends little on the draw.
    """

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.decks: Dict[str, List[int]] = {name: [] for name in DIM_CLASSES}

    def deal(self, classes: str) -> List[int]:
        extents = []
        for name in classes:
            deck = self.decks[name]
            if not deck:
                deck.extend(DIM_CLASSES[name])
                self.rng.shuffle(deck)
            extents.append(deck.pop())
        return extents


def _sweep_slot(rng: random.Random, decks: _Decks, regime: str, classes: str) -> Payload:
    m, k, l, *n = decks.deal(classes)
    payload: Payload = {
        "kind": "fusion" if n else "intra",
        "m": m,
        "k": k,
        "l": l,
        "buffer_elems": regime_buffer(rng, m, k, l, regime),
    }
    if n:
        payload["n"] = n[0]
    if (regime, classes) in SWEEP_CERTIFY:
        payload["certify"] = True
    return payload


def sweep_cold_slots(seed: int) -> Iterator[List[Tuple[str, Payload]]]:
    """Endless key-distinct blocks of ``(regime, payload)`` slots."""
    rng = random.Random(f"sweep-cold:{seed}")
    decks = _Decks(rng)
    seen = set()
    while True:
        block = []
        for regime in REGIMES:
            for classes in SWEEP_INTRA + (SWEEP_FUSION[regime],):
                # A repeat would be a cache hit; redraw the slot until fresh.
                payload = _sweep_slot(rng, decks, regime, classes)
                while payload_id(payload) in seen:
                    payload = _sweep_slot(rng, decks, regime, classes)
                seen.add(payload_id(payload))
                block.append((regime, payload))
        rng.shuffle(block)
        yield block


def sweep_cold_blocks(seed: int) -> Iterator[List[Payload]]:
    """Endless key-distinct blocks of cold ``intra``/``fusion`` requests."""
    for block in sweep_cold_slots(seed):
        yield [payload for _, payload in block]


# ----------------------------------------------------------------------
# plan-models
# ----------------------------------------------------------------------
def plan_models_cycle(seed: int) -> List[List[Payload]]:
    """The seed's cycle: one group of requests per shape.

    A group is the four ``dag_plan`` scenarios at one shape (the pinned
    scenario shape, or a Table II model) plus, for a model,
    ``graph_plan`` and ``platform_compare`` on it, all at one buffer, so
    they share sub-problems.  The seed deals the shapes a balanced
    design: every buffer of :data:`PLAN_BUFFERS` goes to two shapes, and
    ``baseline`` is set on one ``dag_plan`` per shape (a quarter), every
    scenario getting it twice.  It also orders the groups; inside a group
    the order is fixed (scenarios, then ``graph_plan``, then
    ``platform_compare``), so the same requests pay for the sub-problems
    they share on every seed.  A run repeats this cycle unchanged, so its
    work does not depend on how many cycles fit into it.
    """

    rng = random.Random(f"plan-models:{seed}")
    shapes = ("",) + MODELS
    buffers = [PLAN_BUFFERS[i % len(PLAN_BUFFERS)] for i in range(len(shapes))]
    baselines = [SCENARIOS[i % len(SCENARIOS)] for i in range(len(shapes))]
    rng.shuffle(buffers)
    rng.shuffle(baselines)
    cycle: List[List[Payload]] = []
    for model, buffer_elems, baseline in zip(shapes, buffers, baselines):
        group: List[Payload] = []
        for scenario in SCENARIOS:
            payload: Payload = {
                "kind": "dag_plan",
                "scenario": scenario,
                "buffer_elems": buffer_elems,
            }
            if model:
                payload["model"] = model
            if scenario == baseline:
                payload["baseline"] = True
            group.append(payload)
        if model:
            group.append({"kind": "graph_plan", "model": model, "buffer_elems": buffer_elems})
            group.append({"kind": "platform_compare", "model": model, "buffer_elems": buffer_elems})
        cycle.append(group)
    rng.shuffle(cycle)
    return cycle


# ----------------------------------------------------------------------
# serve-hot
# ----------------------------------------------------------------------
#: Offered load (requests/second) of the open loop.
SERVE_RATE = 12.0
#: Distinct keys in the pool, and the Zipf exponent over their ranks.
SERVE_POOL = 40
SERVE_ZIPF = 1.1
#: The hottest ranks, answered once before timing: in the timed phase
#: the hot keys are cache hits and the 7 tail keys are cold misses, one
#: request each (~4%).  Few misses keep the tail percentile inside the
#: cluster of stalled exchanges instead of on its edge with the misses.
SERVE_WARM = 33
#: Kinds of the warmed ranks, repeating in this order.
SERVE_WARM_KINDS = ("intra", "fusion", "intra", "dag_plan", "fusion")
#: Moderate extents keep a cold miss well inside the latency limit.
SERVE_DIMS = (64, 128, 192, 256, 384, 512)
SERVE_SCENARIOS = ("decode", "moe", "training-backward")


def serve_pool(seed: int) -> List[Payload]:
    """The seeded key pool, hottest rank first.

    The kind at each rank is fixed: the warmed ranks hold every
    ``fusion`` and ``dag_plan`` key among ``intra`` keys, the cold tail
    only ``intra`` keys, and the buffer regime of an ``intra`` or
    ``fusion`` rank is fixed too, so every seed has the same mix of hits
    and of misses; the seed draws shapes, buffers and scenarios.
    """

    rng = random.Random(f"serve-pool:{seed}")
    pool: List[Payload] = []
    seen = set()
    while len(pool) < SERVE_POOL:
        rank = len(pool)
        kind = SERVE_WARM_KINDS[rank % len(SERVE_WARM_KINDS)] if rank < SERVE_WARM else "intra"
        m, k, l = (rng.choice(SERVE_DIMS) for _ in range(3))
        regime = REGIMES[rank % len(REGIMES)]
        if kind == "dag_plan":
            payload: Payload = {
                "kind": kind,
                "scenario": rng.choice(SERVE_SCENARIOS),
                "buffer_elems": rng.choice(PLAN_BUFFERS),
            }
        else:
            payload = {
                "kind": kind, "m": m, "k": k, "l": l,
                "buffer_elems": regime_buffer(rng, m, k, l, regime),
            }
            if kind == "fusion":
                payload["n"] = rng.choice(SERVE_DIMS)
        ident = payload_id(payload)
        if ident not in seen:
            seen.add(ident)
            pool.append(payload)
    return pool


def serve_schedule(seed: int, seconds: float) -> List[Tuple[float, int]]:
    """Open-loop arrivals: ``(due offset in s, pool index)`` pairs.

    Poisson arrivals at :data:`SERVE_RATE`, stratified so that every seed
    offers the same load: the ``rate * seconds`` gaps are the exponential
    distribution's quantiles at ``(i + 0.5) / count`` (rescaled to end at
    ``seconds``), and each pool rank gets its Zipf share of the requests
    (largest remainders).  The seed shuffles both, so it sets the order
    of gaps and of keys, not how many short gaps or cold keys there are.
    """

    rng = random.Random(f"serve-schedule:{seed}")
    count = max(1, round(SERVE_RATE * seconds))
    gaps = [-math.log(1.0 - (i + 0.5) / count) for i in range(count)]
    rng.shuffle(gaps)
    scale = seconds / sum(gaps)
    weights = [1.0 / (rank + 1) ** SERVE_ZIPF for rank in range(SERVE_POOL)]
    shares = [count * weight / sum(weights) for weight in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(SERVE_POOL), key=lambda rank: counts[rank] - shares[rank])
    for rank in by_remainder[: count - sum(counts)]:
        counts[rank] += 1
    keys = [rank for rank, times in enumerate(counts) for _ in range(times)]
    rng.shuffle(keys)
    schedule = []
    due = 0.0
    for gap, key in zip(gaps, keys):
        schedule.append((due, key))
        due += gap * scale
    return schedule
