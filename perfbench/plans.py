"""Seeded request plans for the three workloads.

Every input comes from the ``repro.workloads`` generators (through
``repro.loadgen.traffic.family_document`` for the small all-family
corpus) and is a pure function of ``(workload, seed, round, scale)``:
the same arguments always build the same requests, in the same order.
Plans are built during set-up, before the timed phase starts.

A request is ``(kind, family, instance, params)``: ``kind`` labels the
traffic class (``cold``, ``warm``, ``repeat``, ``edit``, ``new``),
``instance`` is the engine-level object the client passes to
``solve``, and ``params`` the family keywords (``budget=``, ``power=``).
"""

from __future__ import annotations

import dataclasses
import zlib
from typing import Any, Dict, List, NamedTuple, Tuple

import numpy as np

from repro.core.instance import Instance
from repro.loadgen.traffic import ALL_FAMILIES, family_document
from repro.rect.instance import RectInstance
from repro.topology.instance import RingInstance
from repro.workloads import (
    random_demand_instance,
    random_general_instance,
    random_rects,
    random_ring_instance,
)

#: The four FirstFit arms and their cold_firstfit sizes (n at scale 1),
#: chosen so that three arms take about 0.1 s per cold solve on a
#: 2-vCPU host without numba and the demand arm about half that: the
#: median latency then sits inside one cluster instead of jumping
#: between arms.  The demand arm's per-job ``_fits`` scan is ~20x
#: slower and its cost rises steeply past n = 380, so it stays smaller.
FIRSTFIT_SIZES = {
    "minbusy": 2700,
    "ring": 1550,
    "rect2d": 2400,
    "capacity": 340,
}
FIRSTFIT_FAMILIES = tuple(FIRSTFIT_SIZES)

#: Machine capacity of every generated FirstFit instance.
G = 4
#: Arc and side ratios stay below the paper's beta = 3.3, so ring and
#: rect2d route to their FirstFit arm rather than the bucketed one.
_RING_ARCS = {"min_arc": 0.1, "max_arc": 0.2}
_RECT_GAMMA = {"gamma1": 2.0, "gamma2": 2.0}

#: warm_remote: four MinBusy instances, all solved during set-up.
WARM_INSTANCES = 4
WARM_N = 10_000

#: serve_mix: traffic shares per block of 20 requests, corpus shape and
#: the size of the edited and never-seen FirstFit instances.
MIX_BLOCK = (("repeat", 12), ("edit", 5), ("new", 3))
MIX_CORPUS_PER_FAMILY = 6
MIX_BASES_PER_FAMILY = 2
MIX_SIZES = {"minbusy": 400, "ring": 400, "rect2d": 400, "capacity": 180}
MIX_ZIPF_S = 1.1


class Request(NamedTuple):
    kind: str
    family: str
    instance: Any
    params: Dict[str, Any]


def derive_seed(*parts: Any) -> int:
    """A stable 32-bit seed from any printable parts (no salted hash)."""
    return zlib.crc32(":".join(map(str, parts)).encode()) & 0xFFFFFFFF


def _size(n: int, scale: float) -> int:
    return max(8, int(round(n * scale)))


def firstfit_instance(family: str, n: int, seed: int) -> Any:
    """One FirstFit-routed instance of ``family`` with ``n`` items."""
    if family == "minbusy":
        return random_general_instance(n, G, seed=seed)
    if family == "capacity":
        return random_demand_instance(n, G, seed=seed, max_demand=3)
    if family == "ring":
        return random_ring_instance(n, G, seed=seed, **_RING_ARCS)
    if family == "rect2d":
        return RectInstance(
            rects=tuple(random_rects(n, seed=seed, **_RECT_GAMMA)), g=G
        )
    raise ValueError(f"no FirstFit generator for {family!r}")


def _items(instance: Any) -> Tuple[Any, ...]:
    return instance.rects if isinstance(instance, RectInstance) else instance.jobs


def one_item_edit(family: str, base: Any, seed: int) -> Any:
    """``base`` with one item's geometry replaced by a freshly drawn one.

    The replacement item comes from the same generator (so it stays in
    the FirstFit arm's ranges) and keeps the victim's id; everything
    else is unchanged, which is what the repair tier's one-row delta
    probe looks for.
    """
    rng = np.random.default_rng(seed)
    items = list(_items(base))
    victim = int(rng.integers(len(items)))
    fresh = _items(firstfit_instance(family, 1, seed))[0]
    fields = {
        f.name: getattr(fresh, f.name)
        for f in dataclasses.fields(fresh)
        if f.name not in ("job_id", "rect_id")
    }
    items[victim] = dataclasses.replace(items[victim], **fields)
    if family == "rect2d":
        return RectInstance(rects=tuple(items), g=base.g)
    if family == "ring":
        return RingInstance(jobs=tuple(items), g=base.g)
    return Instance(jobs=tuple(items), g=base.g)


# ----------------------------------------------------------------------
# cold_firstfit
# ----------------------------------------------------------------------


def cold_firstfit(seed: int, rnd: int, count: int, scale: float) -> List[Request]:
    """Never-seen FirstFit instances, round-robin over the four arms."""
    out = []
    for i in range(count):
        family = FIRSTFIT_FAMILIES[i % len(FIRSTFIT_FAMILIES)]
        n = _size(FIRSTFIT_SIZES[family], scale)
        inst = firstfit_instance(family, n, derive_seed("cold", seed, rnd, i))
        out.append(Request("cold", family, inst, {}))
    return out


# ----------------------------------------------------------------------
# warm_remote
# ----------------------------------------------------------------------


def warm_instances(seed: int, rnd: int, scale: float) -> List[Any]:
    return [
        random_general_instance(
            _size(WARM_N, scale), G, seed=derive_seed("warm", seed, rnd, k)
        )
        for k in range(WARM_INSTANCES)
    ]


def warm_remote(seed: int, rnd: int, count: int, instances: List[Any]) -> List[Request]:
    """Repeats over the pre-solved instances in a seeded order that
    visits each one equally often."""
    rng = np.random.default_rng(derive_seed("warm-order", seed, rnd))
    order: List[int] = []
    while len(order) < count:
        order.extend(rng.permutation(len(instances)).tolist())
    return [Request("warm", "minbusy", instances[k], {}) for k in order[:count]]


# ----------------------------------------------------------------------
# serve_mix
# ----------------------------------------------------------------------


class MixPlan(NamedTuple):
    #: (family, instance) of the FirstFit entries the edits derive from.
    bases: List[Tuple[str, Any]]
    requests: List[Request]


def serve_mix(seed: int, rnd: int, count: int, scale: float) -> MixPlan:
    """The Zipf repeat / one-job edit / never-seen mix.

    Kinds are interleaved in blocks of 20 (12 repeats, 5 edits, 3 new,
    shuffled within the block), so every part of the timed phase, and
    every round, carries the same traffic shares.
    """
    from repro.io import objective_instance_from_dict
    from repro.service.protocol import params_from_doc

    rng = np.random.default_rng(derive_seed("mix", seed, rnd))
    docs = [
        (family, *family_document(family, derive_seed("corpus", seed, rnd, family, j)))
        for family in ALL_FAMILIES
        for j in range(MIX_CORPUS_PER_FAMILY)
    ]
    # (family, instance, params), most popular first.
    corpus = [
        (family, objective_instance_from_dict(doc, family), params_from_doc(family, params or None))
        for family, doc, params in (docs[i] for i in rng.permutation(len(docs)))
    ]
    weights = 1.0 / np.arange(1, len(corpus) + 1) ** MIX_ZIPF_S
    weights /= weights.sum()
    bases = [
        (
            family,
            firstfit_instance(
                family, _size(MIX_SIZES[family], scale), derive_seed("base", seed, rnd, family, j)
            ),
        )
        for family in FIRSTFIT_FAMILIES
        for j in range(MIX_BASES_PER_FAMILY)
    ]
    block = [kind for kind, share in MIX_BLOCK for _ in range(share)]
    requests: List[Request] = []
    counters = {"edit": 0, "new": 0}
    while len(requests) < count:
        for kind in rng.permutation(block):
            if kind == "repeat":
                family, inst, params = corpus[int(rng.choice(len(corpus), p=weights))]
                requests.append(Request("repeat", family, inst, params))
                continue
            i = counters[kind]
            counters[kind] += 1
            if kind == "edit":
                family, base = bases[int(rng.integers(len(bases)))]
                inst = one_item_edit(family, base, derive_seed("edit", seed, rnd, i))
            else:
                family = FIRSTFIT_FAMILIES[i % len(FIRSTFIT_FAMILIES)]
                n = _size(MIX_SIZES[family], scale)
                inst = firstfit_instance(family, n, derive_seed("new", seed, rnd, i))
            requests.append(Request(str(kind), family, inst, {}))
    return MixPlan(bases=bases, requests=requests[:count])
