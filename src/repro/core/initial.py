"""Stripe-based heuristic initial scheme (Sec V-B1).

"For each layer group, the initial LP SPM scheme is obtained using a
widely adopted heuristic stripe-based strategy [15], [57], [66]": cores
are allocated to layers proportionally to their compute, each layer gets
a *consecutive* run of cores in snake (boustrophedon) order — which forms
the rectangle-ish clustered groups the heuristics use — and partitions
are factored greedily along the dimensions with the largest extents.
Explicitly managed data flows default to DRAM interleaving.
"""

from __future__ import annotations

import random

from repro.arch.params import ArchConfig
from repro.core.encoding import (
    IMPLICIT,
    INTERLEAVED,
    FlowOfData,
    LayerGroup,
    LayerGroupMapping,
    MappingScheme,
    Partition,
    fd_requirements,
)
from repro.core.graphpart import PartitionInputs, partition_inputs
from repro.errors import InvalidMappingError
from repro.workloads.graph import DNNGraph
from repro.workloads.layer import Layer


#: Core counts repeat endlessly in the SA operators' partition
#: re-draws; factorizations are tiny, so memoize them outright.
_PRIME_FACTORS: dict[int, list[int]] = {}


def prime_factors(n: int) -> list[int]:
    """Prime factorization (descending), e.g. 12 -> [3, 2, 2]."""
    cached = _PRIME_FACTORS.get(n)
    if cached is not None:
        return cached
    factors = []
    m = n
    d = 2
    while d * d <= m:
        while m % d == 0:
            factors.append(d)
            m //= d
        d += 1
    if m > 1:
        factors.append(m)
    factors = sorted(factors, reverse=True)
    _PRIME_FACTORS[n] = factors
    return factors


def factor_partition(
    layer: Layer, n_cores: int, batch_unit: int,
    rng: random.Random | None = None,
) -> Partition | None:
    """Factor ``n_cores`` into a feasible (H, W, B, K) partition.

    Greedy: each prime factor goes to the dimension with the most
    remaining headroom (extent / current count); with ``rng`` the choice
    is randomized over the feasible dimensions (used by SA operators).
    Returns None when no feasible assignment exists.
    """
    extents = [layer.out_h, layer.out_w, batch_unit, layer.out_k]
    counts = [1, 1, 1, 1]
    for f in prime_factors(n_cores):
        feasible = [i for i in range(4) if counts[i] * f <= extents[i]]
        if not feasible:
            return None
        if rng is None:
            choice = max(feasible, key=lambda i: extents[i] / counts[i])
        else:
            choice = rng.choice(feasible)
        counts[choice] *= f
    return Partition(h=counts[0], w=counts[1], b=counts[2], k=counts[3])


def largest_feasible_partition(
    layer: Layer, n_cores: int, batch_unit: int
) -> tuple[Partition, int]:
    """Largest core count <= n_cores with a feasible partition."""
    for nc in range(n_cores, 0, -1):
        part = factor_partition(layer, nc, batch_unit)
        if part is not None:
            return part, nc
    raise InvalidMappingError(
        f"{layer.name}: no feasible partition for any core count"
    )


def snake_order(cores_x: int, cores_y: int) -> list[int]:
    """Row-major boustrophedon core order: consecutive runs are compact."""
    order = []
    for y in range(cores_y):
        xs = range(cores_x) if y % 2 == 0 else range(cores_x - 1, -1, -1)
        for x in xs:
            order.append(y * cores_x + x)
    return order


def allocate_cores(weights: list[float], total: int) -> list[int]:
    """Largest-remainder proportional allocation, each share >= 1."""
    n = len(weights)
    if n > total:
        raise InvalidMappingError(
            f"cannot allocate {total} cores to {n} layers"
        )
    weight_sum = sum(weights) or 1.0
    raw = [max(w, 1e-12) / weight_sum * total for w in weights]
    shares = [max(1, int(r)) for r in raw]
    # Fix up the sum with largest remainders (or smallest shares).
    while sum(shares) > total:
        i = max(range(n), key=lambda j: shares[j])
        shares[i] -= 1
    remainders = sorted(
        range(n), key=lambda j: raw[j] - shares[j], reverse=True
    )
    idx = 0
    while sum(shares) < total:
        shares[remainders[idx % n]] += 1
        idx += 1
    return shares


def default_fd(graph: DNNGraph, group: LayerGroup, name: str) -> FlowOfData:
    """Interleave every explicitly managed flow (FD value 0)."""
    req = fd_requirements(graph, group, name)
    return FlowOfData(
        ifmap=INTERLEAVED if req.ifmap else IMPLICIT,
        weight=INTERLEAVED if req.weight else IMPLICIT,
        ofmap=INTERLEAVED if req.ofmap else IMPLICIT,
    )


def initial_lms(
    graph: DNNGraph, group: LayerGroup, arch: ArchConfig | PartitionInputs
) -> LayerGroupMapping:
    """Build the stripe-based heuristic scheme for a layer group."""
    arch = partition_inputs(arch)
    names = list(group.layers)
    macs = [graph.layer(n).macs(group.batch_unit) for n in names]
    shares = allocate_cores([float(m) for m in macs], arch.n_cores)
    pool = snake_order(arch.cores_x, arch.cores_y)
    schemes: dict[str, MappingScheme] = {}
    cursor = 0
    spare: list[int] = []
    for name, share in zip(names, shares):
        layer = graph.layer(name)
        part, used = largest_feasible_partition(layer, share, group.batch_unit)
        run = pool[cursor:cursor + share]
        cursor += share
        core_group = tuple(run[:used])
        spare.extend(run[used:])
        schemes[name] = MappingScheme(
            part=part, core_group=core_group, fd=default_fd(graph, group, name)
        )
    return LayerGroupMapping(group, schemes)
