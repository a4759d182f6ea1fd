"""Tabulated graph-partition DP vs its per-group reference.

:func:`partition_graph` prices segments from per-layer tables built once
per call.  The reference DP below prices every segment through
:func:`estimate_group_cost`, the readable per-group estimator, and must
choose exactly the same groups and batch units — the DP's tie-breaks
depend on every cost being bit-equal.
"""

import math

import pytest

from repro.arch import DEFAULT_ENERGY, ArchConfig, g_arch, s_arch
from repro.cli.main import table1_candidates
from repro.core.encoding import LayerGroup
from repro.core.graphpart import (
    _segment_pricer,
    estimate_group_cost,
    partition_graph,
)
from repro.errors import InvalidWorkloadError
from repro.units import GB, MB
from repro.workloads.models import MODEL_REGISTRY, build

BATCHES = (1, 3, 8, 64)
GROUP_LIMITS = (6, 10)


def quad_arch():
    """2x2 cores, so ``limit = min(max_group_layers, 4) = 4``."""
    return ArchConfig(
        cores_x=2, cores_y=2, xcut=1, ycut=1, dram_bw=32 * GB,
        noc_bw=32 * GB, d2d_bw=16 * GB, glb_bytes=1 * MB,
        macs_per_core=1024, name="quad",
    )


def _table1_pair():
    cands = table1_candidates(72, False)
    return cands[0], cands[-1]


ARCHS = {
    "s-arch": s_arch,
    "g-arch": g_arch,
    "quad": quad_arch,
    "table1-first": lambda: _table1_pair()[0],
    "table1-last": lambda: _table1_pair()[1],
}


def reference_partition(graph, arch, batch, max_group_layers, estimates):
    """The DP over :func:`estimate_group_cost`; ``estimates`` memoizes
    segment estimates across group limits of one (graph, arch, batch)."""
    order = graph.topological_order()
    n = len(order)
    limit = min(max_group_layers, arch.n_cores)
    dp = [math.inf] * (n + 1)
    dp[0] = 0.0
    choice = [(0, 1)] * (n + 1)
    for end in range(1, n + 1):
        for start in range(max(0, end - limit), end):
            est = estimates.get((start, end))
            if est is None:
                est = estimate_group_cost(graph, order[start:end], arch, batch)
                estimates[(start, end)] = est
            cost = dp[start] + est.cost
            if cost < dp[end]:
                dp[end] = cost
                choice[end] = (start, est.batch_unit)
    groups = []
    end = n
    while end > 0:
        start, unit = choice[end]
        groups.append(LayerGroup(tuple(order[start:end]), batch_unit=unit))
        end = start
    return groups[::-1]


@pytest.mark.parametrize("arch_name", ARCHS)
@pytest.mark.parametrize("model", MODEL_REGISTRY)
def test_partition_matches_reference(model, arch_name):
    graph = build(model)
    arch = ARCHS[arch_name]()
    for batch in BATCHES:
        estimates = {}
        for max_group_layers in GROUP_LIMITS:
            got = partition_graph(graph, arch, batch, max_group_layers)
            want = reference_partition(
                graph, arch, batch, max_group_layers, estimates
            )
            assert got == want, (model, arch_name, batch, max_group_layers)


@pytest.mark.parametrize("model, batch", [("GN", 8), ("RN-50", 3)])
def test_every_segment_prices_bit_equal(model, batch):
    """GN exercises concat fan-in, RN-50 residual adds: every contiguous
    segment's cost and batch unit must equal the reference estimate."""
    graph = build(model)
    arch = g_arch()
    order = graph.topological_order()
    price = _segment_pricer(graph, order, arch, batch, DEFAULT_ENERGY)
    for start in range(len(order)):
        for end in range(start + 1, len(order) + 1):
            est = estimate_group_cost(graph, order[start:end], arch, batch)
            assert price(start, end) == (est.cost, est.batch_unit), (
                model, start, end)


@pytest.mark.parametrize("batch", [0, -1, -64])
def test_rejects_batch_below_one(batch):
    with pytest.raises(InvalidWorkloadError, match="batch"):
        partition_graph(build("TF"), g_arch(), batch)
