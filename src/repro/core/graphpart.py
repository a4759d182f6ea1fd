"""DP-based graph partitioning into layer groups (Sec V-B).

Gemini "employ[s] the same DP-based graph partition algorithm as
Tangram [15]": layers in topological order are segmented into contiguous
groups, and the dynamic program minimizes the summed estimated cost,
also choosing the batch unit (samples per pipeline stage) per group.

The segment-cost estimator is deliberately cheap (no NoC detail): it
balances the DRAM traffic a fusion saves (inter-group feature maps stay
on-chip) against pipeline fill/drain loss and per-layer core-count
granularity — the same trade-off the paper describes for pipeline depth
(Sec VII-A2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from repro.arch.energy import DEFAULT_ENERGY, EnergyModel
from repro.arch.params import ArchConfig
from repro.core.encoding import LayerGroup
from repro.errors import InvalidWorkloadError
from repro.workloads.graph import DNNGraph


@dataclass(frozen=True)
class GroupEstimate:
    """Closed-form cost estimate of one candidate group.

    ``cost`` must be *additive* across groups for the DP to compose, so
    instead of the (non-decomposable) global ``E x D`` product we use the
    linearization ``E + P_ref x D`` where ``P_ref`` is the accelerator's
    full-load MAC power: saving a joule and saving a full-load-second are
    weighed equally.
    """

    delay: float
    energy: float
    batch_unit: int
    ref_power: float

    @property
    def cost(self) -> float:
        return self.energy + self.ref_power * self.delay


class PartitionInputs(NamedTuple):
    """The arch fields graph partitioning and the stripe heuristic read.

    :func:`partition_graph`, :func:`estimate_group_cost` and
    :func:`~repro.core.initial.initial_lms` read the arch only through
    this view, so a field they do not list here raises
    ``AttributeError``.  It is also part of the key under which a
    :class:`~repro.core.store.CoreStore` memoizes initial mappings:
    cuts, NoC/D2D bandwidths, GLB size and the fabric are not in it.
    """

    n_cores: int
    cores_x: int
    cores_y: int
    peak_macs_per_s: float
    dram_bw: float
    n_dram: int


def partition_inputs(arch: ArchConfig | PartitionInputs) -> PartitionInputs:
    """``arch``'s :class:`PartitionInputs` (a view passes through)."""
    if isinstance(arch, PartitionInputs):
        return arch
    return PartitionInputs(arch.n_cores, arch.cores_x, arch.cores_y,
                           arch.peak_macs_per_s, arch.dram_bw, arch.n_dram)


def _candidate_units(batch: int) -> list[int]:
    units = [u for u in (1, 2, 4, 8, 16, 32, 64) if u <= batch]
    return units or [1]


def estimate_group_cost(
    graph: DNNGraph,
    names: list[str],
    arch: ArchConfig | PartitionInputs,
    batch: int,
    energy: EnergyModel = DEFAULT_ENERGY,
) -> GroupEstimate:
    """Best-batch-unit analytic estimate for a contiguous group."""
    arch = partition_inputs(arch)
    inside = set(names)
    total_weights = sum(graph.layer(n).weight_bytes() for n in names)
    ref_power = arch.peak_macs_per_s * energy.e_mac
    best: GroupEstimate | None = None
    for unit in _candidate_units(batch):
        rounds = math.ceil(batch / unit)
        macs = sum(graph.layer(n).macs(unit) for n in names)
        # Bytes entering/leaving the group per round via DRAM.
        io_bytes = 0
        for n in names:
            layer = graph.layer(n)
            for s in graph.input_slices(n):
                if s.producer is None or s.producer not in inside:
                    io_bytes += layer.ifmap_bytes(unit) * (
                        s.channels / max(1, layer.in_c)
                    )
            if any(succ not in inside for succ in graph.successors(n)) or \
                    not graph.successors(n):
                io_bytes += layer.ofmap_bytes(unit)
        weights_per_round = total_weights / rounds
        dram_bytes = io_bytes + weights_per_round
        compute = macs / (arch.peak_macs_per_s * 0.6)
        dram_t = dram_bytes / arch.dram_bw
        stage = max(compute, dram_t)
        delay = stage * (rounds + len(names) - 1)
        joules = (
            macs * rounds * energy.e_mac
            + (io_bytes * rounds + total_weights) * energy.e_dram
        )
        est = GroupEstimate(
            delay=delay, energy=joules, batch_unit=unit, ref_power=ref_power
        )
        if best is None or est.cost < best.cost:
            best = est
    return best


def _segment_pricer(
    graph: DNNGraph,
    order: list[str],
    arch: PartitionInputs,
    batch: int,
    energy: EnergyModel,
):
    """Tabulate the graph once; return ``price(start, end)``.

    ``price`` gives ``(cost, batch_unit)`` of the contiguous group
    ``order[start:end]`` exactly as :func:`estimate_group_cost` would:
    the same terms are accumulated in the same order with the same
    operators, so every cost (and so every DP tie-break) is bit-equal.
    Contiguity makes the "outside the group" tests index compares — a
    producer is outside iff it precedes ``start`` (producers precede
    their consumers in topological order), a successor iff it is at or
    past ``end`` — so pricing needs no name sets or graph queries.
    """
    n = len(order)
    index = {name: i for i, name in enumerate(order)}
    layers = [graph.layer(name) for name in order]
    weights = [layer.weight_bytes() for layer in layers]
    # Index of each layer's last successor; a DNN output (no
    # successors) gets n, which no group reaches, so its ofmap is
    # always written out.
    last_succ = [
        max((index[s] for s in graph.successors(name)), default=n)
        for name in order
    ]
    # Input slices as (producer index or -1 for the DNN input, channels).
    sources = [
        [(-1 if s.producer is None else index[s.producer], s.channels)
         for s in graph.input_slices(name)]
        for name in order
    ]
    # Per batch unit: rounds, then per-layer MACs, ofmap bytes and
    # (producer index, ifmap bytes of that slice) input terms.
    tables = []
    for unit in _candidate_units(batch):
        inputs = [
            [(p, layer.ifmap_bytes(unit) * (ch / max(1, layer.in_c)))
             for p, ch in src]
            for layer, src in zip(layers, sources)
        ]
        tables.append((
            unit,
            math.ceil(batch / unit),
            [layer.macs(unit) for layer in layers],
            [layer.ofmap_bytes(unit) for layer in layers],
            inputs,
        ))
    ref_power = arch.peak_macs_per_s * energy.e_mac
    e_mac, e_dram = energy.e_mac, energy.e_dram
    sustained = arch.peak_macs_per_s * 0.6
    dram_bw = arch.dram_bw

    def price(start: int, end: int) -> tuple[float, int]:
        total_weights = sum(weights[start:end])
        best_cost = math.inf
        best_unit = None
        for unit, rounds, macs_t, ofmap_t, inputs_t in tables:
            macs = sum(macs_t[start:end])
            io_bytes = 0
            for i in range(start, end):
                for p, term in inputs_t[i]:
                    if p < start:
                        io_bytes += term
                if last_succ[i] >= end:
                    io_bytes += ofmap_t[i]
            weights_per_round = total_weights / rounds
            dram_bytes = io_bytes + weights_per_round
            compute = macs / sustained
            dram_t = dram_bytes / dram_bw
            stage = max(compute, dram_t)
            delay = stage * (rounds + (end - start) - 1)
            joules = (
                macs * rounds * e_mac
                + (io_bytes * rounds + total_weights) * e_dram
            )
            cost = joules + ref_power * delay
            if best_unit is None or cost < best_cost:
                best_cost = cost
                best_unit = unit
        return best_cost, best_unit

    return price


def partition_graph(
    graph: DNNGraph,
    arch: ArchConfig | PartitionInputs,
    batch: int,
    max_group_layers: int = 10,
    energy: EnergyModel = DEFAULT_ENERGY,
) -> list[LayerGroup]:
    """Segment the topological order into layer groups by DP."""
    arch = partition_inputs(arch)
    if batch < 1:
        raise InvalidWorkloadError(f"batch must be >= 1, got {batch}")
    order = graph.topological_order()
    n = len(order)
    limit = min(max_group_layers, arch.n_cores)
    price = _segment_pricer(graph, order, arch, batch, energy)
    # dp[i]: best cost of partitioning order[:i]; choice[i]: group start.
    dp = [math.inf] * (n + 1)
    dp[0] = 0.0
    choice: list[tuple[int, int]] = [(0, 1)] * (n + 1)
    for end in range(1, n + 1):
        for start in range(max(0, end - limit), end):
            seg_cost, unit = price(start, end)
            cost = dp[start] + seg_cost
            if cost < dp[end]:
                dp[end] = cost
                choice[end] = (start, unit)
    groups: list[LayerGroup] = []
    end = n
    while end > 0:
        start, unit = choice[end]
        groups.append(LayerGroup(tuple(order[start:end]), batch_unit=unit))
        end = start
    groups.reverse()
    return groups
