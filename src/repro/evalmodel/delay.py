"""Pipeline delay model (Sec V-B2).

In LP mapping a layer group is a spatial pipeline over batch units: each
round pushes one batch unit through every layer simultaneously.  The
steady-state stage time is bounded by the slowest of

* the slowest core's compute time (max over all parts),
* the most-loaded link's serialization time (NoC or D2D), and
* the most-loaded DRAM die's access time,

and the group delay follows the classic fill/drain form
``stage x (rounds + depth - 1)`` plus a one-time resident-weight load
prologue.  Utilization losses from filling and draining grow with the
pipeline depth — the effect behind the core-granularity insight of
Sec VII-A2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.params import ArchConfig
from repro.evalmodel.traffic_analysis import GroupTraffic


@dataclass(frozen=True)
class StageTimes:
    compute: float
    network: float
    dram: float
    prologue: float

    @property
    def stage(self) -> float:
        return max(self.compute, self.network, self.dram)


def per_dram_bandwidth(arch: ArchConfig) -> float:
    """Bandwidth of one DRAM attach point."""
    return arch.dram_bw / arch.n_dram


def stage_times_from_compute(
    arch: ArchConfig,
    compute: float,
    group_traffic: GroupTraffic,
) -> StageTimes:
    """Stage times of one round given its slowest core's compute time
    (the evaluator folds it per layer, the event simulator reads it off
    its compute finish)."""
    network = group_traffic.traffic.serialization_time()
    bw = per_dram_bandwidth(arch)
    round_bytes = group_traffic.dram_round_bytes
    dram = float(np.max(round_bytes)) / bw if len(round_bytes) else 0.0
    once = group_traffic.dram_weight_once
    prologue = float(np.max(once)) / bw if len(once) else 0.0
    return StageTimes(compute, network, dram, prologue)


def group_delay(times: StageTimes, rounds: int, depth: int) -> float:
    """Fill/drain pipeline delay for ``rounds`` batch units."""
    return times.stage * (rounds + depth - 1) + times.prologue


def pipeline_utilization(rounds: int, depth: int) -> float:
    """Fraction of stage slots doing useful work (fill/drain loss).

    Degenerate groups (zero rounds, or a single layer at zero depth)
    report 0 utilization instead of dividing by zero.
    """
    slots = rounds + depth - 1
    if rounds <= 0 or slots <= 0:
        return 0.0
    return rounds / slots
