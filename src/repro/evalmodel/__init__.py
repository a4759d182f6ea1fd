"""The Gemini Evaluator: traffic, delay, energy and breakdowns."""

from repro.evalmodel.breakdown import EnergyBreakdown, GroupEval, MappingEval
from repro.evalmodel.delay import (
    StageTimes,
    group_delay,
    pipeline_utilization,
)
from repro.evalmodel.evaluator import Evaluator
from repro.evalmodel.metrics import (
    average_concurrent_layers,
    d2d_energy_share,
    dram_bytes_per_inference,
    pipeline_fill_drain_loss,
    stage_bound_histogram,
)
from repro.evalmodel.traffic_analysis import GroupTraffic, GroupTrafficAnalyzer

__all__ = [
    "EnergyBreakdown",
    "Evaluator",
    "GroupEval",
    "GroupTraffic",
    "GroupTrafficAnalyzer",
    "MappingEval",
    "StageTimes",
    "average_concurrent_layers",
    "d2d_energy_share",
    "dram_bytes_per_inference",
    "group_delay",
    "pipeline_fill_drain_loss",
    "pipeline_utilization",
    "stage_bound_histogram",
]
