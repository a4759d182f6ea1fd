"""Chiplet reuse across computing-power levels (Sec VII-B, Fig 8).

"Gemini strategically organizes the chiplets of each architecture
candidate with the lowest computational power into accelerators designed
for higher computational power requirements", then minimizes the product
of ``MC x E x D`` across all levels (the *Joint Optimal*).

:func:`scale_with_chiplets` rebuilds an accelerator of a different
computing power out of an existing design's chiplets: the chiplet itself
(cores, per-core resources, D2D interfaces) is frozen; only the number of
chiplets on the substrate and the DRAM provisioning change.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.arch.params import ArchConfig, arrange_cores
from repro.cost.mc import DEFAULT_MC, MCEvaluator
from repro.dse.explorer import (
    CandidateResult,
    DesignSpaceExplorer,
    Workload,
)
from repro.dse.objective import OBJECTIVE_MCED, Objective
from repro.errors import InvalidArchitectureError


def scale_with_chiplets(base: ArchConfig, target_tops: float) -> ArchConfig | None:
    """Build a ``target_tops`` accelerator from ``base``'s chiplets.

    Returns ``None`` when the target power is not an integer number of
    the base design's chiplets.
    """
    chiplet_tops = base.tops / base.n_chiplets
    n_chiplets = target_tops / chiplet_tops
    if abs(n_chiplets - round(n_chiplets)) > 1e-9 or round(n_chiplets) < 1:
        return None
    n_chiplets = round(n_chiplets)
    grid_x, grid_y = arrange_cores(n_chiplets)
    dram_per_tops = base.dram_bw / base.tops
    try:
        return replace(
            base,
            cores_x=base.chiplet_cores_x * grid_x,
            cores_y=base.chiplet_cores_y * grid_y,
            xcut=grid_x,
            ycut=grid_y,
            dram_bw=dram_per_tops * target_tops,
            name=f"{base.name or 'arch'}-x{n_chiplets}",
        )
    except InvalidArchitectureError:
        return None


@dataclass
class JointCandidateResult:
    """One chiplet design evaluated at every power level."""

    base: ArchConfig
    per_level: dict[float, CandidateResult]
    score: float


@dataclass
class JointDseReport:
    best: JointCandidateResult
    results: list[JointCandidateResult]


class JointExplorer:
    """DSE for one chiplet reused across several computing powers."""

    def __init__(
        self,
        workloads_per_level: dict[float, list[Workload]],
        objective: Objective = OBJECTIVE_MCED,
        mc_evaluator: MCEvaluator = DEFAULT_MC,
        sa_settings=None,
        max_group_layers: int = 10,
    ):
        self.levels = sorted(workloads_per_level)
        self.workloads_per_level = workloads_per_level
        self.objective = objective
        self.mc_evaluator = mc_evaluator
        self.sa_settings = sa_settings
        self.max_group_layers = max_group_layers
        self._explorers: dict[float, DesignSpaceExplorer] = {}

    def _explorer(self, level: float) -> DesignSpaceExplorer:
        """The level's explorer, kept so that every base design mapped
        at this level shares its intra-core engines and records."""
        explorer = self._explorers.get(level)
        if explorer is None:
            explorer = self._explorers[level] = DesignSpaceExplorer(
                self.workloads_per_level[level],
                objective=self.objective,
                mc_evaluator=self.mc_evaluator,
                sa_settings=self.sa_settings,
                max_group_layers=self.max_group_layers,
            )
        return explorer

    def evaluate_base(self, base: ArchConfig) -> JointCandidateResult | None:
        """Evaluate one lowest-level candidate across every level."""
        per_level: dict[float, CandidateResult] = {}
        score = 1.0
        for level in self.levels:
            arch = scale_with_chiplets(base, level)
            if arch is None:
                return None
            result = self._explorer(level).evaluate_candidate(arch)
            per_level[level] = result
            score *= result.score
        return JointCandidateResult(base=base, per_level=per_level, score=score)

    def explore(self, bases: list[ArchConfig]) -> JointDseReport:
        results = [
            r for r in (self.evaluate_base(b) for b in bases) if r is not None
        ]
        if not results:
            raise InvalidArchitectureError(
                "no base design scales to every requested power level"
            )
        best = min(results, key=lambda r: r.score)
        return JointDseReport(best=best, results=results)
