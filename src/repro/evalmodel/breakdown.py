"""Result records of the Gemini Evaluator (Sec V-B2).

The paper reports energy in four buckets — network (router hops), D2D,
intra-tile (MAC + GLB + registers) and DRAM — and delay per DNN.  These
records carry those buckets and the stage-time terms; the per-link
traffic behind the Fig 9 heatmaps comes from
:meth:`~repro.evalmodel.evaluator.Evaluator.analyze_group`.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class EnergyBreakdown:
    """Joules per component bucket."""

    intra: float = 0.0
    noc: float = 0.0
    d2d: float = 0.0
    dram: float = 0.0

    @property
    def network(self) -> float:
        """NoC + D2D, the paper's "Network Energy" bucket."""
        return self.noc + self.d2d

    @property
    def total(self) -> float:
        return self.intra + self.noc + self.d2d + self.dram

    def __add__(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        return EnergyBreakdown(
            intra=self.intra + other.intra,
            noc=self.noc + other.noc,
            d2d=self.d2d + other.d2d,
            dram=self.dram + other.dram,
        )

    def scaled(self, f: float) -> "EnergyBreakdown":
        return EnergyBreakdown(
            intra=self.intra * f, noc=self.noc * f,
            d2d=self.d2d * f, dram=self.dram * f,
        )

    def fractions(self) -> dict[str, float]:
        """Per-bucket share of the total energy.

        Degenerate layers the frontend can produce (zero-MAC ELTWISE /
        VECTOR-only graphs) can drive individual buckets — and in the
        all-zero corner the total — to 0; shares are then 0 rather
        than a ZeroDivisionError.
        """
        total = self.total
        if total <= 0:
            return {"intra": 0.0, "noc": 0.0, "d2d": 0.0, "dram": 0.0}
        return {
            "intra": self.intra / total,
            "noc": self.noc / total,
            "d2d": self.d2d / total,
            "dram": self.dram / total,
        }


@dataclass
class GroupEval:
    """Evaluation of one layer group for a full inference pass."""

    delay: float
    energy: EnergyBreakdown
    stage_time: float
    rounds: int
    compute_time: float
    network_time: float
    dram_time: float
    #: Immutable so cached evaluations can be returned without copying.
    dram_round_bytes: tuple[float, ...] = ()
    fits: bool = True

    @property
    def bound(self) -> str:
        """Which resource bounds the pipeline stage."""
        times = {
            "compute": self.compute_time,
            "network": self.network_time,
            "dram": self.dram_time,
        }
        return max(times, key=times.get)


@dataclass
class MappingEval:
    """Evaluation of a whole DNN (all layer groups, one inference)."""

    delay: float
    energy: EnergyBreakdown
    groups: list[GroupEval] = field(default_factory=list)

    @property
    def edp(self) -> float:
        return self.delay * self.energy.total

    def cost(self, beta: float = 1.0, gamma: float = 1.0) -> float:
        """The mapping-engine objective ``E^beta * D^gamma``."""
        return (self.energy.total ** beta) * (self.delay ** gamma)
