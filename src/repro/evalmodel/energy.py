"""Energy accounting (Sec V-B2).

Energy is the sum of operation counts times unit energies:

* **intra-tile** — MAC/vector ops, GLB traffic and register traffic from
  the intra-core results (paper's "Intra-tile Energy");
* **NoC** — byte-hops on regular on-chip links x per-hop router energy
  (constant per flit, Orion [60]);
* **D2D** — bytes crossing D2D links x GRS energy (clock-forwarding
  default), or interface power x latency for clock-embedded SerDes;
* **DRAM** — bytes read/written x per-byte DRAM energy.
"""

from __future__ import annotations


from repro.arch.energy import EnergyModel
from repro.arch.params import ArchConfig
from repro.evalmodel.breakdown import EnergyBreakdown
from repro.evalmodel.traffic_analysis import GroupTraffic


def network_energy(
    traffic: GroupTraffic, energy: EnergyModel, arch: ArchConfig,
    latency_s: float, n_d2d_interfaces: int,
) -> tuple[float, float]:
    """(NoC joules, D2D joules) for one round of the group."""
    noc_hops = traffic.traffic.noc_byte_hops()
    d2d_bytes = traffic.traffic.d2d_volume()
    noc_j = noc_hops * energy.e_noc_hop
    d2d_j = energy.d2d_energy(d2d_bytes, n_d2d_interfaces, latency_s)
    return noc_j, d2d_j


def dram_energy(traffic: GroupTraffic, energy: EnergyModel) -> float:
    return float(traffic.dram_round_bytes.sum()) * energy.e_dram


def group_energy_from_intra(
    arch: ArchConfig,
    energy: EnergyModel,
    intra_j: float,
    traffic: GroupTraffic,
    rounds: int,
    stage_time: float,
    n_d2d_interfaces: int,
) -> EnergyBreakdown:
    """Group energy given a precomputed intra-tile joule total.

    The evaluator caches per-layer intra-core energy sums so the SA loop
    does not re-sum every part on every evaluation.
    """
    noc_j, d2d_j = network_energy(
        traffic, energy, arch, stage_time, n_d2d_interfaces
    )
    once_bytes = float(traffic.dram_weight_once.sum())
    once_dram_j = once_bytes * energy.e_dram
    once_noc_j = traffic.weight_tree_hop_bytes * energy.e_noc_hop
    return EnergyBreakdown(
        intra=intra_j * rounds,
        noc=noc_j * rounds + once_noc_j,
        d2d=d2d_j * rounds,
        dram=dram_energy(traffic, energy) * rounds + once_dram_j,
    )
