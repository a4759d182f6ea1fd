"""Hardware-template substrate: configuration, topology, energy, area."""

from repro.arch.area import DEFAULT_AREA, AreaModel
from repro.arch.energy import DEFAULT_ENERGY, EnergyModel
from repro.arch.params import ArchConfig, arrange_cores, cores_for_tops
from repro.arch.presets import g_arch, g_arch_120, s_arch, t_arch
from repro.fabric import (
    FabricSpec,
    FoldedTorusTopology,
    Link,
    MeshTopology,
    NodeId,
    Topology,
    build_topology,
)

__all__ = [
    "ArchConfig",
    "AreaModel",
    "DEFAULT_AREA",
    "DEFAULT_ENERGY",
    "EnergyModel",
    "FabricSpec",
    "FoldedTorusTopology",
    "Link",
    "MeshTopology",
    "NodeId",
    "Topology",
    "arrange_cores",
    "build_topology",
    "cores_for_tops",
    "g_arch",
    "g_arch_120",
    "s_arch",
    "t_arch",
]
