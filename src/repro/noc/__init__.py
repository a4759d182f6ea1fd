"""NoC substrate: per-link traffic accounting and multicast trees."""

from repro.noc.multicast import multicast_hop_savings, multicast_tree
from repro.noc.traffic import TrafficMap

__all__ = [
    "TrafficMap",
    "multicast_hop_savings",
    "multicast_tree",
]
