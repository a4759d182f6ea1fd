"""Per-link traffic accounting.

The Gemini evaluator "analyz[es] the data communication volume on each
on-chip network link and D2D link" (Sec V-B2).  :class:`TrafficMap`
accumulates bytes per directed link in a flat numpy array so that SA
iterations can evaluate schemes quickly, and answers the aggregate
queries the delay/energy models need: serialization time of the most
loaded link, total byte-hops, D2D volume, and per-link heat data
(Fig 9).
"""

from __future__ import annotations

import numpy as np

from repro.fabric import Topology


class TrafficMap:
    """Bytes accumulated on every directed link of a topology."""

    def __init__(self, topo: Topology):
        self.topo = topo
        self.volumes = np.zeros(topo.n_links, dtype=np.float64)
        # Shared read-only views built once per topology.
        self._bandwidths, self._is_d2d, self._is_io = topo.link_arrays()
        self._noc_idx, self._d2d_idx, self._io_idx = topo.link_index_arrays()

    # ------------------------------------------------------------------
    # Accumulation
    # ------------------------------------------------------------------

    def add_on_links(self, link_indices, volume: float) -> None:
        """Add ``volume`` bytes on an explicit link set (multicast tree)."""
        if volume <= 0 or len(link_indices) == 0:
            return
        if isinstance(link_indices, np.ndarray):
            self.volumes[link_indices] += volume
        else:
            self.volumes[list(link_indices)] += volume

    def merge(self, other: "TrafficMap") -> None:
        self.volumes += other.volumes

    def scaled(self, factor: float) -> "TrafficMap":
        out = TrafficMap(self.topo)
        out.volumes = self.volumes * factor
        return out

    # ------------------------------------------------------------------
    # Aggregate queries
    # ------------------------------------------------------------------

    def serialization_time(self) -> float:
        """Time for the most-loaded link to drain, seconds."""
        if not len(self.volumes):
            return 0.0
        return float(np.max(self.volumes / self._bandwidths))

    def total_byte_hops(self) -> float:
        """Σ bytes x hops — the NoC energy proxy (Sec VII-C)."""
        return float(self.volumes.sum())

    def noc_byte_hops(self) -> float:
        """Byte-hops on regular on-chip links only.

        Index gathers visit the same links in the same order as the
        boolean-mask selection, so the sums are bit-identical.
        """
        return float(self.volumes[self._noc_idx].sum())

    def d2d_volume(self) -> float:
        """Bytes crossing D2D links (each crossing counted once)."""
        return float(self.volumes[self._d2d_idx].sum())

    def io_volume(self) -> float:
        return float(self.volumes[self._io_idx].sum())
