"""Memoized front-end of the intra-core exploration engine.

SA iterations repeatedly evaluate the same partitioned-workload shapes
(layer partitions change one attribute at a time), so caching schedule
results by workload removes the dominant cost of re-evaluation.  A
schedule depends on the workload and the core micro-architecture alone
(:func:`core_key`), so one engine serves every architecture with that
core: a :class:`~repro.dse.explorer.DesignSpaceExplorer` keeps one per
core for its whole life and hands it to every candidate it maps, while
a standalone evaluator builds its own.  The cache is a true LRU: at
capacity the stalest entry is evicted, so a long run keeps its working
set instead of periodically dropping everything.
"""

from __future__ import annotations

from repro.arch.energy import EnergyModel
from repro.arch.params import ArchConfig
from repro.intracore.dataflow import CoreWorkload
from repro.intracore.result import IntraCoreResult
from repro.intracore.tiling import schedule_workload
from repro.perf import PERF, LruDict


def core_key(arch: ArchConfig, energy: EnergyModel) -> tuple:
    """The core parameters an intra-core schedule (and a compiled
    partition record) reads: equal keys give bit-identical schedules."""
    return (arch.glb_bytes, arch.macs_per_core, arch.frequency,
            arch.glb_bytes_per_cycle, arch.vector_lanes, energy)


class IntraCoreEngine:
    """LRU-caching wrapper around :func:`schedule_workload`."""

    def __init__(self, arch: ArchConfig, energy: EnergyModel,
                 max_entries: int = 200_000):
        self.arch = arch
        self.energy = energy
        self.core_key = core_key(arch, energy)
        self.max_entries = max_entries
        self._cache: LruDict = LruDict(max_entries)
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._cache)

    @property
    def evictions(self) -> int:
        return self.misses - len(self._cache)

    def schedule(self, wl: CoreWorkload) -> IntraCoreResult:
        cached = self._cache.get_lru(wl)
        if cached is not None:
            self.hits += 1
            PERF.add("intracore.hits")
            return cached
        self.misses += 1
        PERF.add("intracore.misses")
        result = schedule_workload(
            wl,
            glb_bytes=self.arch.glb_bytes,
            macs_per_core=self.arch.macs_per_core,
            frequency=self.arch.frequency,
            glb_bytes_per_cycle=self.arch.glb_bytes_per_cycle,
            vector_lanes=self.arch.vector_lanes,
            energy=self.energy,
        )
        self._cache.put(wl, result)
        return result
