"""One store of what mappings on architectures of one core can share.

A :class:`~repro.dse.explorer.DesignSpaceExplorer` maps many
candidates, and a :func:`~repro.frontend.scenarios.run_sweep` call many
scenarios, that differ only in interconnect, chiplet cuts or
bandwidths.  Each owns one :class:`CoreStore` for its lifetime and
hands it to every :class:`~repro.core.engine.MappingEngine` it builds;
the store keeps

* one intra-core engine per core micro-architecture
  (:func:`~repro.intracore.cache.core_key`) — schedules depend on the
  core alone;
* one bounded LRU of the compiled core's partition records
  (``compiled.parts``), keyed by intra-core engine and graph;
* each model source loaded once (:meth:`CoreStore.load_model`), so the
  graph objects those record keys carry match across scenarios;
* the graph-partition + stripe-heuristic initial mappings, keyed by
  what :meth:`~repro.core.engine.MappingEngine.initial_mapping` reads
  (:class:`~repro.core.graphpart.PartitionInputs`).

The store reaches pool workers through the pool's initializer: fork
workers inherit the parent's copy, spawn workers unpickle an empty
store with the same caps.  Each process's store then grows on its own.
"""

from __future__ import annotations

from repro.intracore.cache import IntraCoreEngine, core_key
from repro.perf import LruDict

#: Schedules a store's intra-core engine keeps per core.
SCHEDULES_PER_CORE = 20_000
#: Initial mappings a store keeps (one per graph, batch and
#: partition-relevant arch fields).
INITIAL_MAPPINGS = 64


class CoreStore:
    """Schedules, partition records, graphs and initial mappings shared
    by every mapping run of one owner (an explorer, a sweep).

    ``part_records`` caps the partition-record LRU over all cores and
    graphs; each owner names its cap beside itself.
    """

    def __init__(self, part_records: int):
        self.part_records = part_records
        #: Intra-core engines by core key.
        self.engines: dict[tuple, IntraCoreEngine] = {}
        #: The compiled core's shared partition records.
        self.parts = LruDict(part_records, name="compiled.parts")
        self._models: dict[str, tuple] = {}
        self._initial = LruDict(INITIAL_MAPPINGS)

    def __getstate__(self):
        # Everything else is a cache: shipping it would cost more than
        # rebuilding it.
        return {"part_records": self.part_records}

    def __setstate__(self, state) -> None:
        self.__init__(state["part_records"])

    def intracore(self, arch, energy) -> IntraCoreEngine:
        """The intra-core engine of ``arch``'s core under ``energy``."""
        key = core_key(arch, energy)
        engine = self.engines.get(key)
        if engine is None:
            engine = self.engines[key] = IntraCoreEngine(
                arch, energy, max_entries=SCHEDULES_PER_CORE
            )
        return engine

    def load_model(self, source: str):
        """``(graph, lowering report)`` of a model source, loaded once."""
        got = self._models.get(source)
        if got is None:
            from repro.frontend import loader

            got = self._models[source] = loader.load_model(source)
        return got

    def initial_mapping(self, key: tuple, build) -> list:
        """The initial mapping stored under ``key``, or ``build()``'s."""
        got = self._initial.get_lru(key)
        if got is None:
            got = build()
            self._initial.put(key, got)
        return got
