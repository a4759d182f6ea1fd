"""Topology protocol and the shared interconnect machinery.

Every fabric produces the same artifacts the evaluation layers consume:
tagged node tuples (``("core", x, y)``, ``("dram", i)``, plus whatever
internal router nodes a fabric needs), a flat list of directed
:class:`Link` records with small integer ids, deterministic
``route(src, dst)`` link-index tuples, and the padded numpy route/link
tables the compiled evaluation core scatter-adds over.  The
:class:`Topology` protocol names that surface; :class:`BaseTopology`
implements all of it generically on top of two fabric hooks:

* ``_build_drams`` / ``_build_links`` — construct the node/link graph
  (the default DRAM placement spreads attach points over the left and
  right edges, as the template's IO chiplets do);
* ``_router_path(a, b)`` — the deterministic node path between two
  endpoint nodes (cores, or a fabric's internal routers).

Routes must be *simple paths* (no node, hence no directed link,
revisited): the traffic accumulators use fancy-index adds
(``volumes[route] += v``), which would drop duplicate links.  The
brute-force routing property tests assert this for every registered
fabric.

Route lookups are memoized per topology and counted
(``fabric.route.hits/.misses``).  The padded route tables, and the
arrays the compiled core derives from them, depend on the fabric's
*structure* alone (:meth:`BaseTopology.structure_key`: class, spec,
core grid and DRAM count) — chiplet cuts, bandwidths, GLB size and MACs
change no link index and no route.  So they come from one bounded
per-process memo of read-only arrays keyed by structure
(:meth:`BaseTopology.shared_routes`, counted as
``lru.fabric.route_tables``): a sweep or a DSE that maps many
architectures of one structure builds them once.  Each build is timed
per fabric kind (``fabric.route_tables.<kind>``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

from repro.perf import PERF, LruDict

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.arch.params import ArchConfig
    from repro.fabric.spec import FabricSpec

NodeId = tuple

#: Fabric structures whose route tables a process keeps, least recently
#: used first out.  One sweep's five fabrics on one arch fit, so a
#: worker cycling through them builds each structure's tables once.
ROUTE_STRUCTURES = 8

#: Structure key -> ``{table name: read-only arrays}``, shared by every
#: topology of that structure in this process.
_ROUTE_MEMO = LruDict(ROUTE_STRUCTURES, name="fabric.route_tables")


def _read_only(value):
    """``value`` with every array it holds, through tuples, made
    read-only."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, tuple):
        for item in value:
            _read_only(item)
    return value


@dataclass(frozen=True)
class Link:
    """One directed link of the interconnect."""

    index: int
    src: NodeId
    dst: NodeId
    bandwidth: float
    is_d2d: bool
    is_io: bool


@runtime_checkable
class Topology(Protocol):
    """The surface every evaluation layer consumes.

    Annotate against this, not a concrete fabric: the evaluator, the
    traffic analyzer, the NoC models, the simulators and the compiled
    core all work for any implementation.
    """

    arch: "ArchConfig"
    kind: str

    @property
    def links(self) -> list[Link]: ...
    @property
    def n_links(self) -> int: ...
    def core_node(self, index: int) -> NodeId: ...
    def core_index(self, node: NodeId) -> int: ...
    def core_nodes(self) -> list[NodeId]: ...
    def dram_node(self, index: int) -> NodeId: ...
    def dram_nodes(self) -> tuple[NodeId, ...]: ...
    def attach_router(self, dram: NodeId) -> NodeId: ...
    def link_between(self, src: NodeId, dst: NodeId) -> Link: ...
    def link_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]: ...
    def link_index_arrays(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]: ...
    def route(self, src: NodeId, dst: NodeId) -> tuple[int, ...]: ...
    def core_route_table(self) -> tuple[np.ndarray, np.ndarray]: ...
    def dram_route_tables(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]: ...
    def shared_routes(self, name: str, build): ...


class BaseTopology:
    """Shared construction, query and route-table machinery."""

    #: Registry key of the fabric; subclasses override.
    kind: str = "base"

    def __init__(self, arch: "ArchConfig"):
        self.arch = arch
        #: The architecture's fabric spec supplies the routing policy
        #: and structural knobs; the *class* decides the link structure,
        #: so hand-constructing e.g. a ``FoldedTorusTopology`` works
        #: even when the spec names another kind.
        self.spec: "FabricSpec" = arch.fabric
        self._links: list[Link] = []
        self._by_endpoints: dict[tuple[NodeId, NodeId], Link] = {}
        self._dram_attach: dict[NodeId, NodeId] = {}
        self._route_cache: dict[tuple[NodeId, NodeId], tuple[int, ...]] = {}
        self._link_arrays: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._core_route_table: tuple[np.ndarray, np.ndarray] | None = None
        self._dram_route_tables: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None
        self._build_drams()
        self._build_links()
        self._core_node_list = tuple(
            ("core", i % arch.cores_x, i // arch.cores_x)
            for i in range(arch.n_cores)
        )
        PERF.add(f"fabric.topologies.{self.kind}")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _add_link(self, src: NodeId, dst: NodeId, bandwidth: float,
                  is_d2d: bool, is_io: bool = False) -> None:
        link = Link(len(self._links), src, dst, bandwidth, is_d2d, is_io)
        self._links.append(link)
        self._by_endpoints[(src, dst)] = link

    def _crosses_cut(self, a: tuple[int, int], b: tuple[int, int]) -> bool:
        return self.arch.chiplet_of(*a) != self.arch.chiplet_of(*b)

    def _build_drams(self) -> None:
        """Spread DRAM attach points over the left and right edge routers."""
        arch = self.arch
        n = arch.n_dram
        left = (n + 1) // 2
        right = n - left
        attach: list[NodeId] = []
        for count, x_edge in ((left, 0), (right, arch.cores_x - 1)):
            for j in range(count):
                y = min(arch.cores_y - 1, (2 * j + 1) * arch.cores_y // (2 * count))
                attach.append(("core", x_edge, y))
        self._dram_nodes = tuple(("dram", i) for i in range(n))
        for i, node in enumerate(self._dram_nodes):
            self._dram_attach[node] = attach[i]

    def _build_links(self) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def links(self) -> list[Link]:
        return self._links

    @property
    def n_links(self) -> int:
        return len(self._links)

    def core_node(self, index: int) -> NodeId:
        """Core node for a row-major core index (0-based)."""
        return self._core_node_list[index]

    def core_index(self, node: NodeId) -> int:
        _, x, y = node
        return y * self.arch.cores_x + x

    def core_nodes(self) -> list[NodeId]:
        return [self.core_node(i) for i in range(self.arch.n_cores)]

    def dram_node(self, index: int) -> NodeId:
        return self._dram_nodes[index]

    def dram_nodes(self) -> tuple[NodeId, ...]:
        return self._dram_nodes

    def attach_router(self, dram: NodeId) -> NodeId:
        return self._dram_attach[dram]

    def link_between(self, src: NodeId, dst: NodeId) -> Link:
        return self._by_endpoints[(src, dst)]

    def d2d_link_indices(self) -> list[int]:
        return [l.index for l in self._links if l.is_d2d]

    def link_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Shared per-link (bandwidth, is_d2d, is_io) arrays.

        Built once per topology; :class:`~repro.noc.traffic.TrafficMap`
        instances alias them read-only, so constructing a map per layer
        block costs only one ``np.zeros``.
        """
        if self._link_arrays is None:
            self._link_arrays = (
                np.array([l.bandwidth for l in self._links], dtype=np.float64),
                np.array([l.is_d2d for l in self._links], dtype=bool),
                np.array([l.is_io for l in self._links], dtype=bool),
            )
        return self._link_arrays

    def link_index_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cached ``(noc_idx, d2d_idx, io_idx)`` link-index arrays.

        Integer-index gathers select links in the same ascending order
        as the boolean masks they replace, so aggregate sums over them
        are bit-identical — just without re-deriving the selection per
        query (the SA loop sums these on every evaluation).
        """
        if getattr(self, "_link_index_arrays", None) is None:
            _, is_d2d, is_io = self.link_arrays()
            self._link_index_arrays = (
                np.nonzero(~is_d2d)[0],
                np.nonzero(is_d2d)[0],
                np.nonzero(is_io)[0],
            )
        return self._link_index_arrays

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def _router_path(self, a: NodeId, b: NodeId) -> list[NodeId]:
        """Deterministic node path from a to b, inclusive."""
        raise NotImplementedError

    def route(self, src: NodeId, dst: NodeId) -> tuple[int, ...]:
        """Directed link indices along the deterministic path src -> dst."""
        key = (src, dst)
        cached = self._route_cache.get(key)
        if cached is not None:
            PERF.add("fabric.route.hits")
            return cached
        PERF.add("fabric.route.misses")
        if src == dst:
            self._route_cache[key] = ()
            return ()
        hops: list[int] = []
        a, b = src, dst
        if a[0] == "dram":
            router = self._dram_attach[a]
            hops.append(self._by_endpoints[(a, router)].index)
            a = router
        tail: list[int] = []
        if b[0] == "dram":
            router = self._dram_attach[b]
            tail.append(self._by_endpoints[(router, b)].index)
            b = router
        path = self._router_path(a, b)
        for u, v in zip(path, path[1:]):
            hops.append(self._by_endpoints[(u, v)].index)
        hops.extend(tail)
        result = tuple(hops)
        self._route_cache[key] = result
        return result

    def _build_route_table(self, pairs) -> tuple[np.ndarray, np.ndarray]:
        """``(padded[len(pairs), max_hops], lens)`` for node pairs.

        Each row holds the directed link indices of the deterministic
        route, right-padded with ``-1``.  Traffic analysis uses the
        tables to scatter-add many flows in one vector operation.
        """
        routes = [self.route(s, d) for s, d in pairs]
        lens = np.array([len(r) for r in routes], dtype=np.intp)
        width = int(lens.max()) if len(lens) else 0
        table = np.full((len(routes), width), -1, dtype=np.intp)
        for i, r in enumerate(routes):
            table[i, : len(r)] = r
        return table, lens

    def structure_key(self) -> tuple:
        """What this fabric's link indices and routes depend on: the
        class (link order and router paths), the spec (routing policy
        and knobs), the core grid and the DRAM count.  Chiplet cuts and
        bandwidths only set each link's class and bandwidth."""
        arch = self.arch
        return (type(self), self.spec, arch.cores_x, arch.cores_y,
                arch.n_dram)

    def shared_routes(self, name: str, build):
        """``build()``'s arrays, built once per fabric structure in this
        process and served read-only to every topology of it.

        ``build`` must derive them from routes and the structure alone,
        never from bandwidths or link classes.
        """
        key = self.structure_key()
        tables = _ROUTE_MEMO.get_lru(key)
        if tables is None:
            tables = {}
            _ROUTE_MEMO.put(key, tables)
        got = tables.get(name)
        if got is None:
            got = tables[name] = _read_only(build())
        return got

    def core_route_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Core-to-core route table; row ``src * n_cores + dst``."""
        if self._core_route_table is None:
            self._core_route_table = self.shared_routes(
                "core", self._build_core_routes)
        return self._core_route_table

    def _build_core_routes(self) -> tuple[np.ndarray, np.ndarray]:
        with PERF.time(f"fabric.route_tables.{self.kind}"):
            n = self.arch.n_cores
            return self._build_route_table([
                (self.core_node(s), self.core_node(d))
                for s in range(n) for d in range(n)
            ])

    def dram_route_tables(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Padded core<->DRAM route tables.

        Returns ``(to_dram, to_lens, from_dram, from_lens)``; row
        ``core * n_dram + dram`` of ``to_dram`` holds the route
        core -> DRAM (``from_dram`` the reverse).
        """
        if self._dram_route_tables is None:
            self._dram_route_tables = self.shared_routes(
                "dram", self._build_dram_routes)
        return self._dram_route_tables

    def _build_dram_routes(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        with PERF.time(f"fabric.route_tables.{self.kind}"):
            n = self.arch.n_cores
            n_dram = len(self._dram_nodes)
            to_dram = self._build_route_table([
                (self.core_node(c), self._dram_nodes[d])
                for c in range(n) for d in range(n_dram)
            ])
            from_dram = self._build_route_table([
                (self._dram_nodes[d], self.core_node(c))
                for c in range(n) for d in range(n_dram)
            ])
            return (*to_dram, *from_dram)
