"""Traffic analysis: parsed scheme -> per-round link and DRAM volumes.

This implements the Evaluator's global analysis (Sec V-B2): the data
communication volume on every NoC/D2D link and the access pattern of
every DRAM, for one pipeline round (one batch unit) of a layer group.

Flows handled:

* **inter-layer** — producer part -> consumer part overlap volumes
  (4-D interval intersections of the producer's owned ofmap regions with
  the consumer's halo-aware ifmap requirement), unicast over XY routes;
* **DRAM ifmap** — layers reading the DNN input or a cross-group
  producer fetch from the DRAM selected by FD (0 = interleaved over all
  DRAMs, d > 0 = DRAM d; cross-group inputs come from wherever the
  producer group stored its ofmaps);
* **weights** — cores sharing a K-slice receive the same bytes, so each
  distinct slice is read from DRAM once and multicast along an XY tree;
* **DRAM ofmap** — explicit OF flows write each part's ofmap out.

MATMUL layers are special-cased: the first operand is consumed row-wise
(its H range follows the consumer's), the second operand either row-wise
by the consumer's K range (score products) or channel-wise (context
products), detected from the contraction geometry.

The analyzer computes traffic one layer at a time into
:class:`LayerTrafficBlock` records and merges them.  A block depends
only on the layer's scheme, its in-group producers' schemes, the DRAM
placement of its cross-group inputs and the group's batch unit — so an
SA move that mutates one layer's scheme invalidates only that layer's
block and the blocks of its in-group consumers.  The compiled core
(:mod:`repro.compiled`) memoizes blocks along exactly those lines; this
analyzer is the uncached reference it is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from weakref import WeakKeyDictionary

import numpy as np

from repro.arch.params import ArchConfig
from repro.core.encoding import INTERLEAVED, LayerGroupMapping
from repro.core.parser import ParsedGroup
from repro.fabric import NodeId, Topology
from repro.intracore.result import IntraCoreResult
from repro.noc.multicast import multicast_tree
from repro.noc.traffic import TrafficMap
from repro.workloads.graph import DNNGraph
from repro.workloads.layer import Layer, LayerType


@dataclass(frozen=True)
class FlowRecord:
    """One logical transfer, kept when flow collection is enabled.

    ``kind`` is one of ``ifmap`` (inter-layer or DRAM input), ``weight``
    or ``ofmap``; endpoints are topology nodes.
    """

    kind: str
    layer: str
    src: tuple
    dst: tuple
    volume: float
    #: Producer layer when the source endpoint is a core computing it.
    src_layer: str | None = None
    #: Records sharing an id are one multicast: the same bytes traverse
    #: each tree link once (simulators must deduplicate; instruction
    #: generation keeps every destination's copy).
    multicast_group: int | None = None
    #: True for once-per-inference transfers (resident weight loads),
    #: which do not belong to a steady-state round.
    once: bool = False


@dataclass
class GroupTraffic:
    """Per-round traffic of one layer group."""

    traffic: TrafficMap
    dram_read: np.ndarray
    dram_write: np.ndarray
    #: Weight bytes loaded once per inference (resident weights), per DRAM.
    dram_weight_once: np.ndarray
    weight_tree_hop_bytes: float = 0.0
    flows: list[FlowRecord] | None = None

    @property
    def dram_round_bytes(self) -> np.ndarray:
        return self.dram_read + self.dram_write


@dataclass(frozen=True)
class LayerTrafficBlock:
    """One layer's contribution to the group traffic.

    Blocks are immutable once built, so they can be memoized and merged
    into any number of :class:`GroupTraffic` results; arrays must not be
    mutated in place.  All-zero DRAM components are stored as ``None``
    so the merge loop can skip them.
    """

    volumes: np.ndarray
    dram_read: np.ndarray | None
    dram_write: np.ndarray | None
    dram_weight_once: np.ndarray | None
    weight_tree_hop_bytes: float
    flows: tuple[FlowRecord, ...] | None


def round_flows(flows, topo) -> list["FlowRecord"]:
    """Steady-state per-round flows for simulators.

    Excludes once-per-inference transfers (resident weight prologues)
    and collapses each multicast to its longest-route representative —
    the tree's trunk carries the bytes once; side branches reuse them.
    """
    kept: list[FlowRecord] = []
    best_per_group: dict[int, FlowRecord] = {}
    for f in flows or []:
        if f.once:
            continue
        if f.multicast_group is None:
            kept.append(f)
            continue
        cur = best_per_group.get(f.multicast_group)
        if cur is None or len(topo.route(f.src, f.dst)) > \
                len(topo.route(cur.src, cur.dst)):
            best_per_group[f.multicast_group] = f
    kept.extend(best_per_group.values())
    return kept


#: Per-topology memo of FD-selector targets (topologies are shared
#: across evaluators; dead ones drop their entries with the weak key).
_DRAM_TARGET_CACHE: "WeakKeyDictionary[Topology, dict]" = WeakKeyDictionary()


def _dram_targets(
    topo: Topology, fd_value: int
) -> tuple[tuple[NodeId, float], ...]:
    """(dram node, share) pairs for an FD selector (memoized per topo)."""
    per_topo = _DRAM_TARGET_CACHE.get(topo)
    if per_topo is None:
        per_topo = {}
        _DRAM_TARGET_CACHE[topo] = per_topo
    targets = per_topo.get(fd_value)
    if targets is None:
        drams = topo.dram_nodes()
        if fd_value == INTERLEAVED:
            share = 1.0 / len(drams)
            targets = tuple((d, share) for d in drams)
        else:
            targets = ((drams[fd_value - 1], 1.0),)
        per_topo[fd_value] = targets
    return targets


def dram_scatter_batch(
    topo: Topology,
    fd: int,
    cores: np.ndarray,
    volumes: np.ndarray,
    vol_slots: np.ndarray,
    tally: np.ndarray,
    write: bool,
) -> None:
    """Scatter-add core<->DRAM flows for many parts at once.

    Each target DRAM's flows are summed by one bincount (increments in
    part order) and then added to every link slot, and its tally is a
    sequential left fold in part order.  The analyzer sums its DRAM
    flows only here, with or without flow collection; the compiled
    core's scatter queues reproduce this order.
    """
    n_dram = len(topo.dram_nodes())
    to_dram, to_lens, from_dram, from_lens = topo.dram_route_tables()
    table, lens = (to_dram, to_lens) if write else (from_dram, from_lens)
    for dram, share in _dram_targets(topo, fd):
        d = dram[1]
        v = volumes * share
        rows = cores * n_dram + d
        padded = table[rows].ravel()
        vol_slots += np.bincount(
            padded[padded >= 0],
            weights=np.repeat(v, lens[rows]),
            minlength=len(vol_slots),
        )
        # Sequential left-fold into the DRAM tally, part by part
        # (np.sum's pairwise reduction would associate differently); a
        # Python loop beats np.add.at at these sizes.
        t = tally[d]
        for x in v.tolist():
            t += x
        tally[d] = t


def core_scatter_batch(
    topo: Topology,
    src_cores: np.ndarray,
    dst_cores: np.ndarray,
    volumes: np.ndarray,
    vol_slots: np.ndarray,
) -> None:
    """Accumulate many core->core flows' routes in one scatter-add.

    bincount applies increments in flow order, and the sum is then
    added to every link slot at once.  The analyzer sums its core->core
    flows only here, with or without flow collection; the compiled
    core's scatter queues reproduce this order.
    """
    table, lens = topo.core_route_table()
    rows = src_cores * topo.arch.n_cores + dst_cores
    padded = table[rows].ravel()
    vol_slots += np.bincount(
        padded[padded >= 0],
        weights=np.repeat(volumes, lens[rows]),
        minlength=len(vol_slots),
    )


def _conv_needs(
    consumer: Layer, dest_regions: np.ndarray, slice_lo: int, slice_hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """Producer-coordinate requirement regions for every consumer part.

    Vectorized combination of the receptive-field box (halo-aware,
    clipped to the valid ifmap extent) with the channel overlap between
    the consumer's requirement and the producer slice ``(slice_lo,
    slice_hi)``; channel bounds are rebased to slice coordinates.
    Returns ``(needs[n, 8], valid[n])``; rows with ``valid`` False have
    no overlap with this slice.
    """
    n = len(dest_regions)
    h_lo, h_hi = dest_regions[:, 0], dest_regions[:, 1]
    w_lo, w_hi = dest_regions[:, 2], dest_regions[:, 3]
    if consumer.is_channelwise:
        c_lo, c_hi = dest_regions[:, 6], dest_regions[:, 7]
    elif consumer.groups > 1:
        k_per_group = consumer.out_k // consumer.groups
        c_per_group = consumer.in_c // consumer.groups
        c_lo = dest_regions[:, 6] // k_per_group * c_per_group
        c_hi = ((dest_regions[:, 7] - 1) // k_per_group + 1) * c_per_group
    else:
        c_lo = np.zeros(n, dtype=np.int64)
        c_hi = np.full(n, consumer.in_c, dtype=np.int64)
    lo = np.maximum(c_lo, slice_lo)
    hi = np.minimum(c_hi, slice_hi)
    ih_lo = np.maximum(0, h_lo * consumer.stride - consumer.pad_h)
    ih_hi = np.minimum(
        consumer.in_h,
        (h_hi - 1) * consumer.stride - consumer.pad_h + consumer.kernel_r,
    )
    ih_hi = np.maximum(ih_lo, ih_hi)
    iw_lo = np.maximum(0, w_lo * consumer.stride - consumer.pad_w)
    iw_hi = np.minimum(
        consumer.in_w,
        (w_hi - 1) * consumer.stride - consumer.pad_w + consumer.kernel_s,
    )
    iw_hi = np.maximum(iw_lo, iw_hi)
    needs = np.empty((n, 8), dtype=np.int64)
    needs[:, 0], needs[:, 1] = ih_lo, ih_hi
    needs[:, 2], needs[:, 3] = iw_lo, iw_hi
    needs[:, 4], needs[:, 5] = dest_regions[:, 4], dest_regions[:, 5]
    needs[:, 6], needs[:, 7] = lo - slice_lo, hi - slice_lo
    ext = needs[:, 1::2] - needs[:, 0::2]
    return needs, (ext > 0).all(axis=1)


def _matmul_needs(
    consumer: Layer, dest_regions: np.ndarray, operand: int, producer: Layer
) -> tuple[np.ndarray, np.ndarray]:
    """Producer regions MATMUL consumer parts need (see module doc)."""
    n = len(dest_regions)
    needs = np.empty((n, 8), dtype=np.int64)
    needs[:, 4], needs[:, 5] = dest_regions[:, 4], dest_regions[:, 5]
    if operand == 0:
        # First operand: rows follow the consumer's H range.
        needs[:, 0], needs[:, 1] = dest_regions[:, 0], dest_regions[:, 1]
        needs[:, 2], needs[:, 3] = 0, producer.out_w
        needs[:, 6], needs[:, 7] = 0, producer.out_k
    elif producer.out_k == consumer.in_c and producer.out_h != consumer.in_c:
        # Score product (Q @ K^T): row j of the operand feeds output
        # column j.
        needs[:, 0], needs[:, 1] = dest_regions[:, 6], dest_regions[:, 7]
        needs[:, 2], needs[:, 3] = 0, producer.out_w
        needs[:, 6], needs[:, 7] = 0, producer.out_k
    else:
        # Context product (P @ V): column k feeds output channel k.
        needs[:, 0], needs[:, 1] = 0, producer.out_h
        needs[:, 2], needs[:, 3] = 0, producer.out_w
        needs[:, 6], needs[:, 7] = dest_regions[:, 6], dest_regions[:, 7]
    ext = needs[:, 1::2] - needs[:, 0::2]
    return needs, (ext > 0).all(axis=1)


class GroupTrafficAnalyzer:
    """Builds :class:`GroupTraffic` for a parsed layer group.

    Link volumes and DRAM tallies are summed one way, by the batched
    scatters (:func:`dram_scatter_batch`, :func:`core_scatter_batch`)
    and the weight multicast trees; ``collect_flows`` only appends a
    :class:`FlowRecord` per transfer beside those sums.
    """

    def __init__(
        self,
        graph: DNNGraph,
        arch: ArchConfig,
        topo: Topology,
        collect_flows: bool = False,
    ):
        self.graph = graph
        self.arch = arch
        self.topo = topo
        self.collect_flows = collect_flows
        self._mcast_counter = 0

    def _record(self, out, kind, layer, src, dst, volume, src_layer=None,
                multicast_group=None, once=False):
        if out.flows is not None and volume > 0:
            out.flows.append(
                FlowRecord(kind, layer, src, dst, volume, src_layer,
                           multicast_group, once)
            )

    # ------------------------------------------------------------------

    def analyze(
        self,
        parsed: ParsedGroup,
        lms: LayerGroupMapping,
        intra: dict[str, list[IntraCoreResult]],
        stored_at: dict[str, int],
    ) -> GroupTraffic:
        """Per-round traffic for the group.

        ``intra`` maps layer name -> per-part intra-core results (same
        order as the parsed parts); ``stored_at`` maps producers in
        *earlier* groups to the FD selector their ofmaps were written
        with.
        """
        out = self._fresh_accumulator()
        blocks = []
        for name in parsed.group.layers:
            blocks.append(
                self._inputs_block(parsed, lms, intra, stored_at, name)
            )
            blocks.append(self._self_block(parsed, lms, intra, name))
        # One stacked fold over all link-volume arrays (sequential along
        # axis 0, so per-link sums match the += loop exactly).
        out.traffic.volumes += np.add.reduce(
            np.stack([b.volumes for b in blocks]), axis=0
        )
        for block in blocks:
            if block.dram_read is not None:
                out.dram_read += block.dram_read
            if block.dram_write is not None:
                out.dram_write += block.dram_write
            if block.dram_weight_once is not None:
                out.dram_weight_once += block.dram_weight_once
            out.weight_tree_hop_bytes += block.weight_tree_hop_bytes
            if out.flows is not None and block.flows:
                out.flows.extend(block.flows)
        return out

    def _fresh_accumulator(self) -> GroupTraffic:
        n_dram = len(self.topo.dram_nodes())
        return GroupTraffic(
            traffic=TrafficMap(self.topo),
            dram_read=np.zeros(n_dram),
            dram_write=np.zeros(n_dram),
            dram_weight_once=np.zeros(n_dram),
            flows=[] if self.collect_flows else None,
        )

    def _freeze_block(self, tmp: GroupTraffic) -> LayerTrafficBlock:
        return LayerTrafficBlock(
            volumes=tmp.traffic.volumes,
            dram_read=tmp.dram_read if tmp.dram_read.any() else None,
            dram_write=tmp.dram_write if tmp.dram_write.any() else None,
            dram_weight_once=(
                tmp.dram_weight_once if tmp.dram_weight_once.any() else None
            ),
            weight_tree_hop_bytes=tmp.weight_tree_hop_bytes,
            flows=tuple(tmp.flows) if tmp.flows is not None else None,
        )

    def _inputs_block(
        self, parsed, lms, intra, stored_at, name
    ) -> LayerTrafficBlock:
        """Ifmap flows of one layer (producer- and placement-dependent)."""
        tmp = self._fresh_accumulator()
        self._layer_inputs(parsed, lms, intra, stored_at, name, tmp)
        return self._freeze_block(tmp)

    def _self_block(self, parsed, lms, intra, name) -> LayerTrafficBlock:
        """Weight and ofmap flows — a function of the layer's own scheme
        only, so a producer-side SA move never invalidates this part."""
        tmp = self._fresh_accumulator()
        self._layer_weights(parsed, lms, intra, name, tmp)
        self._layer_outputs(parsed, lms, name, tmp)
        return self._freeze_block(tmp)

    # ------------------------------------------------------------------
    # Ifmaps: inter-layer and DRAM flows
    # ------------------------------------------------------------------

    def _layer_inputs(self, parsed, lms, intra, stored_at, name, out):
        graph = self.graph
        consumer = graph.layer(name)
        dest_layer = parsed.layer(name)
        results = intra[name]
        slices = graph.input_slices(name)
        is_matmul = consumer.kind is LayerType.MATMUL
        # Requirement regions depend only on the consumer's own parsed
        # parts and the (fixed) input slices — memoize per parsed layer.
        needs_memo = getattr(dest_layer, "_needs_memo", None)
        if needs_memo is None:
            needs_memo = {}
            object.__setattr__(dest_layer, "_needs_memo", needs_memo)
        for op_idx, inp in enumerate(slices):
            producer = graph.layer(inp.producer) if inp.producer else None
            in_group = inp.producer in parsed.group if inp.producer else False
            cached_needs = needs_memo.get(op_idx)
            if cached_needs is None:
                dest_regions = dest_layer.part_arrays()[0]
                if is_matmul:
                    cached_needs = _matmul_needs(
                        consumer, dest_regions, op_idx, producer
                    )
                else:
                    cached_needs = _conv_needs(
                        consumer, dest_regions, inp.c_lo, inp.c_hi
                    )
                needs_memo[op_idx] = cached_needs
            needs, valid = cached_needs
            if not valid.any():
                continue
            if in_group:
                self._from_producer_parts(
                    parsed, inp.producer, needs, valid, dest_layer,
                    results, name, out,
                )
            else:
                if inp.producer is None:
                    fd = lms.scheme(name).fd.ifmap
                else:
                    fd = stored_at.get(inp.producer, INTERLEAVED)
                self._ifmap_from_dram(
                    fd, needs, valid, dest_layer, results, consumer,
                    name, out,
                )

    def _ifmap_from_dram(self, fd, needs, valid, dest_layer, results,
                         consumer, name, out):
        ext = needs[:, 1::2] - needs[:, 0::2]
        volumes = ext[:, 0] * ext[:, 1] * ext[:, 2] * ext[:, 3]
        cores = dest_layer.part_arrays()[1]
        idx = np.nonzero(valid)[0]
        fetches = np.array(
            [results[i].if_fetches for i in idx], dtype=np.float64
        )
        self._dram_flows_batch(
            fd, cores[idx], volumes[idx] * consumer.bytes_per_elem * fetches,
            out, name, write=False,
        )

    def _dram_flows_batch(self, fd, cores, volumes, out, name, write):
        """Scatter-add one layer's core<->DRAM flows (see
        :func:`dram_scatter_batch`); when collecting, record each part's
        ofmap write to (``write``) or ifmap read from every DRAM target."""
        tally = out.dram_write if write else out.dram_read
        dram_scatter_batch(
            self.topo, fd, cores, volumes, out.traffic.volumes, tally, write
        )
        if out.flows is None:
            return
        targets = _dram_targets(self.topo, fd)
        for core, volume in zip(cores.tolist(), volumes.tolist()):
            node = self.topo.core_node(core)
            for dram, share in targets:
                if write:
                    self._record(out, "ofmap", name, node, dram,
                                 volume * share, src_layer=name)
                else:
                    self._record(out, "ifmap", name, dram, node,
                                 volume * share)

    def _from_producer_parts(self, parsed, producer_name, need_arr, valid,
                             dest_layer, results, consumer_name, out):
        """Producer-part -> consumer-part overlap flows for one input.

        ``need_arr``/``valid`` hold one producer-coordinate requirement
        region per destination part.  The 4-D interval intersections of
        every (destination, producer-part) pair are evaluated as one
        vector operation; flows are then emitted in the same
        destination-major order the part lists define.
        """
        topo = self.topo
        bytes_per_elem = self.graph.layer(producer_name).bytes_per_elem
        regions, src_cores = parsed.layer(producer_name).part_arrays()
        dest_cores = dest_layer.part_arrays()[1]
        lo = np.maximum(need_arr[:, None, 0::2], regions[None, :, 0::2])
        hi = np.minimum(need_arr[:, None, 1::2], regions[None, :, 1::2])
        ext = hi - lo
        hits = (ext > 0).all(axis=2) & valid[:, None]
        # Same-core data stays inside the core's GLB.
        hits &= src_cores[None, :] != dest_cores[:, None]
        if not hits.any():
            return
        overlaps = ext[..., 0] * ext[..., 1] * ext[..., 2] * ext[..., 3]
        di, sj = np.nonzero(hits)
        fetches = np.array([r.if_fetches for r in results], dtype=np.float64)
        volumes = overlaps[di, sj] * bytes_per_elem * fetches[di]
        core_scatter_batch(
            topo, src_cores[sj], dest_cores[di], volumes, out.traffic.volumes,
        )
        if out.flows is None:
            return
        for src, dst, volume in zip(src_cores[sj].tolist(),
                                    dest_cores[di].tolist(), volumes.tolist()):
            self._record(out, "ifmap", consumer_name, topo.core_node(src),
                         topo.core_node(dst), volume, src_layer=producer_name)

    # ------------------------------------------------------------------
    # Weights: deduplicated multicast per K-slice
    # ------------------------------------------------------------------

    def _layer_weights(self, parsed, lms, intra, name, out):
        graph, topo = self.graph, self.topo
        layer = graph.layer(name)
        if not layer.has_weights:
            return
        fd = lms.scheme(name).fd.weight
        results = intra[name]
        parsed_layer = parsed.layer(name)
        weight_bytes = parsed_layer.weight_bytes_array()
        #: (k_lo, k_hi) -> (bytes incl. refetch, destination cores)
        by_slice: dict[tuple[int, int], list] = {}
        for i, part in enumerate(parsed_layer.parts):
            key = (part.region.k_lo, part.region.k_hi)
            vol = weight_bytes[i] * results[i].w_fetches
            entry = by_slice.setdefault(key, [0.0, []])
            entry[0] = max(entry[0], vol)
            entry[1].append(part.core)
        for (volume, cores) in by_slice.values():
            dsts = [topo.core_node(c) for c in cores]
            resident = volume <= self.arch.glb_bytes / 2
            for dram, share in _dram_targets(topo, fd):
                tree = multicast_tree(topo, dram, dsts)
                v = volume * share
                if resident:
                    # Loaded once per inference, amortized by the caller.
                    out.dram_weight_once[dram[1]] += v
                    out.weight_tree_hop_bytes += v * len(tree)
                else:
                    out.traffic.add_on_links(tree, v)
                    out.dram_read[dram[1]] += v
                self._mcast_counter += 1
                for dst in dsts:
                    self._record(out, "weight", name, dram, dst, v,
                                 multicast_group=self._mcast_counter,
                                 once=resident)

    # ------------------------------------------------------------------
    # Ofmaps: explicit DRAM writes
    # ------------------------------------------------------------------

    def _layer_outputs(self, parsed, lms, name, out):
        fd = lms.scheme(name).fd.ofmap
        if fd < 0:
            return
        bytes_per_elem = self.graph.layer(name).bytes_per_elem
        regions, cores = parsed.layer(name).part_arrays()
        ext = regions[:, 1::2] - regions[:, 0::2]
        volumes = ext[:, 0] * ext[:, 1] * ext[:, 2] * ext[:, 3] * bytes_per_elem
        self._dram_flows_batch(
            fd, cores, volumes.astype(np.float64), out, name, write=True
        )
