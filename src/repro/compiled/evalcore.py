"""Array-native evaluation core: compiled tables in, GroupEval out.

This is the Evaluator's hot path rebuilt over :class:`CompiledGraph`
tables.  Lowering is split by what actually determines each piece:

* :class:`PartRec` — everything a layer's **partition** determines
  (region tables, per-part intra-core schedules and their aggregates,
  requirement regions, per-K-slice weight bytes, DRAM-input volumes).
  Keyed by ``(layer, partition, batch_unit)``: the three SA operators
  that only permute core groups or re-draw FD selectors (OP2/OP3/OP5)
  reuse it untouched.  It reads nothing of the topology, so a store of
  records may serve every architecture with the same core.
* :class:`CompiledLayer` — a partition record plus the scheme's core
  assignment, keyed by the full scheme.
* pair geometry — producer-part x consumer-part overlap volumes,
  keyed by the two partitions; only the same-core mask and the final
  scatter depend on core assignments.

Traffic blocks are built from these records by the deferred staging in
:mod:`repro.compiled.batch`, with the same scatter-add arithmetic the
object path uses, and folded + finalized there by the one batched core
— for a single mapping too (:meth:`CompiledEval.evaluate_group` is its
N=1 call).  Results are **bit-identical** to the object path (asserted
over the whole model zoo in ``tests/test_compiled_identity.py``).  The
core is fabric-agnostic: it consumes only the
:class:`~repro.fabric.Topology` surface (padded route tables and link
arrays; multicast trees are unions of DRAM routes, packed as bitsets),
so every registered interconnect — mesh, folded torus, concentrated
mesh, ring — runs through the same path.

:class:`GroupSession` is one SA walker's accepted state of one layer
group.  A proposal rebuilds only the per-layer blocks an operator move
actually touched (the mutated layers' records and self blocks, plus the
input blocks of those layers, their in-group consumers and any layer
whose cross-group placement changed); every other block is the
accepted state's own, so delta and full evaluation agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.encoding import INTERLEAVED, LayerGroupMapping, MappingScheme
from repro.errors import InvalidMappingError
from repro.evalmodel.breakdown import GroupEval
from repro.evalmodel.delay import per_dram_bandwidth
from repro.evalmodel.traffic_analysis import (
    _conv_needs,
    _dram_targets,
    _matmul_needs,
)
from repro.intracore.dataflow import CoreWorkload
from repro.perf import LruDict
from repro.workloads.layer import LayerType

from repro.compiled.graph import CompiledGraph, as_index_table, stacked_offsets


@dataclass
class PartRec:
    """Everything one layer's partition determines (scheme-independent).

    ``regions`` rows are ``(h_lo, h_hi, w_lo, w_hi, b_lo, b_hi, k_lo,
    k_hi)`` in numerical-ID (Correspondence Rule) order; the float
    arrays hold the intra-core schedule outputs traffic analysis
    consumes; ``weight_vols`` holds, per K-slice (the multicast units),
    the stationary bytes incl. refetch — slice ``kk`` owns parts ``kk,
    kk + pk, ...`` since k cycles fastest in NID order;
    ``weight_streamed`` masks the slices too big to stay resident in
    half the GLB (``None`` when every slice is resident);
    ``out_volumes`` are per-part ofmap bytes; ``needs`` / ``dram_in``
    lazily memoize per-input requirement regions and DRAM-read volumes.
    Records may outlive an architecture (see :class:`CompiledEval`),
    so they keep no array their consumers do not read.
    """

    lid: int
    regions: np.ndarray
    if_fetches: np.ndarray
    compute: float
    energy: float
    fits: bool
    weight_vols: np.ndarray | None
    weight_streamed: np.ndarray | None
    out_volumes: np.ndarray
    needs: dict
    dram_in: dict


@dataclass
class CompiledLayer:
    """A partition record bound to one scheme's core assignment.

    Nothing else is kept: a layer's DRAM plans are rarely asked for
    twice while its record sits in the ``compiled.layers`` LRU, so
    :meth:`CompiledEval.dram_plan` gathers one per staged scatter.
    """

    rec: PartRec
    cores: np.ndarray


class _GroupCtx:
    """Per-layer-group compiled context (positions and input routing).

    Each input-slice descriptor is ``(op_idx, producer_lid, group_pos,
    ext_name)``: ``group_pos`` is the producer's position inside the
    group (or ``None``), ``ext_name`` the producer's layer name when it
    lives in an earlier group (its DRAM placement then comes from
    ``stored_at``), and both are ``None`` for DNN-input slices.
    """

    def __init__(self, cgraph: CompiledGraph, layers: tuple[str, ...]):
        self.layers = layers
        self.lids = [cgraph.lid[name] for name in layers]
        pos = {lid: i for i, lid in enumerate(self.lids)}
        self.inputs: list[tuple] = []
        for lid in self.lids:
            descs = []
            for ref in cgraph.inputs[lid]:
                plid = ref.producer_lid
                if plid < 0:
                    descs.append((ref.op_idx, plid, None, None))
                elif plid in pos:
                    descs.append((ref.op_idx, plid, pos[plid], None))
                else:
                    descs.append((ref.op_idx, plid, None, cgraph.names[plid]))
            self.inputs.append(tuple(descs))
        #: Cross-group producer names per layer, in slice order (their
        #: DRAM placements are the only stored_at inputs the group
        #: reads) — empty for layers fed purely from inside the group.
        self.ext_names = [
            tuple(d[3] for d in descs if d[3] is not None)
            for descs in self.inputs
        ]
        #: In-group producer positions per layer: a move mutating
        #: position p invalidates the input blocks of p and of every
        #: layer listing p here.
        self.producer_pos = [
            tuple(d[2] for d in descs if d[2] is not None)
            for descs in self.inputs
        ]


def _route_arrays(topo, n_cores: int, n_dram: int, n_links: int) -> tuple:
    """The route arrays a :class:`CompiledEval` gathers from, derived
    from the topology's route tables alone (so one fabric structure's
    are shared, see :meth:`~repro.fabric.base.BaseTopology.
    shared_routes`): ``(core table, core lens, route words, DRAM
    tables)``."""
    table, core_lens = topo.core_route_table()
    to_d, to_l, from_d, from_l = topo.dram_route_tables()
    n_rows = n_cores * n_dram
    # Row ``dram * n_cores + core``: the DRAM -> core route's links as a
    # bitset in 64-bit words, so a multicast tree (the union of its
    # destinations' routes) is a bitwise OR, its size a popcount.
    # Packed per DRAM: the transient matrix stays cores x links.
    width = -(-n_links // 64) * 64
    packed = np.empty((n_dram, n_cores, width // 8), dtype=np.uint8)
    member = np.empty((n_cores, width + 1), dtype=bool)
    for d in range(n_dram):
        member[:] = False  # rows core * n_dram + d; -1 pads: last
        member[np.arange(n_cores)[:, None], from_d[d::n_dram]] = True
        packed[d] = np.packbits(member[:, :width], 1, bitorder="little")
    route_words = packed.reshape(n_rows, -1).view(np.uint64)
    # ``(table, stacked, lens)`` per direction (write, read), rows
    # ``core * n_dram + dram``: ``stacked`` offsets valid entries by
    # ``dram * n_links`` — interleaving targets DRAM t as target t.
    offsets = stacked_offsets(n_dram, n_links)[np.arange(n_rows) % n_dram]
    dram_tables = []
    for table_d, lens in ((to_d, to_l), (from_d, from_l)):
        table_d = as_index_table(table_d)
        stacked = np.where(table_d >= 0, table_d + offsets[:, None], -1)
        dram_tables.append((table_d, stacked, lens))
    return (as_index_table(table), core_lens, route_words,
            tuple(dram_tables))


class CompiledEval:
    """Array-native evaluation of one graph on one evaluator.

    All caches are LRU-bounded and keyed by content (layer id,
    partition or scheme, batch unit, dependency schemes/placements), so
    the compiled path is a pure memoized function of its inputs.

    Only the evaluator's topology, architecture, energy model,
    intra-core engine and partition-record store are kept — never the
    evaluator itself, which owns this object: without the
    back-reference both die by refcount.

    Partition records come from the evaluator's core store when it has
    one, else from a private LRU.  A record is a function of the
    graph, the layer, the partition, the batch unit and the core
    parameters, so keys in a shared store lead with ``(engine,
    graph)``, an engine standing for one core micro-architecture:
    records built for one architecture serve every other with the same
    core and graph.
    """

    def __init__(self, evaluator, cgraph: CompiledGraph, graph):
        self.topo = topo = evaluator.topo
        self.arch = evaluator.arch
        self.energy = evaluator.energy
        self.intracore = evaluator.intracore
        self.cgraph = cgraph
        if evaluator.store is None:
            self.parts = LruDict(32768, name="compiled.parts")
            self._part_ns = None
        else:
            self.parts = evaluator.store.parts
            self._part_ns = (self.intracore, graph)
        self.layers = LruDict(32768, name="compiled.layers")
        self.self_blocks = LruDict(32768, name="compiled.self")
        self.pair_geom = LruDict(32768, name="compiled.pairs")
        self.slice_flows = LruDict(16384, name="compiled.slices")
        self._group_ctx: dict[tuple[str, ...], _GroupCtx] = {}
        # Plain attributes: ArchConfig.n_cores is a property.
        self.n_cores = n_cores = evaluator.arch.n_cores
        self.glb_half = evaluator.arch.glb_bytes / 2
        # A traffic block is one row of ``lanes`` floats: per-link
        # volumes, per-DRAM reads, writes and once-per-inference weight
        # loads, then the weight-tree hop bytes.  All-zero parts are
        # plain zeros (folding +0.0 is exact for these non-negative
        # aggregates).
        self.n_links = n_links = topo.n_links
        self.n_dram = n_dram = len(topo.dram_nodes())
        self.lanes = n_links + 3 * n_dram + 1
        self.sl_vol = slice(0, n_links)
        self.sl_dr = slice(n_links, n_links + n_dram)
        self.sl_dw = slice(n_links + n_dram, n_links + 2 * n_dram)
        self.sl_do = slice(n_links + 2 * n_dram, n_links + 3 * n_dram)
        self.i_hop = n_links + 3 * n_dram
        (self.core_table, self.core_lens, self.route_words,
         self._dram_tables) = topo.shared_routes(
            "compiled", lambda: _route_arrays(topo, n_cores, n_dram, n_links)
        )
        #: ``(DRAM indices, shares)`` per FD selector 0..n_dram, as
        #: arrays in :func:`_dram_targets` order.
        self.fd_targets = [
            (np.array([dram[1] for dram, _ in ts], dtype=np.int64),
             np.array([share for _, share in ts]))
            for ts in (_dram_targets(topo, fd) for fd in range(n_dram + 1))
        ]
        #: The shared all-zero block of weightless layers with
        #: implicitly managed ofmaps (MATMUL, VECTOR, mid-group
        #: POOL/ELTWISE).
        self.empty_block = np.zeros(self.lanes)
        # Reduction constants hoisted out of the per-evaluation
        # finalize step.
        self._bandwidths = topo.link_arrays()[0]
        self._noc_idx, self._d2d_idx, _ = topo.link_index_arrays()
        self._per_dram_bw = per_dram_bandwidth(evaluator.arch)
        self._n_d2d = evaluator._n_d2d_interfaces()

    # ------------------------------------------------------------------
    # Scheme lowering (the compiled parse)
    # ------------------------------------------------------------------

    def group_ctx(self, group) -> _GroupCtx:
        ctx = self._group_ctx.get(group.layers)
        if ctx is None:
            ctx = _GroupCtx(self.cgraph, group.layers)
            self._group_ctx[group.layers] = ctx
        return ctx

    def layer_rec(
        self, lid: int, scheme: MappingScheme, batch_unit: int
    ) -> CompiledLayer:
        # Keyed by what the record depends on — partition and core
        # assignment, not the FD selectors — so OP5 (flow re-draw)
        # moves reuse it.
        key = (lid, scheme.part, scheme.core_group, batch_unit)
        rec = self.layers.get_lru(key)
        if rec is None:
            part = self.part_rec(lid, scheme.part, batch_unit)
            cores = np.fromiter(
                scheme.core_group, dtype=np.int64,
                count=scheme.part.n_parts,
            )
            rec = CompiledLayer(part, cores)
            self.layers.put(key, rec)
        return rec

    def part_rec(self, lid: int, part, batch_unit: int) -> PartRec:
        key = (self._part_ns, lid, part, batch_unit)
        rec = self.parts.get_lru(key)
        if rec is None:
            rec = self._build_part(lid, part, batch_unit)
            self.parts.put(key, rec)
        return rec

    def _build_part(self, lid: int, part, batch_unit: int) -> PartRec:
        cg = self.cgraph
        ph, pw, pb, pk = part.h, part.w, part.b, part.k
        n = part.n_parts
        out_h, out_w, out_k = cg.out_h_i[lid], cg.out_w_i[lid], cg.out_k_i[lid]

        # Near-equal splits in numerical-ID order:
        # NID = ((h*W + w)*B + b)*K + k.
        idx = np.arange(n, dtype=np.int64)
        k_id = idx % pk
        b_id = (idx // pk) % pb
        w_id = (idx // (pk * pb)) % pw
        h_id = idx // (pk * pb * pw)
        regions = np.empty((n, 8), dtype=np.int64)
        regions[:, 0] = h_id * out_h // ph
        regions[:, 1] = (h_id + 1) * out_h // ph
        regions[:, 2] = w_id * out_w // pw
        regions[:, 3] = (w_id + 1) * out_w // pw
        regions[:, 4] = b_id * batch_unit // pb
        regions[:, 5] = (b_id + 1) * batch_unit // pb
        regions[:, 6] = k_id * out_k // pk
        regions[:, 7] = (k_id + 1) * out_k // pk
        ext = regions[:, 1::2] - regions[:, 0::2]
        if not (ext > 0).all():
            raise InvalidMappingError(
                f"{cg.names[lid]}: partition {part.as_tuple()} produced an "
                "empty part — partition counts exceed extents"
            )

        kind = cg.kinds[lid]
        in_c, groups = cg.in_c_i[lid], cg.groups_i[lid]
        if cg.channelwise[lid]:
            c = ext[:, 3].copy()
            grp = np.ones(n, dtype=np.int64)
        elif kind is LayerType.MATMUL:
            c = np.full(n, in_c, dtype=np.int64)
            grp = np.ones(n, dtype=np.int64)
        elif groups > 1:
            # A K-slice of a grouped conv touches only its groups'
            # channels (same arithmetic as parser._workload_for).
            k_per_group = out_k // groups
            g_lo = regions[:, 6] // k_per_group
            g_hi = (regions[:, 7] - 1) // k_per_group + 1
            grp = g_hi - g_lo
            c = grp * (in_c // groups)
        else:
            c = np.full(n, in_c, dtype=np.int64)
            grp = np.ones(n, dtype=np.int64)

        r, s = cg.kernel_r_i[lid], cg.kernel_s_i[lid]
        stride, bpe = cg.stride_i[lid], cg.bytes_per_elem_i[lid]
        # (b, k, h, w, c, groups) per part as plain ints.
        sig_rows = np.stack(
            [ext[:, 2], ext[:, 3], ext[:, 0], ext[:, 1], c, grp], axis=1
        ).tolist()

        schedule = self.intracore.schedule
        results = []
        # Near-equal splits yield few distinct part shapes; dedupe
        # locally so the engine's memo is probed once per shape.
        local: dict[tuple, object] = {}
        for row in sig_rows:
            sig = (row[0], row[1], row[2], row[3], row[4], row[5])
            res = local.get(sig)
            if res is None:
                res = schedule(CoreWorkload(
                    kind=kind, b=sig[0], k=sig[1], h=sig[2], w=sig[3],
                    c=sig[4], r=r, s=s, stride=stride, groups=sig[5],
                    bytes_per_elem=bpe,
                ))
                local[sig] = res
            results.append(res)
        # Per-part aggregation in part order (same fold as the object
        # path's _intra_aggregate).
        compute = 0.0
        energy = 0.0
        fits = True
        for res in results:
            if res.compute_time > compute:
                compute = res.compute_time
            energy += res.energy
            fits = fits and res.fits
        weight_vols = weight_streamed = None
        if cg.has_weights[lid]:
            # Stationary-operand bytes (CoreWorkload.weight_bytes),
            # grouped by K-slice: cores sharing a slice receive the
            # same bytes (one multicast unit per slice).  Parts share a
            # (k_lo, k_hi) slice exactly when they share a k id — k
            # cycles fastest in NID order, so slice kk owns parts
            # ``kk, kk + pk, ...`` and the per-slice byte maximum is a
            # column-wise reduction (max is order-insensitive, so this
            # matches the per-part fold bit for bit).
            wb = (
                ext[:, 3] * np.maximum(1, c // grp) * (r * s * bpe)
            ).astype(np.float64)
            w_fetches = np.array(
                [res.w_fetches for res in results], dtype=np.float64
            )
            weight_vols = (wb * w_fetches).reshape(-1, pk).max(axis=0)
            streamed = weight_vols > self.glb_half
            if streamed.any():
                weight_streamed = streamed

        return PartRec(
            lid=lid,
            regions=regions,
            if_fetches=np.array(
                [res.if_fetches for res in results], dtype=np.float64
            ),
            compute=compute,
            energy=energy,
            fits=fits,
            weight_vols=weight_vols,
            weight_streamed=weight_streamed,
            out_volumes=(
                ext[:, 0] * ext[:, 1] * ext[:, 2] * ext[:, 3] * bpe
            ).astype(np.float64),
            needs={},
            dram_in={},
        )

    def _layer_needs(self, rec: PartRec, op_idx: int):
        """Requirement regions of one input (memoized on the record)."""
        got = rec.needs.get(op_idx)
        if got is None:
            cg = self.cgraph
            consumer = cg.layer_refs[rec.lid]
            ref = cg.inputs[rec.lid][op_idx]
            if consumer.kind is LayerType.MATMUL:
                producer = (
                    cg.layer_refs[ref.producer_lid]
                    if ref.producer_lid >= 0 else None
                )
                got = _matmul_needs(consumer, rec.regions, op_idx, producer)
            else:
                got = _conv_needs(consumer, rec.regions, ref.c_lo, ref.c_hi)
            rec.needs[op_idx] = got
        return got

    def _dram_in(self, rec: PartRec, op_idx: int):
        """Per-part DRAM-read volumes of one input: ``(idx, bytes)``.

        ``None`` when no part needs this input.  Partition-determined,
        so OP2/OP3/OP5 moves reuse it; only the destination cores and
        the FD selector vary per scheme.
        """
        got = rec.dram_in.get(op_idx, False)
        if got is False:
            needs, valid = self._layer_needs(rec, op_idx)
            if not valid.any():
                got = None
            else:
                ext = needs[:, 1::2] - needs[:, 0::2]
                volumes = ext[:, 0] * ext[:, 1] * ext[:, 2] * ext[:, 3]
                idx = np.nonzero(valid)[0]
                bpe = self.cgraph.bytes_per_elem_i[rec.lid]
                got = (idx, volumes[idx] * bpe * rec.if_fetches[idx])
            rec.dram_in[op_idx] = got
        return got

    def pair_geometry(self, rec: PartRec, op_idx: int, prod: PartRec,
                      c_part, p_part, batch_unit: int):
        """Producer-part x consumer-part overlaps for one input.

        Returns ``(di, sj, bytes)`` over the geometrically overlapping
        (destination, producer-part) pairs in destination-major order —
        only the same-core filter and the scatter remain per scheme —
        or ``None`` when nothing overlaps.  Keyed by the two partitions
        (``False`` marks a cached empty result).
        """
        key = (rec.lid, c_part, prod.lid, p_part, batch_unit, op_idx)
        got = self.pair_geom.get_lru(key)
        if got is False:
            return None
        if got is None:
            needs, valid = self._layer_needs(rec, op_idx)
            if not valid.any():
                got = False
            else:
                p_regions = prod.regions
                lo = np.maximum(needs[:, None, 0::2], p_regions[None, :, 0::2])
                hi = np.minimum(needs[:, None, 1::2], p_regions[None, :, 1::2])
                ext = hi - lo
                hits = (ext > 0).all(axis=2) & valid[:, None]
                if not hits.any():
                    got = False
                else:
                    overlaps = (
                        ext[..., 0] * ext[..., 1] * ext[..., 2] * ext[..., 3]
                    )
                    di, sj = np.nonzero(hits)
                    bpe = self.cgraph.bytes_per_elem_i[prod.lid]
                    got = (di, sj, overlaps[di, sj] * bpe)
            self.pair_geom.put(key, got)
            if got is False:
                return None
        return got

    # ------------------------------------------------------------------
    # Block inputs (the staging in repro.compiled.batch builds blocks)
    # ------------------------------------------------------------------

    def deps_for(self, ctx: _GroupCtx, i: int, schemes, stored_at) -> tuple:
        """What layer ``i``'s input block depends on, besides itself.

        One entry per input slice: the producer's scheme (in-group),
        its DRAM placement (cross-group) or ``None`` (DNN input, whose
        selector lives in the layer's own scheme).
        """
        descs = ctx.inputs[i]
        out = []
        for _, _, group_pos, ext_name in descs:
            if group_pos is not None:
                out.append(schemes[group_pos])
            elif ext_name is not None:
                out.append(stored_at.get(ext_name, INTERLEAVED))
            else:
                out.append(None)
        return tuple(out)

    def weight_trees(self, layer: CompiledLayer,
                     d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(bitsets, link counts)`` of every K-slice's multicast tree
        from every DRAM target in ``d``, ``(pk, T, ...)``: one gather,
        one OR-reduce and one popcount for the whole layer."""
        pk = len(layer.rec.weight_vols)
        rows = d[:, None] * self.n_cores + layer.cores
        words = np.bitwise_or.reduce(
            self.route_words.take(rows.reshape(len(d), -1, pk), axis=0),
            axis=1,
        ).transpose(1, 0, 2)
        sizes = np.add.reduce(np.bitwise_count(words), axis=2,
                              dtype=np.int64)
        return words, sizes

    def dram_plan(self, layer: CompiledLayer, fd: int,
                  op_idx: int | None = None) -> tuple:
        """The route gather of one core<->DRAM scatter, for every FD
        target at once.

        ``op_idx=None`` plans the ofmap write from every part; an input
        index plans that input's DRAM read into the parts that need it
        (callers check :meth:`_dram_in` first).  The plan is ``(DRAM
        indices, shares, link indices, repeat counts)``, target-major:
        target ``t``'s link indices are offset by ``t * n_links``, so
        one bincount over ``T`` segments scatters every target, each
        segment with weights in the order :func:`dram_scatter_batch`
        feeds that target's own bincount.
        """
        if op_idx is None:
            cores = layer.cores
            table, stacked, lens = self._dram_tables[0]
        else:
            cores = layer.cores[self._dram_in(layer.rec, op_idx)[0]]
            table, stacked, lens = self._dram_tables[1]
        d, shares = self.fd_targets[fd]
        if len(d) > 1:
            table = stacked
        rows = (cores * self.n_dram + d[:, None]).ravel()
        padded = table.take(rows, axis=0)
        return d, shares, padded[padded >= 0], lens.take(rows)

    def evaluate_group(
        self,
        lms: LayerGroupMapping,
        batch: int,
        stored_at: dict[str, int] | None = None,
    ) -> GroupEval:
        """Stateless full evaluation: the batched core's N=1 call."""
        from repro.compiled.batch import evaluate_population

        return evaluate_population(self, [lms], batch, stored_at)[0]


@dataclass
class StagedCandidate:
    """A candidate's rebuilt blocks, staged against one session.

    ``rows`` lists the ``(block row, block)`` pairs that differ from
    the session's accepted state, in the canonical block order
    (inputs, self per layer: row ``2i`` / ``2i + 1``).  Until the
    staging flushes, rebuilt blocks are placeholders carrying the
    finished block as ``.block``; :meth:`resolve` swaps them in.
    """

    schemes: list
    recs: list
    self_blocks: list
    input_blocks: list
    ext_places: list
    rows: list

    def resolve(self) -> None:
        for k, (j, blk) in enumerate(self.rows):
            if type(blk) is not np.ndarray:
                blk = blk.block
                self.rows[k] = (j, blk)
                blocks = self.input_blocks if j % 2 == 0 else self.self_blocks
                blocks[j // 2] = blk


class GroupSession:
    """One walker's accepted state of one layer group.

    :meth:`propose` stages a candidate LMS: a block is rebuilt iff its
    own scheme or any of its dependencies (producer schemes,
    cross-group placements) changed — checked by identity, so unchanged
    layers cost a pointer compare, not a hash.  All five SA operators
    are covered by that one rule, and a fresh session (no accepted
    state yet) stages every block through it.  :meth:`commit` adopts a
    staged candidate.
    """

    def __init__(self, ceval: CompiledEval, ctx: _GroupCtx, bu: int):
        self.ceval = ceval
        self.ctx = ctx
        self.bu = bu
        n = len(ctx.lids)
        self.schemes: list = [None] * n
        self.recs: list = [None] * n
        self.self_blocks: list = [None] * n
        self.input_blocks: list = [None] * n
        self.ext_places: list = [None] * n

    def propose(self, lms: LayerGroupMapping, stored_at: dict[str, int],
                pend) -> StagedCandidate:
        """Stage ``lms`` against the accepted state; rebuilt blocks are
        queued on ``pend`` (a :class:`~repro.compiled.batch.
        _DeferredBlocks`) and materialize when it flushes."""
        ceval, ctx, bu = self.ceval, self.ctx, self.bu
        old = self.schemes
        n_layers = len(ctx.lids)
        schemes = [lms.scheme(name) for name in ctx.layers]
        recs = list(self.recs)
        self_blocks = list(self.self_blocks)
        input_blocks = list(self.input_blocks)
        places = self.ext_places
        rows: list[tuple] = []
        changed = set()
        for i, lid in enumerate(ctx.lids):
            if schemes[i] is not old[i]:
                changed.add(i)
                recs[i] = ceval.layer_rec(lid, schemes[i], bu)
                sb = pend.stage_self_block(lid, schemes[i], bu, recs[i])
                self_blocks[i] = sb
                rows.append((2 * i + 1, sb))
        for i in range(n_layers):
            # An input block goes stale when its layer, one of its
            # in-group producers, or a cross-group placement changed.
            stale = i in changed
            if not stale:
                for p in ctx.producer_pos[i]:
                    if p in changed:
                        stale = True
                        break
            names = ctx.ext_names[i]
            if names:
                now = tuple(stored_at.get(nm, INTERLEAVED) for nm in names)
                if now != places[i]:
                    stale = True
                    if places is self.ext_places:
                        places = list(places)
                    places[i] = now
            if stale:
                ib = pend.stage_input_block(
                    ctx, i, bu, schemes, recs,
                    ceval.deps_for(ctx, i, schemes, stored_at),
                )
                input_blocks[i] = ib
                rows.append((2 * i, ib))
        return StagedCandidate(schemes, recs, self_blocks, input_blocks,
                               places, rows)

    def commit(self, staged: StagedCandidate) -> None:
        """Adopt a (resolved) staged candidate as the accepted state."""
        self.schemes = staged.schemes
        self.recs = staged.recs
        self.self_blocks = staged.self_blocks
        self.input_blocks = staged.input_blocks
        self.ext_places = staged.ext_places
