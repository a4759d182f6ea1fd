"""Array-native evaluation core: compiled tables in, GroupEval out.

This is the Evaluator's hot path rebuilt over :class:`CompiledGraph`
tables.  Lowering is split by what actually determines each piece:

* :class:`PartRec` — everything a layer's **partition** determines
  (region tables, per-part intra-core schedules and their aggregates,
  requirement regions, weight-slice grouping, DRAM-input volumes).
  Keyed by ``(layer, partition, batch_unit)``: the three SA operators
  that only permute core groups or re-draw FD selectors (OP2/OP3/OP5)
  reuse it untouched.
* :class:`CompiledLayer` — a partition record plus the scheme's core
  assignment, keyed by the full scheme.
* pair geometry — producer-part x consumer-part overlap volumes,
  keyed by the two partitions; only the same-core mask and the final
  scatter depend on core assignments.

Traffic is accumulated with the same scatter-add kernels the object
path uses (:func:`~repro.evalmodel.traffic_analysis.core_scatter_batch`
/ :func:`~repro.evalmodel.traffic_analysis.dram_scatter_batch`) and the
delay/energy reduction reuses the object path's stage-time and energy
functions, so compiled results are **bit-identical** to the object path
(asserted over the whole model zoo in
``tests/test_compiled_identity.py``).  The core is fabric-agnostic: it
consumes only the :class:`~repro.fabric.Topology` surface of
``evaluator.topo`` (padded route tables, link arrays, multicast
trees), so every registered interconnect — mesh, folded torus,
concentrated mesh, ring — runs through the same compiled hot path.

On top of the stateless path, :class:`GroupSession` adds delta
evaluation for the SA loop: a proposal recomputes only the per-layer
blocks an operator move actually touched (the mutated layers' records
and self blocks, plus the input blocks of those layers, their in-group
consumers and any layer whose cross-group placement changed) and
re-merges the cached remainder in the canonical order — the merge is
the same reduction over the same block arrays, so delta and full
evaluation agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.encoding import INTERLEAVED, LayerGroupMapping, MappingScheme
from repro.errors import InvalidMappingError
from repro.evalmodel.breakdown import EnergyBreakdown, GroupEval
from repro.evalmodel.delay import per_dram_bandwidth
from repro.evalmodel.traffic_analysis import (
    LayerTrafficBlock,
    _conv_needs,
    _dram_targets,
    _matmul_needs,
)
from repro.intracore.dataflow import CoreWorkload
from repro.perf import LruDict
from repro.workloads.layer import LayerType

from repro.compiled.graph import CompiledGraph


@dataclass
class PartRec:
    """Everything one layer's partition determines (scheme-independent).

    ``regions`` rows are ``(h_lo, h_hi, w_lo, w_hi, b_lo, b_hi, k_lo,
    k_hi)`` in numerical-ID (Correspondence Rule) order; the float
    arrays hold the intra-core schedule outputs traffic analysis
    consumes; ``weight_slices`` groups parts sharing a K-slice (the
    multicast units) as ``(bytes incl. refetch, part indices)``;
    ``out_volumes`` are per-part ofmap bytes; ``needs`` / ``dram_in``
    lazily memoize per-input requirement regions and DRAM-read volumes.
    """

    lid: int
    regions: np.ndarray
    if_fetches: np.ndarray
    w_fetches: np.ndarray
    compute: float
    energy: float
    fits: bool
    weight_slices: tuple | None
    out_volumes: np.ndarray
    needs: dict
    dram_in: dict


@dataclass
class CompiledLayer:
    """A partition record bound to one scheme's core assignment.

    ``dram_plans`` lazily memoizes per-(FD selector, direction, input)
    scatter plans: the padded route indices and repeat counts of the
    cores' DRAM routes, so repeated scatters skip the route-table
    gather and only pay the bincount.
    """

    rec: PartRec
    cores: np.ndarray
    cores_list: list[int]
    dram_plans: dict


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


@dataclass
class Proposal:
    """A delta-evaluated candidate, ready to commit into its session."""

    result: GroupEval
    schemes: list[MappingScheme]
    recs: list[CompiledLayer]
    self_blocks: list[LayerTrafficBlock]
    input_blocks: list[LayerTrafficBlock]
    ext_places: list[tuple]
    #: First block / layer index the move touched — the session's
    #: prefix folds are valid up to (exclusive) these on commit.
    first_block: int
    first_layer: int


class CompiledEval:
    """Array-native evaluation of one graph on one evaluator.

    All caches are LRU-bounded and keyed by content (layer id,
    partition or scheme, batch unit, dependency schemes/placements), so
    the compiled path is a pure memoized function of its inputs —
    exactly like the object path's cache layers, minus the object
    traffic.
    """

    def __init__(self, evaluator, cgraph: CompiledGraph):
        self.ev = evaluator
        self.cgraph = cgraph
        self.parts = LruDict(32768, name="compiled.parts")
        self.layers = LruDict(32768, name="compiled.layers")
        self.self_blocks = LruDict(32768, name="compiled.self")
        self.input_blocks = LruDict(16384, name="compiled.inputs")
        self.pair_geom = LruDict(32768, name="compiled.pairs")
        self.slice_flows = LruDict(16384, name="compiled.slices")
        self._trees = LruDict(65536)
        self._group_ctx: dict[tuple[str, ...], _GroupCtx] = {}
        self._empty_block: LayerTrafficBlock | None = None
        # Reduction constants hoisted out of the per-evaluation
        # finalize step.
        topo = evaluator.topo
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
            rec = CompiledLayer(part, cores, list(scheme.core_group), {})
            self.layers.put(key, rec)
        return rec

    def part_rec(self, lid: int, part, batch_unit: int) -> PartRec:
        key = (lid, part, batch_unit)
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

        schedule = self.ev.intracore.schedule
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
        w_fetches = np.array(
            [res.w_fetches for res in results], dtype=np.float64
        )

        weight_slices = None
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
            vols = (wb * w_fetches).reshape(-1, pk).max(axis=0).tolist()
            # Slice kk's parts are cores_list[kk::pk]; store the stride
            # so the self-block builder can gather them with one slice.
            weight_slices = tuple(
                (vols[kk], kk, pk) for kk in range(pk)
            )

        return PartRec(
            lid=lid,
            regions=regions,
            if_fetches=np.array(
                [res.if_fetches for res in results], dtype=np.float64
            ),
            w_fetches=w_fetches,
            compute=compute,
            energy=energy,
            fits=fits,
            weight_slices=weight_slices,
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
    # Traffic blocks
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

    def input_block(
        self, ctx: _GroupCtx, i: int, batch_unit: int, schemes, recs,
        deps: tuple,
    ) -> LayerTrafficBlock:
        # The block depends on the layer's partition, core assignment
        # and ifmap selector — not its weight/ofmap FDs — and on each
        # producer's partition + core assignment (or placement).
        s = schemes[i]
        narrowed = tuple(
            (d.part, d.core_group) if isinstance(d, MappingScheme) else d
            for d in deps
        )
        key = (
            ctx.lids[i], s.part, s.core_group, s.fd.ifmap, batch_unit,
            narrowed,
        )
        block = self.input_blocks.get_lru(key)
        if block is None:
            block = self._build_input_block(
                ctx, i, batch_unit, schemes, recs, deps
            )
            self.input_blocks.put(key, block)
        return block

    def _tree_links(self, dram, cores: tuple[int, ...]) -> tuple:
        """``(link index array, size)`` of the dram -> cores multicast
        tree.

        Keyed by core *indices* (int-tuple hashing beats node-tuple
        hashing in the hot loop); the tree is the union of the
        deterministic per-core routes (:mod:`repro.noc.multicast`
        semantics) gathered from the padded route tables, so both
        paths agree on the link set.
        The links are cached as an int64 array: scatter targets are
        unique within a tree, so fancy-index adds through the array are
        value-identical to the old list form, and the batched self-block
        builder can concatenate them without per-use conversion.
        """
        key = (dram, cores)
        got = self._trees.get_lru(key)
        if got is None:
            topo = self.ev.topo
            # The tree is the union of the deterministic per-core
            # routes (see noc.multicast); the padded from-DRAM route
            # table holds exactly those routes, so one gather + unique
            # replaces the per-destination route walk.
            n_dram = len(topo.dram_nodes())
            from_d = topo.dram_route_tables()[2]
            rows = (
                np.fromiter(cores, dtype=np.int64, count=len(cores))
                * n_dram + dram[1]
            )
            padded = from_d[rows]
            links = np.unique(padded[padded >= 0])
            got = (links.astype(np.int64, copy=False), int(links.size))
            self._trees.put(key, got)
        return got

    def _dram_scatter_planned(
        self, layer: CompiledLayer, plan_key, fd: int, sel,
        volumes, vol_slots, tally, write: bool,
    ) -> None:
        """Planned variant of :func:`dram_scatter_batch`.

        The route-table gather for a fixed core subset is memoized on
        the layer record (``sel`` — ``None`` for all parts, else a part
        index array — is only consulted on a plan miss); the arithmetic
        (bincount over the same index array with weights in the same
        order, sequential tally fold) is identical to the shared
        kernel, so results match bit for bit.
        """
        topo = self.ev.topo
        plan = layer.dram_plans.get(plan_key)
        if plan is None:
            cores_sel = layer.cores if sel is None else layer.cores[sel]
            n_dram = len(topo.dram_nodes())
            to_d, to_l, from_d, from_l = topo.dram_route_tables()
            table, lens = (to_d, to_l) if write else (from_d, from_l)
            plan = []
            for dram, share in _dram_targets(topo, fd):
                d = dram[1]
                rows = cores_sel * n_dram + d
                padded = table[rows].ravel()
                plan.append((d, share, padded[padded >= 0], lens[rows]))
            layer.dram_plans[plan_key] = plan
        n_slots = len(vol_slots)
        for d, share, valid_idx, rep_lens in plan:
            v = volumes * share
            vol_slots += np.bincount(
                valid_idx, weights=np.repeat(v, rep_lens),
                minlength=n_slots,
            )
            t = tally[d]
            for x in v.tolist():
                t += x
            tally[d] = t

    def _zeros(self):
        topo = self.ev.topo
        n_dram = len(topo.dram_nodes())
        return np.zeros(topo.n_links), np.zeros(n_dram)

    def _ingroup_slice_ops(self, cons: CompiledLayer, op_idx: int,
                           prod: CompiledLayer, c_part, p_part,
                           batch_unit: int) -> tuple:
        """Link adds of one in-group input slice, as replayable ops."""
        rec = cons.rec
        geom = self.pair_geometry(
            rec, op_idx, prod.rec, c_part, p_part, batch_unit
        )
        if geom is None:
            return ()
        di0, sj0, bytes0 = geom
        # Same-core data stays inside the core's GLB.
        src, dst = prod.cores[sj0], cons.cores[di0]
        mask = src != dst
        if not mask.any():
            return ()
        di = di0[mask]
        volumes = bytes0[mask] * rec.if_fetches[di]
        # The bincount below is exactly what core_scatter_batch adds
        # into its accumulator; caching the array and adding it later
        # is the same 0 + bincount fold.
        topo = self.ev.topo
        table, lens = topo.core_route_table()
        rows = src[mask] * topo.arch.n_cores + dst[mask]
        padded = table[rows].ravel()
        arr = np.bincount(
            padded[padded >= 0],
            weights=np.repeat(volumes, lens[rows]),
            minlength=topo.n_links,
        )
        return ((arr, None, None),)

    def _dram_slice_ops(self, layer: CompiledLayer, op_idx: int,
                        fd: int) -> tuple:
        """Link + DRAM-tally adds of one DRAM-read slice, per target."""
        pre = self._dram_in(layer.rec, op_idx)
        if pre is None:
            return ()
        idx, volumes = pre
        topo = self.ev.topo
        plan = layer.dram_plans.get((fd, False, op_idx))
        if plan is None:
            cores_sel = layer.cores[idx]
            n_dram = len(topo.dram_nodes())
            _, _, from_d, from_l = topo.dram_route_tables()
            plan = []
            for dram, share in _dram_targets(topo, fd):
                d = dram[1]
                rows = cores_sel * n_dram + d
                padded = from_d[rows].ravel()
                plan.append((d, share, padded[padded >= 0], from_l[rows]))
            layer.dram_plans[(fd, False, op_idx)] = plan
        n_links = topo.n_links
        ops = []
        for d, share, valid_idx, rep_lens in plan:
            v = volumes * share
            arr = np.bincount(
                valid_idx, weights=np.repeat(v, rep_lens),
                minlength=n_links,
            )
            ops.append((arr, d, v.tolist()))
        return tuple(ops)

    def _build_input_block(
        self, ctx, i, batch_unit, schemes, recs, deps
    ) -> LayerTrafficBlock:
        """Ifmap flows of one layer (mirrors the analyzer's
        ``_layer_inputs`` fast path over compiled records).

        Each input slice's contribution is cached as the exact
        sequence of vector adds the analyzer would perform and
        replayed in slice order, so a move that changes one producer
        recomputes only that producer's slice — the replayed fold is
        bit-identical to recomputing the whole block.
        """
        flows = self.slice_flows
        layer = recs[i]
        s = schemes[i]
        vol, dram_read = self._zeros()
        for desc, dep in zip(ctx.inputs[i], deps):
            op_idx, plid, group_pos, _ = desc
            if group_pos is not None:
                p = schemes[group_pos]
                key = (ctx.lids[i], op_idx, s.part, s.core_group,
                       p.part, p.core_group, batch_unit)
                ops = flows.get_lru(key)
                if ops is None:
                    ops = self._ingroup_slice_ops(
                        layer, op_idx, recs[group_pos], s.part, p.part,
                        batch_unit,
                    )
                    flows.put(key, ops)
            else:
                fd = s.fd.ifmap if plid < 0 else dep
                key = (ctx.lids[i], op_idx, s.part, s.core_group, fd,
                       batch_unit)
                ops = flows.get_lru(key)
                if ops is None:
                    ops = self._dram_slice_ops(layer, op_idx, fd)
                    flows.put(key, ops)
            for arr, d, v_list in ops:
                vol += arr
                if d is not None:
                    # Sequential scalar fold, matching the per-part
                    # tally loop of the uncached path.
                    t = dram_read[d]
                    for x in v_list:
                        t += x
                    dram_read[d] = t
        return LayerTrafficBlock(
            volumes=vol,
            dram_read=dram_read if dram_read.any() else None,
            dram_write=None,
            dram_weight_once=None,
            weight_tree_hop_bytes=0.0,
            flows=None,
        )

    def self_block(
        self, lid: int, scheme: MappingScheme, batch_unit: int,
        layer: CompiledLayer,
    ) -> LayerTrafficBlock:
        # Weightless layers with implicitly managed ofmaps (MATMUL,
        # VECTOR, mid-group POOL/ELTWISE) contribute nothing here; one
        # shared all-zero block serves them all.
        if layer.rec.weight_slices is None and scheme.fd.ofmap < 0:
            empty = self._empty_block
            if empty is None:
                empty = LayerTrafficBlock(
                    np.zeros(self.ev.topo.n_links), None, None, None,
                    0.0, None,
                )
                self._empty_block = empty
            return empty
        # Weight + ofmap flows depend on the partition, the core
        # assignment and those two FD selectors only.
        key = (
            lid, scheme.part, scheme.core_group,
            scheme.fd.weight, scheme.fd.ofmap, batch_unit,
        )
        block = self.self_blocks.get_lru(key)
        if block is None:
            block = self._build_self_block(scheme, layer)
            self.self_blocks.put(key, block)
        return block

    def _build_self_block(self, scheme, layer) -> LayerTrafficBlock:
        """Weight + ofmap flows — a function of the layer's own scheme
        (mirrors ``_layer_weights`` + ``_layer_outputs``)."""
        topo = self.ev.topo
        rec = layer.rec
        vol, dram_read = self._zeros()
        dram_write = np.zeros_like(dram_read)
        dram_once = np.zeros_like(dram_read)
        hop_bytes = 0.0
        if rec.weight_slices is not None:
            fd = scheme.fd.weight
            cores_list = layer.cores_list
            glb_half = self.ev.arch.glb_bytes / 2
            for volume, kk, pk in rec.weight_slices:
                dsts = tuple(cores_list[kk::pk])
                resident = volume <= glb_half
                for dram, share in _dram_targets(topo, fd):
                    tree_links, tree_size = self._tree_links(dram, dsts)
                    v = volume * share
                    if resident:
                        # Loaded once per inference (prologue).
                        dram_once[dram[1]] += v
                        hop_bytes += v * tree_size
                    else:
                        vol[tree_links] += v
                        dram_read[dram[1]] += v
        fd = scheme.fd.ofmap
        if fd >= 0:
            self._dram_scatter_planned(
                layer, (fd, True, None), fd, None,
                rec.out_volumes, vol, dram_write, write=True,
            )
        return LayerTrafficBlock(
            volumes=vol,
            dram_read=dram_read if dram_read.any() else None,
            dram_write=dram_write if dram_write.any() else None,
            dram_weight_once=dram_once if dram_once.any() else None,
            weight_tree_hop_bytes=hop_bytes,
            flows=None,
        )

    # ------------------------------------------------------------------
    # Assembly (the delay/energy reduction)
    # ------------------------------------------------------------------

    def _finalize(
        self, group, batch, vol, dram_read, dram_write, dram_once,
        hop_bytes, compute, intra_j, fits,
    ) -> GroupEval:
        """Delay/energy reduction over the folded group aggregates.

        The inputs are left folds (from zero, canonical block order) of
        the per-layer blocks — exactly what the object path's analyzer
        accumulates.  The arithmetic below inlines
        ``stage_times_from_compute`` + ``group_delay`` +
        ``group_energy_from_intra`` operation for operation (no
        reassociation), dropping only the intermediate TrafficMap /
        GroupTraffic / StageTimes objects; the model-zoo identity tests
        pin the equivalence.
        """
        ev = self.ev
        e = ev.energy
        # serialization_time: most-loaded-link drain time.
        network = float(np.max(vol / self._bandwidths))
        round_bytes = dram_read + dram_write
        dram = (
            float(np.max(round_bytes)) / self._per_dram_bw
            if len(round_bytes) else 0.0
        )
        prologue = (
            float(np.max(dram_once)) / self._per_dram_bw
            if len(dram_once) else 0.0
        )
        stage = max(compute, network, dram)
        rounds = math.ceil(batch / group.batch_unit)
        depth = len(group)
        delay = stage * (rounds + depth - 1) + prologue
        # network_energy + dram_energy, per round.
        noc_j = float(vol[self._noc_idx].sum()) * e.e_noc_hop
        d2d_j = e.d2d_energy(
            float(vol[self._d2d_idx].sum()), self._n_d2d, stage
        )
        dram_j = float(round_bytes.sum()) * e.e_dram
        once_bytes = float(dram_once.sum())
        energy = EnergyBreakdown(
            intra=intra_j * rounds,
            noc=noc_j * rounds + hop_bytes * e.e_noc_hop,
            d2d=d2d_j * rounds,
            dram=dram_j * rounds + once_bytes * e.e_dram,
        )
        return GroupEval(
            delay=delay,
            energy=energy,
            stage_time=stage,
            rounds=rounds,
            compute_time=compute,
            network_time=network,
            dram_time=dram,
            traffic=None,
            dram_round_bytes=tuple(round_bytes),
            fits=fits,
        )

    def _assemble(
        self, group, recs, input_blocks, self_blocks, batch
    ) -> GroupEval:
        n_dram = len(self.ev.topo.dram_nodes())
        dram_read = np.zeros(n_dram)
        dram_write = np.zeros(n_dram)
        dram_once = np.zeros(n_dram)
        hop_bytes = 0.0
        # Canonical block order: (inputs, self) per layer — the same
        # stacked fold the object-path analyzer runs, so per-link sums
        # associate identically.
        blocks = []
        compute = 0.0
        intra_j = 0.0
        fits = True
        for i, layer in enumerate(recs):
            blocks.append(input_blocks[i])
            blocks.append(self_blocks[i])
            rec = layer.rec
            if rec.compute > compute:
                compute = rec.compute
            intra_j += rec.energy
            fits = fits and rec.fits
        vol = np.add.reduce(
            np.stack([b.volumes for b in blocks]), axis=0
        )
        for block in blocks:
            if block.dram_read is not None:
                dram_read += block.dram_read
            if block.dram_write is not None:
                dram_write += block.dram_write
            if block.dram_weight_once is not None:
                dram_once += block.dram_weight_once
            hop_bytes += block.weight_tree_hop_bytes
        return self._finalize(
            group, batch, vol, dram_read, dram_write, dram_once,
            hop_bytes, compute, intra_j, fits,
        )

    def evaluate_group(
        self,
        lms: LayerGroupMapping,
        batch: int,
        stored_at: dict[str, int] | None = None,
    ) -> GroupEval:
        """Stateless full evaluation over the compiled tables."""
        stored_at = stored_at or {}
        group = lms.group
        ctx = self.group_ctx(group)
        bu = group.batch_unit
        schemes = [lms.scheme(name) for name in group.layers]
        recs = [
            self.layer_rec(lid, schemes[i], bu)
            for i, lid in enumerate(ctx.lids)
        ]
        self_blocks = [
            self.self_block(lid, schemes[i], bu, recs[i])
            for i, lid in enumerate(ctx.lids)
        ]
        input_blocks = [
            self.input_block(
                ctx, i, bu, schemes, recs,
                self.deps_for(ctx, i, schemes, stored_at),
            )
            for i in range(len(ctx.lids))
        ]
        return self._assemble(group, recs, input_blocks, self_blocks, batch)

    def session(
        self, lms: LayerGroupMapping, batch: int,
        stored_at: dict[str, int],
    ) -> "GroupSession":
        return GroupSession(self, lms, batch, stored_at)


class GroupSession:
    """Delta evaluation of SA moves against one layer group's state.

    The session pins the blocks of the current (accepted) state plus
    *prefix folds* of the canonical merge (left folds over the block
    order, which is exactly how ``np.add.reduce`` associates — asserted
    by the identity tests); :meth:`propose` rebuilds only what a
    candidate actually changes, restarts the fold from the last valid
    prefix and finalizes, :meth:`commit` adopts an accepted proposal
    and repairs the prefixes from the first touched block.  All five SA
    operators are covered by the same invalidation rule: a block is
    recomputed iff its own scheme or any of its dependencies (producer
    schemes, cross-group placements) changed — checked by identity, so
    unchanged layers cost a pointer compare, not a hash.
    """

    def __init__(self, ceval: CompiledEval, lms: LayerGroupMapping,
                 batch: int, stored_at: dict[str, int]):
        self.ceval = ceval
        self.group = lms.group
        self.batch = batch
        self.ctx = ceval.group_ctx(lms.group)
        self.bu = lms.group.batch_unit
        self.schemes = [lms.scheme(name) for name in lms.group.layers]
        ctx, bu = self.ctx, self.bu
        self.recs = [
            ceval.layer_rec(lid, self.schemes[i], bu)
            for i, lid in enumerate(ctx.lids)
        ]
        self.self_blocks = [
            ceval.self_block(lid, self.schemes[i], bu, self.recs[i])
            for i, lid in enumerate(ctx.lids)
        ]
        self.ext_places = [
            tuple(stored_at.get(nm, INTERLEAVED) for nm in names)
            for names in ctx.ext_names
        ]
        # Sessions build input blocks directly (no block-cache keying):
        # staleness is tracked by identity, and rebuilds replay the
        # cached per-slice contributions anyway.
        self.input_blocks = [
            ceval._build_input_block(
                ctx, i, bu, self.schemes, self.recs,
                ceval.deps_for(ctx, i, self.schemes, stored_at))
            for i in range(len(ctx.lids))
        ]
        n_layers = len(ctx.lids)
        topo = ceval.ev.topo
        n_dram = len(topo.dram_nodes())
        nb = 2 * n_layers
        # Prefix folds over the canonical block order (row j holds the
        # fold of blocks[0:j]) and over the per-layer rec aggregates.
        self._vol_pre = np.zeros((nb + 1, topo.n_links))
        self._dr_pre = np.zeros((nb + 1, n_dram))
        self._dw_pre = np.zeros((nb + 1, n_dram))
        self._do_pre = np.zeros((nb + 1, n_dram))
        self._hop_pre = [0.0] * (nb + 1)
        self._cmp_pre = [0.0] * (n_layers + 1)
        self._int_pre = [0.0] * (n_layers + 1)
        self._fit_pre = [True] * (n_layers + 1)
        # Local delta-evaluation tallies; the SA controller folds them
        # into PERF once per run (the ``sa.delta_eval`` pattern), so
        # the per-move cost stays two integer adds.
        self.proposed = 0
        self.committed = 0
        self._refold(0, 0)

    def _block(self, j: int) -> LayerTrafficBlock:
        """Block ``j`` of the canonical order (inputs, self per layer)."""
        blocks = self.input_blocks if j % 2 == 0 else self.self_blocks
        return blocks[j // 2]

    def _refold(self, first_block: int, first_layer: int) -> None:
        """Repair the prefix folds from the first touched index on."""
        nb = 2 * len(self.ctx.lids)
        for j in range(first_block, nb):
            b = self._block(j)
            np.add(self._vol_pre[j], b.volumes, out=self._vol_pre[j + 1])
            for pre, part in (
                (self._dr_pre, b.dram_read),
                (self._dw_pre, b.dram_write),
                (self._do_pre, b.dram_weight_once),
            ):
                if part is None:
                    pre[j + 1] = pre[j]
                else:
                    np.add(pre[j], part, out=pre[j + 1])
            self._hop_pre[j + 1] = self._hop_pre[j] + b.weight_tree_hop_bytes
        for i in range(first_layer, len(self.ctx.lids)):
            rec = self.recs[i].rec
            cm = self._cmp_pre[i]
            self._cmp_pre[i + 1] = rec.compute if rec.compute > cm else cm
            self._int_pre[i + 1] = self._int_pre[i] + rec.energy
            self._fit_pre[i + 1] = self._fit_pre[i] and rec.fits

    def propose(self, lms: LayerGroupMapping,
                stored_at: dict[str, int]) -> Proposal:
        """Delta-evaluate a candidate LMS of the session's group."""
        self.proposed += 1
        ceval, ctx, bu = self.ceval, self.ctx, self.bu
        old = self.schemes
        n_layers = len(ctx.lids)
        schemes = [lms.scheme(name) for name in self.group.layers]
        recs = list(self.recs)
        self_blocks = list(self.self_blocks)
        input_blocks = list(self.input_blocks)
        ext_places = self.ext_places
        new_places = ext_places
        changed = set()
        first_layer = n_layers
        for i, lid in enumerate(ctx.lids):
            if schemes[i] is not old[i]:
                changed.add(i)
                if i < first_layer:
                    first_layer = i
                recs[i] = ceval.layer_rec(lid, schemes[i], bu)
                self_blocks[i] = ceval.self_block(lid, schemes[i], bu, recs[i])
        first_block = 2 * first_layer + 1 if first_layer < n_layers \
            else 2 * n_layers
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
                places = tuple(
                    stored_at.get(nm, INTERLEAVED) for nm in names
                )
                if places != ext_places[i]:
                    stale = True
                    if new_places is ext_places:
                        new_places = list(ext_places)
                    new_places[i] = places
            if stale:
                if 2 * i < first_block:
                    first_block = 2 * i
                input_blocks[i] = ceval._build_input_block(
                    ctx, i, bu, schemes, recs,
                    ceval.deps_for(ctx, i, schemes, stored_at),
                )
        # Continue the canonical left fold from the last valid prefix;
        # bit-identical to folding all blocks from zero.
        nb = 2 * n_layers
        vol = self._vol_pre[first_block].copy()
        dr = self._dr_pre[first_block].copy()
        dw = self._dw_pre[first_block].copy()
        do = self._do_pre[first_block].copy()
        hop = self._hop_pre[first_block]
        for j in range(first_block, nb):
            b = input_blocks[j // 2] if j % 2 == 0 else self_blocks[j // 2]
            vol += b.volumes
            if b.dram_read is not None:
                dr += b.dram_read
            if b.dram_write is not None:
                dw += b.dram_write
            if b.dram_weight_once is not None:
                do += b.dram_weight_once
            hop += b.weight_tree_hop_bytes
        compute = self._cmp_pre[first_layer]
        intra_j = self._int_pre[first_layer]
        fits = self._fit_pre[first_layer]
        for i in range(first_layer, n_layers):
            rec = recs[i].rec
            if rec.compute > compute:
                compute = rec.compute
            intra_j += rec.energy
            fits = fits and rec.fits
        result = ceval._finalize(
            self.group, self.batch, vol, dr, dw, do, hop,
            compute, intra_j, fits,
        )
        return Proposal(result, schemes, recs, self_blocks, input_blocks,
                        new_places, first_block, first_layer)

    def commit(self, proposal: Proposal) -> None:
        self.committed += 1
        self.schemes = proposal.schemes
        self.recs = proposal.recs
        self.self_blocks = proposal.self_blocks
        self.input_blocks = proposal.input_blocks
        self.ext_places = proposal.ext_places
        self._refold(proposal.first_block, proposal.first_layer)
