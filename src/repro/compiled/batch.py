"""Batched evaluation: N candidate mappings per numpy call.

The compiled core (:mod:`repro.compiled.evalcore`) lowers layers into
partition and scheme records; this module turns those records into
traffic blocks and group evaluations for a *population* of mappings —
and every compiled evaluation goes through it, a single mapping being
the N=1 population.  N candidate mappings of one layer group are
stacked into a single ``(blocks, N, lanes)`` buffer — volumes, the
three DRAM aggregates and the weight-tree hop counter side by side in
one lane axis — and the canonical block fold plus the delay/energy
finalize run as whole-array ops across every slot at once.

Bit-identity with the object path is a hard invariant, so the
batching only ever *widens* the serial arithmetic, never reassociates
it:

* the group fold adds one block row at a time across all slots
  (``acc += buf[j]``), the per-slot left fold from zero that the object
  path's ``np.add.reduce`` over the stacked blocks performs;
* missing DRAM parts fold ``+0.0`` instead of being skipped — exact
  for the non-negative aggregates carried here;
* scatter kernels batch many ``np.bincount`` calls into one by giving
  every request its own ``n_links``-wide segment
  (:func:`repro.compiled.graph.stacked_offsets` promotes the offsets
  to int64 *before* the ``N x links`` product): bincount accumulates
  sequentially in input order and segments are disjoint, so each
  segment is bit-equal to the request's own bincount;
* row-wise ``max`` reductions are order-insensitive for non-NaN
  floats, so the link-drain / DRAM-drain maxima vectorize freely —
  but *sums* over index subsets (NoC/D2D energy, DRAM byte totals)
  stay per-slot on contiguous row views, because numpy's pairwise
  summation is shape-dependent.

``tests/test_compiled_batch.py`` and ``tests/test_compiled_identity.py``
pin all of this float-exact against the object oracle, across the
model registry, including annealed (mid-search) states, and under
batch-slot permutation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.encoding import LayerGroupMapping
from repro.evalmodel.breakdown import EnergyBreakdown, GroupEval
from repro.evalmodel.traffic_analysis import _dram_targets
from repro.compiled.evalcore import CompiledEval, GroupSession, StagedCandidate
from repro.compiled.graph import as_index_table, stacked_offsets


# ----------------------------------------------------------------------
# Batched scatter kernels
# ----------------------------------------------------------------------


class _CoreScatterQueue:
    """Deferred core-to-core scatters: many route bincounts as one.

    Each request is the ``(rows into the padded core route table,
    per-row volumes)`` of one in-group input slice; :meth:`flush`
    gathers, masks, repeats and bincounts them all with one set of
    numpy calls.  Request *r* owns segment ``[r*n_links, (r+1)*n_links)``
    of the flat accumulator, and within a segment entries arrive in
    exactly the order the serial kernel would feed its own bincount.
    """

    def __init__(self, table: np.ndarray, lens: np.ndarray, n_links: int):
        self.table = as_index_table(table)
        self.lens = lens
        self.n_links = n_links
        self._rows: list[np.ndarray] = []
        self._vols: list[np.ndarray] = []

    def add(self, rows: np.ndarray, volumes: np.ndarray) -> int:
        self._rows.append(rows)
        self._vols.append(volumes)
        return len(self._rows) - 1

    def flush(self) -> np.ndarray | None:
        n_req = len(self._rows)
        if not n_req:
            return None
        counts = np.fromiter(
            (len(r) for r in self._rows), dtype=np.int64, count=n_req
        )
        rows_all = (
            np.concatenate(self._rows) if n_req > 1 else self._rows[0]
        )
        vols_all = (
            np.concatenate(self._vols) if n_req > 1 else self._vols[0]
        )
        offsets = stacked_offsets(n_req, self.n_links)
        padded = self.table[rows_all]
        valid = padded >= 0
        idx = (padded + np.repeat(offsets, counts)[:, None])[valid]
        weights = np.repeat(vols_all, self.lens[rows_all])
        out = np.bincount(
            idx, weights=weights, minlength=n_req * self.n_links
        )
        return out.reshape(n_req, self.n_links)


class _FlatScatterQueue:
    """Deferred DRAM scatters over pre-gathered route plans.

    Requests arrive as the ``(valid link indices, per-part volumes,
    per-part repeat counts)`` triples cached in
    :attr:`CompiledLayer.dram_plans`; only the offset add, the repeat
    and the bincount remain, and they batch across requests exactly
    like :class:`_CoreScatterQueue`.
    """

    def __init__(self, n_links: int):
        self.n_links = n_links
        self._idx: list[np.ndarray] = []
        self._vols: list[np.ndarray] = []
        self._reps: list[np.ndarray] = []

    def add(self, valid_idx, volumes, rep_lens) -> int:
        self._idx.append(valid_idx)
        self._vols.append(volumes)
        self._reps.append(rep_lens)
        return len(self._idx) - 1

    def flush(self) -> np.ndarray | None:
        n_req = len(self._idx)
        if not n_req:
            return None
        counts = np.fromiter(
            (len(ix) for ix in self._idx), dtype=np.int64, count=n_req
        )
        idx_all = as_index_table(
            np.concatenate(self._idx) if n_req > 1 else self._idx[0]
        )
        offsets = stacked_offsets(n_req, self.n_links)
        idx_all = idx_all + np.repeat(offsets, counts)
        weights = np.repeat(
            np.concatenate(self._vols) if n_req > 1 else self._vols[0],
            np.concatenate(self._reps) if n_req > 1 else self._reps[0],
        )
        out = np.bincount(
            idx_all, weights=weights, minlength=n_req * self.n_links
        )
        return out.reshape(n_req, self.n_links)


class _TreeScatterQueue:
    """Deferred multicast-tree scatters, grouped into shared segments.

    Unlike the request-per-segment queues above, callers allocate a
    segment explicitly and may enqueue many tree scatters into it: the
    serial weight loop applies ``vol[tree_links] += v`` directly onto
    the accumulator, and bincount accumulates entries of one segment
    sequentially in input order, so a segment's final row equals that
    exact left fold from zero.
    """

    def __init__(self, n_links: int):
        self.n_links = n_links
        self.n_segs = 0
        self._segs: list[int] = []
        self._links: list[np.ndarray] = []
        self._vols: list[float] = []

    def new_segment(self) -> int:
        self.n_segs += 1
        return self.n_segs - 1

    def add(self, seg: int, links: np.ndarray, volume: float) -> None:
        self._segs.append(seg)
        self._links.append(links)
        self._vols.append(volume)

    def flush(self) -> np.ndarray | None:
        if not self.n_segs:
            return None
        n = len(self._links)
        if not n:
            return np.zeros((self.n_segs, self.n_links))
        counts = np.fromiter(
            (len(a) for a in self._links), dtype=np.int64, count=n
        )
        offsets = stacked_offsets(self.n_segs, self.n_links)
        seg_of = np.fromiter(self._segs, dtype=np.int64, count=n)
        idx = np.concatenate(self._links) + np.repeat(
            offsets[seg_of], counts
        )
        weights = np.repeat(
            np.fromiter(self._vols, dtype=np.float64, count=n), counts
        )
        out = np.bincount(
            idx, weights=weights, minlength=self.n_segs * self.n_links
        )
        return out.reshape(self.n_segs, self.n_links)


# ----------------------------------------------------------------------
# Deferred block construction
# ----------------------------------------------------------------------


class _PendingInput:
    """An input block whose slice scatters are queued, not yet run."""

    __slots__ = ("parts", "block")

    def __init__(self, parts: list):
        self.parts = parts
        self.block: np.ndarray | None = None


class _PendingSelf:
    """A self block whose link scatters are queued, not yet run; its
    DRAM tallies are already written into ``row``."""

    __slots__ = ("seg", "ofmap_reqs", "row", "hop", "block")

    def __init__(self, seg, ofmap_reqs, row, hop):
        self.seg = seg
        self.ofmap_reqs = ofmap_reqs
        self.row = row
        self.hop = hop
        self.block: np.ndarray | None = None


class _DeferredBlocks:
    """Builds traffic blocks with batched scatter kernels.

    Staging walks each block against the shared :class:`CompiledEval`
    caches but queues every cache-missed bincount; :meth:`flush` runs
    the three batched kernels, writes the materialized per-slice ops
    and self blocks back into the caches (so every walker of a
    population shares them), and folds each pending input block in
    canonical slice order.  Blocks come out as lane rows (see
    :class:`CompiledEval`).

    A block's arithmetic is the object analyzer's
    (``GroupTrafficAnalyzer._layer_inputs`` / ``_layer_weights`` /
    ``_layer_outputs``) over compiled records: each input slice's
    contribution is kept as the exact sequence of vector adds the
    analyzer performs and replayed in slice order, so a move that
    changes one producer recomputes only that producer's slice.
    """

    def __init__(self, ceval: CompiledEval):
        self.ceval = ceval
        self.core_q = _CoreScatterQueue(
            ceval.core_table, ceval.core_lens, ceval.n_links
        )
        self.flat_q = _FlatScatterQueue(ceval.n_links)
        self.tree_q = _TreeScatterQueue(ceval.n_links)
        self._pending: list[_PendingInput] = []
        #: Flush-local dedup: candidates of different walkers routinely
        #: miss the same slice key; stage it once, share the segment.
        self._local: dict[tuple, tuple] = {}
        self._self_pending: list[tuple] = []
        self._self_local: dict[tuple, _PendingSelf] = {}

    # -- staging -------------------------------------------------------

    def stage_input_block(
        self, ctx, i: int, bu: int, schemes, recs, deps
    ) -> _PendingInput:
        """Ifmap flows of layer ``i``: per input slice, the cached ops
        or a staged rebuild.  A slice depends on the layer's partition,
        core assignment and (DNN-input) ifmap selector, and on its
        producer's partition + core assignment or DRAM placement."""
        flows = self.ceval.slice_flows
        layer = recs[i]
        s = schemes[i]
        parts: list[tuple] = []
        for desc, dep in zip(ctx.inputs[i], deps):
            op_idx, plid, group_pos, _ = desc
            if group_pos is not None:
                p = schemes[group_pos]
                key = (ctx.lids[i], op_idx, s.part, s.core_group,
                       p.part, p.core_group, bu)
                ops = flows.get_lru(key)
                if ops is None:
                    ent = self._local.get(key)
                    if ent is None:
                        ent = self._stage_ingroup(
                            layer, op_idx, recs[group_pos], s.part,
                            p.part, bu,
                        )
                        self._local[key] = ent
                    parts.append(("miss", key))
                else:
                    parts.append(("ready", ops))
            else:
                fd = s.fd.ifmap if plid < 0 else dep
                key = (ctx.lids[i], op_idx, s.part, s.core_group, fd, bu)
                ops = flows.get_lru(key)
                if ops is None:
                    ent = self._local.get(key)
                    if ent is None:
                        ent = self._stage_dram(layer, op_idx, fd)
                        self._local[key] = ent
                    parts.append(("miss", key))
                else:
                    parts.append(("ready", ops))
        pb = _PendingInput(parts)
        self._pending.append(pb)
        return pb

    def _stage_ingroup(self, cons, op_idx, prod, c_part, p_part, bu):
        """One in-group input slice: the producer x consumer part
        overlaps, minus same-core pairs (that data stays in the core's
        GLB), queued as one core-to-core route scatter."""
        rec = cons.rec
        geom = self.ceval.pair_geometry(
            rec, op_idx, prod.rec, c_part, p_part, bu
        )
        if geom is None:
            return ("ops", ())
        di0, sj0, bytes0 = geom
        src, dst = prod.cores[sj0], cons.cores[di0]
        mask = src != dst
        if not mask.any():
            return ("ops", ())
        di = di0[mask]
        volumes = bytes0[mask] * rec.if_fetches[di]
        rows = src[mask] * self.ceval.arch.n_cores + dst[mask]
        return ("core", self.core_q.add(rows, volumes))

    def _stage_dram(self, layer, op_idx: int, fd: int):
        """One DRAM-read input slice: per FD target, a queued link
        scatter plus the per-part volumes the DRAM tally folds."""
        pre = self.ceval._dram_in(layer.rec, op_idx)
        if pre is None:
            return ("ops", ())
        volumes = pre[1]
        items = []
        for d, share, valid_idx, rep_lens in self.ceval.dram_plan(
            layer, fd, op_idx
        ):
            v = volumes * share
            items.append(
                (self.flat_q.add(valid_idx, v, rep_lens), d, v.tolist())
            )
        return ("dram", items)

    def stage_self_block(self, lid: int, scheme, bu: int, layer):
        """Weight + ofmap flows of one scheme: shared empty, cached, or
        staged.

        They depend on the partition, the core assignment and those two
        FD selectors only.  On a cache miss the weight-tree and ofmap
        scatters are queued and only the scalar DRAM tallies run inline
        — returning a :class:`_PendingSelf` resolved at :meth:`flush`.
        """
        ceval = self.ceval
        if layer.rec.weight_slices is None and scheme.fd.ofmap < 0:
            return ceval.empty_block
        key = (lid, scheme.part, scheme.core_group,
               scheme.fd.weight, scheme.fd.ofmap, bu)
        block = ceval.self_blocks.get_lru(key)
        if block is not None:
            return block
        ps = self._self_local.get(key)
        if ps is None:
            ps = self._stage_self(scheme, layer)
            self._self_local[key] = ps
            self._self_pending.append((key, ps))
        return ps

    def _stage_self(self, scheme, layer) -> _PendingSelf:
        # The per-slice tree scatters of the weight loop share one
        # bincount segment (sequential accumulation == the analyzer's
        # vol[tree_links] += v folds from zero); the ofmap targets keep
        # per-request segments because the analyzer adds each target's
        # pre-summed bincount.
        ceval = self.ceval
        rec = layer.rec
        row = np.zeros(ceval.lanes)
        dram_read = row[ceval.sl_dr]
        dram_write = row[ceval.sl_dw]
        dram_once = row[ceval.sl_do]
        hop = 0.0
        tree_q = self.tree_q
        seg = tree_q.new_segment()
        if rec.weight_slices is not None:
            # Cores sharing a K-slice receive the same bytes: one
            # multicast tree per slice and DRAM target.
            targets = _dram_targets(ceval.topo, scheme.fd.weight)
            cores_list = layer.cores_list
            glb_half = ceval.arch.glb_bytes / 2
            trees = ceval._trees
            tree_links = ceval._tree_links
            for volume, kk, pk in rec.weight_slices:
                dsts = tuple(cores_list[kk::pk])
                resident = volume <= glb_half
                for dram, share in targets:
                    got = trees.get((dram, dsts))
                    if got is None:
                        got = tree_links(dram, dsts)
                    v = volume * share
                    if resident:
                        # Loaded once per inference (prologue).
                        dram_once[dram[1]] += v
                        hop += v * got[1]
                    else:
                        tree_q.add(seg, got[0], v)
                        dram_read[dram[1]] += v
        ofmap_reqs = []
        fd = scheme.fd.ofmap
        if fd >= 0:
            volumes = rec.out_volumes
            for d, share, valid_idx, rep_lens in ceval.dram_plan(layer, fd):
                v = volumes * share
                ofmap_reqs.append(
                    self.flat_q.add(valid_idx, v, rep_lens)
                )
                # Sequential per-part tally, as in dram_scatter_batch.
                t = dram_write[d]
                for x in v.tolist():
                    t += x
                dram_write[d] = t
        return _PendingSelf(seg, ofmap_reqs, row, hop)

    # -- resolution ----------------------------------------------------

    def flush(self) -> None:
        core_out = self.core_q.flush()
        flat_out = self.flat_q.flush()
        tree_out = self.tree_q.flush()
        ceval = self.ceval
        sl_vol = ceval.sl_vol
        for key, ps in self._self_pending:
            row = ps.row
            vol = row[sl_vol]
            vol[:] = tree_out[ps.seg]
            for r in ps.ofmap_reqs:
                vol += flat_out[r]
            row[ceval.i_hop] = ps.hop
            ps.block = row
            ceval.self_blocks.put(key, row)
        resolved: dict[tuple, tuple] = {}
        for key, ent in self._local.items():
            kind = ent[0]
            if kind == "core":
                ops = ((core_out[ent[1]].copy(), None, None),)
            elif kind == "dram":
                ops = tuple(
                    (flat_out[r].copy(), d, vl) for r, d, vl in ent[1]
                )
            else:
                ops = ent[1]
            ceval.slice_flows.put(key, ops)
            resolved[key] = ops
        for pb in self._pending:
            row = np.zeros(ceval.lanes)
            vol = row[sl_vol]
            dram_read = row[ceval.sl_dr]
            for part in pb.parts:
                ops = part[1] if part[0] == "ready" else resolved[part[1]]
                for arr, d, v_list in ops:
                    vol += arr
                    if d is not None:
                        # Sequential scalar fold, matching the per-part
                        # tally loop of the analyzer.
                        t = dram_read[d]
                        for x in v_list:
                            t += x
                        dram_read[d] = t
            pb.block = row


# ----------------------------------------------------------------------
# The batched fold + finalize core
# ----------------------------------------------------------------------


class _BatchCore:
    """Fold + finalize of one (group, batch) pair over lane rows.

    Folding rows column-by-column replays each slot's canonical left
    fold, and the wide finalize only vectorizes the order-insensitive
    pieces (elementwise divides, row maxima) while the order-sensitive
    subset sums run per slot on contiguous row views.
    """

    def __init__(self, ceval: CompiledEval, group, batch: int):
        self.ceval = ceval
        self.ctx = ceval.group_ctx(group)
        self.bu = group.batch_unit
        self.nb = 2 * len(self.ctx.lids)
        self.rounds = math.ceil(batch / group.batch_unit)
        self.depth = len(group)

    def fold(self, buf: np.ndarray) -> np.ndarray:
        """Left fold of the ``(nb, S, lanes)`` buffer over blocks.

        A reduction over the outermost axis adds whole rows in order
        (pairwise summation only applies along the contiguous axis) —
        the same association as the object path's ``np.add.reduce``
        over its stacked blocks.
        """
        return np.add.reduce(buf, axis=0)

    def finalize(self, acc: np.ndarray, items) -> list[GroupEval]:
        """The delay/energy reduction per slot.  ``items`` is ``(slot,
        recs)`` pairs; one GroupEval per item.

        Operation for operation (no reassociation) this is the object
        path's ``stage_times_from_compute`` + ``group_delay`` +
        ``group_energy_from_intra``, minus the intermediate TrafficMap /
        GroupTraffic / StageTimes objects.
        """
        ceval = self.ceval
        e = ceval.energy
        pbw = ceval._per_dram_bw
        noc_idx, d2d_idx = ceval._noc_idx, ceval._d2d_idx
        n_d2d = ceval._n_d2d
        has_dram = ceval.n_dram > 0
        vol2 = acc[:, ceval.sl_vol]
        # serialization_time: most-loaded-link drain time.
        net = (vol2 / ceval._bandwidths).max(axis=1)
        do2 = acc[:, ceval.sl_do]
        rb2 = acc[:, ceval.sl_dr] + acc[:, ceval.sl_dw]
        if has_dram:
            rb_max = rb2.max(axis=1)
            do_max = do2.max(axis=1)
        rounds, depth = self.rounds, self.depth
        out = []
        for slot, recs in items:
            compute = 0.0
            intra_j = 0.0
            fits = True
            for cl in recs:
                rec = cl.rec
                if rec.compute > compute:
                    compute = rec.compute
                intra_j += rec.energy
                fits = fits and rec.fits
            network = float(net[slot])
            dram = float(rb_max[slot]) / pbw if has_dram else 0.0
            prologue = float(do_max[slot]) / pbw if has_dram else 0.0
            stage = max(compute, network, dram)
            delay = stage * (rounds + depth - 1) + prologue
            # network_energy + dram_energy, per round.
            vol_row = vol2[slot]
            noc_j = float(vol_row[noc_idx].sum()) * e.e_noc_hop
            d2d_j = e.d2d_energy(
                float(vol_row[d2d_idx].sum()), n_d2d, stage
            )
            rb_row = rb2[slot]
            dram_j = float(rb_row.sum()) * e.e_dram
            once_bytes = float(do2[slot].sum())
            hop = float(acc[slot, ceval.i_hop])
            energy = EnergyBreakdown(
                intra=intra_j * rounds,
                noc=noc_j * rounds + hop * e.e_noc_hop,
                d2d=d2d_j * rounds,
                dram=dram_j * rounds + once_bytes * e.e_dram,
            )
            out.append(GroupEval(
                delay=delay,
                energy=energy,
                stage_time=stage,
                rounds=rounds,
                compute_time=compute,
                network_time=network,
                dram_time=dram,
                traffic=None,
                dram_round_bytes=tuple(rb_row),
                fits=fits,
            ))
        return out


# ----------------------------------------------------------------------
# Population state
# ----------------------------------------------------------------------


@dataclass
class BatchProposal:
    """One population step's staged candidates, scored."""

    slots: list[int]
    staged: list[StagedCandidate]
    evals: list[GroupEval]


class PopulationGroupState:
    """N walkers' accepted states of one layer group, fold-ready.

    One :class:`GroupSession` per walker — all building blocks through
    the shared :class:`CompiledEval` caches, so walkers deduplicate
    work against each other — plus the persistent ``(nb, N, lanes)``
    buffer holding every walker's block rows for the batched fold.
    :meth:`propose` delta-evaluates one candidate per walker in a
    single batched pass; :meth:`resolve` commits accepted candidates
    and restores rejected walkers' rows from their sessions.
    """

    def __init__(self, ceval: CompiledEval, lmss: list[LayerGroupMapping],
                 batch: int, stored_ats: list[dict]):
        if not lmss:
            raise ValueError("population needs at least one mapping")
        self.ceval = ceval
        self.core = core = _BatchCore(ceval, lmss[0].group, batch)
        self.n_slots = len(lmss)
        self.sessions = [
            GroupSession(ceval, core.ctx, core.bu) for _ in lmss
        ]
        self.buf = np.zeros((core.nb, self.n_slots, ceval.lanes))
        # Fresh sessions stage every block: one batched pass builds all
        # walkers' initial states.
        cands = list(enumerate(lmss))
        for (w, _), st in zip(cands, self._stage(cands, stored_ats)):
            self.sessions[w].commit(st)

    def _stage(self, cands, stored_ats) -> list[StagedCandidate]:
        """Stage one candidate per walker, build the rebuilt blocks in
        one flush and write them over the walkers' buffer rows."""
        pend = _DeferredBlocks(self.ceval)
        sessions = self.sessions
        staged = [
            sessions[w].propose(lms, stored_ats[w], pend)
            for w, lms in cands
        ]
        pend.flush()
        buf = self.buf
        for (w, _), st in zip(cands, staged):
            st.resolve()
            for j, row in st.rows:
                buf[j, w] = row
        return staged

    def evaluate_current(self) -> list[GroupEval]:
        """Batched full evaluation of every walker's current state."""
        acc = self.core.fold(self.buf)
        return self.core.finalize(
            acc, [(w, s.recs) for w, s in enumerate(self.sessions)]
        )

    def propose(self, cands: list[tuple[int, LayerGroupMapping]],
                stored_ats: list[dict]) -> BatchProposal:
        """Delta-evaluate one candidate per (distinct) walker.

        ``cands`` is ``(walker, candidate lms)`` pairs — each walker at
        most once, since candidate rows are written in place over the
        walker's own buffer rows.  Follow with :meth:`resolve`.
        """
        staged = self._stage(cands, stored_ats)
        slots = [w for w, _ in cands]
        acc = self.core.fold(self.buf)
        evals = self.core.finalize(
            acc, [(w, st.recs) for w, st in zip(slots, staged)]
        )
        return BatchProposal(slots, staged, evals)

    def resolve(self, bp: BatchProposal, accepted: list[bool]) -> None:
        """Adopt accepted candidates; rewrite rejected walkers' rows
        from their (unchanged) accepted blocks."""
        buf = self.buf
        for w, st, ok in zip(bp.slots, bp.staged, accepted):
            session = self.sessions[w]
            if ok:
                session.commit(st)
                continue
            for j, _ in st.rows:
                blocks = (session.input_blocks if j % 2 == 0
                          else session.self_blocks)
                buf[j, w] = blocks[j // 2]


def evaluate_population(
    ceval: CompiledEval,
    lmss: list[LayerGroupMapping],
    batch: int,
    stored_at=None,
) -> list[GroupEval]:
    """Stateless batched evaluation of N mappings of one group.

    ``stored_at`` is either one dict shared by every slot or a
    per-slot sequence of dicts.  Element-wise bit-identical to
    evaluating each mapping alone (the N=1 call) and to the object
    path — the identity surface the batch tests pin.
    """
    if stored_at is None or isinstance(stored_at, dict):
        stored_at = [stored_at or {}] * len(lmss)
    state = PopulationGroupState(ceval, lmss, batch, list(stored_at))
    return state.evaluate_current()
