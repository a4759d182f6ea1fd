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
  every scatter its own ``n_links``-wide segment
  (:func:`repro.compiled.graph.stacked_offsets` promotes the offsets
  to int64 *before* the ``N x links`` product): bincount accumulates
  sequentially in input order and segments are disjoint, so each
  segment is bit-equal to the scatter's own bincount;
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

from repro.core.encoding import INTERLEAVED, LayerGroupMapping
from repro.evalmodel.breakdown import EnergyBreakdown, GroupEval
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
    """Deferred scatters over pre-gathered link indices.

    A request is ``(link indices, volumes, per-volume repeat counts,
    segments)``: a :meth:`CompiledEval.dram_plan` covering every FD
    target (target ``t``'s indices already offset by ``t * n_links``),
    or one streamed weight-tree request.  Requests take consecutive
    segments of the flat accumulator; only the base offset add, the
    repeat and the bincount remain, batched across requests exactly
    like :class:`_CoreScatterQueue`.
    """

    def __init__(self, n_links: int):
        self.n_links = n_links
        self.n_segs = 0
        self._idx: list[np.ndarray] = []
        self._vols: list[np.ndarray] = []
        self._reps: list[np.ndarray] = []
        self._first: list[int] = []

    def add(self, idx, volumes, reps, n_segs: int) -> int:
        """Queue one request; returns its first segment."""
        seg = self.n_segs
        self._idx.append(idx)
        self._vols.append(volumes)
        self._reps.append(reps)
        self._first.append(seg)
        self.n_segs = seg + n_segs
        return seg

    def flush(self) -> np.ndarray | None:
        n_req = len(self._idx)
        if not n_req:
            return None
        counts = np.fromiter(
            (len(ix) for ix in self._idx), dtype=np.int64, count=n_req
        )
        first = np.fromiter(self._first, dtype=np.int64, count=n_req)
        offsets = stacked_offsets(self.n_segs, self.n_links)[first]
        idx_all = (
            np.concatenate(self._idx) if n_req > 1 else self._idx[0]
        ) + np.repeat(offsets, counts)
        weights = np.repeat(
            np.concatenate(self._vols) if n_req > 1 else self._vols[0],
            np.concatenate(self._reps) if n_req > 1 else self._reps[0],
        )
        out = np.bincount(
            idx_all, weights=weights, minlength=self.n_segs * self.n_links
        )
        return out.reshape(self.n_segs, self.n_links)


# ----------------------------------------------------------------------
# Deferred block construction
# ----------------------------------------------------------------------


#: The flows of an input slice that moves nothing over the fabric.
_NO_FLOWS = (None, None)


class _PendingInput:
    """An input block whose slice scatters are queued, not yet run."""

    __slots__ = ("parts", "block")

    def __init__(self, parts: list):
        self.parts = parts
        self.block: np.ndarray | None = None


class _PendingSelf:
    """A self block whose link rows (flat-queue segments ``seg`` on) are
    queued; its DRAM tallies and hop bytes are already in ``row``."""

    __slots__ = ("seg", "n_segs", "row", "block")

    def __init__(self, seg, n_segs, row):
        self.seg = seg
        self.n_segs = n_segs
        self.row = row
        self.block: np.ndarray | None = None


class _DeferredBlocks:
    """Builds traffic blocks with batched scatter kernels.

    Staging walks each block against the shared :class:`CompiledEval`
    caches but queues every cache-missed bincount; :meth:`flush` runs
    the two batched kernels, writes the materialized per-slice flows
    and self blocks back into the caches (so every walker of a
    population shares them), and folds each pending input block in
    canonical slice order.  Blocks come out as lane rows (see
    :class:`CompiledEval`).

    A block's arithmetic is the object analyzer's
    (``GroupTrafficAnalyzer._layer_inputs`` / ``_layer_weights`` /
    ``_layer_outputs``) over compiled records, with every
    order-sensitive fold kept a sequential left fold (``np.cumsum``, or
    ``np.add.reduce`` over the outermost axis — never a pairwise sum
    along a contiguous axis).  An input slice's flows are ``(link rows,
    DRAM reads)``: the link-volume rows the analyzer adds one by one
    (one per FD target for a DRAM read) and, for DRAM reads, the
    ``(n_dram, parts)`` volumes plus their per-DRAM tally.  A layer's
    first input (``op_idx == 0``) is the first its block fold adds,
    from zero, so its DRAM-read rows are kept pre-folded into the one
    row that fold reaches after them.  A move that changes one producer
    recomputes only that producer's slice.
    """

    def __init__(self, ceval: CompiledEval):
        self.ceval = ceval
        self.core_q = _CoreScatterQueue(
            ceval.core_table, ceval.core_lens, ceval.n_links
        )
        self.flat_q = _FlatScatterQueue(ceval.n_links)
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
        """Ifmap flows of layer ``i``: per input slice, the cached flows
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
            else:
                fd = s.fd.ifmap if plid < 0 else dep
                key = (ctx.lids[i], op_idx, s.part, s.core_group, fd, bu)
            ops = flows.get_lru(key)
            if ops is not None:
                parts.append(("ready", ops))
                continue
            if key not in self._local:
                self._local[key] = (
                    self._stage_ingroup(layer, op_idx, recs[group_pos],
                                        s.part, p.part, bu)
                    if group_pos is not None
                    else self._stage_dram(layer, op_idx, fd)
                )
            parts.append(("miss", key))
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
            return ("ops", _NO_FLOWS)
        di0, sj0, bytes0 = geom
        src, dst = prod.cores[sj0], cons.cores[di0]
        mask = src != dst
        if not mask.any():
            return ("ops", _NO_FLOWS)
        di = di0[mask]
        volumes = bytes0[mask] * rec.if_fetches[di]
        rows = src[mask] * self.ceval.n_cores + dst[mask]
        return ("core", self.core_q.add(rows, volumes))

    def _stage_dram(self, layer, op_idx: int, fd: int):
        """One DRAM-read input slice: one queued scatter over every FD
        target, plus the per-part volumes the DRAM tally folds."""
        ceval = self.ceval
        pre = ceval._dram_in(layer.rec, op_idx)
        if pre is None:
            return ("ops", _NO_FLOWS)
        d, shares, idx, reps = ceval.dram_plan(layer, fd, op_idx)
        v = shares[:, None] * pre[1]
        seg = self.flat_q.add(idx, v.ravel(), reps, len(d))
        # Per-DRAM sequential per-part tally, as in dram_scatter_batch
        # (+0.0 rows for the DRAMs this slice does not read).  The
        # totals are copied out: a column view would keep the whole
        # cumsum alive in the slice cache.
        per_dram = np.zeros((ceval.n_dram, v.shape[1]))
        per_dram[d] = v
        return ("dram", seg, len(d),
                (per_dram, per_dram.cumsum(axis=1)[:, -1].copy()))

    def stage_self_block(self, lid: int, scheme, bu: int, layer):
        """Weight + ofmap flows of one scheme: shared empty, cached, or
        staged.

        They depend on the partition, the core assignment and those two
        FD selectors only.  On a cache miss the streamed weight-tree and
        ofmap scatters are queued and only the DRAM tallies and hop
        bytes run inline — returning a :class:`_PendingSelf` resolved at
        :meth:`flush`.
        """
        ceval = self.ceval
        if layer.rec.weight_vols is None and scheme.fd.ofmap < 0:
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
        # The link rows are, in the analyzer's order, the streamed weight
        # trees — all (slice, target) scatters of the weight loop share
        # one segment, since sequential accumulation equals its
        # ``vol[tree] += v`` folds from zero — then one segment per
        # ofmap target, whose pre-summed bincount the analyzer adds.
        ceval = self.ceval
        flat_q = self.flat_q
        rec = layer.rec
        row = np.zeros(ceval.lanes)
        seg = flat_q.n_segs
        vols = rec.weight_vols
        if vols is not None:
            # Cores sharing a K-slice receive the same bytes: one
            # multicast tree per slice and DRAM target.  ``v`` is
            # (slice, target); the per-DRAM tallies fold its columns and
            # the hop bytes its rows, both in that order.
            d, shares = ceval.fd_targets[scheme.fd.weight]
            words, sizes = ceval.weight_trees(layer, d)
            v = vols[:, None] * shares
            streamed = rec.weight_streamed
            if streamed is not None:
                # Multicast every round: scatter the trees' links.
                vs = v[streamed]
                row[ceval.sl_dr][d] = vs.cumsum(axis=0)[-1]
                links = np.nonzero(np.unpackbits(
                    words[streamed].view(np.uint8).reshape(vs.size, -1),
                    axis=1, count=ceval.n_links, bitorder="little",
                ))[1]
                flat_q.add(links, vs.ravel(), sizes[streamed].ravel(), 1)
                resident = ~streamed
                v, sizes = v[resident], sizes[resident]
            if len(v):
                # GLB-resident: loaded once per inference (prologue).
                row[ceval.sl_do][d] = v.cumsum(axis=0)[-1]
                row[ceval.i_hop] = (v * sizes).cumsum()[-1]
        fd = scheme.fd.ofmap
        if fd >= 0:
            d, shares, idx, reps = ceval.dram_plan(layer, fd)
            v = shares[:, None] * rec.out_volumes
            flat_q.add(idx, v.ravel(), reps, len(d))
            # Per-target sequential per-part tally, as in
            # dram_scatter_batch.
            row[ceval.sl_dw][d] = v.cumsum(axis=1)[:, -1]
        return _PendingSelf(seg, flat_q.n_segs - seg, row)

    # -- resolution ----------------------------------------------------

    def flush(self) -> None:
        core_out = self.core_q.flush()
        flat_out = self.flat_q.flush()
        ceval = self.ceval
        sl_vol = ceval.sl_vol
        for key, ps in self._self_pending:
            row = ps.row
            if ps.n_segs:
                np.add.reduce(
                    flat_out[ps.seg:ps.seg + ps.n_segs], axis=0,
                    out=row[sl_vol],
                )
            ps.block = row
            ceval.self_blocks.put(key, row)
        resolved: dict[tuple, tuple] = {}
        for key, ent in self._local.items():
            kind = ent[0]
            if kind == "core":
                ops = (core_out[ent[1]:ent[1] + 1].copy(), None)
            elif kind == "dram":
                _, seg, n_segs, dram = ent
                rows = flat_out[seg:seg + n_segs]
                # A first input's rows, pre-folded (see the class doc).
                ops = (np.add.reduce(rows, axis=0, keepdims=True)
                       if key[1] == 0 else rows.copy(), dram)
            else:
                ops = ent[1]
            ceval.slice_flows.put(key, ops)
            resolved[key] = ops
        sl_dr = ceval.sl_dr
        for pb in self._pending:
            row = np.zeros(ceval.lanes)
            rows = []
            drams = []
            for part in pb.parts:
                arrs, dram = (
                    part[1] if part[0] == "ready" else resolved[part[1]]
                )
                if arrs is not None:
                    rows.append(arrs)
                if dram is not None:
                    drams.append(dram)
            if rows:
                # The slices' link rows, added one by one in slice order.
                np.add.reduce(
                    rows[0] if len(rows) == 1 else np.concatenate(rows),
                    axis=0, out=row[sl_vol],
                )
            if len(drams) == 1:
                row[sl_dr] = drams[0][1]
            elif drams:
                # Several DRAM-read slices: one sequential per-DRAM fold
                # over all their parts in slice order (adding the +0.0
                # of a DRAM a slice does not read is exact here).
                row[sl_dr] = np.concatenate(
                    [v for v, _ in drams], axis=1
                ).cumsum(axis=1)[:, -1]
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
        # Fresh sessions stage every block.  Walkers holding the same
        # LMS object and the same placements of the group's cross-group
        # producers have identical states: stage one representative
        # per class in one batched pass, and let the rest of the class
        # share its committed state (sessions copy on write) and rows.
        classes: dict[tuple, list[int]] = {}
        for w, lms in enumerate(lmss):
            places = stored_ats[w]
            key = (id(lms), tuple(
                places.get(nm, INTERLEAVED)
                for names in core.ctx.ext_names for nm in names
            ))
            classes.setdefault(key, []).append(w)
        members = list(classes.values())
        reps = [(ws[0], lmss[ws[0]]) for ws in members]
        for ws, st in zip(members, self._stage(reps, stored_ats)):
            for w in ws:
                self.sessions[w].commit(st)
            if len(ws) > 1:
                self.buf[:, ws[1:]] = self.buf[:, ws[:1]]

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
