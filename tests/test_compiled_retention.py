"""What the compiled core keeps between steps, and that keeping less
changes no bits.

Population walks stage thousands of blocks per step through shared
LRUs, so whatever a cached entry holds multiplies with walker-steps.
Two rules keep those entries small:

* a ``compiled.layers`` record is a partition record plus its core
  assignment: DRAM plans are gathered per staged scatter, not kept;
* a cached DRAM-read slice at a layer's first input position
  (``op_idx == 0``) keeps its per-target link rows pre-folded into one
  row.  The block fold adds that slice's rows first, from zero, so the
  one row holds exactly the bits the fold reaches after them;
* a cached DRAM-read slice's tally owns its arrays: a view of a
  temporary would keep the whole temporary alive with the entry.

The oracle cases pin the second rule on every fabric, for layers whose
first input is an interleaved read (every DRAM a target), both alone
and followed by more slices: concats and residual adds of cross-group
producers, attention operands fed partly from inside the group.  Each
fabric also runs with dimension-reversal routing: under XY routing on
a mesh, every DRAM whose route crosses a link carries the same
destinations over it, so the targets' rows agree there and no order of
adding them is observable.
"""

import random
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from repro.arch import g_arch
from repro.compiled.batch import evaluate_population
from repro.core.encoding import INTERLEAVED
from repro.core.engine import MappingEngine, MappingEngineSettings
from repro.core.graphpart import partition_graph
from repro.core.initial import initial_lms
from repro.core.sa import SASettings
from repro.evalmodel import Evaluator
from repro.fabric import fabric_kinds, parse_fabric
from repro.workloads.models import build

from test_compiled_fuzz import BATCH, FABRICS, _walk
from test_compiled_identity import assert_group_evals_equal

#: GN's inception concats, TF's attention and residual layers and
#: MBV2's residual adds read several cross-group slices.
MODELS = ("GN", "TF", "MBV2")
#: Groups walked per model, preferring groups with a layer whose first
#: input is followed by more slices.
GROUPS_PER_MODEL = 3
#: Every registered fabric kind, with its default and with
#: dimension-reversal routing.
ROUTED_FABRICS = FABRICS + tuple(f"{f}:dimension-reversal" for f in FABRICS)


def first_reads(ctx):
    """Group positions whose first input slice is a DRAM read, split by
    whether more slices follow it."""
    alone, followed = [], []
    for i, descs in enumerate(ctx.inputs):
        if descs and descs[0][2] is None:
            (alone if len(descs) == 1 else followed).append(i)
    return alone, followed


def interleaved_first(ctx, lms, i):
    """Whether position ``i``'s first input reads every DRAM (cross-group
    producers sit interleaved: the cases pass no placements)."""
    if ctx.inputs[i][0][1] >= 0:
        return True
    return lms.scheme(ctx.layers[i]).fd.ifmap == INTERLEAVED


@pytest.fixture(scope="module")
def models():
    return {
        name: (graph, partition_graph(graph, g_arch(), batch=BATCH))
        for name, graph in ((m, build(m)) for m in MODELS)
    }


def test_every_fabric_kind_is_covered():
    assert {parse_fabric(f).kind for f in FABRICS} == set(fabric_kinds())


@pytest.mark.parametrize("fabric", ROUTED_FABRICS)
def test_interleaved_first_reads_match_oracle(models, fabric):
    arch = replace(g_arch(), fabric=parse_fabric(fabric))
    production = Evaluator(arch)
    oracle = Evaluator(arch, cache=False)
    seen: Counter = Counter()
    for model in MODELS:
        graph, groups = models[model]
        ceval = production.compiled_for(graph)
        ctxs = [ceval.group_ctx(group) for group in groups]
        picks = sorted(
            range(len(groups)),
            key=lambda g: (-len(first_reads(ctxs[g])[1]), g),
        )[:GROUPS_PER_MODEL]
        rng = random.Random(f"first-reads/{model}/{fabric}")
        for gi in picks:
            group, ctx = groups[gi], ctxs[gi]
            alone, followed = first_reads(ctx)
            states = list(_walk(
                graph, initial_lms(graph, group, arch), arch.n_dram, rng,
                set(),
            ))
            expected = []
            for k, lms in enumerate(states):
                for kind, positions in (("alone", alone),
                                        ("followed", followed)):
                    seen[kind] += sum(
                        interleaved_first(ctx, lms, i) for i in positions
                    )
                expected.append(oracle.evaluate_group(graph, lms, BATCH, {}))
                assert_group_evals_equal(
                    production.evaluate_group(graph, lms, BATCH, {}),
                    expected[k], f"{model}/{fabric} group {gi} state {k}",
                )
            # Again as one population on a fresh core: every slice is
            # staged, pre-folded and folded in the same flush.
            batched = evaluate_population(
                Evaluator(arch).compiled_for(graph), states, BATCH, {}
            )
            for k, ev in enumerate(batched):
                assert_group_evals_equal(
                    ev, expected[k], f"{model}/{fabric} group {gi} slot {k}"
                )
    assert seen["alone"] and seen["followed"], dict(seen)


def arrays_in(value):
    """Every array ``value`` holds, through tuples, lists and dicts."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (tuple, list)):
        return [a for v in value for a in arrays_in(v)]
    return []


@pytest.fixture(scope="module")
def walked():
    """The compiled core after a short population walk."""
    graph = build("MBV2")
    engine = MappingEngine(g_arch(), settings=MappingEngineSettings(
        sa=SASettings(iterations=20, population=16, seed=0),
    ))
    engine.map(graph, BATCH)
    return engine.evaluator.compiled_for(graph)


def test_layer_records_keep_only_cores(walked):
    assert walked.layers
    for layer in walked.layers.values():
        kept = {
            name for name, value in vars(layer).items()
            if name != "rec" and arrays_in(value)
        }
        assert kept == {"cores"}, kept


def test_first_dram_slices_keep_one_row(walked):
    # DRAM-read slices are keyed (lid, op_idx, part, cores, fd, bu) and
    # carry a DRAM tally; in-group slices carry none.
    rows_kept = Counter()
    for key, (rows, dram) in walked.slice_flows.items():
        if rows is None or dram is None:
            continue
        n_targets = len(walked.fd_targets[key[4]][0])
        if n_targets < 2:
            continue
        first = key[1] == 0
        rows_kept[first] += 1
        assert rows.shape == ((1 if first else n_targets), walked.n_links)
    # Both kinds were staged: first inputs pre-folded, later ones not.
    assert rows_kept[True] and rows_kept[False], rows_kept


def test_dram_tallies_own_their_data(walked):
    tallies = [dram for _, dram in walked.slice_flows.values()
               if dram is not None]
    assert tallies
    for per_dram, totals in tallies:
        assert per_dram.base is None and totals.base is None
