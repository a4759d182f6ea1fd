"""Seeded differential fuzzing of the compiled core against the oracle.

Random valid layer-group mappings — seeded walks of all five SA
operators from the stripe-based initial mapping — are evaluated by the
production core (``Evaluator``'s compiled path) and by the object
oracle (``Evaluator(cache=False)``), which must agree float-exactly on
every :class:`GroupEval` field.  The grid crosses four paper models with
every fabric kind and with two GLB sizes: the default one, where weight
slices are GLB-resident (loaded once per inference), and a tiny one that
forces streamed slices (multicast every round).

Coverage is asserted, not assumed: on every fabric the generated states
must include streamed weight slices (alone and mixed with resident ones
in one layer), layers split into more than eight K-slices (multicast
trees over many slices), layers reading several input slices from DRAM,
and explicit weight and ofmap FD selectors — so a change to the walk
cannot silently shrink what is checked.

The same states pin the oracle's flow collection: listing every
transfer must leave link volumes and DRAM tallies bit-identical, so the
event simulator, fed those flows, checks the very bound the search
optimizes (its stage time equals the evaluator's, checked on each
walk's last state).  The listed flows must also account for every byte
of those sums, to a relative 1e-9: the round's link volumes sum to each
flow's bytes times the links it loads (a multicast's bytes load each
link of its routes' union once), each DRAM's read and write tallies to
the bytes of the round's flows starting or ending there, and the
once-per-inference weight loads to their own tally and tree hop bytes.
"""

import math
import random
from dataclasses import replace

import numpy as np

import pytest

from repro.arch import g_arch
from repro.compiled.batch import evaluate_population
from repro.core.graphpart import partition_graph
from repro.core.initial import initial_lms
from repro.core.operators import OPERATORS, op5_change_flow
from repro.evalmodel import Evaluator
from repro.fabric import parse_fabric
from repro.sim import simulate_group_round
from repro.units import KB
from repro.workloads.models import build

from test_compiled_identity import assert_group_evals_equal

MODELS = ("GN", "MBV2", "TF", "RN-50")
FABRICS = ("mesh", "folded-torus", "cmesh:c2", "ring")
#: The default G-Arch GLB, and one small enough that many weight
#: slices exceed half of it and stream (and, rarely, only some of a
#: layer's slices do).
GLBS = (None, 128 * KB)
BATCH = 4
#: Operator steps per walk, and every how many steps a state is checked.
STEPS = 30
CHECK_EVERY = 2
#: Layer groups walked per case, besides the largest one.
EXTRA_GROUPS = 3


def _walk(graph, lms, n_dram, rng, used):
    """A seeded operator walk; yields every ``CHECK_EVERY``-th state."""
    for step in range(1, STEPS + 1):
        for _ in range(10):
            name, op = OPERATORS[rng.randrange(len(OPERATORS))]
            if op is op5_change_flow:
                cand = op(graph, lms, rng, n_dram=n_dram)
            else:
                cand = op(graph, lms, rng)
            if cand is not None:
                used.add(name)
                lms = cand
                break
        if step % CHECK_EVERY == 0:
            yield lms


def _features(ceval, lms, cov):
    """Record which staging paths ``lms`` exercises."""
    ctx = ceval.group_ctx(lms.group)
    for i, name in enumerate(lms.group.layers):
        scheme = lms.scheme(name)
        rec = ceval.part_rec(ctx.lids[i], scheme.part, lms.group.batch_unit)
        if rec.weight_vols is not None:
            streamed = rec.weight_vols > ceval.glb_half
            if streamed.any():
                cov.add("streamed")
                if not streamed.all():
                    cov.add("mixed_residency")
            if len(rec.weight_vols) > 8:
                cov.add("k_slices>8")
        if sum(desc[2] is None for desc in ctx.inputs[i]) > 1:
            cov.add("multi_dram_reads")
        if scheme.fd.weight > 0:
            cov.add("explicit_weight")
        if scheme.fd.ofmap > 0:
            cov.add("explicit_ofmap")


def _assert_flows_change_no_bits(oracle, graph, lms, stored, context):
    """Flow collection only lists transfers beside the traffic sums;
    returns the traffic with flows."""
    on = oracle.analyze_group(graph, lms, stored, flows=True)[2]
    off = oracle.analyze_group(graph, lms, stored)[2]
    assert on.flows and off.flows is None, context
    assert on.traffic.volumes.tobytes() == off.traffic.volumes.tobytes(), \
        context
    for tally in ("dram_read", "dram_write", "dram_weight_once"):
        assert getattr(on, tally).tobytes() == \
            getattr(off, tally).tobytes(), (tally, context)
    return on


def _assert_flows_conserve_bytes(topo, traffic, context):
    """The flow records account for every byte of the traffic sums (see
    the module doc).  Records sharing a multicast id are one transfer:
    the same bytes from one DRAM, loading the union of their routes."""
    n_dram = len(traffic.dram_read)
    link_bytes = hop_bytes = 0.0
    tallies = {name: np.zeros(n_dram)
               for name in ("dram_read", "dram_write", "dram_weight_once")}
    groups: dict[int, tuple] = {}
    for f in traffic.flows:
        route = topo.route(f.src, f.dst)
        if f.multicast_group is not None:
            volume, src, once, links = groups.setdefault(
                f.multicast_group, (f.volume, f.src, f.once, set()))
            assert (volume, src, once) == (f.volume, f.src, f.once), context
            links.update(route)
            continue
        assert not f.once, context
        link_bytes += f.volume * len(route)
        if f.src[0] == "dram":
            tallies["dram_read"][f.src[1]] += f.volume
        if f.dst[0] == "dram":
            tallies["dram_write"][f.dst[1]] += f.volume
    for volume, src, once, links in groups.values():
        assert src[0] == "dram", context
        if once:
            hop_bytes += volume * len(links)
            tallies["dram_weight_once"][src[1]] += volume
        else:
            link_bytes += volume * len(links)
            tallies["dram_read"][src[1]] += volume

    def close(got, want):
        return math.isclose(got, want, rel_tol=1e-9)

    assert close(link_bytes, float(traffic.traffic.volumes.sum())), \
        ("link volumes", link_bytes, traffic.traffic.volumes.sum(), context)
    assert close(hop_bytes, traffic.weight_tree_hop_bytes), \
        ("weight tree hops", context)
    for name, want in tallies.items():
        got = getattr(traffic, name)
        for d in range(n_dram):
            assert close(want[d], float(got[d])), (name, d, context)


@pytest.fixture(scope="module")
def models():
    """Each model's graph and G-Arch layer groups (the groups only
    depend on the core count, which every case shares)."""
    out = {}
    for name in MODELS:
        graph = build(name)
        out[name] = (graph, partition_graph(graph, g_arch(), batch=BATCH))
    return out


def _fuzz_case(graph, groups, arch, seed, cov, used):
    rng = random.Random(seed)
    production = Evaluator(arch)
    oracle = Evaluator(arch, cache=False)
    ceval = production.compiled_for(graph)
    # The largest group (most in-group slices) and one later group
    # (cross-group DRAM reads under random placements).
    picks = {max(range(len(groups)), key=lambda g: len(groups[g]))}
    picks.update(
        rng.sample(range(1, len(groups)), min(EXTRA_GROUPS, len(groups) - 1))
    )
    for gi in sorted(picks):
        group = groups[gi]
        earlier = [nm for g in groups[:gi] for nm in g.layers]
        stored = {nm: rng.randint(0, arch.n_dram) for nm in earlier}
        states = list(_walk(
            graph, initial_lms(graph, group, arch), arch.n_dram, rng, used,
        ))
        expected = []
        for k, lms in enumerate(states):
            _features(ceval, lms, cov)
            expected.append(oracle.evaluate_group(graph, lms, BATCH, stored))
            assert_group_evals_equal(
                production.evaluate_group(graph, lms, BATCH, stored),
                expected[k], f"{seed} group {gi} state {k}",
            )
            on = _assert_flows_change_no_bits(
                oracle, graph, lms, stored, f"{seed} group {gi} state {k}"
            )
            _assert_flows_conserve_bytes(
                oracle.topo, on, f"{seed} group {gi} state {k}"
            )
        analytic = simulate_group_round(
            graph, arch, states[-1], topo=production.topo, stored_at=stored
        )[1]
        assert analytic == expected[-1].stage_time, f"{seed} group {gi}"
        # The same states as one population: shared staging, the same
        # bits per slot.
        batched = evaluate_population(ceval, states, BATCH, stored)
        for k in range(len(states)):
            assert_group_evals_equal(
                batched[k], expected[k], f"{seed} group {gi} slot {k}"
            )


@pytest.mark.parametrize("fabric", FABRICS)
def test_random_states_match_oracle(models, fabric):
    cov: set = set()
    used: set = set()
    for model in MODELS:
        graph, groups = models[model]
        for glb in GLBS:
            arch = replace(g_arch(), fabric=parse_fabric(fabric))
            if glb is not None:
                arch = replace(arch, glb_bytes=glb)
            _fuzz_case(graph, groups, arch, f"{model}/{fabric}/{glb}",
                       cov, used)
    assert used == {name for name, _ in OPERATORS}
    wanted = {
        "streamed", "k_slices>8", "multi_dram_reads", "explicit_weight",
        "explicit_ofmap",
    }
    assert wanted <= cov, f"{fabric} missed {sorted(wanted - cov)}"


def test_mixed_residency_matches_oracle(models):
    """Layers whose K-slices are partly resident and partly streamed.

    K-slices of one layer have near-equal sizes, so random states
    rarely straddle the GLB threshold; search seeded walks for a few
    such states, then check each on every fabric.
    """
    arch0 = replace(g_arch(), glb_bytes=GLBS[1])
    found = []
    for model in MODELS:
        graph, groups = models[model]
        ceval = Evaluator(arch0).compiled_for(graph)
        rng = random.Random(f"mixed/{model}")
        per_model = 0
        for group in groups:
            for lms in _walk(graph, initial_lms(graph, group, arch0),
                             arch0.n_dram, rng, set()):
                cov: set = set()
                _features(ceval, lms, cov)
                if "mixed_residency" in cov:
                    found.append((graph, lms))
                    per_model += 1
                    break
            if per_model == 3:
                break
    assert len(found) >= 3, "no partly streamed layer generated"
    for fabric in FABRICS:
        arch = replace(arch0, fabric=parse_fabric(fabric))
        production = Evaluator(arch)
        oracle = Evaluator(arch, cache=False)
        for k, (graph, lms) in enumerate(found):
            assert_group_evals_equal(
                production.evaluate_group(graph, lms, BATCH, {}),
                oracle.evaluate_group(graph, lms, BATCH, {}),
                f"{fabric} mixed state {k}",
            )
