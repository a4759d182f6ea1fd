"""Brute-force cross-validation of the traffic analyzer.

The interval-intersection traffic math (Sec V-B2) is validated against
an element-level enumeration: for tiny layer pairs we walk every ofmap
element of the consumer, find the exact set of producer ofmap elements
in its receptive field, attribute each to the producer part that owns
it, and compare per-(src core, dst core) byte counts with the
analyzer's volumes.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import ArchConfig
from repro.core.encoding import (
    IMPLICIT,
    FlowOfData,
    LayerGroup,
    LayerGroupMapping,
    MappingScheme,
    Partition,
)
from repro.evalmodel import Evaluator
from repro.units import GB, MB
from repro.workloads.graph import DNNGraph
from repro.workloads.layer import Layer, LayerType


def arch16():
    return ArchConfig(
        cores_x=4, cores_y=4, xcut=1, ycut=1, dram_bw=64 * GB,
        noc_bw=32 * GB, d2d_bw=32 * GB, glb_bytes=8 * MB,
        macs_per_core=1024,
    )


def build_pair(kind, kernel, stride, pad, k_out, k_in):
    """A producer conv feeding one consumer layer of ``kind``."""
    g = DNNGraph("pair")
    out_h = 6
    in_h = (out_h - 1) * stride + kernel - 2 * pad
    g.add_layer(Layer("p", LayerType.CONV, out_h=in_h, out_w=in_h,
                      out_k=k_in, in_c=3))
    g.add_layer(
        Layer("c", kind, out_h=out_h, out_w=out_h, out_k=k_out,
              in_c=k_in, kernel_r=kernel, kernel_s=kernel, stride=stride,
              pad_h=pad, pad_w=pad),
        inputs=["p"],
    )
    return g


def brute_force_volumes(graph, parsed, consumer_name, producer_name):
    """Element-level (src_core, dst_core) -> bytes for one dependency.

    Walks consumer ofmap elements; each needs a halo of producer
    elements.  A (producer element, consumer part) pair transfers one
    byte — matching the analyzer's convention that each consumer part
    fetches its required region once (deduplicated within the part).
    """
    consumer = graph.layer(consumer_name)
    producer = graph.layer(producer_name)
    volumes = {}
    for dest in parsed.layer(consumer_name).parts:
        r = dest.region
        needed = set()
        for (h, w, k) in itertools.product(
            range(r.h_lo, r.h_hi), range(r.w_lo, r.w_hi),
            range(r.k_lo, r.k_hi),
        ):
            if consumer.is_channelwise:
                channels = [k]
            else:
                channels = range(producer.out_k)
            for (dr, ds) in itertools.product(
                range(consumer.kernel_r), range(consumer.kernel_s)
            ):
                ih = h * consumer.stride - consumer.pad_h + dr
                iw = w * consumer.stride - consumer.pad_w + ds
                if not (0 <= ih < producer.out_h and 0 <= iw < producer.out_w):
                    continue
                for c in channels:
                    needed.add((ih, iw, c))
        for (ih, iw, c) in needed:
            src_core = None
            for src in parsed.layer(producer_name).parts:
                s = src.region
                if (s.h_lo <= ih < s.h_hi and s.w_lo <= iw < s.w_hi
                        and s.k_lo <= c < s.k_hi):
                    src_core = src.core
                    break
            assert src_core is not None, "producer parts must tile ofmap"
            if src_core == dest.core:
                continue
            key = (src_core, dest.core)
            volumes[key] = volumes.get(key, 0) + 1
    return volumes


def analyzer_volumes(graph, arch, lms, consumer_name):
    evaluator = Evaluator(arch)
    parsed, intra, traffic = evaluator.analyze_group(graph, lms, flows=True)
    volumes = {}
    for f in traffic.flows:
        if f.kind != "ifmap" or f.src[0] != "core":
            continue
        key = (
            evaluator.topo.core_index(f.src),
            evaluator.topo.core_index(f.dst),
        )
        volumes[key] = volumes.get(key, 0) + f.volume
    # Normalize out the intra-core refetch multiplier (1 for 8 MB GLB
    # on these tiny layers).
    results = intra[consumer_name]
    assert all(r.if_fetches == 1 for r in results)
    return volumes, parsed


CASES = [
    # kind, kernel, stride, pad, part_p, part_c
    (LayerType.CONV, 3, 1, 1, Partition(2, 1, 1, 2), Partition(2, 2, 1, 1)),
    (LayerType.CONV, 1, 1, 0, Partition(1, 1, 1, 4), Partition(4, 1, 1, 1)),
    (LayerType.CONV, 3, 2, 0, Partition(2, 2, 1, 1), Partition(1, 2, 1, 2)),
    (LayerType.POOL, 2, 2, 0, Partition(1, 1, 1, 4), Partition(1, 1, 1, 4)),
    (LayerType.POOL, 3, 1, 1, Partition(2, 1, 1, 2), Partition(2, 1, 1, 2)),
]


@pytest.mark.parametrize("kind,kernel,stride,pad,part_p,part_c", CASES)
def test_analyzer_matches_brute_force(kind, kernel, stride, pad,
                                      part_p, part_c):
    k_out, k_in = 4, 4
    graph = build_pair(kind, kernel, stride, pad, k_out, k_in)
    arch = arch16()
    group = LayerGroup(("p", "c"), batch_unit=1)
    n_p, n_c = part_p.n_parts, part_c.n_parts
    lms = LayerGroupMapping(group, {
        "p": MappingScheme(part_p, tuple(range(n_p)),
                           FlowOfData(0, 0, IMPLICIT)),
        "c": MappingScheme(
            part_c, tuple(range(n_p, n_p + n_c)),
            FlowOfData(
                IMPLICIT,
                0 if kind is LayerType.CONV else IMPLICIT,
                0,
            ),
        ),
    })
    volumes, parsed = analyzer_volumes(graph, arch, lms, "c")
    expected = brute_force_volumes(graph, parsed, "c", "p")
    assert set(volumes) == set(expected)
    for key in expected:
        assert volumes[key] == pytest.approx(expected[key]), key


@settings(max_examples=12, deadline=None)
@given(
    ph=st.integers(1, 3), pk=st.integers(1, 2),
    ch=st.integers(1, 3), cw=st.integers(1, 2),
)
def test_analyzer_matches_brute_force_random_partitions(ph, pk, ch, cw):
    graph = build_pair(LayerType.CONV, 3, 1, 1, 4, 4)
    arch = arch16()
    group = LayerGroup(("p", "c"), batch_unit=1)
    part_p = Partition(ph, 1, 1, pk)
    part_c = Partition(ch, cw, 1, 1)
    n_p, n_c = part_p.n_parts, part_c.n_parts
    if n_p + n_c > arch.n_cores:
        return
    lms = LayerGroupMapping(group, {
        "p": MappingScheme(part_p, tuple(range(n_p)),
                           FlowOfData(0, 0, IMPLICIT)),
        "c": MappingScheme(part_c, tuple(range(n_p, n_p + n_c)),
                           FlowOfData(IMPLICIT, 0, 0)),
    })
    volumes, parsed = analyzer_volumes(graph, arch, lms, "c")
    expected = brute_force_volumes(graph, parsed, "c", "p")
    total_got = sum(volumes.values())
    total_want = sum(expected.values())
    assert total_got == pytest.approx(total_want)
