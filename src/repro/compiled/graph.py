"""One-time lowering of a :class:`DNNGraph` into flat array tables.

The SA hot loop used to re-walk Python object graphs (layers, input
slices, schemes) on every evaluation.  :class:`CompiledGraph` lowers a
DNN once into structure-of-arrays numpy tables plus plain-int rows so
the evaluation core addresses layers by integer id and never touches
the ``DNNGraph`` / ``Layer`` objects inside the loop.

Compilation is memoized per graph in a module-level weak map, so every
evaluator bound to the same graph — including pool workers that
inherit the parent's memory via ``fork`` — shares one set of tables;
a ``spawn`` worker fills its own memo on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from weakref import WeakKeyDictionary

import numpy as np

from repro.perf import PERF
from repro.workloads.graph import DNNGraph
from repro.workloads.layer import Layer, LayerType

#: Ceiling for flattened ``slots x links`` scatter lane spaces.  The
#: population-batched kernels give every (slot, link) pair its own
#: bincount lane; 2**40 lanes is already a multi-terabyte accumulator,
#: so anything larger is a sizing bug, not a workload.
MAX_STACKED_LANES = 1 << 40

#: Dimension products (extents x bytes-per-element) beyond this lose
#: exactness long before int64 overflows — volumes are carried as
#: float64 whose integer range ends at 2**53.
_MAX_DIM_PRODUCT = 1 << 53


def stacked_offsets(n_slots: int, n_links: int) -> np.ndarray:
    """Per-slot bin offsets for a stacked ``(N, links)`` scatter.

    The product is taken over Python ints and the offsets are built as
    int64 *before* any multiply, so platforms whose default numpy int
    is 32-bit cannot silently wrap when ``N x links`` exceeds 2**31.
    """
    lanes = int(n_slots) * int(n_links)
    if lanes > MAX_STACKED_LANES:
        raise ValueError(
            f"stacked scatter of {n_slots} slots x {n_links} links needs "
            f"{lanes} lanes (> {MAX_STACKED_LANES}); reduce the population "
            "or split the batch"
        )
    return np.arange(n_slots, dtype=np.int64) * np.int64(n_links)


def as_index_table(arr: np.ndarray) -> np.ndarray:
    """An index table promoted to int64 (no-op when already int64).

    Every table that participates in stacked slot-offset arithmetic
    must be int64: adding an int64 offset to an int32 table would
    upcast, but an int32 table multiplied by int32 counts first (as
    route-table builders on 32-bit-default platforms could produce)
    wraps silently.  Centralizing the promotion makes the contract
    checkable.
    """
    if arr.dtype == np.int64:
        return arr
    return arr.astype(np.int64)


@dataclass(frozen=True)
class InputRef:
    """One input slice of a layer, by producer layer id.

    ``producer_lid`` is ``-1`` when the slice reads the DNN input
    activation; ``c_lo:c_hi`` is the consumer-channel placement (see
    :class:`repro.workloads.graph.InputSlice`).
    """

    op_idx: int
    producer_lid: int
    c_lo: int
    c_hi: int


class CompiledGraph:
    """Structure-of-arrays view of a DNN, indexed by layer id.

    The int64 dimension tables exist for vectorized consumers; the
    ``*_i`` lists hold the same values as plain Python ints for scalar
    hot-path reads (numpy scalar extraction is slower than list
    indexing and changes dtype-promotion rules).
    """

    def __init__(self, graph: DNNGraph):
        self.name = graph.name
        names = tuple(graph.layer_names())
        self.names = names
        self.lid = {name: i for i, name in enumerate(names)}
        layers = tuple(graph.layer(name) for name in names)
        #: The frozen Layer records, for code shared with the object
        #: path (receptive-field arithmetic reads their attributes).
        self.layer_refs: tuple[Layer, ...] = layers

        def table(fn) -> np.ndarray:
            # Explicit int64 regardless of platform default int width;
            # np.array raises OverflowError for values past 2**63, so
            # out-of-range specs fail loudly instead of wrapping.
            return np.array([fn(l) for l in layers], dtype=np.int64)

        self.out_h = table(lambda l: l.out_h)
        self.out_w = table(lambda l: l.out_w)
        self.out_k = table(lambda l: l.out_k)
        self.in_c = table(lambda l: l.in_c)
        self.kernel_r = table(lambda l: l.kernel_r)
        self.kernel_s = table(lambda l: l.kernel_s)
        self.stride = table(lambda l: l.stride)
        self.groups = table(lambda l: l.groups)
        self.bytes_per_elem = table(lambda l: l.bytes_per_elem)

        self.out_h_i = self.out_h.tolist()
        self.out_w_i = self.out_w.tolist()
        self.out_k_i = self.out_k.tolist()
        self.in_c_i = self.in_c.tolist()
        self.kernel_r_i = self.kernel_r.tolist()
        self.kernel_s_i = self.kernel_s.tolist()
        self.stride_i = self.stride.tolist()
        self.groups_i = self.groups.tolist()
        self.bytes_per_elem_i = self.bytes_per_elem.tolist()

        # Volume arithmetic downstream multiplies up to four extents by
        # bytes-per-element in int64 and then carries the product as
        # float64; guard the worst-case per-layer product once at
        # compile time so oversized synthetic specs fail with a clear
        # message instead of silently losing bits.
        for i, name in enumerate(names):
            worst = (
                self.out_h_i[i] * self.out_w_i[i]
                * max(1, self.out_k_i[i]) * max(1, self.in_c_i[i])
                * self.bytes_per_elem_i[i]
            )
            if worst > _MAX_DIM_PRODUCT:
                raise ValueError(
                    f"layer {name!r}: dimension product {worst} exceeds "
                    f"the exact float64 range (2**53); the compiled "
                    "tables cannot represent its volumes losslessly"
                )

        self.kinds: tuple[LayerType, ...] = tuple(l.kind for l in layers)
        self.channelwise = tuple(l.is_channelwise for l in layers)
        self.has_weights = tuple(l.has_weights for l in layers)

        #: Per-layer input slices with producers resolved to layer ids.
        self.inputs: tuple[tuple[InputRef, ...], ...] = tuple(
            tuple(
                InputRef(
                    op_idx,
                    -1 if s.producer is None else self.lid[s.producer],
                    s.c_lo,
                    s.c_hi,
                )
                for op_idx, s in enumerate(graph.input_slices(name))
            )
            for name in names
        )

    def __len__(self) -> int:
        return len(self.names)


_COMPILED: "WeakKeyDictionary[DNNGraph, CompiledGraph]" = WeakKeyDictionary()


def compile_graph(graph: DNNGraph) -> CompiledGraph:
    """The (memoized) compiled tables of ``graph``.

    The first call per graph pays the lowering; every later call — and
    every forked pool worker — gets the same object back.
    """
    compiled = _COMPILED.get(graph)
    if compiled is None:
        from repro.obs.trace import trace

        with PERF.time("compiled.compile_graph"), \
                trace("compile_graph", layers=len(graph.layer_names())):
            compiled = CompiledGraph(graph)
        _COMPILED[graph] = compiled
        PERF.add("compiled.graphs")
    return compiled
