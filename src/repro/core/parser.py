"""LP SPM parsing: encoded scheme -> concrete per-core workloads (Fig 3).

Parsing an encoded :class:`LayerGroupMapping` produces, for every layer,
the ofmap :class:`Region` each core owns (via near-equal splits along the
four partition dimensions and the Correspondence Rule) and the
:class:`~repro.intracore.CoreWorkload` that core must execute.  The
parser also exposes the receptive-field arithmetic that traffic analysis
uses to find which producer bytes each consumer part needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.encoding import (
    LayerGroup,
    LayerGroupMapping,
    MappingScheme,
    split_range,
)
from repro.errors import InvalidMappingError
from repro.intracore.dataflow import CoreWorkload
from repro.workloads.graph import DNNGraph
from repro.workloads.layer import Layer, LayerType


@dataclass(frozen=True)
class Region:
    """A half-open 4-D box of the ofmap cube: (h, w, b, k) ranges."""

    h_lo: int
    h_hi: int
    w_lo: int
    w_hi: int
    b_lo: int
    b_hi: int
    k_lo: int
    k_hi: int

    @property
    def h_size(self) -> int:
        return self.h_hi - self.h_lo

    @property
    def w_size(self) -> int:
        return self.w_hi - self.w_lo

    @property
    def b_size(self) -> int:
        return self.b_hi - self.b_lo

    @property
    def k_size(self) -> int:
        return self.k_hi - self.k_lo

    def volume(self) -> int:
        return self.h_size * self.w_size * self.b_size * self.k_size

    def intersection_volume(self, other: "Region") -> int:
        h = min(self.h_hi, other.h_hi) - max(self.h_lo, other.h_lo)
        w = min(self.w_hi, other.w_hi) - max(self.w_lo, other.w_lo)
        b = min(self.b_hi, other.b_hi) - max(self.b_lo, other.b_lo)
        k = min(self.k_hi, other.k_hi) - max(self.k_lo, other.k_lo)
        if min(h, w, b, k) <= 0:
            return 0
        return h * w * b * k


@dataclass(frozen=True)
class PlacedPart:
    """One partitioned workload: its owning core, region and workload."""

    core: int
    part_id: tuple[int, int, int, int]
    region: Region
    workload: CoreWorkload


@dataclass(frozen=True)
class ParsedLayer:
    name: str
    scheme: MappingScheme
    parts: tuple[PlacedPart, ...]

    def part_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``(regions[n, 8], cores[n])`` arrays over the parts.

        Region rows hold ``(h_lo, h_hi, w_lo, w_hi, b_lo, b_hi, k_lo,
        k_hi)``.  Memoized on the (immutable) record so traffic analysis
        can intersect a consumer's requirement against every producer
        part in one vector operation.
        """
        cached = getattr(self, "_part_arrays", None)
        if cached is None:
            regions = np.array(
                [
                    [p.region.h_lo, p.region.h_hi, p.region.w_lo,
                     p.region.w_hi, p.region.b_lo, p.region.b_hi,
                     p.region.k_lo, p.region.k_hi]
                    for p in self.parts
                ],
                dtype=np.int64,
            )
            cores = np.array([p.core for p in self.parts], dtype=np.int64)
            cached = (regions, cores)
            object.__setattr__(self, "_part_arrays", cached)
        return cached

    def weight_bytes_array(self) -> np.ndarray:
        """Per-part stationary-operand bytes (lazy, memoized)."""
        cached = getattr(self, "_weight_bytes", None)
        if cached is None:
            cached = np.array(
                [p.workload.weight_bytes() for p in self.parts],
                dtype=np.float64,
            )
            object.__setattr__(self, "_weight_bytes", cached)
        return cached


@dataclass(frozen=True)
class ParsedGroup:
    """The concrete SPM scheme of a layer group."""

    group: LayerGroup
    layers: dict[str, ParsedLayer]

    def layer(self, name: str) -> ParsedLayer:
        return self.layers[name]


def _workload_for(layer: Layer, region: Region) -> CoreWorkload:
    """The core-level workload computing ``region`` of ``layer``."""
    if layer.is_channelwise:
        c = region.k_size
        groups = 1
    elif layer.kind is LayerType.MATMUL:
        c = layer.in_c
        groups = 1
    else:
        c = layer.in_c
        groups = layer.groups
        # A K-slice of a grouped conv touches only its groups' channels.
        if layer.groups > 1:
            k_per_group = layer.out_k // layer.groups
            g_lo = region.k_lo // k_per_group
            g_hi = (region.k_hi - 1) // k_per_group + 1
            n_groups = g_hi - g_lo
            c = n_groups * (layer.in_c // layer.groups)
            groups = n_groups
    return CoreWorkload(
        kind=layer.kind,
        b=region.b_size,
        k=region.k_size,
        h=region.h_size,
        w=region.w_size,
        c=c,
        r=layer.kernel_r,
        s=layer.kernel_s,
        stride=layer.stride,
        groups=groups,
        bytes_per_elem=layer.bytes_per_elem,
    )


def parse_scheme(
    layer: Layer, scheme: MappingScheme, batch_unit: int
) -> tuple[PlacedPart, ...]:
    """Apply the Correspondence Rule to place every part on its core."""
    part = scheme.part
    # Near-equal split intervals per dimension, computed once instead
    # of per part (ids() is numerical-ID order, so the running index
    # matches the Correspondence Rule's core assignment).
    hs = [split_range(layer.out_h, part.h, i) for i in range(part.h)]
    ws = [split_range(layer.out_w, part.w, i) for i in range(part.w)]
    bs = [split_range(batch_unit, part.b, i) for i in range(part.b)]
    ks = [split_range(layer.out_k, part.k, i) for i in range(part.k)]
    core_group = scheme.core_group
    parts = []
    nid = 0
    for (h, w, b, k) in part.ids():
        (h_lo, h_hi), (w_lo, w_hi) = hs[h], ws[w]
        (b_lo, b_hi), (k_lo, k_hi) = bs[b], ks[k]
        if h_hi <= h_lo or w_hi <= w_lo or b_hi <= b_lo or k_hi <= k_lo:
            raise InvalidMappingError(
                f"{layer.name}: partition produced an empty part "
                f"{(h, w, b, k)} — partition counts exceed extents"
            )
        region = Region(h_lo, h_hi, w_lo, w_hi, b_lo, b_hi, k_lo, k_hi)
        parts.append(
            PlacedPart(core_group[nid], (h, w, b, k), region,
                       _workload_for(layer, region))
        )
        nid += 1
    return tuple(parts)


def parse_lms(graph: DNNGraph, lms: LayerGroupMapping) -> ParsedGroup:
    """Parse a full LMS into concrete per-core workloads."""
    batch_unit = lms.group.batch_unit
    layers = {}
    for name in lms.group.layers:
        scheme = lms.scheme(name)
        layers[name] = ParsedLayer(
            name, scheme,
            parse_scheme(graph.layer(name), scheme, batch_unit),
        )
    return ParsedGroup(lms.group, layers)


# ----------------------------------------------------------------------
# Receptive-field arithmetic (used by traffic analysis)
# ----------------------------------------------------------------------


def required_input_box(
    layer: Layer, region: Region
) -> tuple[int, int, int, int]:
    """Ifmap spatial box (ih_lo, ih_hi, iw_lo, iw_hi) feeding ``region``.

    Halo-aware: the box is the union of the receptive fields of the
    region's output pixels, clipped to the valid ifmap extent (padding
    contributes no transferred data).
    """
    ih_lo = max(0, region.h_lo * layer.stride - layer.pad_h)
    ih_hi = min(
        layer.in_h,
        (region.h_hi - 1) * layer.stride - layer.pad_h + layer.kernel_r,
    )
    iw_lo = max(0, region.w_lo * layer.stride - layer.pad_w)
    iw_hi = min(
        layer.in_w,
        (region.w_hi - 1) * layer.stride - layer.pad_w + layer.kernel_s,
    )
    return ih_lo, max(ih_lo, ih_hi), iw_lo, max(iw_lo, iw_hi)


def required_channels(layer: Layer, region: Region) -> tuple[int, int]:
    """Ifmap channel range feeding ``region`` (consumer coordinates)."""
    if layer.is_channelwise:
        return region.k_lo, region.k_hi
    if layer.groups > 1:
        k_per_group = layer.out_k // layer.groups
        c_per_group = layer.in_c // layer.groups
        g_lo = region.k_lo // k_per_group
        g_hi = (region.k_hi - 1) // k_per_group + 1
        return g_lo * c_per_group, g_hi * c_per_group
    return 0, layer.in_c
