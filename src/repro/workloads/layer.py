"""Layer model: the per-layer features the Gemini model parser extracts.

A :class:`Layer` describes one node of a DNN DAG (Sec II-B of the paper)
using the output-centric view the LP SPM encoding needs: the ofmap cube
``(H, W, K)`` per sample, the ifmap channel count ``C``, and the kernel /
stride / padding geometry that determines receptive fields.  Batch size is
*not* part of the layer; it is supplied at mapping time (the graph
partition engine chooses the batch unit per pipeline stage).

Conventions
-----------

* ``CONV`` / ``FC`` layers own weights of ``K*C*R*S/groups`` elements and
  need **all** input channels per output element.
* ``POOL`` / ``ELTWISE`` / ``DWCONV`` layers preserve channels: output
  channel ``k`` depends only on input channel ``k`` (per group for
  DWCONV), which matters for inter-layer traffic analysis.
* ``MATMUL`` models activation-activation products (attention scores and
  context matmuls in Transformers): it has no weights; its second operand
  is an ordinary activation dependency in the graph.
* ``VECTOR`` models softmax / layernorm / activation-only layers computed
  on the vector unit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import InvalidWorkloadError


class LayerType(enum.Enum):
    """Kinds of layers distinguished by the evaluator."""

    CONV = "conv"
    FC = "fc"
    POOL = "pool"
    ELTWISE = "eltwise"
    DWCONV = "dwconv"
    MATMUL = "matmul"
    VECTOR = "vector"


#: Layer kinds whose output channel k depends only on input channel k.
CHANNELWISE_KINDS = frozenset(
    {LayerType.POOL, LayerType.ELTWISE, LayerType.DWCONV, LayerType.VECTOR}
)

#: Layer kinds that carry trained weights.
WEIGHTED_KINDS = frozenset({LayerType.CONV, LayerType.FC, LayerType.DWCONV})


@dataclass(frozen=True)
class Layer:
    """A single DNN layer in output-centric form.

    Parameters
    ----------
    name:
        Unique identifier within a graph.
    kind:
        The :class:`LayerType`.
    out_h, out_w, out_k:
        Ofmap height, width and channel count per sample.
    in_c:
        Ifmap channel count (summed over all inputs for concat fan-in).
    kernel_r, kernel_s:
        Kernel height and width (1 for FC / ELTWISE / MATMUL / VECTOR).
    stride:
        Spatial stride (same in both dimensions).
    pad_h, pad_w:
        Zero padding on the height / width axes (each applied to both
        sides of its axis).
    groups:
        Grouped-convolution group count; ``groups == in_c == out_k`` for
        depthwise layers.
    bits:
        Element precision; 8-bit inference by default (Simba-compatible).
    """

    name: str
    kind: LayerType
    out_h: int
    out_w: int
    out_k: int
    in_c: int
    kernel_r: int = 1
    kernel_s: int = 1
    stride: int = 1
    pad_h: int = 0
    pad_w: int = 0
    groups: int = 1
    bits: int = 8

    def __post_init__(self):
        if min(self.out_h, self.out_w, self.out_k, self.in_c) < 1:
            raise InvalidWorkloadError(
                f"layer {self.name!r}: dimensions must be positive"
            )
        if min(self.kernel_r, self.kernel_s, self.stride, self.groups) < 1:
            raise InvalidWorkloadError(
                f"layer {self.name!r}: kernel/stride/groups must be positive"
            )
        if self.pad_h < 0 or self.pad_w < 0:
            raise InvalidWorkloadError(f"layer {self.name!r}: negative padding")
        if self.out_k % self.groups or self.in_c % self.groups:
            raise InvalidWorkloadError(
                f"layer {self.name!r}: groups must divide in_c and out_k"
            )
        if self.bits % 8:
            raise InvalidWorkloadError(f"layer {self.name!r}: bits must be x8")

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------

    @property
    def bytes_per_elem(self) -> int:
        return self.bits // 8

    @property
    def in_h(self) -> int:
        """Ifmap height implied by the output geometry."""
        return (self.out_h - 1) * self.stride + self.kernel_r - 2 * self.pad_h

    @property
    def in_w(self) -> int:
        """Ifmap width implied by the output geometry."""
        return (self.out_w - 1) * self.stride + self.kernel_s - 2 * self.pad_w

    @property
    def has_weights(self) -> bool:
        return self.kind in WEIGHTED_KINDS

    @property
    def is_channelwise(self) -> bool:
        """True when output channel ``k`` only reads input channel ``k``."""
        return self.kind in CHANNELWISE_KINDS

    # ------------------------------------------------------------------
    # Volumes (per sample unless a batch argument is given)
    # ------------------------------------------------------------------

    def ofmap_elems(self, batch: int = 1) -> int:
        return batch * self.out_h * self.out_w * self.out_k

    def ofmap_bytes(self, batch: int = 1) -> int:
        return self.ofmap_elems(batch) * self.bytes_per_elem

    def ifmap_elems(self, batch: int = 1) -> int:
        return batch * max(self.in_h, 1) * max(self.in_w, 1) * self.in_c

    def ifmap_bytes(self, batch: int = 1) -> int:
        return self.ifmap_elems(batch) * self.bytes_per_elem

    def weight_elems(self) -> int:
        if not self.has_weights:
            return 0
        return (
            self.out_k
            * (self.in_c // self.groups)
            * self.kernel_r
            * self.kernel_s
        )

    def weight_bytes(self) -> int:
        return self.weight_elems() * self.bytes_per_elem

    def macs(self, batch: int = 1) -> int:
        """Multiply-accumulate count for ``batch`` samples.

        POOL / ELTWISE / VECTOR layers return their vector-op counts so
        that compute time can still be bounded; the evaluator weights them
        with the (cheaper) vector-unit throughput and energy.
        """
        spatial = batch * self.out_h * self.out_w * self.out_k
        if self.kind in (LayerType.CONV, LayerType.FC, LayerType.DWCONV):
            return spatial * (self.in_c // self.groups) * self.kernel_r * self.kernel_s
        if self.kind is LayerType.MATMUL:
            return spatial * self.in_c
        if self.kind is LayerType.POOL:
            return spatial * self.kernel_r * self.kernel_s
        # ELTWISE / VECTOR: one op per output element.
        return spatial

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.name}[{self.kind.value} "
            f"o={self.out_h}x{self.out_w}x{self.out_k} c={self.in_c} "
            f"k={self.kernel_r}x{self.kernel_s}/{self.stride}]"
        )
