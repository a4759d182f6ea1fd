"""Frontend op-graph IR: the meeting point of every model source.

Both ingestion paths — declarative specs (:mod:`repro.frontend.spec`)
and ONNX protobufs (:mod:`repro.frontend.onnx_import`) — produce this
small untyped op graph.  The pass pipeline (:mod:`repro.frontend.passes`)
then folds, fuses and lowers it into the evaluator's layer vocabulary
before :func:`repro.frontend.passes.lower_to_graph` emits a validated
:class:`~repro.workloads.graph.DNNGraph`.

Nodes reference producers by *node name*; the sentinel
:data:`GRAPH_INPUT` stands for the DNN input activation.  Shapes are
per-sample ``(h, w, k)`` tuples, filled in by the shape-inference pass
(``None`` until then).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.errors import InvalidWorkloadError

#: Producer sentinel: the DNN input activation.
GRAPH_INPUT = "@input"

#: Ops executed on the PE array.
PE_OPS = frozenset({"conv", "dwconv", "fc", "matmul"})

#: Channel-preserving memory/vector ops the evaluator models directly.
MEMORY_OPS = frozenset({"pool", "add", "eltwise", "concat", "vector"})

#: Unary activations the fusion pass folds into a PE producer.
ACTIVATION_OPS = frozenset({
    "relu", "relu6", "gelu", "sigmoid", "tanh", "silu", "swish",
    "leakyrelu", "clip", "erf", "softplus", "elu", "hardswish",
    "hardsigmoid", "prelu",
})

#: Vector-unit ops kept as standalone VECTOR layers (they read whole
#: activations, so their traffic is not free the way a fused ReLU is).
VECTOR_OPS = frozenset({"softmax", "layernorm", "batchnorm", "upsample"})

#: Pure shape plumbing: no data movement the evaluator should bill.
STRUCTURAL_OPS = frozenset({
    "identity", "reshape", "flatten", "transpose", "dropout", "cast",
    "squeeze", "unsqueeze", "constant",
})

#: Everything the lowering pass accepts without approximation.
SUPPORTED_OPS = PE_OPS | MEMORY_OPS | ACTIVATION_OPS | VECTOR_OPS | STRUCTURAL_OPS

_NAME_RE = re.compile(r"[^A-Za-z0-9_.]+")


def sanitize_name(raw: str, fallback: str = "node") -> str:
    """Make an imported node name safe for layer naming / file paths."""
    cleaned = _NAME_RE.sub("_", raw).strip("_")
    return cleaned or fallback


@dataclass
class OpNode:
    """One operation of an imported model, pre-lowering."""

    name: str
    op: str
    inputs: list[str] = field(default_factory=list)
    attrs: dict = field(default_factory=dict)
    #: Per-sample output shape ``(h, w, k)``; set by shape inference.
    shape: tuple[int, int, int] | None = None

    def attr(self, key: str, default=None):
        return self.attrs.get(key, default)


class OpGraph:
    """An ordered DAG of :class:`OpNode` with one input activation."""

    def __init__(
        self,
        name: str,
        input_shape: tuple[int, int, int],
        bits: int = 8,
    ):
        if min(input_shape) < 1:
            raise InvalidWorkloadError(
                f"model {name!r}: input shape {input_shape} must be positive"
            )
        self.name = name
        self.input_shape = tuple(input_shape)
        self.bits = bits
        self.nodes: dict[str, OpNode] = {}

    # ------------------------------------------------------------------

    def add(self, node: OpNode) -> OpNode:
        if node.name == GRAPH_INPUT:
            raise InvalidWorkloadError(f"node name {GRAPH_INPUT!r} is reserved")
        if node.name in self.nodes:
            raise InvalidWorkloadError(f"duplicate node name {node.name!r}")
        for src in node.inputs:
            if src != GRAPH_INPUT and src not in self.nodes:
                raise InvalidWorkloadError(
                    f"node {node.name!r} consumes unknown node {src!r}"
                )
        self.nodes[node.name] = node
        return node

    def node(self, name: str) -> OpNode:
        return self.nodes[name]

    def __contains__(self, name: str) -> bool:
        return name in self.nodes

    def __len__(self) -> int:
        return len(self.nodes)

    def consumers(self) -> dict[str, list[str]]:
        """node name -> names of nodes reading its output."""
        out: dict[str, list[str]] = {name: [] for name in self.nodes}
        for node in self.nodes.values():
            for src in node.inputs:
                if src != GRAPH_INPUT:
                    out[src].append(node.name)
        return out

    # ------------------------------------------------------------------

    def remove(self, name: str, rewire_to: str | None = None) -> None:
        """Delete a node, rewiring its consumers to ``rewire_to``.

        ``rewire_to`` defaults to the node's sole input, which is what
        folding a unary pass-through op means.
        """
        node = self.nodes[name]
        if rewire_to is None:
            if len(node.inputs) != 1:
                raise InvalidWorkloadError(
                    f"cannot fold {name!r}: {len(node.inputs)} inputs"
                )
            rewire_to = node.inputs[0]
        del self.nodes[name]
        for other in self.nodes.values():
            other.inputs = [
                rewire_to if src == name else src for src in other.inputs
            ]

    def topological_order(self) -> list[str]:
        """Kahn order, stable w.r.t. insertion order."""
        indeg = {
            name: sum(1 for s in node.inputs if s != GRAPH_INPUT)
            for name, node in self.nodes.items()
        }
        # Multi-edges (same producer twice) must count twice.
        ready = [n for n in self.nodes if indeg[n] == 0]
        consumers = self.consumers()
        order = []
        while ready:
            name = ready.pop(0)
            order.append(name)
            seen: dict[str, int] = {}
            for succ in consumers[name]:
                seen[succ] = seen.get(succ, 0) + 1
            for succ, times in seen.items():
                indeg[succ] -= times
                if indeg[succ] == 0:
                    ready.append(succ)
        if len(order) != len(self.nodes):
            raise InvalidWorkloadError(f"model {self.name!r} has a cycle")
        return order

    def outputs(self) -> list[str]:
        consumers = self.consumers()
        return [n for n, c in consumers.items() if not c]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"OpGraph({self.name!r}, nodes={len(self)})"
