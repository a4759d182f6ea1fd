"""Instruction generation: parsed scheme -> per-core round programs.

Lowers one layer group's parsed LP SPM scheme into the static programs
the template's control units would execute each pipeline round.  The
flow records collected by the traffic analyzer become RECV / LOAD_WEIGHT
/ SEND instructions ordered by the group's layer order; every core ends
its round with a SYNC barrier.
"""

from __future__ import annotations

from repro.arch.params import ArchConfig
from repro.fabric import Topology
from repro.core.encoding import LayerGroupMapping
from repro.evalmodel.evaluator import Evaluator
from repro.instructions.isa import CoreProgram, Instruction, Opcode
from repro.workloads.graph import DNNGraph


def generate_programs(
    graph: DNNGraph,
    lms: LayerGroupMapping,
    arch: ArchConfig,
    topo: Topology | None = None,
    stored_at: dict[str, int] | None = None,
) -> dict[int, CoreProgram]:
    """Static round programs for every core used by the group."""
    evaluator = Evaluator(arch, topo=topo)
    topo = evaluator.topo
    parsed, _, traffic = evaluator.analyze_group(
        graph, lms, stored_at, flows=True
    )

    order = {name: i for i, name in enumerate(lms.group.layers)}
    programs: dict[int, list[Instruction]] = {}

    def emit(core: int, instr: Instruction):
        programs.setdefault(core, []).append(instr)

    # Data movement from flow records.
    inbound: dict[int, list[Instruction]] = {}
    outbound: dict[int, list[Instruction]] = {}
    for flow in traffic.flows:
        if flow.dst[0] == "core":
            core = topo.core_index(flow.dst)
            op = Opcode.LOAD_WEIGHT if flow.kind == "weight" else Opcode.RECV
            inbound.setdefault(core, []).append(
                Instruction(op, flow.layer, peer=flow.src, amount=flow.volume)
            )
        if flow.src[0] == "core":
            core = topo.core_index(flow.src)
            outbound.setdefault(core, []).append(
                Instruction(Opcode.SEND, flow.src_layer or flow.layer,
                            peer=flow.dst, amount=flow.volume)
            )

    compute: dict[int, list[Instruction]] = {}
    for name, pl in parsed.layers.items():
        for part in pl.parts:
            compute.setdefault(part.core, []).append(
                Instruction(Opcode.COMPUTE, name, amount=part.workload.macs())
            )

    cores = set(inbound) | set(outbound) | set(compute)
    out: dict[int, CoreProgram] = {}
    for core in sorted(cores):
        seq: list[Instruction] = []
        # Per-layer phase order: receive, compute, send.
        by_layer: dict[str, dict[str, list[Instruction]]] = {}
        for instr in inbound.get(core, []):
            by_layer.setdefault(instr.layer, {}).setdefault("in", []).append(instr)
        for instr in compute.get(core, []):
            by_layer.setdefault(instr.layer, {}).setdefault("c", []).append(instr)
        for instr in outbound.get(core, []):
            by_layer.setdefault(instr.layer, {}).setdefault("out", []).append(instr)
        for layer in sorted(by_layer, key=lambda n: order.get(n, 1 << 30)):
            phases = by_layer[layer]
            seq.extend(phases.get("in", []))
            seq.extend(phases.get("c", []))
            seq.extend(phases.get("out", []))
        seq.append(Instruction(Opcode.SYNC, layer="", amount=0.0))
        out[core] = CoreProgram(core, tuple(seq))
    return out


def conservation_check(programs: dict[int, CoreProgram]) -> tuple[float, float]:
    """(core->core bytes sent, core->core bytes received) totals.

    A correct lowering conserves bytes: every SEND whose peer is a core
    must appear as a RECV on that core and vice versa.
    """
    sent = sum(
        i.amount
        for p in programs.values()
        for i in p.instructions
        if i.op is Opcode.SEND and i.peer and i.peer[0] == "core"
    )
    received = sum(
        i.amount
        for p in programs.values()
        for i in p.instructions
        if i.op is Opcode.RECV and i.peer and i.peer[0] == "core"
    )
    return sent, received
