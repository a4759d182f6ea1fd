"""Per-core static instruction set (Fig 2b / Fig 4 "Instruction Gen.").

The template's control unit manages "computation tasks based on
statically-compiled instructions" (Sec III).  This tiny ISA captures the
events one core executes during one pipeline round: receive ifmap bytes,
load weight bytes, compute its partitioned workload tile, send ofmap
bytes onward, and a round barrier.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Opcode(enum.Enum):
    RECV = "recv"          # ifmap bytes from a core or DRAM
    LOAD_WEIGHT = "loadw"  # weight bytes from DRAM
    COMPUTE = "compute"    # run the PE-array / vector tile
    SEND = "send"          # ofmap bytes to a core or DRAM
    SYNC = "sync"          # end-of-round barrier


@dataclass(frozen=True)
class Instruction:
    """One static instruction of a core's round program."""

    op: Opcode
    layer: str
    #: Peer node for data movement ops (None for COMPUTE / SYNC).
    peer: tuple | None = None
    #: Payload bytes for data movement; MAC count for COMPUTE.
    amount: float = 0.0


@dataclass(frozen=True)
class CoreProgram:
    """The static round program of one core."""

    core: int
    instructions: tuple[Instruction, ...]

    def bytes_received(self) -> float:
        return sum(
            i.amount for i in self.instructions
            if i.op in (Opcode.RECV, Opcode.LOAD_WEIGHT)
        )

    def bytes_sent(self) -> float:
        return sum(i.amount for i in self.instructions if i.op is Opcode.SEND)

    def compute_macs(self) -> float:
        return sum(
            i.amount for i in self.instructions if i.op is Opcode.COMPUTE
        )
