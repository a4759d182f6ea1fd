"""Discrete-event simulation of one pipeline round (Sec V-B2).

The paper's Evaluator includes "a simulator [that] assesses the delay of
the DNN" on top of the analytic traffic analysis.  This module provides
that finer-grained check: a store-and-forward, event-driven model of one
steady-state pipeline round where

* every core starts computing its partitioned workload at t = 0 and
  finishes after its intra-core compute time;
* a producer core's outgoing messages enter the network when its
  compute finishes (DRAM-sourced messages enter at t = 0);
* each directed link serializes messages FIFO at its bandwidth
  (store-and-forward per hop), so congestion shows up as queueing;
* the round completes when every message has been delivered and every
  core has finished computing.

The resulting makespan upper-bounds the analytic stage-time bound
``max(compute, volume/bandwidth per link)`` — the two coincide when a
single congested link dominates — and exposes per-link busy fractions
for diagnosis.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.fabric import NodeId, Topology


@dataclass(frozen=True)
class SimMessage:
    """One transfer injected into the simulated round."""

    src: NodeId
    dst: NodeId
    volume: float
    #: Simulation time at which the message becomes ready to send.
    ready_at: float = 0.0


@dataclass
class RoundStats:
    """Outcome of one simulated round."""

    makespan: float
    compute_finish: float
    delivery_finish: float
    link_busy: dict[int, float] = field(default_factory=dict)
    message_latencies: list[float] = field(default_factory=list)

    def max_link_utilization(self) -> float:
        if not self.link_busy or self.makespan <= 0:
            return 0.0
        return max(self.link_busy.values()) / self.makespan


class RoundSimulator:
    """Event-driven store-and-forward simulator over a topology."""

    def __init__(self, topo: Topology):
        self.topo = topo

    def simulate(
        self,
        compute_times: dict[int, float],
        messages: list[SimMessage],
    ) -> RoundStats:
        """Simulate one round.

        ``compute_times`` maps core index -> seconds of PE/vector work;
        message ``ready_at`` values should already reflect producer
        compute completion (use :func:`messages_from_flows`).
        """
        topo = self.topo
        #: Next instant each directed link becomes free.
        free_at = [0.0] * topo.n_links
        busy = [0.0] * topo.n_links
        latencies: list[float] = []
        # Event queue entries: (time, seq, route, hop_index, volume, t0).
        queue: list[tuple] = []
        seq = 0
        for msg in messages:
            if msg.volume <= 0:
                continue
            route = topo.route(msg.src, msg.dst)
            if not route:
                continue
            heapq.heappush(
                queue, (msg.ready_at, seq, route, 0, msg.volume, msg.ready_at)
            )
            seq += 1

        delivery_finish = 0.0
        while queue:
            time, _, route, hop, volume, t0 = heapq.heappop(queue)
            link = topo.links[route[hop]]
            start = max(time, free_at[link.index])
            duration = volume / link.bandwidth
            done = start + duration
            free_at[link.index] = done
            busy[link.index] += duration
            if hop + 1 < len(route):
                heapq.heappush(
                    queue, (done, seq, route, hop + 1, volume, t0)
                )
                seq += 1
            else:
                delivery_finish = max(delivery_finish, done)
                latencies.append(done - t0)

        compute_finish = max(compute_times.values(), default=0.0)
        return RoundStats(
            makespan=max(compute_finish, delivery_finish),
            compute_finish=compute_finish,
            delivery_finish=delivery_finish,
            link_busy={
                i: b for i, b in enumerate(busy) if b > 0.0
            },
            message_latencies=latencies,
        )


def messages_from_flows(
    topo: Topology,
    flows,
    compute_times: dict[int, float],
) -> list[SimMessage]:
    """Convert analyzer :class:`FlowRecord` s into simulator messages.

    Core-sourced messages become ready when their producer core's
    compute finishes; DRAM-sourced messages are ready immediately.
    """
    from repro.evalmodel.traffic_analysis import round_flows

    messages = []
    for f in round_flows(flows, topo):
        if f.src[0] == "core":
            ready = compute_times.get(topo.core_index(f.src), 0.0)
        else:
            ready = 0.0
        messages.append(SimMessage(f.src, f.dst, f.volume, ready))
    return messages


def simulate_group_round(graph, arch, lms, topo=None, stored_at=None):
    """Convenience: analyze and simulate one round of a group.

    Returns ``(RoundStats, analytic_stage_time)`` so callers can compare
    the event-driven makespan against the Evaluator's bound; the stage
    time is the one ``Evaluator(arch).evaluate_group`` reports.
    """
    from repro.evalmodel.delay import stage_times_from_compute
    from repro.evalmodel.evaluator import Evaluator

    evaluator = Evaluator(arch, topo=topo)
    topo = evaluator.topo
    parsed, intra, traffic = evaluator.analyze_group(
        graph, lms, stored_at, flows=True
    )
    compute_times: dict[int, float] = {}
    for name, parsed_layer in parsed.layers.items():
        for part, res in zip(parsed_layer.parts, intra[name]):
            compute_times[part.core] = max(
                compute_times.get(part.core, 0.0), res.compute_time
            )
    messages = messages_from_flows(topo, traffic.flows, compute_times)
    stats = RoundSimulator(topo).simulate(compute_times, messages)
    analytic = stage_times_from_compute(
        arch, stats.compute_finish, traffic
    ).stage
    return stats, analytic
