"""Sec VI-A2 — DSE cost scaling with candidate count.

The paper reports DSE wall-clock growing with the target computing
power (2280 s for 72 TOPs to 23907 s for 512 TOPs on 80-100 threads).
This bench measures our per-candidate evaluation time at two
accelerator scales and checks the expected growth with core count, plus
the SA-iteration scaling of the mapping engine itself.
"""

import statistics
import time

from conftest import print_banner, sa_settings

from repro.dse import DesignSpaceExplorer, DseGrid, Workload, enumerate_candidates
from repro.reporting import format_table

SMALL = DseGrid(
    tops=72, cuts=(1, 2), dram_bw_per_tops=(2.0,), noc_bw_gbps=(32,),
    d2d_ratio=(0.5,), glb_kb=(2048,), macs_per_core=(4096,),
)  # 9-core candidates
LARGE = DseGrid(
    tops=72, cuts=(1, 2), dram_bw_per_tops=(2.0,), noc_bw_gbps=(32,),
    d2d_ratio=(0.5,), glb_kb=(2048,), macs_per_core=(1024,),
)  # 36-core candidates

#: Timed explores per grid; a grid's number is their median.
REPEATS = 5


def cpu_per_candidate(tf_model, candidates, iters):
    """CPU seconds per candidate of one explore on a fresh explorer."""
    explorer = DesignSpaceExplorer(
        [Workload(tf_model, batch=16)],
        sa_settings=sa_settings(iters),
    )
    # Untimed warm-up of the first candidate: the small grid can hold a
    # single candidate, and charging it the one-time costs (graph
    # compile, parse caches, the core's first schedules) would drown
    # the scaling signal.
    explorer.prepare()
    explorer.evaluate_candidate(candidates[0])
    # CPU time, not wall clock: the grids are sub-second each, and host
    # contention can invert a wall-clock comparison (the same reason
    # test_perf_regression computes its ratios from CPU time).
    t0 = time.process_time()
    report = explorer.explore(candidates)
    return (time.process_time() - t0) / len(candidates), report


def time_grids(tf_model, grids, iters):
    """``(cpu_s_per_candidate, n_candidates, report)`` per grid: the
    median of ``REPEATS`` explores, alternating grids so host drift
    hits both alike.  One explore of the small grid is one ~0.08 s
    candidate, which a single sample cannot time steadily."""
    candidates = [enumerate_candidates(grid) for grid in grids]
    samples = [[] for _ in grids]
    reports = [None] * len(grids)
    for _ in range(REPEATS):
        for i, cands in enumerate(candidates):
            cpu, reports[i] = cpu_per_candidate(tf_model, cands, iters)
            samples[i].append(cpu)
    return [(statistics.median(s), len(c), r)
            for s, c, r in zip(samples, candidates, reports)]


def test_dse_scaling(tf_model, benchmark):
    def run():
        # Enough SA iterations that the per-candidate cost is search-
        # dominated (fixed per-candidate setup is similar across core
        # counts and would thin the margin into the noise floor).
        return time_grids(tf_model, (SMALL, LARGE), iters=120)

    (small, large) = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        ["9-core candidates", small[1], small[0]],
        ["36-core candidates", large[1], large[0]],
    ]
    print_banner("Sec VI-A2: DSE per-candidate evaluation cost")
    print(format_table(
        ["grid", "candidates", "seconds/candidate"], rows, floatfmt=".2f"
    ))
    print(
        f"\nscaling factor {large[0] / small[0]:.2f}x per candidate "
        "(paper: 2280s -> 23907s total, 72 -> 512 TOPs)"
    )
    # Bigger accelerators cost more to evaluate per candidate.
    assert large[0] > small[0]
    # And both DSEs found a best candidate.
    assert small[2].best is not None
    assert large[2].best is not None
