"""SA-loop throughput guard and evaluation-path equivalence.

The two evaluation paths are raced on the Fig 5 workloads:

* **uncached** — the object path (the reference oracle);
* **compiled** — the array-native evaluation core, delta-evaluating
  each move through the batched fold at N=1.

The bench asserts (a) both paths produce *identical* annealing
trajectories, (b) a conservative compiled-vs-oracle speedup floor that
machine noise cannot flake, and records the measured ratios against
the oracle and against the seed evaluator in ``BENCH_perf.json``.

``seed_reference_iters_per_sec`` are the throughputs of the
pre-refactor seed evaluator measured on the development machine
(single-CPU container, best of 3); they anchor the recorded
``speedup_vs_seed`` ratios.  On other machines the same-process ratios
are the robust numbers — both configurations run seconds apart.

The DSE scaling bench uses the persistent worker pool: spawn cost is
paid once, so the *warm* wall time is the honest per-batch number.
Worker counts above ``os.cpu_count()`` only add contention and are
flagged as skipped instead of timed; on single-CPU boxes the recorded
number is the amortized per-candidate dispatch overhead, not a
meaningless "speedup".
"""

import os
import time

from conftest import print_banner, sa_settings

from repro.arch import g_arch
from repro.core import SAController
from repro.core.graphpart import partition_graph
from repro.core.initial import initial_lms
from repro.core.sa import SASettings
from repro.dse import DesignSpaceExplorer, DseGrid, Workload, enumerate_candidates
from repro.evalmodel import Evaluator
from repro.perf import emit_bench
from repro.reporting import format_table

#: Seed-evaluator throughput (iterations/sec) on the dev container,
#: measured before the PR-1 refactor (batch 64, g-arch, seed 3); only
#: the models benchmarked back then have a reference.
SEED_REFERENCE_ITERS_PER_SEC = {"RN-50": 341, "IRes": 334, "TF": 620}

#: Conservative floor asserted in CI (measured ratios are recorded,
#: and sit well above it on every machine tried).  Ratios are computed
#: from process CPU time — wall clock on shared runners can stall one
#: configuration's run by 2x and flake any floor.
MIN_COMPILED_SPEEDUP = 1.6         # compiled path vs uncached oracle

BENCH_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_perf.json")

CONFIGS = (
    ("uncached", dict(cache=False)),
    ("compiled", dict(cache=True)),
)


def _sa_run(graph, arch, lmss, batch, iterations, **evkw):
    """Run one annealing loop; returns (controller, CPU iters/sec)."""
    evaluator = Evaluator(arch, **evkw)
    controller = SAController(
        graph, evaluator, list(lmss), batch,
        SASettings(iterations=iterations, seed=3),
    )
    t0 = time.process_time()
    controller.run()
    cpu = time.process_time() - t0
    return controller, iterations / cpu if cpu > 0 else 0.0


def test_sa_throughput_and_equivalence(models, benchmark):
    arch = g_arch()
    iterations = max(50, int(sa_settings(300).iterations))
    batch = 64

    def run():
        rows, record = [], {}
        for name in ("RN-50", "RNX", "IRes", "PNas", "TF"):
            graph = models[name]
            groups = partition_graph(graph, arch, batch=batch)
            lmss = [initial_lms(graph, g, arch) for g in groups]
            best = {label: 0.0 for label, _ in CONFIGS}
            wall = {label: 0.0 for label, _ in CONFIGS}
            samples = {label: [] for label, _ in CONFIGS}
            ctls = {}
            # Interleave the configurations so host-speed drift hits
            # them equally; keep the best of three runs each (the
            # asserted ratios) plus every sample (the recorded
            # mean/variance — run-to-run spread is itself a signal).
            for _ in range(3):
                for label, kw in CONFIGS:
                    ctl, cpu_ips = _sa_run(
                        graph, arch, lmss, batch, iterations, **kw
                    )
                    ctls[label] = ctl
                    best[label] = max(best[label], cpu_ips)
                    wall[label] = max(wall[label], ctl.stats.iters_per_sec)
                    samples[label].append(cpu_ips)
            # Both paths: identical trajectories, bit for bit.
            assert ctls["compiled"].best_costs == ctls["uncached"].best_costs
            assert ctls["compiled"].stats.final_cost == \
                ctls["uncached"].stats.final_cost
            assert ctls["compiled"].stats.accepted == \
                ctls["uncached"].stats.accepted
            seed_ref = SEED_REFERENCE_ITERS_PER_SEC.get(name)
            record[name] = {
                "uncached_iters_per_sec": best["uncached"],
                "compiled_iters_per_sec": best["compiled"],
                "compiled_wall_iters_per_sec": wall["compiled"],
                "speedup_compiled_vs_uncached":
                    best["compiled"] / best["uncached"],
            }
            for label, _ in CONFIGS:
                vals = samples[label]
                mean = sum(vals) / len(vals)
                var = sum((v - mean) ** 2 for v in vals) / len(vals)
                record[name][f"{label}_iters_per_sec_samples"] = vals
                record[name][f"{label}_iters_per_sec_mean"] = mean
                record[name][f"{label}_iters_per_sec_var"] = var
            if seed_ref is not None:
                record[name]["seed_reference_iters_per_sec"] = seed_ref
                record[name]["speedup_vs_seed"] = best["compiled"] / seed_ref
            rows.append([
                name, f"{best['uncached']:.0f}", f"{best['compiled']:.0f}",
                f"{best['compiled'] / best['uncached']:.2f}x",
                f"{best['compiled'] / seed_ref:.2f}x" if seed_ref else "-",
            ])
        return rows, record

    rows, record = benchmark.pedantic(run, rounds=1, iterations=1)
    print_banner("SA-loop throughput: uncached oracle vs compiled")
    print(format_table(
        ["model", "uncached it/s", "compiled it/s", "compiled/uncached",
         "vs seed ref"],
        rows,
    ))
    emit_bench("sa_throughput", {
        "iterations": iterations,
        "batch": batch,
        "arch": "g-arch",
        "models": record,
    }, BENCH_PATH)
    for name, rec in record.items():
        assert rec["speedup_compiled_vs_uncached"] >= MIN_COMPILED_SPEEDUP, (
            f"{name}: compiled SA loop only "
            f"{rec['speedup_compiled_vs_uncached']:.2f}x faster than uncached"
        )


def test_group_eval_identity_on_seeded_run(tf_model):
    """Every group eval of an annealed state matches the full path."""
    arch = g_arch()
    graph = tf_model
    groups = partition_graph(graph, arch, batch=16)
    lmss = [initial_lms(graph, g, arch) for g in groups]
    compiled_ev = Evaluator(arch, cache=True)
    controller = SAController(
        graph, compiled_ev, lmss, 16,
        SASettings(iterations=max(20, int(sa_settings(60).iterations)), seed=5),
    )
    annealed = controller.run()
    uncached_ev = Evaluator(arch, cache=False)
    stored = {}
    for lms in annealed:
        a = compiled_ev.evaluate_group(graph, lms, 16, stored)
        b = uncached_ev.evaluate_group(graph, lms, 16, stored)
        assert a.delay == b.delay
        assert a.energy.total == b.energy.total
        assert a.energy.noc == b.energy.noc
        assert a.energy.d2d == b.energy.d2d
        assert a.energy.dram == b.energy.dram
        assert a.stage_time == b.stage_time
        assert a.compute_time == b.compute_time
        assert a.network_time == b.network_time
        assert a.dram_time == b.dram_time
        assert tuple(a.dram_round_bytes) == tuple(b.dram_round_bytes)
        assert a.fits == b.fits
        for name in lms.group.layers:
            of = lms.scheme(name).fd.ofmap
            if of >= 0:
                stored[name] = of


def test_fabric_sweep_throughput(tf_model, benchmark):
    """Per-fabric compiled SA throughput (the `fabric_sweep` section).

    Swapping the interconnect must keep the compiled hot path fast:
    every registered fabric runs the same annealing loop on TF and the
    measured iterations/sec land in ``BENCH_perf.json`` alongside each
    fabric's route-table build time.  Identity is asserted per fabric
    (compiled vs. uncached object path, same trajectory) — the fabric
    axis must never cost correctness.
    """
    from repro.fabric import apply_fabric, build_topology
    from repro.perf import PERF

    fabrics = ("mesh", "folded-torus", "cmesh:c2", "ring")
    iterations = max(30, int(sa_settings(120).iterations))
    batch = 16
    graph = tf_model

    def run():
        rows, record = [], {}
        for fabric in fabrics:
            arch = apply_fabric(g_arch(), fabric)
            groups = partition_graph(graph, arch, batch=batch)
            lmss = [initial_lms(graph, g, arch) for g in groups]
            PERF.reset()
            t0 = time.perf_counter()
            build_topology(arch).core_route_table()
            table_s = time.perf_counter() - t0
            compiled, ips = _sa_run(
                graph, arch, lmss, batch, iterations, cache=True
            )
            uncached, _ = _sa_run(
                graph, arch, lmss, batch, iterations, cache=False
            )
            assert compiled.best_costs == uncached.best_costs, fabric
            assert compiled.stats.final_cost == uncached.stats.final_cost
            record[fabric] = {
                "compiled_iters_per_sec": ips,
                "route_table_build_s": table_s,
            }
            rows.append([fabric, f"{ips:.0f}", f"{table_s * 1000:.1f}ms"])
        return rows, record

    rows, record = benchmark.pedantic(run, rounds=1, iterations=1)
    print_banner("Fabric sweep: compiled SA throughput per interconnect")
    print(format_table(
        ["fabric", "compiled it/s", "route tables"], rows,
    ))
    emit_bench("fabric_sweep", {
        "iterations": iterations,
        "batch": batch,
        "arch": "g-arch",
        "model": "TF",
        "fabrics": record,
    }, BENCH_PATH)
    for fabric, rec in record.items():
        assert rec["compiled_iters_per_sec"] > 0, fabric


def test_dse_worker_scaling(tf_model, benchmark):
    """Parallel DSE equivalence + amortized persistent-pool scaling."""
    grid = DseGrid(
        tops=72, cuts=(1, 2, 3), dram_bw_per_tops=(2.0,), noc_bw_gbps=(32,),
        d2d_ratio=(0.5,), glb_kb=(2048,), macs_per_core=(1024, 2048),
    )
    candidates = enumerate_candidates(grid)
    explorer = DesignSpaceExplorer(
        [Workload(tf_model, batch=8)], sa_settings=sa_settings(25),
    )
    cpus = os.cpu_count() or 1
    requested = (2, 4)
    # Worker counts beyond the visible CPUs only measure contention —
    # flag them as skipped; on a single-CPU box measure a 1-worker
    # pool instead, whose only honest number is dispatch overhead.
    usable = [w for w in requested if w <= cpus] or [1]
    skipped = [w for w in requested if w > cpus]

    def run():
        t0 = time.perf_counter()
        serial = explorer.explore(candidates, workers=1)
        t_cold = time.perf_counter() - t0
        # The cold pass fills the explorer's core store (schedules and
        # partition records), which the pool workers forked below
        # inherit: the baseline is a second, warm serial pass, so the
        # speedup measures parallelism, not cache warmth.
        t0 = time.perf_counter()
        explorer.explore(candidates, workers=1)
        t_serial = time.perf_counter() - t0
        timings = {}
        reports = {}
        for w in usable:
            t0 = time.perf_counter()
            explorer.explore(candidates, workers=w, force_pool=True)
            cold = time.perf_counter() - t0  # pool spawn + run
            t0 = time.perf_counter()
            reports[w] = explorer.explore(
                candidates, workers=w, force_pool=True
            )
            warm = time.perf_counter() - t0
            timings[w] = (cold, warm)
        explorer.close()
        return serial, t_cold, t_serial, timings, reports

    serial, t_cold, t_serial, timings, reports = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    for w, report in reports.items():
        assert [r.score for r in report.results] == \
            [r.score for r in serial.results]
        assert report.best.arch == serial.best.arch

    print_banner("DSE worker scaling (persistent pool, amortized)")
    rows = [["serial", f"{t_serial:.2f}s (cold {t_cold:.2f}s)", "", "1.00x"]]
    record = {
        "cpus": cpus,
        "candidates": len(candidates),
        "serial_cold_wall_s": t_cold,
        "serial_wall_s": t_serial,
        "skipped_over_cpu_count": skipped,
        "workers": {},
    }
    for w, (cold, warm) in sorted(timings.items()):
        speedup = t_serial / warm
        parallelism = min(w, cpus)
        # What each dispatched candidate pays beyond its share of the
        # serial work once the pool is warm — the honest number on
        # boxes where real parallel speedup is impossible.
        overhead = max(0.0, warm - t_serial / parallelism) / len(candidates)
        record["workers"][str(w)] = {
            "cold_wall_s": cold,
            "warm_wall_s": warm,
            "pool_spawn_overhead_s": max(0.0, cold - warm),
            "amortized_dispatch_overhead_s_per_candidate": overhead,
            "speedup_vs_serial": speedup,
        }
        rows.append([
            f"{w} workers", f"{warm:.2f}s (cold {cold:.2f}s)",
            f"{overhead * 1000:.1f}ms/cand", f"{speedup:.2f}x",
        ])
    print(format_table(
        ["config", "wall (warm pool)", "dispatch overhead", "speedup"], rows,
    ))
    if skipped:
        print(f"skipped worker counts beyond the {cpus} visible CPU(s): "
              f"{skipped}")
    emit_bench("dse_worker_scaling", record, BENCH_PATH)
    if cpus >= 2 and 2 in timings:
        speedup = t_serial / timings[2][1]
        assert speedup >= 1.0, (
            f"2-worker DSE with a warm persistent pool is slower than "
            f"serial ({speedup:.2f}x) despite {cpus} CPUs"
        )
