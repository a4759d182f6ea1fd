"""Command-line interface mirroring the paper artifact's workflow.

The artifact drives everything through ``dse.sh`` (find the best arch),
``compare.sh`` (pit it against the baselines) and ``Fig5_reproduce.py``
(collect the figure rows).  The equivalents here:

* ``python -m repro dse``      — explore a (scaled) Table-I grid,
  write ``result.csv`` and ``best_arch.json``;
* ``python -m repro map``      — map one model onto one architecture;
* ``python -m repro compare``  — G-Arch+G-Map vs S-Arch+T-Map vs
  S-Arch+G-Map over the evaluation DNNs, write ``fig5.csv``;
* ``python -m repro heatmap``  — Fig 9 ASCII traffic heatmaps;
* ``python -m repro space``    — Sec IV-B space-size table;
* ``python -m repro mc``       — Monetary-Cost breakdown of an arch.

Beyond the artifact, the workload frontend adds:

* ``python -m repro import``   — ingest an ONNX model / declarative
  spec, print the lowering report, optionally save the graph JSON;
* ``python -m repro sweep``    — run a scenario grid (model x batch x
  arch) with per-scenario artifacts and a sweep.csv; ``--resume``
  re-evaluates only scenarios missing from the result store.

Durable, resumable exploration lives under ``repro campaign``:

* ``python -m repro campaign run``    — evaluate a named candidate
  grid against a workload list, checkpointing every result into a
  persistent store; interrupt it and re-run with the same arguments to
  resume with zero re-evaluation;
* ``python -m repro campaign status`` — done/pending/failed counts and
  best-so-far per objective, straight from the store;
* ``python -m repro campaign export`` — Pareto front + full table as
  CSV/JSON.

Wherever a model is expected, a registry abbreviation, an ``.onnx``
file, a spec ``.json``/``.yaml`` or a saved graph JSON all work.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from repro.arch.params import ArchConfig
from repro.baselines import tangram_map
from repro.core import MappingEngine, MappingEngineSettings, SASettings
from repro.cost import DEFAULT_MC
from repro.dse import (
    DesignSpaceExplorer,
    DseGrid,
    Workload,
    enumerate_candidates,
    geomean,
)
from repro.frontend import (
    SCENARIO_REGISTRY,
    grid_scenarios,
    load_model,
    run_sweep,
)
from repro.frontend import resolve_arch as _resolve_arch
from repro.frontend.scenarios import SWEEP_COLUMNS, sweep_rows
from repro.io import (
    candidate_result_summary,
    mapping_result_summary,
    save_arch,
    save_graph,
    save_mapping,
)
from repro.perf import PERF
from repro.perf.counters import cache_table
from repro.reporting import format_table, write_csv
from repro.workloads.graph import DNNGraph
from repro.workloads.models import MODEL_REGISTRY


def resolve_arch(spec: str) -> ArchConfig:
    """A preset name or a path to a JSON file saved by ``dse``."""
    from repro.errors import ReproError

    try:
        return _resolve_arch(spec)
    except (ValueError, ReproError) as exc:
        raise SystemExit(str(exc)) from exc


def fabric_overridden(arch: ArchConfig, args) -> ArchConfig:
    """``arch`` with the ``--fabric`` / ``--routing`` flags applied."""
    from repro.errors import ReproError
    from repro.fabric import apply_fabric

    try:
        return apply_fabric(
            arch,
            fabric=getattr(args, "fabric", None),
            routing=getattr(args, "routing", None),
        )
    except ReproError as exc:
        raise SystemExit(str(exc)) from exc


def fabric_axis(args) -> list | None:
    """``--fabric``/``--routing`` of a grid command (``dse``, ``sweep``,
    ``campaign run``) as parsed fabric specs; ``None`` when neither flag
    is given (the default mesh only).

    ``--routing`` folds into every entry, and alone it applies to the
    default mesh, so neither flag is ever silently dropped.  Bad specs
    abort before any work starts.
    """
    from dataclasses import replace

    from repro.errors import ReproError
    from repro.fabric import parse_fabric

    if not args.fabric and not args.routing:
        return None
    try:
        specs = [parse_fabric(f) for f in args.fabric or ["mesh"]]
    except ReproError as exc:
        raise SystemExit(str(exc)) from exc
    if args.routing:
        specs = [replace(s, routing=args.routing) for s in specs]
    return specs


def add_fabric_flags(p, multiple: bool = False) -> None:
    from repro.fabric import ROUTING_POLICIES, fabric_kinds

    kinds = ", ".join(fabric_kinds())
    if multiple:
        p.add_argument("--fabric", nargs="+", default=None,
                       help=f"interconnect fabric axis ({kinds}); each "
                            "entry is kind[:routing][:cN][:wrap=dims] and "
                            "the grid is crossed with every entry")
    else:
        p.add_argument("--fabric", default=None,
                       help=f"interconnect fabric ({kinds}), as "
                            "kind[:routing][:cN][:wrap=dims]")
    p.add_argument("--routing", default=None, choices=ROUTING_POLICIES,
                   help="deterministic routing policy override")


def _int_at_least(text: str, low: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
    return value


def positive_int(text: str) -> int:
    """argparse type for counts that must be >= 1 (batch sizes,
    population sizes, tempering rungs, the ``--fail-after`` count)."""
    return _int_at_least(text, 1)


def _finite_seconds(text: str, zero_ok: bool) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}") from None
    # NaN fails both comparisons, so it is refused with infinity.
    if not ((value >= 0 if zero_ok else value > 0) and value < math.inf):
        raise argparse.ArgumentTypeError(
            f"must be finite and {'>=' if zero_ok else '>'} 0, got {text}")
    return value


def positive_seconds(text: str) -> float:
    """argparse type for periods that must be finite and > 0 (the
    watch refresh interval: 0 would re-scan the store in a busy loop,
    and ``time.sleep`` rejects negative and NaN values; a candidate
    deadline: a NaN one never expires, an infinite one overflows the
    dispatcher's wait)."""
    return _finite_seconds(text, zero_ok=False)


def non_negative_seconds(text: str) -> float:
    """argparse type for delays where 0 has a meaning (the retry
    backoff, 0 re-dispatching at once); infinite and NaN delays are
    refused, as ``time.sleep`` cannot take them."""
    return _finite_seconds(text, zero_ok=True)


def non_negative_int(text: str) -> int:
    """argparse type for counts where 0 has a meaning (SA iterations,
    0 being the T-Map baseline or a sweep's scenario default; worker
    counts, 0 being all CPUs; candidate caps, 0 being the whole grid)."""
    return _int_at_least(text, 0)


def add_population_flags(p) -> None:
    """``--population`` / ``--tempering`` on the search commands."""
    p.add_argument("--population", type=positive_int, default=1,
                   help="SA walkers annealed in lockstep batches (1 = the "
                        "paper's serial walk; >1 evaluates the whole "
                        "population per step through the batched compiled "
                        "core)")
    p.add_argument("--tempering", type=positive_int, default=1,
                   help="parallel-tempering rungs spread over the "
                        "population (requires --population > 1; rung 0 "
                        "anneals at the base schedule, higher rungs run "
                        "hotter with periodic replica exchange)")


def add_obs_flags(p) -> None:
    """``--trace`` / ``--metrics`` / ``--profile`` on the long-running
    commands; :func:`main` handles all three once, after the command."""
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="record phase spans and write a Chrome-trace JSON "
                        "(open in chrome://tracing or ui.perfetto.dev)")
    p.add_argument("--metrics", default=None, metavar="PATH",
                   help="write the final perf snapshot here (.prom/.txt = "
                        "Prometheus text exposition, anything else = JSON)")
    p.add_argument("--profile", action="store_true",
                   help="print the perf counters, timers and cache hit "
                        "rates at the end of the run")


def resolve_model(spec: str) -> DNNGraph:
    """A registry abbreviation or a model file (onnx / spec / graph)."""
    from repro.errors import ReproError

    try:
        graph, report = load_model(spec)
    except ReproError as exc:
        raise SystemExit(str(exc)) from exc
    if report is not None and not report.is_exact:
        print(report.describe())
    return graph


def engine_for(arch: ArchConfig, iterations: int, seed: int = 0,
               population: int = 1, tempering: int = 1) -> MappingEngine:
    return MappingEngine(
        arch,
        settings=MappingEngineSettings(
            sa=SASettings(iterations=iterations, seed=seed,
                          population=population, tempering=tempering)
        ),
    )


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------


def table1_candidates(tops: int, full: bool, fabrics: list | None = None) -> list:
    """The Table-I grid (``full``) or its fast laptop-scale subset —
    shared by ``dse`` and ``campaign run`` so the two commands can
    never drift apart (campaign keys digest the grid).  ``fabrics``
    (a list of :class:`~repro.fabric.FabricSpec`) crosses the grid
    with an interconnect axis; fabrics alternate innermost, so a
    truncated grid still covers each one."""
    if full:
        grid = DseGrid.paper_grid(tops)
    else:
        cuts = (1, 2, 3, 6) if tops == 72 else (1, 2, 4)
        grid = DseGrid(
            tops=tops, cuts=cuts, dram_bw_per_tops=(2.0,),
            noc_bw_gbps=(32, 64), d2d_ratio=(0.5,),
            glb_kb=(1024, 2048), macs_per_core=(1024, 2048),
        )
    if fabrics:
        from dataclasses import replace

        grid = replace(grid, fabrics=tuple(fabrics))
    return enumerate_candidates(grid)


def cmd_dse(args) -> int:
    candidates = table1_candidates(args.tops, args.full, fabric_axis(args))
    if args.max_candidates:
        candidates = candidates[: args.max_candidates]
    print(f"exploring {len(candidates)} candidates at {args.tops} TOPs "
          f"(SA x{args.iters}, {args.workers or 'all'} worker(s))")
    from repro.errors import ReproError

    with DesignSpaceExplorer(
        [Workload(resolve_model(m), args.batch) for m in args.models],
        sa_settings=SASettings(iterations=args.iters,
                               population=args.population,
                               tempering=args.tempering),
        record_mappings=False,  # no store attached; keep IPC lean
    ) as explorer:
        try:
            report = explorer.explore(
                candidates, workers=args.workers or None
            )
        except ReproError as exc:
            raise SystemExit(str(exc)) from exc
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    rows = [list(candidate_result_summary(r).values())
            for r in sorted(report.results, key=lambda r: r.score)]
    headers = list(candidate_result_summary(report.best).keys())
    write_csv(outdir / "result.csv", headers, rows)
    save_arch(report.best.arch, outdir / "best_arch.json")
    print(format_table(headers, rows[:10]))
    print(f"\nbest architecture: {report.best.arch.paper_tuple()}")
    print(f"wrote {outdir / 'result.csv'} and {outdir / 'best_arch.json'}")
    return 0


def cmd_map(args) -> int:
    arch = fabric_overridden(resolve_arch(args.arch), args)
    graph = resolve_model(args.model)
    result = engine_for(
        arch, args.iters,
        population=args.population, tempering=args.tempering,
    ).map(graph, args.batch)
    summary = mapping_result_summary(result)
    print(format_table(
        ["field", "value"], [[k, v] for k, v in summary.items()],
    ))
    if args.save_mapping:
        save_mapping(result.lmss, args.save_mapping)
        print(f"wrote {args.save_mapping}")
    return 0


def cmd_compare(args) -> int:
    """Fig 5 comparison; with ``--fabric`` also the Sec VI-B2 study.

    ``--baseline`` swaps the S-Arch reference (e.g. ``t-arch``, the
    Grayskull-like folded-torus accelerator), and ``--fabric`` applies
    an interconnect override to *both* architectures, so::

        repro compare --fabric folded-torus --baseline t-arch \\
            --arch g-arch-120

    reproduces the paper's T-Arch vs G-Arch-120 torus comparison.
    ``--quick`` shrinks the run to one model at batch 1 with a tiny SA
    budget (CI smoke).
    """
    g = fabric_overridden(resolve_arch(args.arch), args)
    s = fabric_overridden(resolve_arch(args.baseline), args)
    models = args.models
    batches: tuple[int, ...] = (64, 1)
    iters = args.iters
    if args.quick:
        models = models[:1]
        batches = (1,)
        iters = min(iters, 8)
    base_label = s.name or args.baseline
    headers = ["dnn", "batch", "base_tmap_delay", "base_tmap_energy",
               "base_gmap_delay", "base_gmap_energy",
               "garch_gmap_delay", "garch_gmap_energy"]
    rows = []
    perf, eff = [], []
    for seed, model in enumerate(models):
        graph = resolve_model(model)
        for batch in batches:
            base = tangram_map(graph, s, batch)
            sg = engine_for(s, iters, seed).map(graph, batch)
            gg = engine_for(g, iters, seed + 50).map(graph, batch)
            rows.append([
                model, batch, base.delay, base.energy,
                sg.delay, sg.energy, gg.delay, gg.energy,
            ])
            perf.append(base.delay / gg.delay)
            eff.append(base.energy / gg.energy)
    out = Path(args.out)
    write_csv(out, headers, rows)
    mc_ratio = DEFAULT_MC.evaluate(g).total / DEFAULT_MC.evaluate(s).total
    print(format_table(headers, rows))
    from repro.fabric import format_fabric

    print(
        f"\n{g.name or args.arch}+G-Map vs {base_label}+T-Map "
        f"(fabric {format_fabric(g.fabric)}): "
        f"{geomean(perf):.2f}x performance, "
        f"{geomean(eff):.2f}x energy efficiency, {mc_ratio - 1:+.1%} MC"
        + (" (paper: 1.98x, 1.41x, +14.3%)"
           if args.baseline == "s-arch" and not args.fabric else "")
    )
    print(f"wrote {out}")
    return 0


def cmd_import(args) -> int:
    from repro.errors import ReproError

    try:
        graph, report = load_model(args.source)
    except ReproError as exc:
        raise SystemExit(str(exc)) from exc
    graph.validate()
    kinds: dict[str, int] = {}
    for layer in graph.layers():
        kinds[layer.kind.value] = kinds.get(layer.kind.value, 0) + 1
    rows = [
        ["model", graph.name],
        ["layers", len(graph)],
        ["kinds", ", ".join(f"{k}:{n}" for k, n in sorted(kinds.items()))],
        ["macs/sample", f"{graph.total_macs(1):,}"],
        ["weight bytes", f"{graph.total_weight_bytes():,}"],
        ["ofmap bytes/sample", f"{graph.total_ofmap_bytes(1):,}"],
    ]
    print(format_table(["field", "value"], rows))
    if report is not None:
        print()
        print(report.describe())
    if args.out:
        save_graph(graph, args.out)
        print(f"\nwrote {args.out}")
    return 0


def cmd_sweep(args) -> int:
    from repro.errors import ReproError as _ReproError
    from repro.fabric import format_fabric

    specs = fabric_axis(args)
    fabrics = None if specs is None else [format_fabric(s) for s in specs]
    if args.scenarios:
        missing = [n for n in args.scenarios if n not in SCENARIO_REGISTRY]
        if missing:
            raise SystemExit(
                f"unknown scenario(s) {missing}; registered: "
                f"{sorted(SCENARIO_REGISTRY)}"
            )
        scenarios = [SCENARIO_REGISTRY[n] for n in args.scenarios]
        overrides = {}
        if args.iters:
            overrides["iters"] = args.iters
        if fabrics:
            # Registered scenarios keep their names, so only a single
            # fabric override is unambiguous here; use the grid flags
            # (--models/--batches/--archs) for a fabric dimension.
            if len(fabrics) > 1:
                raise SystemExit(
                    "--fabric accepts one value with --scenarios; use "
                    "--models/--batches/--archs for a fabric axis"
                )
            overrides["fabric"] = fabrics[0]
        if overrides:
            from repro.frontend.scenarios import scaled

            scenarios = [scaled(s, **overrides) for s in scenarios]
    else:
        try:
            scenarios = grid_scenarios(
                args.models, args.batches, args.archs,
                iters=args.iters or 100, fabrics=fabrics,
            )
        except _ReproError as exc:
            raise SystemExit(str(exc)) from exc
    # Pre-flight: fail with a clean message before any scenario runs
    # (a bad name or unloadable file surfacing from a worker process
    # mid-sweep wastes the scenarios already mapped).
    from repro.errors import ReproError

    from repro.frontend.loader import validate_model_source

    for arch in {sc.arch for sc in scenarios}:
        resolve_arch(arch)
    for fabric in {sc.fabric for sc in scenarios if sc.fabric}:
        try:
            from repro.fabric import parse_fabric

            parse_fabric(fabric)
        except ReproError as exc:
            raise SystemExit(f"fabric {fabric!r}: {exc}") from exc
    for model in {sc.model for sc in scenarios}:
        try:
            validate_model_source(model)
        except ReproError as exc:
            raise SystemExit(f"model {model!r}: {exc}") from exc
    print(f"sweeping {len(scenarios)} scenario(s) on "
          f"{args.workers or 'all'} worker(s)"
          + (" [resume]" if args.resume else ""))
    try:
        summaries = run_sweep(
            scenarios, out_dir=args.out, workers=args.workers or None,
            resume=args.resume,
        )
    except (ValueError, ReproError) as exc:
        raise SystemExit(str(exc)) from exc
    print(format_table(list(SWEEP_COLUMNS), sweep_rows(summaries)))
    if args.resume:
        print(f"\nevaluated {PERF.get('sweep.evaluated'):.0f}, served "
              f"{PERF.get('sweep.store_hits'):.0f} from {args.out}/store")
    print(f"\nwrote {Path(args.out) / 'sweep.csv'} and "
          f"{len(summaries)} scenario dir(s) under {args.out}/")
    return 0


def cmd_campaign_run(args) -> int:
    from repro.campaign import (
        CampaignInterrupted,
        CampaignRunner,
        CampaignSpec,
        RetryPolicy,
    )
    from repro.errors import ReproError

    candidates = table1_candidates(args.tops, args.full, fabric_axis(args))
    if args.max_candidates:
        candidates = candidates[: args.max_candidates]
    spec = CampaignSpec(
        name=args.name,
        candidates=candidates,
        workloads=[Workload(resolve_model(m), args.batch)
                   for m in args.models],
        sa=SASettings(iterations=args.iters, seed=args.seed,
                      diag=args.diag, population=args.population,
                      tempering=args.tempering),
        seed_stride=args.seed_stride,
        warm_start=not args.no_warm_start,
    )
    try:
        policy = RetryPolicy(
            max_attempts=args.retries,
            timeout_s=args.timeout,
            backoff_s=args.backoff,
            seed=args.seed,
        )
        chaos = None
        if args.chaos:
            from repro.testing.chaos import parse_chaos

            chaos = parse_chaos(args.chaos, seed=args.seed)
        with CampaignRunner(spec, args.out) as runner:
            pending = len(
                runner.pending(retry_quarantined=args.retry_quarantined)
            )
            total = len(candidates)
            print(f"campaign {args.name!r}: {total} candidate(s), "
                  f"{total - pending} stored, {pending} pending "
                  f"({args.workers or 'all'} worker(s))")
            report = runner.run(
                workers=args.workers or None, fail_after=args.fail_after,
                policy=policy, chaos=chaos,
                retry_quarantined=args.retry_quarantined,
            )
    except CampaignInterrupted as exc:
        print(f"interrupted: {exc}")
        print(f"re-run the same command to resume: "
              f"repro campaign run --name {args.name} --out {args.out} ...")
        return 130
    except ReproError as exc:
        raise SystemExit(str(exc)) from exc
    print(f"evaluated {report.evaluated}, served {report.store_hits} from "
          f"the store, {report.failed} failed"
          + (f", {report.quarantined} quarantined"
             if report.quarantined else ""))
    done = report.done
    if done:
        rows = [list(candidate_result_summary(r).values())
                for r in sorted(done, key=lambda r: r.score)[:10]]
        headers = list(candidate_result_summary(done[0]).keys())
        print(format_table(headers, rows))
        print(f"\nbest architecture: {report.best.arch.paper_tuple()}")
    return 0


def campaign_document(args) -> dict:
    """The store-only campaign view; exits on a missing or corrupt
    manifest."""
    from repro.campaign import CampaignError
    from repro.campaign.view import campaign_view

    try:
        return campaign_view(args.out, args.name)
    except CampaignError as exc:
        raise SystemExit(str(exc)) from exc


def cmd_campaign_status(args) -> int:
    from repro.campaign.view import render_status

    print(render_status(campaign_document(args)))
    return 0


def cmd_campaign_export(args) -> int:
    from repro.campaign import CampaignError, export_campaign

    try:
        paths = export_campaign(args.out, args.name, dest=args.dest)
    except CampaignError as exc:
        raise SystemExit(str(exc)) from exc
    for label, path in sorted(paths.items()):
        print(f"wrote {path}")
    return 0


def cmd_campaign_watch(args) -> int:
    """Render the campaign until interrupted (or once).  ``--json``
    prints each frame as one JSON line: the view without its
    per-candidate list, the one part that grows with the campaign."""
    from repro.campaign.view import render_watch
    from repro.dse.pool import _sleep

    try:
        while True:
            doc = campaign_document(args)
            if args.json:
                del doc["candidates"]
                frame = json.dumps(doc, sort_keys=True)
            else:
                frame = render_watch(doc)
                if not args.once and sys.stdout.isatty():
                    frame = "\x1b[2J\x1b[H" + frame
            print(frame, flush=True)
            if args.once:
                return 0
            _sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def cmd_campaign_report(args) -> int:
    from repro.campaign.view import render_report

    doc = campaign_document(args)
    print(json.dumps(doc, sort_keys=True) if args.json
          else render_report(doc))
    return 0


def cmd_store_fsck(args) -> int:
    """Integrity-check (and optionally repair) a result store."""
    from repro.campaign.fsck import fsck_store, render_fsck

    root = Path(args.store) if args.store else Path(args.out) / "store"
    if not root.is_dir():
        raise SystemExit(f"no result store at {root}")
    report = fsck_store(root, repair=args.repair)
    print(render_fsck(report))
    return 0 if report.clean else 1


def cmd_sa_report(args) -> int:
    """Map one model with diagnostics forced on; report the search."""
    from repro.obs.diag import render_sa_diag

    arch = fabric_overridden(resolve_arch(args.arch), args)
    graph = resolve_model(args.model)
    engine = MappingEngine(
        arch,
        settings=MappingEngineSettings(
            sa=SASettings(iterations=args.iters, seed=args.seed, diag=True),
            restarts=args.restarts,
        ),
    )
    result = engine.map(graph, args.batch)
    print(f"{args.model} @ batch {args.batch} on "
          f"{arch.name or args.arch} {arch.paper_tuple()}: "
          f"EDP {result.edp:.4g} "
          f"(delay {result.delay:.4g}s, energy {result.energy:.4g}J)")
    print()
    print(render_sa_diag(result.restart_diags))
    return 0


def cmd_profile_report(args) -> int:
    from repro.obs.report import (
        PROFILE_HEADERS,
        TraceFormatError,
        aggregate_trace,
        load_chrome_trace,
        profile_rows,
    )

    try:
        events = load_chrome_trace(args.trace_file)
    except TraceFormatError as exc:
        raise SystemExit(str(exc)) from exc
    agg = aggregate_trace(events)
    if not agg:
        print(f"no complete spans in {args.trace_file}")
        return 0
    print(format_table(PROFILE_HEADERS, profile_rows(agg, sort=args.sort)))
    return 0


def cmd_heatmap(args) -> int:
    from repro.core import SAController
    from repro.core.graphpart import partition_graph
    from repro.core.initial import initial_lms
    from repro.evalmodel import Evaluator
    from repro.reporting import heat_summary, render_ascii

    arch = fabric_overridden(resolve_arch(args.arch), args)
    graph = resolve_model(args.model)
    evaluator = Evaluator(arch)
    groups = partition_graph(graph, arch, batch=args.batch)
    group = max(groups, key=len)
    tangram = initial_lms(graph, group, arch)
    gemini = SAController(
        graph, evaluator, [tangram], args.batch,
        SASettings(iterations=args.iters),
    ).run()[0]
    lines = []
    for label, lms in (("Tangram", tangram), ("Gemini", gemini)):
        traffic = evaluator.analyze_group(graph, lms)[2].traffic
        lines.append(f"\n{label} SPM ({json.dumps(heat_summary(traffic))}):")
        lines.append(render_ascii(traffic))
    print("\n".join(lines))
    if args.out:
        from repro.io import atomic_write_text

        atomic_write_text(args.out, "\n".join(lines) + "\n")
        print(f"\nwrote {args.out}")
    return 0


def cmd_space(args) -> int:
    from repro.core import gemini_space_size, log10_size, tangram_space_size

    rows = []
    for n in args.layers:
        g = gemini_space_size(args.cores, n)
        t = tangram_space_size(args.cores, n)
        rows.append([args.cores, n, log10_size(g), log10_size(t)])
    print(format_table(
        ["cores M", "layers N", "log10 Gemini", "log10 Tangram"],
        rows, floatfmt=".1f",
    ))
    return 0


def cmd_mc(args) -> int:
    arch = resolve_arch(args.arch)
    report = DEFAULT_MC.evaluate(arch)
    print(f"{arch}")
    print(report.describe())
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dse", help="explore a Table-I grid")
    p.add_argument("--tops", type=int, default=72, choices=(72, 128, 512))
    p.add_argument("--models", nargs="+", default=["TF"],
                   help=f"registry names ({', '.join(sorted(MODEL_REGISTRY))}) "
                        "or model files (.onnx / spec .json/.yaml)")
    p.add_argument("--batch", type=positive_int, default=64)
    p.add_argument("--iters", type=non_negative_int, default=80)
    p.add_argument("--full", action="store_true",
                   help="use the full Table-I grid (slow)")
    p.add_argument("--out", default="dse_log")
    p.add_argument("--workers", type=non_negative_int, default=1,
                   help="parallel candidate evaluators (0 = all CPUs); "
                        "results are identical for any worker count")
    p.add_argument("--max-candidates", type=non_negative_int, default=0,
                   help="truncate the grid to its first N candidates, "
                        "0 = the whole grid (smoke tests; fabrics "
                        "alternate, so every --fabric entry stays "
                        "represented)")
    add_population_flags(p)
    add_fabric_flags(p, multiple=True)
    add_obs_flags(p)
    p.set_defaults(func=cmd_dse)

    p = sub.add_parser("map", help="map one model onto one architecture")
    p.add_argument("--model", default="TF",
                   help=f"registry name ({', '.join(sorted(MODEL_REGISTRY))}) "
                        "or a model file (.onnx / spec / graph JSON)")
    p.add_argument("--arch", default="g-arch")
    p.add_argument("--batch", type=positive_int, default=64)
    p.add_argument("--iters", type=non_negative_int, default=200)
    add_population_flags(p)
    add_fabric_flags(p)
    p.add_argument("--save-mapping")
    add_obs_flags(p)
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("compare", help="reproduce the Fig 5 comparison "
                                       "(or, with --fabric, Sec VI-B2)")
    p.add_argument("--arch", default="g-arch",
                   help="the G-Arch (preset or best_arch.json)")
    p.add_argument("--baseline", default="s-arch",
                   help="baseline architecture (preset or JSON; t-arch "
                        "for the Sec VI-B2 torus comparison)")
    p.add_argument("--models", nargs="+",
                   default=["RN-50", "RNX", "IRes", "PNas", "TF"],
                   help="registry names or model files")
    p.add_argument("--iters", type=non_negative_int, default=150)
    add_fabric_flags(p)
    p.add_argument("--quick", action="store_true",
                   help="one model at batch 1 with a tiny SA budget "
                        "(smoke runs)")
    p.add_argument("--out", default="fig5.csv")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("import", help="ingest a model through the frontend")
    p.add_argument("source",
                   help="an .onnx file, a spec .json/.yaml, a saved graph "
                        "JSON, or a registry name")
    p.add_argument("--out", help="write the validated graph JSON here")
    p.set_defaults(func=cmd_import)

    p = sub.add_parser("sweep", help="run a (model x batch x arch) grid")
    p.add_argument("--scenarios", nargs="+",
                   help=f"registered scenarios ({', '.join(sorted(SCENARIO_REGISTRY))}); "
                        "omit to use --models/--batches/--archs")
    p.add_argument("--models", nargs="+",
                   default=["BERT", "MBV2", "UNet", "GPT-Dec"])
    p.add_argument("--batches", type=positive_int, nargs="+", default=[1, 64])
    p.add_argument("--archs", nargs="+", default=["g-arch"])
    p.add_argument("--iters", type=non_negative_int, default=0,
                   help="SA iterations for the whole mapping "
                        "(SASettings.iterations; 0 = scenario default)")
    add_fabric_flags(p, multiple=True)
    p.add_argument("--out", default="sweep_out")
    p.add_argument("--workers", type=non_negative_int, default=1,
                   help="parallel scenario runners (0 = all CPUs)")
    p.add_argument("--resume", action="store_true",
                   help="checkpoint into <out>/store and skip scenarios "
                        "already evaluated there")
    add_obs_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "campaign",
        help="durable, resumable evaluation campaigns",
    )
    csub = p.add_subparsers(dest="campaign_command", required=True)

    c = csub.add_parser("run", help="run (or resume) a campaign")
    c.add_argument("--name", required=True, help="campaign name")
    c.add_argument("--out", default="campaigns",
                   help="campaigns home directory (shared result store)")
    c.add_argument("--tops", type=int, default=72, choices=(72, 128, 512))
    c.add_argument("--full", action="store_true",
                   help="use the full Table-I grid (slow)")
    c.add_argument("--max-candidates", type=non_negative_int, default=0,
                   help="truncate the grid to its first N candidates, "
                        "0 = the whole grid (smoke tests)")
    c.add_argument("--models", nargs="+", default=["TF"],
                   help="registry names or model files")
    c.add_argument("--batch", type=positive_int, default=64)
    c.add_argument("--iters", type=non_negative_int, default=80)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--seed-stride", type=int, default=0)
    add_population_flags(c)
    add_fabric_flags(c, multiple=True)
    c.add_argument("--workers", type=non_negative_int, default=1,
                   help="parallel candidate evaluators (0 = all CPUs)")
    c.add_argument("--no-warm-start", action="store_true",
                   help="disable SA warm starts from stored mappings")
    c.add_argument("--timeout", type=positive_seconds, default=None,
                   help="per-candidate evaluation deadline in seconds; "
                        "a hung worker is killed and the attempt retried "
                        "(forces the supervised pool path)")
    c.add_argument("--retries", type=int, default=1,
                   help="evaluation attempts per candidate before it is "
                        "finalized (crash/timeout exhaustion quarantines "
                        "it as poison; default 1)")
    c.add_argument("--backoff", type=non_negative_seconds, default=0.0,
                   help="base re-dispatch delay in seconds (exponential, "
                        "deterministically jittered; default 0)")
    c.add_argument("--retry-quarantined", action="store_true",
                   help="re-try candidates quarantined as poison by "
                        "earlier runs")
    c.add_argument("--chaos", default=None, metavar="PLAN",
                   help="inject a deterministic fault plan, e.g. "
                        "'crash:1,hang:0:1:45,enospc:2' "
                        "(kind:target[:count[:seconds]]; kinds: crash, "
                        "hang, slow per candidate index; enospc, torn "
                        "per store put)")
    c.add_argument("--fail-after", type=positive_int, default=None,
                   help="fault injection: interrupt after N fresh "
                        "evaluations (CI smoke / crash drills)")
    c.add_argument("--diag", action="store_true",
                   help="record search diagnostics (convergence curves, "
                        "operator effectiveness) into the store and "
                        "ledger; view with 'repro campaign report'")
    add_obs_flags(c)
    c.set_defaults(func=cmd_campaign_run)

    c = csub.add_parser("status", help="campaign progress + best-so-far")
    c.add_argument("--name", required=True)
    c.add_argument("--out", default="campaigns")
    c.set_defaults(func=cmd_campaign_status)

    c = csub.add_parser("export", help="Pareto front + full table")
    c.add_argument("--name", required=True)
    c.add_argument("--out", default="campaigns")
    c.add_argument("--dest", default=None,
                   help="destination directory (default <out>/<name>/export)")
    c.set_defaults(func=cmd_campaign_export)

    c = csub.add_parser(
        "watch",
        help="live progress / shard-health monitor (store-only: no "
             "models are loaded, works on running or crashed campaigns)",
    )
    c.add_argument("--name", required=True)
    c.add_argument("--out", default="campaigns")
    c.add_argument("--once", action="store_true",
                   help="render one frame and exit (scripts / CI)")
    c.add_argument("--interval", type=positive_seconds, default=2.0,
                   help="refresh period in seconds")
    c.add_argument("--json", action="store_true",
                   help="emit each frame as one JSON line (dashboards, "
                        "scripts) instead of the text report")
    c.set_defaults(func=cmd_campaign_watch)

    c = csub.add_parser(
        "report",
        help="search-quality report (convergence curves, operator "
             "effectiveness, warm-vs-cold); store-only, best with "
             "campaigns run under --diag",
    )
    c.add_argument("--name", required=True)
    c.add_argument("--out", default="campaigns")
    c.add_argument("--json", action="store_true",
                   help="emit the raw report data as JSON")
    c.set_defaults(func=cmd_campaign_report)

    p = sub.add_parser(
        "store",
        help="result-store maintenance",
    )
    ssub = p.add_subparsers(dest="store_command", required=True)
    c = ssub.add_parser(
        "fsck",
        help="scan JSONL segments for torn/corrupt records, report what "
             "resume would lose; --repair quarantines bad lines and "
             "rebuilds the index",
    )
    c.add_argument("--out", default="campaigns",
                   help="campaigns home directory (store at <out>/store)")
    c.add_argument("--store", default=None,
                   help="explicit store directory (overrides --out)")
    c.add_argument("--repair", action="store_true",
                   help="quarantine bad lines to a sidecar and rebuild "
                        "index.json atomically")
    c.set_defaults(func=cmd_store_fsck)

    p = sub.add_parser("heatmap", help="Fig 9 traffic heatmaps")
    p.add_argument("--model", default="TF",
                   help="registry name or model file")
    p.add_argument("--arch", default="g-arch")
    p.add_argument("--batch", type=positive_int, default=64)
    p.add_argument("--iters", type=non_negative_int, default=400)
    add_fabric_flags(p)
    p.add_argument("--out", default=None,
                   help="also write the rendered heatmaps to this file")
    p.set_defaults(func=cmd_heatmap)

    p = sub.add_parser("space", help="Sec IV-B space sizes")
    p.add_argument("--cores", type=int, default=36)
    p.add_argument("--layers", type=int, nargs="+", default=[2, 4, 8])
    p.set_defaults(func=cmd_space)

    p = sub.add_parser("mc", help="monetary-cost breakdown")
    p.add_argument("--arch", default="g-arch")
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser(
        "profile-report",
        help="aggregate a --trace file into a self-time-per-span table",
    )
    p.add_argument("trace_file", help="Chrome-trace JSON written by --trace")
    p.add_argument("--sort", default="self",
                   choices=("calls", "cpu", "self", "total"),
                   help="table order (heaviest first)")
    p.set_defaults(func=cmd_profile_report)

    p = sub.add_parser(
        "sa-report",
        help="map one model with search diagnostics forced on and "
             "report per-restart convergence + operator effectiveness",
    )
    p.add_argument("--model", default="TF",
                   help="registry name or model file")
    p.add_argument("--arch", default="g-arch")
    p.add_argument("--batch", type=positive_int, default=64)
    p.add_argument("--iters", type=non_negative_int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=1,
                   help="independent SA restarts (best run wins)")
    add_fabric_flags(p)
    add_obs_flags(p)
    p.set_defaults(func=cmd_sa_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Tracing turns on before dispatch so pool workers fork with it
    # enabled; the profile and the trace/metrics files come out even
    # when the command exits early (e.g. an interrupted campaign).
    tracing = bool(getattr(args, "trace", None))
    if tracing:
        from repro.obs.trace import TRACER

        TRACER.enable()
    try:
        rc = args.func(args)
    finally:
        if tracing:
            from repro.obs.trace import TRACER

            TRACER.write_chrome_trace(args.trace)
            print(f"wrote trace to {args.trace}")
        if getattr(args, "profile", False):
            print()
            print(format_table(["kind", "name", "value"], PERF.rows()))
            print()
            print(cache_table(PERF.cache_stats()))
        if getattr(args, "metrics", None):
            from repro.obs.metrics import write_metrics

            write_metrics(args.metrics, PERF.snapshot())
            print(f"wrote metrics to {args.metrics}")
    return rc


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
