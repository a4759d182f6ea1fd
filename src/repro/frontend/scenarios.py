"""Scenario registry and sweep runner.

A *scenario* is one cell of the evaluation grid the ROADMAP asks for:
``(model, batch, architecture)`` plus a mapping-search budget.  The
registry ships a default matrix over the spec-defined zoo models (the
workloads the five paper DNNs don't cover), and :func:`run_sweep`
executes any scenario list — in-process or over the supervised
dispatcher's process pool — writing per-scenario artifacts
(``summary.json`` + ``mapping.json``) and one top-level ``sweep.csv``.

Most scenarios of a sweep repeat an earlier one's model, batch and
core on another fabric or arch, so each :func:`run_sweep` call owns one
:class:`~repro.core.store.CoreStore` and every scenario it maps reuses
what earlier ones built: each model source is loaded and compiled once,
and intra-core schedules, partition records (at most
:data:`SWEEP_PART_RECORDS`) and initial mappings are shared wherever
they do not depend on the fabric.  The store rides the pool's
initializer, so every worker keeps its own copy for the whole call
(fork workers start from the parent's, spawn workers from an empty
one); the route tables of each fabric structure are shared per process
anyway (:meth:`repro.fabric.base.BaseTopology.shared_routes`).

Scenarios are plain frozen dataclasses, so they pickle cleanly into
worker processes and compose into larger campaigns.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from repro.arch import g_arch, g_arch_120, s_arch, t_arch
from repro.arch.params import ArchConfig
from repro.core import MappingEngine, MappingEngineSettings, SASettings
from repro.core.store import CoreStore
from repro.io.atomic import atomic_write_json
from repro.io.serialization import (
    load_arch,
    mapping_result_summary,
    save_mapping,
)

#: Partition records a sweep's core store keeps, over all its cores and
#: models.  Half the explorer's cap: on the benchmark's fabric sweep a
#: worker's 20 scenarios miss as often as with an unbounded store, and
#: the explorer's 1,024 would add about 2.5 MiB per worker.
SWEEP_PART_RECORDS = 512

#: Named architecture presets accepted wherever an arch is referenced.
ARCH_PRESETS = {
    "s-arch": s_arch,
    "g-arch": g_arch,
    "t-arch": t_arch,
    "g-arch-120": g_arch_120,
}


def resolve_arch(spec: str) -> ArchConfig:
    """A preset name or a path to a JSON file saved by ``dse``."""
    if spec.lower() in ARCH_PRESETS:
        return ARCH_PRESETS[spec.lower()]()
    path = Path(spec)
    if path.exists():
        return load_arch(path)
    raise ValueError(
        f"unknown architecture {spec!r}: expected one of "
        f"{sorted(ARCH_PRESETS)} or a JSON file path"
    )


@dataclass(frozen=True)
class Scenario:
    """One (model, batch, arch, fabric) evaluation cell."""

    name: str
    model: str           # registry abbreviation or model file path
    batch: int
    arch: str = "g-arch"  # preset name or best_arch.json path
    iters: int = 100      # SA iterations for the whole mapping
    seed: int = 0
    #: Interconnect override as a ``kind[:routing][:knobs]`` spec
    #: string (see :func:`repro.fabric.parse_fabric`); empty keeps
    #: whatever fabric the resolved architecture already carries.
    fabric: str = ""

    def slug(self) -> str:
        """Filesystem-safe scenario directory name."""
        return self.name.replace("/", "_").replace(" ", "_")


def scenario_arch(scenario: Scenario) -> ArchConfig:
    """The scenario's architecture with its fabric override applied."""
    from repro.fabric import apply_fabric

    arch = resolve_arch(scenario.arch)
    if scenario.fabric:
        arch = apply_fabric(arch, scenario.fabric)
    return arch


#: name -> Scenario.  Mutated only through register_scenario.
SCENARIO_REGISTRY: dict[str, Scenario] = {}


def register_scenario(scenario: Scenario, replace_existing: bool = False) -> Scenario:
    if not replace_existing and scenario.name in SCENARIO_REGISTRY:
        raise ValueError(f"scenario {scenario.name!r} already registered")
    SCENARIO_REGISTRY[scenario.name] = scenario
    return scenario


def _register_defaults() -> None:
    # The frontier the frontend opens: attention at sequence length
    # (BERT), depthwise mobile CNNs, encoder-decoder segmentation, and
    # KV-cache decode — each at single-sample and server batch sizes.
    for model, batches in (
        ("BERT", (1, 64)),
        ("MBV2", (1, 64)),
        ("UNet", (1, 16)),
        ("GPT-Dec", (1, 64)),
    ):
        for batch in batches:
            register_scenario(Scenario(
                name=f"{model.lower()}-b{batch}",
                model=model,
                batch=batch,
            ))


_register_defaults()


def grid_scenarios(
    models: list[str],
    batches: list[int],
    archs: list[str],
    iters: int = 100,
    fabrics: list[str] | None = None,
) -> list[Scenario]:
    """The (model x batch x arch x fabric) cross product as scenarios.

    ``fabrics`` holds fabric spec strings (``""`` keeps the resolved
    architecture's own fabric); non-empty specs are validated eagerly
    and suffix the scenario name so per-fabric artifact directories
    never collide.
    """
    from repro.fabric import parse_fabric

    fabrics = list(fabrics) if fabrics else [""]
    for fabric in fabrics:
        if fabric:
            parse_fabric(fabric)  # fail fast on a bad spec string
    out = []
    seen: dict[str, int] = {}
    for model in models:
        for batch in batches:
            for arch in archs:
                for fabric in fabrics:
                    name = f"{Path(model).stem}-b{batch}-{Path(arch).stem}"
                    if fabric:
                        name += f"-{fabric.replace(':', '_')}"
                    # Distinct cells can share a stem-derived name (a
                    # preset and a file both called "g-arch"); suffix
                    # them.
                    if name in seen:
                        seen[name] += 1
                        name = f"{name}-{seen[name]}"
                    else:
                        seen[name] = 0
                    out.append(Scenario(
                        name=name, model=model, batch=batch, arch=arch,
                        iters=iters, fabric=fabric,
                    ))
    return out


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------


def _run_scenario_full(
    scenario: Scenario, out_dir: str | Path | None = None,
    store: CoreStore | None = None,
) -> tuple[dict, list]:
    """Map one scenario; returns (summary, serialized winning mapping).

    ``store`` is the sweep's core store (``None``: a fresh one, as
    for a sweep of this one scenario).
    """
    from repro.io.serialization import lms_to_dict
    from repro.obs.trace import trace

    if store is None:
        store = CoreStore(SWEEP_PART_RECORDS)
    with trace("scenario", scenario=scenario.name, model=scenario.model,
               batch=scenario.batch):
        arch = scenario_arch(scenario)
        graph, report = store.load_model(scenario.model)
        engine = MappingEngine(
            arch,
            settings=MappingEngineSettings(
                sa=SASettings(iterations=scenario.iters, seed=scenario.seed)
            ),
            store=store,
        )
        result = engine.map(graph, scenario.batch)
    summary = {**asdict(scenario), "model_name": graph.name,
               "layers": len(graph), "arch_name": arch.name}
    for key, value in mapping_result_summary(result).items():
        if key == "arch":
            key = "arch_tuple"  # keep the scenario's preset name intact
        summary[key] = list(value) if isinstance(value, tuple) else value
    summary["energy_fractions"] = result.evaluation.energy.fractions()
    if report is not None and len(report):
        summary["frontend"] = report.summary()
    if out_dir is not None:
        sc_dir = Path(out_dir) / scenario.slug()
        sc_dir.mkdir(parents=True, exist_ok=True)
        atomic_write_json(sc_dir / "summary.json", summary)
        save_mapping(result.lmss, sc_dir / "mapping.json")
    return summary, [lms_to_dict(l) for l in result.lmss]


def run_scenario(scenario: Scenario, out_dir: str | Path | None = None) -> dict:
    """Map one scenario; optionally write its artifact directory."""
    return _run_scenario_full(scenario, out_dir)[0]


def _sweep_task(store: CoreStore | None, _index: int, scenario: Scenario,
                out_dir: str | None) -> tuple[dict, list]:
    """Dispatcher task body of one scenario, run against the sweep's
    core store (see :func:`repro.dse.pool.run_tasks`).
    ``_run_scenario_full`` is looked up at call time, so a wrapped or
    patched module attribute is what runs, in a worker as in-process."""
    return _run_scenario_full(scenario, out_dir, store)


#: Column order of sweep.csv (stable for downstream tooling).
SWEEP_COLUMNS = (
    "name", "model", "batch", "arch", "fabric", "iters", "layers",
    "delay_s", "energy_j", "edp", "n_groups", "frontend",
)


def sweep_rows(summaries: list[dict]) -> list[list]:
    """Summaries as SWEEP_COLUMNS-ordered rows (CSV and table share it)."""
    return [[s.get(col, "") for col in SWEEP_COLUMNS] for s in summaries]


def _materialize_hit(
    scenario: Scenario,
    summary: dict,
    lmss: list | None,
    out_dir: str | Path | None,
) -> None:
    """(Re)write the artifact directory of a store-served scenario.

    A renamed scenario is served from the store under its new name, so
    its artifact directory must be created here — the evaluation path
    that normally writes it never runs.  Idempotent and atomic.
    """
    if out_dir is None:
        return
    from repro.io.serialization import lms_from_dict

    sc_dir = Path(out_dir) / scenario.slug()
    sc_dir.mkdir(parents=True, exist_ok=True)
    atomic_write_json(sc_dir / "summary.json", summary)
    if lmss is not None:
        save_mapping([lms_from_dict(d) for d in lmss],
                     sc_dir / "mapping.json")


def _scenario_keys(scenarios: list[Scenario],
                   store: CoreStore | None = None) -> dict[str, str]:
    """Content key per scenario name (arch + workload + search budget),
    loading each model through ``store`` (default: a fresh one).

    The scenario *name* is cosmetic and deliberately not part of the
    key: renaming a scenario must not force a re-evaluation.
    """
    from repro.campaign.keys import scenario_key

    if store is None:
        store = CoreStore(SWEEP_PART_RECORDS)
    keys = {}
    for sc in scenarios:
        arch = scenario_arch(sc)
        graph, _ = store.load_model(sc.model)
        keys[sc.name] = scenario_key(
            arch, graph, sc.batch, sc.iters, sc.seed
        )
    return keys


def run_sweep(
    scenarios: list[Scenario],
    out_dir: str | Path | None = None,
    workers: int | None = 1,
    resume: bool = False,
) -> list[dict]:
    """Run every scenario; ``workers`` > 1 fans out over processes.

    Returns the summaries in the order scenarios were given (results
    are deterministic per scenario, so worker count never changes
    them).  With ``out_dir`` set, also writes ``sweep.csv`` plus one
    artifact directory per scenario.

    With ``resume=True`` (requires ``out_dir``), summaries are also
    checkpointed into a campaign result store under
    ``out_dir/store/``; re-running the sweep — e.g. after appending one
    scenario or after an interruption — evaluates only the scenarios
    whose content key is not stored yet (``sweep.store_hits`` vs
    ``sweep.evaluated`` in :data:`~repro.perf.PERF`).

    Scenarios run through the supervised dispatcher
    (:func:`repro.dse.pool.run_tasks`, on a pool built for this call
    whose workers share this call's core store, see the module doc)
    under the default ``RetryPolicy``: a crashed worker is contained,
    every other scenario still completes and is checkpointed, and then
    the first failure in scenario order is raised as a ``ReproError``
    naming the scenario (``WorkerCrashed`` for a crash).
    """
    from repro.dse.pool import run_tasks
    from repro.perf import PERF

    if not scenarios:
        raise ValueError("no scenarios to sweep")
    names = [s.name for s in scenarios]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate scenario names in sweep: {names}")
    slugs = [s.slug() for s in scenarios]
    if len(set(slugs)) != len(slugs):
        # Distinct names can collapse to one artifact directory
        # ("a b" and "a_b"); refusing beats silently clobbering.
        raise ValueError(
            f"scenario names collide after slugging: {sorted(slugs)}"
        )
    if resume and out_dir is None:
        raise ValueError("resume=True needs an out_dir to hold the store")
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    if workers is None:
        workers = os.cpu_count() or 1
    out_str = None if out_dir is None else str(out_dir)

    core_store = CoreStore(SWEEP_PART_RECORDS)
    store = keys = None
    slots: dict[str, dict] = {}
    pending = list(enumerate(scenarios))
    if resume:
        from repro.campaign.store import KIND_SCENARIO, ResultStore

        store = ResultStore(Path(out_dir) / "store")
        keys = _scenario_keys(scenarios, core_store)
        pending = []
        for i, sc in enumerate(scenarios):
            rec = store.get(KIND_SCENARIO, keys[sc.name])
            if rec is not None:
                summary = dict(rec["summary"])
                # The stored summary keeps its content; the display
                # name follows the *current* scenario list.
                summary["name"] = sc.name
                slots[sc.name] = summary
                _materialize_hit(sc, summary, rec.get("lmss"), out_dir)
                PERF.add("sweep.store_hits")
            else:
                pending.append((i, sc))

    def checkpoint(i, outcome, attempt, pid) -> None:
        # Each result is checkpointed as soon as it is collected, so an
        # interrupted resumable sweep keeps everything already evaluated.
        sc = scenarios[i]
        summary, lmss = outcome
        slots[sc.name] = summary
        PERF.add("sweep.evaluated")
        if store is not None:
            store.put(KIND_SCENARIO, keys[sc.name],
                      {"summary": summary, "lmss": lmss})

    try:
        run_tasks(
            [(i, _sweep_task, (sc, out_str)) for i, sc in pending],
            workers, checkpoint, context=core_store,
            label=lambda i: f"scenario {scenarios[i].name!r}",
        )
    finally:
        if store is not None:
            store.close()

    summaries = [slots[s.name] for s in scenarios]
    if out_dir is not None:
        from repro.reporting import write_csv

        write_csv(
            Path(out_dir) / "sweep.csv", list(SWEEP_COLUMNS),
            sweep_rows(summaries),
        )
    return summaries


def scaled(scenario: Scenario, **overrides) -> Scenario:
    """A copy of a registered scenario with fields overridden."""
    return replace(scenario, **overrides)
