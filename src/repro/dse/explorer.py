"""The DSE driver (Sec V-A, Fig 4 left).

All architecture candidates are exhaustively explored: for each, the
Mapping Engine optimizes every input DNN (``E_i``, ``D_i``), the overall
energy and delay are the geometric means across DNNs, the MC Evaluator
prices the architecture, and the objective ``MC^a x E^b x D^g`` ranks
the candidate.

Candidates are independent, so :meth:`DesignSpaceExplorer.explore` can
fan them out over a process pool (``workers=N``) — the paper's artifact
runs its DSE "on 80-100 threads" (Sec VI-A2).  Every candidate's SA is
seeded deterministically from the candidate's position in the list, so
``workers=4`` returns bit-identical reports to ``workers=1``.

Table-I candidates share few core micro-architectures, and the
intra-core schedules and partition records a cold candidate builds
depend on its core alone, its initial mapping on its core grid, peak
MAC rate and DRAM bandwidth alone.  An explorer therefore owns one
:class:`~repro.core.store.CoreStore` for its whole life, and every
candidate it maps — in-process or in a pool worker — reuses what
earlier candidates with the same core built.  The store pickles
without its contents: fork workers inherit the parent's copy-on-write,
spawn workers start empty.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

from repro.arch.params import ArchConfig
from repro.core.engine import MappingEngine, MappingEngineSettings
from repro.core.sa import SASettings
from repro.core.store import CoreStore
from repro.cost.mc import DEFAULT_MC, MCEvaluator, MCReport
from repro.dse.objective import OBJECTIVE_MCED, Objective
from repro.perf import PERF
from repro.workloads.graph import DNNGraph

#: Partition records an explorer keeps across candidates, over all its
#: cores and workloads.  On the 72-TOPs Table-I slice this keeps every
#: cross-candidate hit of a 12-candidate worker sequence; 512 keep
#: about half of the saving.
PART_RECORDS = 1024


@dataclass(frozen=True)
class Workload:
    """One DSE input DNN with its batch size."""

    graph: DNNGraph
    batch: int

    @property
    def name(self) -> str:
        return f"{self.graph.name}@b{self.batch}"


@dataclass
class CandidateResult:
    """Evaluation record of one architecture candidate."""

    arch: ArchConfig
    mc: MCReport
    energy: float       # geomean joules per inference pass
    delay: float        # geomean seconds per inference pass
    score: float
    per_workload: dict[str, tuple[float, float]] = field(default_factory=dict)
    wall_time_s: float = 0.0
    #: Winning mapping per workload name, as JSON-ready LMS dicts —
    #: what the campaign store persists and warm starts reuse.
    mappings: dict[str, list] = field(default_factory=dict)
    #: 1-based SA iteration of the last improvement, per workload.
    iters_to_best: dict[str, int] = field(default_factory=dict)
    #: True when at least one workload annealed from a warm start.
    warm_started: bool = False
    #: Wall seconds of each independent SA restart, per workload — the
    #: ledger reports their mean/variance as the candidate's
    #: seed-robustness signal.  Empty when SA is disabled.
    restart_times: dict[str, list[float]] = field(default_factory=dict)
    #: Per-operator draw counts of the winning SA run, per workload
    #: (``SAStats.operator_uses``); recorded whenever SA ran.
    operator_uses: dict[str, dict[str, int]] = field(default_factory=dict)
    #: Search diagnostics per workload: ``{"warm": bool, "restarts":
    #: [per-restart diag dicts]}``.  Empty unless ``SASettings.diag``.
    sa_diag: dict[str, dict] = field(default_factory=dict)
    #: 1-based evaluation attempt that produced this result (> 1 when
    #: the supervised runner retried after a crash/timeout/error).
    #: Provenance only — excluded from content keys and export rows, so
    #: retried and clean evaluations stay interchangeable.
    attempts: int = 1

    @property
    def edp(self) -> float:
        return self.energy * self.delay


@dataclass
class DseReport:
    """Outcome of one design-space exploration."""

    best: CandidateResult
    results: list[CandidateResult]
    objective: Objective
    wall_time_s: float

    def top(self, n: int = 10) -> list[CandidateResult]:
        return sorted(self.results, key=lambda r: r.score)[:n]

    def by_chiplet_count(self) -> dict[int, list[CandidateResult]]:
        out: dict[int, list[CandidateResult]] = {}
        for r in self.results:
            out.setdefault(r.arch.n_chiplets, []).append(r)
        return out


def geomean(values: list[float]) -> float:
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


#: Fault-injection seam (chaos harness): when armed, called as
#: ``hook(index, attempt)`` at the start of every worker task (see
#: :func:`repro.dse.pool.run_tasks`).  ``None`` in production — the
#: cost of the dormant seam is one identity check per *task*, never per
#: SA iteration.
_EVAL_HOOK = None


def evaluate_task(explorer: "DesignSpaceExplorer", index: int,
                  arch: ArchConfig, warm: dict[str, list] | None = None
                  ) -> CandidateResult:
    """Dispatcher task body of candidate ``index``: task
    ``(index, evaluate_task, (arch, warm))`` runs this in a worker (on
    the pool's explorer) or in-process."""
    return explorer.evaluate_candidate(arch, index=index, warm=warm)


class DesignSpaceExplorer:
    """Exhaustive co-exploration of architecture and mapping.

    ``seed_stride`` decorrelates the SA seeds of successive candidates
    (candidate *i* anneals with ``seed + i * seed_stride``); the default
    of 0 gives every candidate the same schedule, matching the original
    serial driver.  Either way the seed depends only on the candidate's
    index, never on scheduling, so parallel and serial exploration are
    bit-identical.
    """

    def __init__(
        self,
        workloads: list[Workload],
        objective: Objective = OBJECTIVE_MCED,
        mc_evaluator: MCEvaluator = DEFAULT_MC,
        sa_settings: SASettings | None = None,
        max_group_layers: int = 10,
        seed_stride: int = 0,
        record_mappings: bool = True,
    ):
        if not workloads:
            raise ValueError("DSE needs at least one workload")
        self.workloads = workloads
        self.objective = objective
        self.mc_evaluator = mc_evaluator
        self.sa_settings = sa_settings or SASettings(iterations=100)
        self.max_group_layers = max_group_layers
        self.seed_stride = seed_stride
        #: Serialize each candidate's winning mappings into
        #: :attr:`CandidateResult.mappings` (needed when publishing to a
        #: store / warm-starting campaigns).  Disable on plain
        #: exploration to keep worker IPC and report memory lean.
        self.record_mappings = record_mappings
        self._pool = None
        #: What candidates with one core share (see the module doc).
        self.store = CoreStore(PART_RECORDS)

    # ------------------------------------------------------------------
    # Worker pool
    # ------------------------------------------------------------------

    def prepare(self) -> None:
        """Compile every workload's graph tables (idempotent).

        Called in the parent before pool workers exist so fork-based
        workers inherit the compiled tables instead of building their
        own (spawn-based workers build theirs on first use).
        """
        from repro.compiled import compile_graph

        for wl in self.workloads:
            compile_graph(wl.graph)

    def pool(self, workers: int):
        """The persistent worker pool, grown on demand.

        A live pool with at least ``workers`` workers is reused
        (amortizing spawn + explorer shipping across ``explore`` calls
        and campaign runs — small follow-up batches must not tear a
        warm pool down); only a request for *more* workers recreates
        it.
        """
        from repro.dse.pool import PersistentEvalPool

        if self._pool is not None and self._pool.workers < workers:
            self._pool.close()
            self._pool = None
        if self._pool is None:
            # Compile the graph tables before any worker exists, so
            # fork workers inherit them.
            self.prepare()
            self._pool = PersistentEvalPool(self, workers)
        else:
            PERF.add("dse.pool.reused")
        return self._pool

    def close(self) -> None:
        """Shut down the persistent pool (if any)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "DesignSpaceExplorer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __getstate__(self):
        # Pools hold OS resources; workers re-derive state from the
        # shipped explorer, never from its pool.
        state = dict(self.__dict__)
        state["_pool"] = None
        return state

    # ------------------------------------------------------------------

    def _candidate_settings(self, index: int) -> SASettings:
        if index == 0 or self.seed_stride == 0:
            return self.sa_settings
        from dataclasses import replace
        return replace(
            self.sa_settings,
            seed=self.sa_settings.seed + index * self.seed_stride,
        )

    def evaluate_candidate(
        self,
        arch: ArchConfig,
        index: int = 0,
        warm: dict[str, list] | None = None,
    ) -> CandidateResult:
        """Map every workload onto ``arch`` and score the candidate.

        ``warm`` optionally maps workload names to serialized LMS lists
        (:func:`repro.io.serialization.lms_to_dict` records) used to
        seed the SA instead of the stripe-heuristic initial mapping.  A
        warm mapping that fails validation against this architecture
        falls back to a cold start (counted under ``sa.warm.rejected``).
        """
        from repro.errors import InvalidMappingError
        from repro.io.serialization import (
            SerializationError,
            lms_from_dict,
            lms_to_dict,
        )
        from repro.obs.trace import trace

        t0 = time.perf_counter()
        engine = MappingEngine(
            arch,
            settings=MappingEngineSettings(
                sa=self._candidate_settings(index),
                max_group_layers=self.max_group_layers,
            ),
            store=self.store,
        )
        per: dict[str, tuple[float, float]] = {}
        mappings: dict[str, list] = {}
        iters_to_best: dict[str, int] = {}
        restart_times: dict[str, list[float]] = {}
        operator_uses: dict[str, dict[str, int]] = {}
        sa_diag: dict[str, dict] = {}
        warm_started = False
        energies, delays = [], []
        with trace("candidate", index=index,
                   arch=str(arch.paper_tuple()), warm=bool(warm)):
            for wl in self.workloads:
                result, used_warm = None, False
                if warm and wl.name in warm:
                    # Warm data is advisory: a record that fails to parse
                    # or validate falls back to a cold start, never to a
                    # failed candidate.
                    try:
                        initial = [lms_from_dict(d) for d in warm[wl.name]]
                        with trace("map", workload=wl.name, warm=True):
                            result = engine.map(
                                wl.graph, wl.batch, initial=initial
                            )
                        used_warm = True
                    except (InvalidMappingError, SerializationError):
                        PERF.add("sa.warm.rejected")
                if result is None:
                    with trace("map", workload=wl.name, warm=False):
                        result = engine.map(wl.graph, wl.batch)
                warm_started = warm_started or used_warm
                per[wl.name] = (result.energy, result.delay)
                if self.record_mappings:
                    mappings[wl.name] = [lms_to_dict(l) for l in result.lmss]
                if result.restart_wall_times:
                    restart_times[wl.name] = list(result.restart_wall_times)
                if result.sa_stats is not None:
                    iters_to_best[wl.name] = result.sa_stats.best_iteration
                    operator_uses[wl.name] = dict(
                        result.sa_stats.operator_uses
                    )
                    mode = "warm" if used_warm else "cold"
                    PERF.add(f"sa.iters_to_best.{mode}",
                             result.sa_stats.best_iteration)
                    PERF.add(f"sa.iters_to_best.{mode}.runs")
                if result.restart_diags:
                    sa_diag[wl.name] = {
                        "warm": used_warm,
                        "restarts": result.restart_diags,
                    }
                energies.append(result.energy)
                delays.append(result.delay)
            mc = self.mc_evaluator.evaluate(arch)
        energy = geomean(energies)
        delay = geomean(delays)
        PERF.add("dse.candidates")
        return CandidateResult(
            arch=arch,
            mc=mc,
            energy=energy,
            delay=delay,
            score=self.objective.score(mc.total, energy, delay),
            per_workload=per,
            wall_time_s=time.perf_counter() - t0,
            mappings=mappings,
            iters_to_best=iters_to_best,
            warm_started=warm_started,
            restart_times=restart_times,
            operator_uses=operator_uses,
            sa_diag=sa_diag,
        )

    # ------------------------------------------------------------------
    # Store integration
    # ------------------------------------------------------------------

    def workload_digests(self) -> list[str]:
        """Content digests of the workloads, in evaluation order."""
        if getattr(self, "_workload_digests", None) is None:
            from repro.campaign.keys import workload_digest

            self._workload_digests = [
                workload_digest(wl.graph, wl.batch) for wl in self.workloads
            ]
        return self._workload_digests

    def candidate_key(
        self,
        arch: ArchConfig,
        index: int = 0,
        warm_keys: dict[str, str] | None = None,
    ) -> str:
        """Store key of candidate ``index``: inputs + effective settings.

        ``warm_keys`` (workload name -> mapping key the SA is seeded
        from) must be passed when the evaluation warm-starts: it is part
        of what gets computed, so it is part of the key.
        """
        from repro.campaign.keys import candidate_key

        return candidate_key(
            arch,
            self.workload_digests(),
            self._candidate_settings(index),
            self.max_group_layers,
            self.objective,
            mc_evaluator=self.mc_evaluator,
            warm_keys=warm_keys,
        )

    def publish(self, store, arch: ArchConfig, index: int,
                result: CandidateResult, key: str | None = None) -> None:
        """Write a candidate's full result + winning mappings to a store.

        ``key`` overrides the computed candidate key — the campaign
        runner passes its warm-provenance-aware key here.
        """
        from repro.campaign import keys as ck
        from repro.campaign.store import KIND_CANDIDATE, KIND_MAPPING
        from repro.io.serialization import arch_to_dict, candidate_result_to_dict

        cand_key = key or self.candidate_key(arch, index)
        store.put(KIND_CANDIDATE, cand_key, candidate_result_to_dict(result))
        digests = self.workload_digests()
        for wl, wd in zip(self.workloads, digests):
            if wl.name not in result.mappings:
                continue
            mkey = ck.mapping_key(cand_key, wd)
            store.put(KIND_MAPPING, mkey, {
                "family": ck.arch_family(arch),
                "arch": arch_to_dict(arch),
                "workload": wl.name,
                "workload_digest": wd,
                "lmss": result.mappings[wl.name],
            })

    # ------------------------------------------------------------------

    def explore(
        self,
        candidates: list[ArchConfig],
        workers: int | None = 1,
    ) -> DseReport:
        """Explore every candidate; ``workers`` > 1 uses a process pool.

        ``workers=None`` uses every available CPU.  Results (order,
        scores, winning candidate) are identical for any worker count;
        only ``wall_time_s`` depends on the machine.

        Candidates run through the supervised dispatcher
        (:func:`repro.dse.pool.run_tasks`) under the default
        ``RetryPolicy``: a crashed worker is contained and respawned,
        every other candidate still completes, and then the first
        failure in candidate order is raised as a ``ReproError`` naming
        the candidate (``WorkerCrashed`` for a crash).
        """
        from repro.dse.pool import run_tasks
        from repro.obs.trace import trace

        if not candidates:
            raise ValueError("no candidates to explore")
        if workers is None:
            workers = os.cpu_count() or 1
        t0 = time.perf_counter()
        results: list[CandidateResult | None] = [None] * len(candidates)

        def collect(i, result, attempt, pid) -> None:
            results[i] = result

        with PERF.time("dse.explore"), \
                trace("dse.explore", candidates=len(candidates),
                      workers=workers):
            run_tasks(
                [(i, evaluate_task, (arch,))
                 for i, arch in enumerate(candidates)],
                workers, collect, context=self,
            )
        best = min(results, key=lambda r: r.score)
        return DseReport(
            best=best,
            results=results,
            objective=self.objective,
            wall_time_s=time.perf_counter() - t0,
        )
