"""The resumable, sharded campaign runner.

A *campaign* is a named DSE: a candidate grid x a workload list x one
search configuration, bound to a directory.  The runner

* computes the content key of every candidate up front and records them
  in an atomic ``manifest.json``, so :func:`export_campaign` and the
  store-only view (:mod:`repro.campaign.view`, behind ``campaign
  status``, ``watch`` and ``report``) never need to re-enumerate the
  grid or re-load models;
* shards the *pending* candidates — keys missing from the store —
  across a process pool, checkpointing each result into the store the
  moment it arrives;
* on restart with the same spec, serves every completed candidate from
  the store and evaluates only what is missing: resuming after a crash
  re-evaluates **zero** finished candidates and reproduces the exact
  report an uninterrupted run would have produced;
* warm-starts the SA from stored mappings of *nearby* architectures
  (same core count, different bandwidths/cuts).  Warm sources are
  snapshotted into the manifest when the campaign is first created, so
  an interrupted-and-resumed run sees exactly the warm sources the
  uninterrupted run saw — determinism survives the crash;
* appends one run-ledger event (:mod:`repro.obs.ledger`) per start or
  resume, checkpoint, failure, fault and finish, and closes every run
  with a ``perf`` event: the counters and timers ``PERF`` gained during
  that run (its end snapshot minus the one taken at its start), so a
  resume in the same process logs its own work only.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.arch.params import ArchConfig
from repro.campaign import keys as ck
from repro.campaign.faults import CAUSE_ERROR, RetryPolicy
from repro.campaign.store import (
    KIND_CANDIDATE,
    KIND_MAPPING,
    ResultStore,
)
from repro.core.sa import SASettings
from repro.dse.explorer import (
    CandidateResult,
    DesignSpaceExplorer,
    Workload,
    evaluate_task,
)
from repro.dse.objective import OBJECTIVE_MCED, Objective
from repro.dse.pareto import pareto_front
from repro.errors import ReproError
from repro.io.atomic import atomic_write_json
from repro.io.serialization import (
    arch_from_dict,
    arch_to_dict,
    candidate_result_from_dict,
    candidate_result_summary,
)
from repro.obs.ledger import RunLedger, failure_digest, ledger_path
from repro.perf import PERF
from repro.perf.counters import snapshot_delta

MANIFEST_NAME = "manifest.json"
STORE_DIR = "store"


class CampaignError(ReproError):
    """The campaign directory disagrees with the requested spec."""


class CampaignInterrupted(ReproError):
    """Raised by the fault-injection hook after N checkpointed results.

    Everything evaluated before the interruption is already durable in
    the store; re-running the campaign resumes from there.
    """


@dataclass
class CampaignSpec:
    """Everything that defines a campaign's work list."""

    name: str
    candidates: list[ArchConfig]
    workloads: list[Workload]
    sa: SASettings = field(default_factory=lambda: SASettings(iterations=100))
    objective: Objective = OBJECTIVE_MCED
    max_group_layers: int = 10
    seed_stride: int = 0
    warm_start: bool = True


@dataclass
class CampaignReport:
    """Outcome of one (possibly resumed) campaign run."""

    name: str
    #: Aligned with the spec's candidate list; ``None`` where the
    #: candidate failed (failures are retried on the next run).
    results: list[CandidateResult | None]
    objective: Objective
    evaluated: int
    store_hits: int
    failed: int
    #: Candidates quarantined as poison (now or by an earlier run);
    #: skipped by default on resume.
    quarantined: int = 0

    @property
    def done(self) -> list[CandidateResult]:
        return [r for r in self.results if r is not None]

    @property
    def best(self) -> CandidateResult:
        return min(self.done, key=lambda r: r.score)


class CampaignRunner:
    """Drives one campaign inside a campaigns *home* directory.

    Layout of ``home``::

        home/store/...              result store SHARED by every campaign
        home/<name>/manifest.json   one manifest per campaign
        home/<name>/export/...      default export destination

    Sharing the store is what powers warm starts: a new campaign's
    manifest snapshots whatever mappings earlier campaigns (same grid
    family, other bandwidths/cuts, other SA budgets) already published
    for its workloads.
    """

    def __init__(self, spec: CampaignSpec, home: str | Path):
        if not spec.candidates:
            raise CampaignError("campaign needs at least one candidate")
        self.spec = spec
        self.home = Path(home)
        self.root = self.home / spec.name
        self.root.mkdir(parents=True, exist_ok=True)
        self.store = ResultStore(self.home / STORE_DIR)
        self.explorer = DesignSpaceExplorer(
            spec.workloads,
            objective=spec.objective,
            sa_settings=spec.sa,
            max_group_layers=spec.max_group_layers,
            seed_stride=spec.seed_stride,
        )
        # Warm sources come from the manifest when resuming (pinned at
        # first start) and from a store snapshot when creating.  The
        # per-candidate warm *selection* is folded into each candidate
        # key: a warm-started evaluation is a different computation
        # than a cold one, so the two never share a store record.
        self.warm_sources = self._initial_warm_sources()
        self._warm_archs = self._parse_warm_archs()
        self.warm_selection = [
            self._select_warm_keys(arch) for arch in spec.candidates
        ]
        self.candidate_keys = [
            self.explorer.candidate_key(arch, i, warm_keys=sel or None)
            for i, (arch, sel) in enumerate(
                zip(spec.candidates, self.warm_selection)
            )
        ]
        #: True once a manifest pre-existed (or a run completed): the
        #: next ``run()`` reports itself as a resume in the ledger.
        self.resumed = self._manifest_path().exists()
        self.manifest = self._load_or_create_manifest()
        self._ledger: RunLedger | None = None
        self._policy: RetryPolicy | None = None

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------

    def _manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    def _read_manifest(self) -> dict | None:
        import json

        path = self._manifest_path()
        if not path.exists():
            return None
        try:
            return json.loads(path.read_text())
        except (json.JSONDecodeError, OSError):
            # Manifest writes are atomic, so a corrupt manifest means
            # external damage.  The runner holds the full spec and can
            # rebuild it losslessly (the store, not the manifest, is
            # the source of truth for results) — warn via counter and
            # recreate rather than bricking the campaign.
            PERF.add("campaign.manifest.corrupt")
            return None

    def _load_or_create_manifest(self) -> dict:
        manifest = self._read_manifest()
        if manifest is not None:
            if manifest.get("candidate_keys") != self.candidate_keys:
                raise CampaignError(
                    f"campaign directory {self.root} was created for a "
                    "different spec (grid, workloads, settings or warm "
                    "sources changed); use a fresh campaign name or the "
                    "original arguments"
                )
            return manifest
        manifest = {
            "name": self.spec.name,
            "version": ck.CODE_MODEL_VERSION,
            "candidate_keys": self.candidate_keys,
            "archs": [arch_to_dict(a) for a in self.spec.candidates],
            "workload_names": [wl.name for wl in self.spec.workloads],
            "workload_digests": self.explorer.workload_digests(),
            "settings_digest": ck.settings_digest(
                self.spec.sa, self.spec.max_group_layers, self.spec.objective
            ),
            "warm_start": self.spec.warm_start,
            "warm_sources": self.warm_sources,
        }
        atomic_write_json(self._manifest_path(), manifest)
        return manifest

    # ------------------------------------------------------------------
    # Warm starts
    # ------------------------------------------------------------------

    def _initial_warm_sources(self) -> dict[str, list[str]]:
        """Eligible mapping keys per workload digest.

        Loaded from the manifest when resuming — the snapshot is pinned
        at the campaign's first start, so resumed runs see exactly what
        the uninterrupted run saw.  On a fresh campaign, snapshot the
        store as it is *now*.
        """
        if not self.spec.warm_start:
            return {wd: [] for wd in self.explorer.workload_digests()}
        manifest = self._read_manifest()
        if manifest is not None and "warm_sources" in manifest:
            return manifest["warm_sources"]
        warm_sources: dict[str, list[str]] = {}
        for wd in self.explorer.workload_digests():
            eligible = []
            for mkey in sorted(self.store.keys(KIND_MAPPING)):
                rec = self.store.get(KIND_MAPPING, mkey)
                if rec.get("workload_digest") == wd:
                    eligible.append(mkey)
            warm_sources[wd] = eligible
        return warm_sources

    def _parse_warm_archs(self) -> dict[str, tuple[str, ArchConfig]]:
        """``mapping key -> (family, source arch)``, parsed once.

        Selection visits every warm source once per candidate; parsing
        the arch dicts here keeps construction O(candidates x sources)
        comparisons instead of O(candidates x sources) JSON rebuilds.
        """
        parsed: dict[str, tuple[str, ArchConfig]] = {}
        for mkeys in self.warm_sources.values():
            for mkey in mkeys:
                if mkey in parsed:
                    continue
                rec = self.store.get(KIND_MAPPING, mkey)
                if rec is None or "family" not in rec:
                    continue
                try:
                    parsed[mkey] = (rec["family"], arch_from_dict(rec["arch"]))
                except (ReproError, KeyError):
                    continue
        return parsed

    def _select_warm_keys(self, arch: ArchConfig) -> dict[str, str]:
        """The nearest snapshotted mapping key per workload name."""
        if not self.spec.warm_start:
            return {}
        selection: dict[str, str] = {}
        family = ck.arch_family(arch)
        digests = self.explorer.workload_digests()
        for wl, wd in zip(self.spec.workloads, digests):
            best_key, best_dist = None, None
            for mkey in self.warm_sources.get(wd, ()):
                src = self._warm_archs.get(mkey)
                if src is None or src[0] != family:
                    continue
                dist = ck.arch_distance(arch, src[1])
                if best_dist is None or (dist, mkey) < (best_dist, best_key):
                    best_key, best_dist = mkey, dist
            if best_key is not None:
                selection[wl.name] = best_key
        return selection

    def _warm_for(self, index: int) -> dict[str, list] | None:
        """The selected warm mappings of candidate ``index``, as LMS
        dict lists ready to ship to a worker."""
        warm = {
            name: self.store.get(KIND_MAPPING, mkey)["lmss"]
            for name, mkey in self.warm_selection[index].items()
            if self.store.has(KIND_MAPPING, mkey)
        }
        return warm or None

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def pending(
        self, retry_quarantined: bool = False
    ) -> list[tuple[int, ArchConfig]]:
        """Candidates whose key is not yet in the store.

        Quarantined (poison) candidates are excluded by default — they
        already used up their attempts crashing workers or hanging, and
        a clean resume must not re-run them.  ``retry_quarantined``
        opts back in (e.g. after a code fix).
        """
        skip: set[str] = set()
        if not retry_quarantined:
            skip = self.store.quarantined_keys(KIND_CANDIDATE)
        return [
            (i, arch)
            for i, (arch, key) in enumerate(
                zip(self.spec.candidates, self.candidate_keys)
            )
            if not self.store.has(KIND_CANDIDATE, key) and key not in skip
        ]

    @staticmethod
    def _restart_stats(result: CandidateResult) -> tuple[int, float, float]:
        """(count, mean, population variance) of the candidate's SA
        restart wall times, pooled across workloads."""
        times = [t for ts in result.restart_times.values() for t in ts]
        if not times:
            return 0, 0.0, 0.0
        mean = sum(times) / len(times)
        var = sum((t - mean) ** 2 for t in times) / len(times)
        return len(times), mean, var

    def _checkpoint(self, index: int, arch: ArchConfig,
                    result: CandidateResult, shard: int) -> None:
        policy = self._policy or RetryPolicy()
        for put_attempt in range(1, policy.store_attempts + 1):
            try:
                self.explorer.publish(
                    self.store, arch, index, result,
                    key=self.candidate_keys[index],
                )
                break
            except OSError as exc:
                # The store already rotated to a fresh segment; a retry
                # re-appends the full record set (duplicates are
                # harmless: identical payloads, last record wins).
                PERF.add("campaign.store_put_retries")
                if self._ledger is not None:
                    self._ledger.emit(
                        "store_put_retried",
                        index=index,
                        key=self.candidate_keys[index],
                        attempt=put_attempt,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                if put_attempt >= policy.store_attempts:
                    raise
                time.sleep(policy.store_backoff_s)
        PERF.add("campaign.evaluated")
        if self._ledger is not None:
            restarts, mean, var = self._restart_stats(result)
            self._ledger.emit(
                "candidate_evaluated",
                index=index,
                key=self.candidate_keys[index],
                score=result.score,
                energy=result.energy,
                delay=result.delay,
                duration_s=result.wall_time_s,
                warm_started=result.warm_started,
                attempts=result.attempts,
                shard=shard,
                restarts=restarts,
                restart_mean_s=mean,
                restart_var_s=var,
            )

    def _record_failure(self, index: int, error: Exception) -> None:
        self.store.record_failure(
            KIND_CANDIDATE, self.candidate_keys[index],
            f"{type(error).__name__}: {error}",
        )
        PERF.add("campaign.failed")
        if self._ledger is not None:
            self._ledger.emit(
                "candidate_failed",
                index=index,
                key=self.candidate_keys[index],
                error=f"{type(error).__name__}: {error}",
                digest=failure_digest(error),
                shard=os.getpid(),
            )

    def _record_quarantine(self, index: int, error: Exception,
                           attempts: int, cause: str) -> None:
        """Finalize a poison candidate: structured failure record, but
        the campaign continues and a resume skips it by default."""
        self.store.record_quarantine(
            KIND_CANDIDATE, self.candidate_keys[index],
            f"{type(error).__name__}: {error}",
            attempts=attempts, cause=cause,
        )
        PERF.add("campaign.quarantined")
        if self._ledger is not None:
            self._ledger.emit(
                "candidate_quarantined",
                index=index,
                key=self.candidate_keys[index],
                cause=cause,
                attempts=attempts,
                error=f"{type(error).__name__}: {error}",
                digest=failure_digest(error),
                shard=os.getpid(),
            )

    def _on_event(self, event: str, **fields) -> None:
        """Record a dispatcher supervision event: ``PERF`` counters and
        the ledger, where a task is a candidate and carries its key."""
        if event == "task_retried":
            PERF.add("campaign.retries")
            event, fields["shard"] = "candidate_retried", os.getpid()
        elif event == "task_timeout":
            PERF.add("campaign.timeouts")
            event = "candidate_timeout"
        if "index" in fields:
            fields = {"index": fields["index"],
                      "key": self.candidate_keys[fields["index"]], **fields}
        self._ledger.emit(event, **fields)

    def run(
        self,
        workers: int | None = 1,
        fail_after: int | None = None,
        policy: RetryPolicy | None = None,
        chaos=None,
        retry_quarantined: bool = False,
    ) -> CampaignReport:
        """Evaluate every pending candidate, checkpointing continuously.

        ``fail_after`` is the fault-injection hook used by the crash
        tests and the CI smoke job: after that many *fresh* evaluations
        have been checkpointed, :class:`CampaignInterrupted` is raised —
        at an arbitrary-looking but fully durable point, exactly like a
        kill signal between two checkpoints.

        ``policy`` arms fault handling (retries with backoff, per-
        candidate deadlines, poison quarantine); ``chaos`` is an
        installable fault plan (duck-typed: ``install``/``uninstall``,
        see :mod:`repro.testing.chaos`) injected for the duration of
        the run.  A timeout policy or a chaos plan forces the
        supervised pool path even for one worker — deadlines are
        enforced on futures, and injected worker crashes must not take
        the parent process down.  Evaluation runs through the
        supervised dispatcher, :func:`repro.dse.pool.run_tasks`.
        ``workers=None`` uses every CPU; a worker count or
        ``fail_after`` below 1 raises ``ValueError``.
        """
        from repro.dse.pool import run_tasks
        from repro.obs.trace import trace

        if workers is None:
            workers = os.cpu_count() or 1
        elif workers < 1:
            raise ValueError(f"workers must be >= 1 or None, got {workers}")
        if fail_after is not None and fail_after < 1:
            raise ValueError(
                f"fail_after must be >= 1 or None, got {fail_after}")
        perf_at_start = PERF.snapshot()
        policy = policy or RetryPolicy()
        self._policy = policy
        todo = self.pending(retry_quarantined=retry_quarantined)
        hits = sum(
            1 for key in self.candidate_keys
            if self.store.has(KIND_CANDIDATE, key)
        )
        PERF.add("campaign.store_hits", hits)
        workers = min(workers, len(todo) or 1)
        tasks = [(i, evaluate_task, (arch, self._warm_for(i)))
                 for i, arch in todo]
        completed = failed = 0

        def checkpoint(i, result, attempt, pid) -> None:
            nonlocal completed
            result.attempts = attempt
            self._checkpoint(i, self.spec.candidates[i], result, shard=pid)
            completed += 1
            if fail_after is not None and completed >= fail_after:
                raise CampaignInterrupted(
                    f"fault injection after {completed} candidates"
                )

        def record_failure(i, error, attempts, cause) -> None:
            nonlocal failed
            if cause == CAUSE_ERROR:
                self._record_failure(i, error)
            else:
                self._record_quarantine(i, error, attempts=attempts,
                                        cause=cause)
            failed += 1

        self._ledger = RunLedger(ledger_path(self.home, self.spec.name))
        self._ledger.emit(
            "run_resumed" if self.resumed else "run_started",
            name=self.spec.name,
            total=len(self.spec.candidates),
            pending=len(todo),
            store_hits=hits,
            workers=workers,
        )
        # Anything short of a clean fall-through — fault injection,
        # a kill, an unexpected error — logs as an interruption.
        outcome = "run_interrupted"
        if chaos is not None:
            chaos.install()
        try:
            # The pool lives on the explorer and survives this call:
            # resumed runs, multi-campaign sessions and the store-hit /
            # pending split all dispatch into already-warm workers.
            with trace("campaign.run", campaign=self.spec.name,
                       pending=len(todo), workers=workers):
                run_tasks(
                    tasks, workers, checkpoint, on_failure=record_failure,
                    on_event=self._on_event, policy=policy,
                    context=self.explorer, keys=self.candidate_keys,
                )
            outcome = "run_finished"
        finally:
            if chaos is not None:
                chaos.uninstall()
            self.store.write_index()
            self._ledger.emit(
                outcome,
                evaluated=completed, failed=failed, store_hits=hits,
            )
            self._ledger.emit(
                "perf", **snapshot_delta(perf_at_start, PERF.snapshot()))
            self._ledger.close()
            self._ledger = None
            self._policy = None
            self.resumed = True
        return self.report(evaluated=completed, store_hits=hits,
                           failed=failed)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def report(self, evaluated: int = 0, store_hits: int = 0,
               failed: int = 0) -> CampaignReport:
        """Assemble the campaign report from the store (candidate order)."""
        quarantined = self.store.quarantined_keys(KIND_CANDIDATE)
        return CampaignReport(
            name=self.spec.name,
            results=stored_results(self.store, self.candidate_keys),
            objective=self.spec.objective,
            evaluated=evaluated,
            store_hits=store_hits,
            failed=failed,
            quarantined=sum(
                1 for k in self.candidate_keys if k in quarantined
            ),
        )

    def close(self) -> None:
        self.explorer.close()
        self.store.close()

    def __enter__(self) -> "CampaignRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# Directory-level reads (no models or grids needed)
# ----------------------------------------------------------------------


def load_manifest(home: str | Path, name: str) -> dict:
    """The manifest of campaign ``name``; :class:`CampaignError` when it
    is missing or unparseable."""
    import json

    path = Path(home) / name / MANIFEST_NAME
    if not path.exists():
        raise CampaignError(f"no campaign manifest at {path}")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise CampaignError(
            f"campaign manifest {path} is corrupt ({exc}); re-running "
            "the campaign with its original arguments rebuilds it"
        ) from exc


def load_store(home: str | Path) -> ResultStore:
    """The result store of a campaign home, for reading;
    :class:`CampaignError` when it is missing, since opening a
    :class:`ResultStore` creates its directories."""
    root = Path(home) / STORE_DIR
    if not (root / "segments").is_dir():
        raise CampaignError(f"no result store at {root}")
    return ResultStore(root)


def stored_results(store: ResultStore,
                   keys: list[str]) -> list[CandidateResult | None]:
    """The stored result of each candidate key, in key order; ``None``
    where the store holds no result for the key."""
    recs = (store.get(KIND_CANDIDATE, key) for key in keys)
    return [None if rec is None else candidate_result_from_dict(rec)
            for rec in recs]


def export_campaign(
    home: str | Path,
    name: str,
    dest: str | Path | None = None,
    pareto_axes=("edp", "mc"),
) -> dict[str, Path]:
    """Write the full result table + Pareto front as CSV and JSON.

    Rows are summaries (no wall-clock fields), so two stores holding the
    same evaluations export byte-identical files — the property the
    resume tests pin down.
    """
    from repro.reporting import write_csv

    manifest = load_manifest(home, name)
    store = load_store(home)
    dest = Path(dest) if dest is not None else Path(home) / name / "export"
    dest.mkdir(parents=True, exist_ok=True)

    results = stored_results(store, manifest["candidate_keys"])
    indexed = [(i, r) for i, r in enumerate(results) if r is not None]

    def row_dict(i: int, r: CandidateResult) -> dict:
        out = {"candidate": i, **candidate_result_summary(r)}
        out["edp"] = r.edp
        out["warm_started"] = r.warm_started
        for name, (e, d) in sorted(r.per_workload.items()):
            out[f"{name}.energy_j"] = e
            out[f"{name}.delay_s"] = d
        return out

    full = [row_dict(i, r) for i, r in indexed]
    front_results = pareto_front([r for _, r in indexed], pareto_axes)
    front_ids = {id(r) for r in front_results}
    front = [row for (i, r), row in zip(indexed, full) if id(r) in front_ids]

    paths: dict[str, Path] = {}
    for label, rows in (("campaign", full), ("pareto", front)):
        headers = list(rows[0].keys()) if rows else ["candidate"]
        csv_path = dest / f"{label}.csv"
        write_csv(csv_path, headers, [list(r.values()) for r in rows])
        json_path = dest / f"{label}.json"
        atomic_write_json(json_path, {
            "name": manifest["name"],
            "pareto_axes": list(pareto_axes),
            "rows": rows,
        })
        paths[f"{label}.csv"] = csv_path
        paths[f"{label}.json"] = json_path
    return paths
