"""The store-only campaign view behind ``repro campaign status``,
``watch`` and ``report``.

:func:`campaign_view` reads the manifest, the result store and the run
ledger once each and returns one JSON-friendly document; the three
``render_*`` functions print it as text.  It loads no models and writes
nothing, so viewing a huge, running or crashed campaign is cheap.

``status`` holds the progress counts and best-so-far from the store.
Shards, fault counts, throughput, ``caches`` and ``diag_by_pid`` come
from the *latest* run, from its last ``run_started``/``run_resumed``
ledger event on.  Both rates are summed over shards, which run in
parallel: cand/s adds each shard's evaluated count over its busy time,
and SA it/s is cand/s times the run's SA iterations per evaluated
candidate, read from its final ``perf`` event (what that run added to
``PERF``) — ``None``, and no caches, until that event is written.
``diag_by_pid`` holds one operator table per shard, folded from the
stored per-restart diagnostics of each candidate the run has
checkpointed, so a running ``--diag`` campaign shows it already.
``failures`` and ``quarantined`` list the candidates the store still
holds as failed or poison; the ledger only details them.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.campaign.runner import load_manifest, load_store, stored_results
from repro.campaign.store import KIND_CANDIDATE
from repro.dse.pareto import AXES
from repro.obs.diag import (
    OPERATOR_HEADERS,
    curve_summary,
    merge_op_stats,
    merged_operator_table,
    operator_rows,
)
from repro.obs.ledger import ledger_path, read_ledger
from repro.perf.counters import cache_stats, cache_table
from repro.reporting import format_table

#: Ledger event -> the per-shard count it bumps.
_SHARD_COUNTS = {
    "candidate_evaluated": "evaluated", "candidate_failed": "failed",
    "candidate_retried": "retries", "candidate_timeout": "timeouts",
    "candidate_quarantined": "quarantined",
}
#: Ledger event -> the campaign-wide fault count it bumps.
_FAULT_COUNTS = {
    "candidate_retried": "retries", "candidate_timeout": "timeouts",
    "candidate_quarantined": "quarantined",
    "worker_died": "worker_deaths", "pool_respawned": "pool_respawns",
}
#: A candidate's final outcome dates its shard's "last seen"; retries
#: and timeouts are faults still in flight.
_SIGNS_OF_LIFE = ("candidate_evaluated", "candidate_failed",
                  "candidate_quarantined")


def campaign_view(home: str | Path, name: str,
                  now: float | None = None) -> dict:
    """Progress, latest-run health and search quality of one campaign."""
    manifest = load_manifest(home, name)
    # Never closed: ResultStore.close() rewrites index.json.
    store = load_store(home)
    events, skipped = read_ledger(ledger_path(home, name))
    keys = manifest["candidate_keys"]
    done = [(i, r) for i, r in enumerate(stored_results(store, keys))
            if r is not None]
    by_key = {keys[i]: r for i, r in done}
    results = [r for _, r in done]
    key_set = set(keys)
    poison = store.quarantined_keys(KIND_CANDIDATE) & key_set
    failed = store.failed_keys(KIND_CANDIDATE) & key_set
    best = {}
    for axis, keyfn in AXES.items():
        if results:
            r = min(results, key=keyfn)
            best[axis] = {"arch": r.arch.paper_tuple(), "value": keyfn(r)}
    pending = len(keys) - len(done) - len(poison)

    starts = [i for i, ev in enumerate(events)
              if ev["event"] in ("run_started", "run_resumed")]
    segment = events[starts[-1]:] if starts else events
    run_event = segment[0] if starts else None
    shards: dict[int, dict] = {}
    faults = dict.fromkeys(_FAULT_COUNTS.values(), 0)
    diag_by_pid: dict[str, dict] = {}
    for ev in segment:
        kind = ev["event"]
        if kind in _FAULT_COUNTS:
            faults[_FAULT_COUNTS[kind]] += 1
        if kind not in _SHARD_COUNTS:
            continue
        pid = int(ev.get("shard", ev["pid"]))
        shard = shards.setdefault(pid, {
            "evaluated": 0, "failed": 0, "busy_s": 0.0, "last_ts": 0.0,
            "attempts": 0, "retries": 0, "timeouts": 0, "quarantined": 0,
        })
        shard[_SHARD_COUNTS[kind]] += 1
        if kind in _SIGNS_OF_LIFE:
            shard["last_ts"] = max(shard["last_ts"], ev["ts"])
        if kind == "candidate_evaluated":
            shard["attempts"] += int(ev.get("attempts", 1))
            shard["busy_s"] += float(ev.get("duration_s", 0.0))
            stored = by_key.get(ev.get("key"))
            if stored is None:
                continue
            # Workloads and restarts in the order the store keeps them.
            for diag in stored.sa_diag.values():
                for restart in diag.get("restarts", ()):
                    merge_op_stats(diag_by_pid.setdefault(str(pid), {}),
                                   restart.get("operators", {}))
    for shard in shards.values():
        shard["rate"] = (shard["evaluated"] / shard["busy_s"]
                         if shard["busy_s"] > 0 else 0.0)
    cand_rate = sum(s["rate"] for s in shards.values())
    evaluated = sum(s["evaluated"] for s in shards.values())
    perf = next((ev for ev in reversed(segment) if ev["event"] == "perf"),
                None)
    counters = (perf or {}).get("counters", {})
    iters_rate = None
    if perf is not None:
        iters_rate = (cand_rate * counters.get("sa.iterations", 0)
                      / evaluated if evaluated else 0.0)

    candidates = []
    itb: dict[str, list[float]] = {"warm": [], "cold": []}
    for i, r in done:
        if r.iters_to_best:
            itb["warm" if r.warm_started else "cold"].append(
                sum(r.iters_to_best.values()) / len(r.iters_to_best))
        curves = {}
        for wl, diag in sorted(r.sa_diag.items()):
            if diag.get("restarts"):
                # The winning restart is the cheapest one.
                curves[wl] = curve_summary(min(
                    diag["restarts"],
                    key=lambda d: d.get("final_cost", float("inf")),
                ))
        candidates.append({
            "index": i, "arch": r.arch.paper_tuple(), "score": r.score,
            "warm_started": r.warm_started,
            "iters_to_best": r.iters_to_best,
            "operator_uses": r.operator_uses, "curves": curves,
        })

    failures: dict[str, dict] = {}
    verdicts: dict[str, dict] = {}
    for ev in events:
        if ev["event"] == "candidate_failed" and ev.get("key") in failed:
            slot = failures.setdefault(ev.get("digest", "?"), {
                "count": 0, "error": ev.get("error", ""), "indices": [],
            })
            slot["count"] += 1
            slot["indices"].append(ev.get("index"))
        elif ev["event"] == "candidate_quarantined":
            verdicts[ev.get("key")] = ev  # a later verdict wins
    quarantined = []
    for i, key in enumerate(keys):
        if key in poison:
            ev = verdicts.get(key, {})
            quarantined.append({
                "index": i, "cause": ev.get("cause", "?"),
                "attempts": ev.get("attempts", 0),
                "error": ev.get("error", ""), "digest": ev.get("digest", "?"),
            })

    return {
        "status": {
            "name": manifest["name"], "total": len(keys), "done": len(done),
            "failed": len(failed), "quarantined": len(poison),
            "pending": pending,
            "warm_started": sum(1 for r in results if r.warm_started),
            "best": best,
        },
        "runs": len(starts),
        "resumed": bool(run_event and run_event["event"] == "run_resumed"),
        "run_event": run_event,
        "run_active": bool(segment) and not any(
            ev["event"] in ("run_finished", "run_interrupted")
            for ev in segment
        ),
        "shards": shards,
        "faults": faults,
        "cands_per_sec": cand_rate,
        "sa_iters_per_sec": iters_rate,
        "busy_s": sum(s["busy_s"] for s in shards.values()),
        "eta_s": pending / cand_rate if cand_rate > 0 and pending else None,
        "caches": cache_stats(counters),
        "diag_by_pid": diag_by_pid,
        "candidates": candidates,
        "iters_to_best": {
            "warm_mean": _mean(itb["warm"]), "warm_runs": len(itb["warm"]),
            "cold_mean": _mean(itb["cold"]), "cold_runs": len(itb["cold"]),
        },
        "failures": failures,
        "quarantined": quarantined,
        "ledger_events": len(events),
        "ledger_skipped": skipped,
        "now": time.time() if now is None else now,
    }


def _mean(xs: list[float]) -> float | None:
    return sum(xs) / len(xs) if xs else None


def _table(headers: list[str], rows: list[list],
           title: str | None = None) -> list[str]:
    """A blank separator line, an optional title and a text table."""
    return ["", *([title] if title else []), format_table(headers, rows)]


def _best_table(status: dict) -> list[str]:
    rows = [[axis, rec["arch"], rec["value"]]
            for axis, rec in status["best"].items()]
    return _table(["objective", "best arch", "value"], rows) if rows else []


def render_status(doc: dict) -> str:
    """``repro campaign status``: progress counts and best-so-far."""
    st = doc["status"]
    return "\n".join([
        f"campaign {st['name']!r}: {st['done']}/{st['total']} done, "
        f"{st['pending']} pending, {st['failed']} failed, "
        f"{st['quarantined']} quarantined, "
        f"{st['warm_started']} warm-started",
        *_best_table(st),
    ])


def render_watch(doc: dict) -> str:
    """One ``repro campaign watch`` frame: progress, latest-run health,
    throughput, caches and best-so-far."""
    st = doc["status"]
    bar_w = 30
    filled = int(round(bar_w * st["done"] / (st["total"] or 1)))
    bar = "#" * filled + "-" * (bar_w - filled)
    lines = [
        f"campaign {st['name']!r} [{bar}] "
        f"{st['done']}/{st['total']} done, {st['pending']} pending, "
        f"{st['failed']} failed"
        + (f", {st['quarantined']} quarantined" if st["quarantined"] else "")
        + f" ({'running' if doc['run_active'] else 'idle'}, "
        f"run {doc['runs']}" + (" resumed" if doc["resumed"] else "") + ")",
    ]
    faults = doc["faults"]
    if any(faults.values()):
        lines.append(
            f"faults: {faults['retries']} retried, "
            f"{faults['timeouts']} timed out, "
            f"{faults['quarantined']} quarantined, "
            f"{faults['worker_deaths']} worker death(s), "
            f"{faults['pool_respawns']} pool respawn(s)"
        )
    iters_rate = doc["sa_iters_per_sec"]
    lines.append(
        f"throughput: {doc['cands_per_sec']:.2f} cand/s, "
        + ("n/a" if iters_rate is None else f"{iters_rate:.0f}") + " SA it/s"
        + ("" if doc["eta_s"] is None else f" — ETA {doc['eta_s']:.0f}s")
    )
    if doc["shards"]:
        rows = []
        for pid, s in sorted(doc["shards"].items()):
            mean = s["busy_s"] / s["evaluated"] if s["evaluated"] else 0.0
            rows.append([
                pid, s["evaluated"], s["failed"], s["attempts"],
                s["retries"], s["timeouts"], s["quarantined"],
                f"{s['busy_s']:.1f}s", f"{mean:.2f}s",
                f"{max(0.0, doc['now'] - s['last_ts']):.0f}s ago",
            ])
        lines += _table(
            ["shard", "evaluated", "failed", "attempts", "retries",
             "timeouts", "poison", "busy", "s/cand", "last seen"], rows)
    if doc["caches"]:
        lines += ["", cache_table(doc["caches"])]
    lines += _best_table(st)
    lines += ["", f"ledger: {doc['ledger_events']} event(s)"
              + (f", {doc['ledger_skipped']} skipped"
                 if doc["ledger_skipped"] else "")]
    return "\n".join(lines)


def render_report(doc: dict) -> str:
    """``repro campaign report``: convergence per candidate, warm vs
    cold iterations-to-best, operator tables, failures and poison."""
    st = doc["status"]
    lines = [f"campaign {st['name']!r} search report — "
             f"{st['done']}/{st['total']} candidates evaluated"]
    rows = []
    for cand in doc["candidates"]:
        head = [cand["index"], cand["arch"], f"{cand['score']:.4g}",
                "warm" if cand["warm_started"] else "cold"]
        for wl, cs in sorted(cand["curves"].items()):
            rows.append([*head, wl, cand["iters_to_best"].get(wl, "-"),
                         f"{cs['initial']:.3g}→{cs['final']:.3g}",
                         cs["spark"]])
        if not cand["curves"]:
            rows.append([*head, "-", "-", "-", ""])
    if rows:
        lines += _table(["cand", "arch", "score", "start", "workload",
                         "best@", "cost", "convergence"], rows)
    itb = doc["iters_to_best"]
    if itb["warm_runs"] or itb["cold_runs"]:
        lines += _table(["start", "runs", "mean iters-to-best"], [
            [start, itb[f"{start}_runs"],
             "-" if itb[f"{start}_mean"] is None
             else f"{itb[f'{start}_mean']:.1f}"]
            for start in ("warm", "cold")
        ])
    by_pid = doc["diag_by_pid"]
    if by_pid:
        lines += _table(
            ["pid", *OPERATOR_HEADERS],
            [[pid, *row] for pid, ops in sorted(by_pid.items())
             for row in operator_rows(ops)],
            "operator effectiveness (per shard pid, last run):",
        )
        lines += _table(OPERATOR_HEADERS,
                        operator_rows(merged_operator_table(by_pid)),
                        "pooled over shards:")
    if doc["failures"]:
        lines += _table(["failure digest", "count", "candidates", "error"], [
            [digest, rec["count"],
             ",".join(str(i) for i in rec["indices"][:8]), rec["error"][:60]]
            for digest, rec in sorted(doc["failures"].items())
        ])
    if doc["quarantined"]:
        lines += _table(
            ["cand", "cause", "attempts", "digest", "error"],
            [[q["index"], q["cause"], q["attempts"], q["digest"],
              q["error"][:60]] for q in doc["quarantined"]],
            "quarantined (poison) candidates — resume skips these; "
            "re-try with --retry-quarantined:",
        )
    if doc["ledger_skipped"]:
        lines += ["", f"ledger: {doc['ledger_skipped']} unparseable line(s) "
                  "skipped"]
    return "\n".join(lines)
