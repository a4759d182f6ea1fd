"""Store integrity check and repair: ``repro store fsck [--repair]``.

The result store tolerates exactly one kind of damage by design: a
*torn tail* — the final line of a segment left incomplete by a killed
writer.  Anything else (corrupt lines in the middle of a segment,
bit-rotted JSON, foreign junk) is silently skipped by the loader too,
but silence is the wrong posture for real corruption: records a
campaign believes are checkpointed may be gone, and resume would
quietly re-evaluate them — or worse, export a partial table as if it
were complete.

``fsck_store`` makes the damage visible: it classifies every bad line
as tolerated tail or mid-segment corruption, reports which *keys* have
no survivor record anywhere (what resume would lose), and checks the
derived ``index.json`` against the segments.  With ``repair=True`` it
quarantines bad lines to a sidecar (``quarantine/<segment>.bad``),
rewrites each damaged segment atomically with only its good lines, and
rebuilds the index atomically.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.campaign.store import ResultStore, parse_record
from repro.io.atomic import atomic_write_text

#: Sidecar directory (under the store root) for quarantined bad lines.
QUARANTINE_DIR = "quarantine"

_KEY_RE = re.compile(r'"key"\s*:\s*"([^"]+)"')


@dataclass
class SegmentReport:
    """Scan result of one segment file."""

    name: str
    records: int = 0
    #: Trailing unparseable lines — the damage the loader tolerates.
    torn_tail: int = 0
    #: Unparseable lines with valid records after them: real corruption.
    corrupt: int = 0
    #: Keys salvaged (regex) from bad lines, best-effort.
    bad_keys: list[str] = field(default_factory=list)

    @property
    def damaged(self) -> bool:
        return self.torn_tail > 0 or self.corrupt > 0


@dataclass
class FsckReport:
    """Outcome of one ``fsck_store`` pass."""

    root: Path
    segments: list[SegmentReport]
    #: ``(kind, key)`` pairs with at least one valid record.
    live_keys: int
    #: Keys named by bad lines that have *no* valid record anywhere —
    #: the evaluations a resume would have to redo.
    lost_keys: list[str]
    #: ``ok`` / ``missing`` / ``corrupt`` / ``stale``.
    index_status: str
    repaired: bool = False
    quarantined_lines: int = 0

    @property
    def corrupt_lines(self) -> int:
        return sum(s.corrupt for s in self.segments)

    @property
    def torn_lines(self) -> int:
        return sum(s.torn_tail for s in self.segments)

    @property
    def clean(self) -> bool:
        """No damage beyond the tolerated kind.

        A torn tail (unacknowledged final write of a killed process)
        and a stale or missing index (close() never ran; the index is
        derived anyway) are design-tolerated.  Mid-segment corruption
        and an unparseable index are not.
        """
        if self.repaired:
            return True
        return self.corrupt_lines == 0 and self.index_status != "corrupt"


def _scan_segment(seg: Path):
    """Split a segment into good (line, kind, key) triples and bad lines
    (with their position classification)."""
    good: list[tuple[str, str, str]] = []
    bad: list[str] = []
    lines = [l for l in seg.read_text().splitlines() if l.strip()]
    last_good = -1
    parsed = [(parse_record(l), l) for l in lines]
    for i, (rec, _) in enumerate(parsed):
        if rec is not None:
            last_good = i
    report = SegmentReport(name=seg.name)
    for i, (rec, line) in enumerate(parsed):
        if rec is not None:
            report.records += 1
            good.append((line, rec[0], rec[1]))
        else:
            bad.append(line)
            if i > last_good:
                report.torn_tail += 1
            else:
                report.corrupt += 1
            m = _KEY_RE.search(line)
            if m:
                report.bad_keys.append(m.group(1))
    return report, good, bad


def _index_status(root: Path, live: set[tuple[str, str]]) -> str:
    path = root / "index.json"
    if not path.exists():
        return "missing"
    try:
        index = json.loads(path.read_text())
        keys = index["keys"]
        indexed = {
            (kind, key)
            for kind, kmap in keys.items()
            for key in kmap
        }
    except (json.JSONDecodeError, KeyError, TypeError, AttributeError):
        return "corrupt"
    return "ok" if indexed == live else "stale"


def fsck_store(root: str | Path, repair: bool = False) -> FsckReport:
    """Scan (and optionally repair) a result store directory."""
    root = Path(root)
    segments_dir = root / "segments"
    seg_reports: list[SegmentReport] = []
    live: set[tuple[str, str]] = set()
    per_segment: dict[str, tuple[list, list]] = {}
    seg_paths = sorted(segments_dir.glob("*.jsonl")) \
        if segments_dir.is_dir() else []
    for seg in seg_paths:
        report, good, bad = _scan_segment(seg)
        seg_reports.append(report)
        per_segment[seg.name] = (good, bad)
        live.update((kind, key) for _, kind, key in good)

    live_names = {key for _, key in live}
    lost = sorted({
        k
        for s in seg_reports
        for k in s.bad_keys
        if k not in live_names
    })
    index_status = _index_status(root, live)

    report = FsckReport(
        root=root,
        segments=seg_reports,
        live_keys=len(live),
        lost_keys=lost,
        index_status=index_status,
    )
    if not repair:
        return report

    # -- repair --------------------------------------------------------
    quarantined = 0
    for seg_report in seg_reports:
        if not seg_report.damaged:
            continue
        good, bad = per_segment[seg_report.name]
        qdir = root / QUARANTINE_DIR
        qdir.mkdir(parents=True, exist_ok=True)
        qpath = qdir / f"{seg_report.name}.bad"
        existing = qpath.read_text() if qpath.exists() else ""
        atomic_write_text(qpath, existing + "".join(l + "\n" for l in bad))
        quarantined += len(bad)
        atomic_write_text(
            segments_dir / seg_report.name,
            "".join(line + "\n" for line, _, _ in good),
        )

    # Rebuild the index from the repaired segments with the store's
    # own loader and writer (last record wins).
    ResultStore(root).write_index()

    report.repaired = True
    report.quarantined_lines = quarantined
    report.index_status = _index_status(root, live)
    return report


def render_fsck(report: FsckReport) -> str:
    """Human-readable fsck summary."""
    lines = [
        f"store {report.root}: {len(report.segments)} segment(s), "
        f"{report.live_keys} live record key(s)",
    ]
    for s in report.segments:
        if s.damaged:
            lines.append(
                f"  {s.name}: {s.records} record(s), "
                f"{s.corrupt} corrupt line(s), "
                f"{s.torn_tail} torn tail line(s)"
            )
    lines.append(f"index.json: {report.index_status}")
    if report.lost_keys:
        lines.append(
            f"{len(report.lost_keys)} key(s) have no surviving record "
            "(resume would re-evaluate them):"
        )
        for k in report.lost_keys[:10]:
            lines.append(f"  {k}")
        if len(report.lost_keys) > 10:
            lines.append(f"  ... and {len(report.lost_keys) - 10} more")
    if report.repaired:
        lines.append(
            f"repaired: {report.quarantined_lines} bad line(s) "
            f"quarantined under {QUARANTINE_DIR}/, index rebuilt"
        )
    elif not report.clean:
        lines.append("store is DAMAGED; run with --repair to quarantine "
                     "bad lines and rebuild the index")
    elif report.torn_lines or report.index_status != "ok":
        lines.append("store is clean (tolerated torn tail / derived "
                     "index out of date; --repair tidies both)")
    else:
        lines.append("store is clean")
    return "\n".join(lines)
