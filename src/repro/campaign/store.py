"""The persistent campaign result store.

Layout of a store directory::

    store/
      segments/seg-<pid>-<nonce>.jsonl   append-only record segments
      index.json                         atomic key -> segment index

Records are one compact JSON object per line: ``{"kind", "key",
"payload"}``.  Each :class:`ResultStore` instance appends to its *own*
segment file, named after the process id plus a random nonce, so any
number of worker processes can publish into the same store without a
lock: no two writers ever touch the same file, and readers simply scan
every segment.  A crash can at worst leave a torn final line in one
segment; the loader skips unparseable trailing data, so everything
checkpointed before the crash survives.

``index.json`` is a derived artifact — the segments are the source of
truth — rewritten atomically on :meth:`ResultStore.write_index`; it
gives external tooling (and ``repro campaign status``) a cheap summary
without parsing payloads.

Keys come from :mod:`repro.campaign.keys`: content digests over the
evaluation inputs.  Two processes that compute the same key would store
bit-identical payloads, so duplicate appends are harmless (last record
wins on load, and all of them agree).
"""

from __future__ import annotations

import json
import os
import uuid
from pathlib import Path

from repro.errors import ReproError
from repro.io.atomic import atomic_write_json
from repro.perf import PERF

#: Record kinds.
KIND_CANDIDATE = "candidate"
KIND_MAPPING = "mapping"
KIND_SCENARIO = "scenario"
KIND_FAILURE = "failure"

#: Fault-injection seam (chaos harness): when armed, called as
#: ``hook(fh, line)`` right before every segment write.  ``None`` in
#: production — one identity check per put.
_PUT_HOOK = None


class StoreError(ReproError):
    """The store directory is unusable or a record is malformed."""


def parse_record(line: str) -> tuple[str, str, dict] | None:
    """``(kind, key, payload)`` of one segment line, or ``None`` for a
    line that is not a record (a torn tail, foreign junk)."""
    try:
        rec = json.loads(line)
        return rec["kind"], rec["key"], rec["payload"]
    except (json.JSONDecodeError, KeyError, TypeError):
        return None


class ResultStore:
    """Append-only, content-addressed result store over JSONL segments."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.segments_dir = self.root / "segments"
        self.segments_dir.mkdir(parents=True, exist_ok=True)
        self._records: dict[tuple[str, str], dict] = {}
        self._locations: dict[tuple[str, str], str] = {}
        self._skipped_lines = 0
        self._fh = None
        self._segment_path = self.segments_dir / (
            f"seg-{os.getpid()}-{uuid.uuid4().hex[:8]}.jsonl"
        )
        self.reload()

    # -- loading -------------------------------------------------------

    def reload(self) -> None:
        """(Re)scan every segment; picks up other processes' appends."""
        self._records.clear()
        self._locations.clear()
        self._skipped_lines = 0
        for seg in sorted(self.segments_dir.glob("*.jsonl")):
            self._scan_segment(seg)

    def _scan_segment(self, seg: Path) -> None:
        try:
            text = seg.read_text()
        except OSError as exc:
            raise StoreError(f"cannot read segment {seg}: {exc}") from exc
        for line in text.splitlines():
            if not line.strip():
                continue
            rec = parse_record(line)
            if rec is None:
                # Torn tail of a crashed writer (or foreign junk): the
                # record was never acknowledged, so dropping it is safe.
                self._skipped_lines += 1
                continue
            kind, key, payload = rec
            self._records[(kind, key)] = payload
            self._locations[(kind, key)] = seg.name

    @property
    def skipped_lines(self) -> int:
        """Unparseable lines tolerated during the last scan."""
        return self._skipped_lines

    # -- writing -------------------------------------------------------

    def put(self, kind: str, key: str, payload: dict) -> None:
        """Durably append one record and make it visible immediately.

        A failed write (ENOSPC, EIO, a chaos fault) re-raises, but only
        after the writer has *rotated* to a fresh segment file: whatever
        partial line the failure left behind becomes the tolerated torn
        tail of the abandoned segment, and a retried put can never
        concatenate onto it and corrupt an otherwise good record.
        """
        from repro.obs.trace import trace

        with trace("store.put", kind=kind):
            line = json.dumps(
                {"kind": kind, "key": key, "payload": payload},
                separators=(",", ":"),
            )
            if "\n" in line:
                raise StoreError("record serialization produced a newline")
            if self._fh is None:
                self._fh = open(self._segment_path, "a")
            try:
                if _PUT_HOOK is not None:
                    _PUT_HOOK(self._fh, line)
                self._fh.write(line + "\n")
                self._fh.flush()
                os.fsync(self._fh.fileno())
            except OSError:
                PERF.add("store.put.errors")
                self._rotate_segment()
                raise
            self._records[(kind, key)] = payload
            self._locations[(kind, key)] = self._segment_path.name

    def _rotate_segment(self) -> None:
        """Abandon the current segment file and start a fresh one."""
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:  # pragma: no cover - double-fault close
                pass
            self._fh = None
        self._segment_path = self.segments_dir / (
            f"seg-{os.getpid()}-{uuid.uuid4().hex[:8]}.jsonl"
        )

    # -- reading -------------------------------------------------------

    def get(self, kind: str, key: str) -> dict | None:
        return self._records.get((kind, key))

    def has(self, kind: str, key: str) -> bool:
        return (kind, key) in self._records

    def keys(self, kind: str) -> set[str]:
        return {k for (kd, k) in self._records if kd == kind}

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for kind, _ in self._records:
            out[kind] = out.get(kind, 0) + 1
        return out

    def __len__(self) -> int:
        return len(self._records)

    # -- failures ------------------------------------------------------

    def record_failure(self, kind: str, key: str, error: str) -> None:
        """Remember that computing ``(kind, key)`` raised ``error``.

        Failure records never shadow results: a later successful record
        under the real kind supersedes the failure (see
        :meth:`failed_keys`), and failed keys count as pending again on
        the next run.
        """
        self.put(KIND_FAILURE, key, {"for_kind": kind, "error": error})

    def record_quarantine(self, kind: str, key: str, error: str,
                          attempts: int, cause: str) -> None:
        """Commit ``(kind, key)`` as *poison*: it crashed its worker or
        timed out ``attempts`` times and must not be retried by default.

        Quarantine is a structured failure record (``poison: true``), so
        everything that understands failures — supersede-on-success,
        ``status``, fsck — works unchanged; only :meth:`failed_keys`
        treats poison specially (quarantined keys are not pending).
        """
        self.put(KIND_FAILURE, key, {
            "for_kind": kind, "error": error, "poison": True,
            "attempts": attempts, "cause": cause,
        })

    def failed_keys(self, kind: str) -> set[str]:
        """Keys whose last computation failed retryably and has not
        succeeded since (quarantined poison keys are excluded — see
        :meth:`quarantined_keys`)."""
        failed = set()
        for (kd, key), payload in self._records.items():
            if kd == KIND_FAILURE and payload.get("for_kind") == kind \
                    and not payload.get("poison"):
                if not self.has(kind, key):
                    failed.add(key)
        return failed

    def quarantined_keys(self, kind: str) -> set[str]:
        """Poison keys of ``kind`` without a superseding success."""
        out = set()
        for (kd, key), payload in self._records.items():
            if kd == KIND_FAILURE and payload.get("for_kind") == kind \
                    and payload.get("poison"):
                if not self.has(kind, key):
                    out.add(key)
        return out

    # -- index ---------------------------------------------------------

    def write_index(self) -> Path | None:
        """Atomically rewrite ``index.json`` from the in-memory state.

        Best-effort: the index is a derived artifact (segments are the
        source of truth, fsck rebuilds it), so a failed write — disk
        full at the end of an otherwise durable run — must not take the
        run's results down with it.
        """
        index = {
            "counts": self.counts(),
            "skipped_lines": self._skipped_lines,
            "keys": {},
        }
        for (kind, key), seg in sorted(self._locations.items()):
            index["keys"].setdefault(kind, {})[key] = seg
        try:
            return atomic_write_json(self.root / "index.json", index)
        except OSError:
            PERF.add("store.index.errors")
            return None

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        # An unused writer never created its segment; don't index it.
        self.write_index()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
