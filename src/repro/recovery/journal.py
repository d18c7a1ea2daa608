"""The durable join journal: append-only, CRC-framed, torn-write-tolerant.

One JSONL file records the life of a recoverable join: a ``meta`` header
(task count, chunking, a task-list fingerprint), one ``grant`` per lease
and one ``complete`` — carrying the full result-row batch — per committed
unit of work.  A process that dies mid-join leaves the journal behind;
:func:`~repro.recovery.coordinator.resume_join` replays the completed
records and re-runs only the orphans.

Every record is framed as::

    <crc32 hex, 8 chars> <compact json>\\n

with the checksum (:func:`repro.storage.page.page_checksum`, a CRC-32)
computed over the JSON bytes.
A write torn by a crash — or by the fault injector's
``FLT_INJECT_TORN_APPEND`` — leaves a partial last line that fails the
frame check and is skipped (counted and traced as ``JNL_TORN_DETECTED``),
never mistaken for data.  Appending to a file whose tail is torn first
writes a newline, so the garbage is terminated and exactly one record is
lost per tear.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, List, Optional

from ..storage.page import page_checksum
from ..trace import NULL_TRACER, EventKind, Tracer

__all__ = ["JournalScan", "JoinJournal", "scan_journal"]


@dataclass
class JournalScan:
    """Outcome of reading one journal file."""

    records: List[dict] = field(default_factory=list)
    torn: int = 0

    @property
    def meta(self) -> Optional[dict]:
        for record in self.records:
            if record.get("type") == "meta":
                return record
        return None

    def completions(self) -> dict:
        """First ``complete`` record per unit (``task`` key), id → record.

        First-wins: a duplicate completion (a hung worker delivering after
        its chunk was re-run and re-journalled) never overrides the rows
        already accounted for.
        """
        out: dict = {}
        for record in self.records:
            if record.get("type") == "complete":
                out.setdefault(record.get("task"), record)
        return out

    def grants(self) -> List[dict]:
        return [r for r in self.records if r.get("type") == "grant"]


def _decode_line(line: str) -> Optional[dict]:
    """The record framed in *line*, or None when the frame is invalid."""
    if len(line) < 10 or line[8] != " ":
        return None
    crc_text, body = line[:8], line[9:]
    try:
        crc = int(crc_text, 16)
    except ValueError:
        return None
    if page_checksum(body.encode("utf-8")) != crc:
        return None
    try:
        record = json.loads(body)
    except ValueError:
        return None
    return record if isinstance(record, dict) else None


def scan_journal(path: str, tracer: Tracer = NULL_TRACER) -> JournalScan:
    """Read every intact record of *path*, tolerating torn writes.

    Missing file → empty scan.  Each line either frames a valid record or
    counts as one torn record; a torn line in the middle of the file (a
    tear followed by later appends) is skipped and scanning continues.
    """
    scan = JournalScan()
    if not os.path.exists(path):
        return scan
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        for line in handle:
            stripped = line.rstrip("\n")
            if not stripped:
                continue
            record = _decode_line(stripped)
            if record is None:
                scan.torn += 1
                if tracer.enabled:
                    tracer.emit(EventKind.JNL_TORN_DETECTED, bytes=len(stripped))
            else:
                scan.records.append(record)
    if tracer.enabled:
        tracer.emit(
            EventKind.JNL_SCANNED,
            records=len(scan.records),
            torn=scan.torn,
            path=path,
        )
    return scan


class JoinJournal:
    """Append handle over one journal file.

    Construction scans whatever the file already holds (``.existing``, for
    resume) and opens it for appending.  ``injector`` — when given — may
    tear individual appends (``FaultInjector.torn_append``), emulating a
    crash mid-write; the next append self-heals by terminating the torn
    line first.
    """

    def __init__(
        self,
        path: str,
        tracer: Tracer = NULL_TRACER,
        injector=None,
        fsync: bool = False,
    ):
        self.path = path
        self.tracer = tracer
        self.injector = injector
        self.fsync = fsync
        self.existing = scan_journal(path, tracer=tracer)
        self.appends = 0
        self.torn_appends = 0
        self._needs_newline = self._tail_unterminated(path)
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._handle = open(path, "ab")

    @staticmethod
    def _tail_unterminated(path: str) -> bool:
        try:
            size = os.path.getsize(path)
        except OSError:
            return False
        if size == 0:
            return False
        with open(path, "rb") as handle:
            handle.seek(-1, os.SEEK_END)
            return handle.read(1) != b"\n"

    def append(self, type: str, **fields: Any) -> None:
        """Append one CRC-framed record of *type* (torn under injection)."""
        if self._handle.closed:
            raise ValueError("append to a closed journal")
        record = {"type": type, **fields}
        body = json.dumps(record, separators=(",", ":"), sort_keys=True)
        data = f"{page_checksum(body.encode('utf-8')):08x} {body}\n".encode(
            "utf-8"
        )
        torn_at = (
            self.injector.torn_append(len(data))
            if self.injector is not None
            else None
        )
        if self._needs_newline:
            self._handle.write(b"\n")
            self._needs_newline = False
        if torn_at is not None:
            data = data[:torn_at]
            self.torn_appends += 1
            self._needs_newline = not data.endswith(b"\n")
        self._handle.write(data)
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())
        self.appends += 1
        if self.tracer.enabled:
            self.tracer.emit(
                EventKind.JNL_APPENDED,
                record=type,
                bytes=len(data),
                torn=int(torn_at is not None),
            )

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.flush()
            self._handle.close()

    def __enter__(self) -> "JoinJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"<JoinJournal {self.path!r} appends={self.appends} "
            f"existing={len(self.existing.records)} torn={self.torn_appends}>"
        )
