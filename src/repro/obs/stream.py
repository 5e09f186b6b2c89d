"""Live campaign telemetry: tail a running campaign's logs into a
:class:`CampaignStatus` snapshot.

A supervised campaign with ``--run-dir D`` leaves two append-only
JSONL trails under ``D`` while it runs: the structured event log
(``events.jsonl``, opened fresh per invocation) and the supervisor's
fsync'd journal (``journal.jsonl``, appended across invocations). The
:class:`CampaignMonitor` follows both *from a second process* — no
coordination with the writer — and folds every record into one live
snapshot: windows done/total per phase, per-chunk progress, worker
health from heartbeats, throughput/ETA from the ``campaign_progress``
counter trail, the merged metrics registry, and the running
recovery-mix / detection-latency aggregates via the exact
:func:`~repro.obs.audit.aggregates_from_events` the post-hoc report
uses — so a monitor attached for the whole run converges to the same
numbers ``repro report --events`` prints after it.

:class:`JsonlFollower` is the transport: resumable by byte offset,
safe against torn final lines (a writer killed mid-append) and file
rotation (``repro resume`` reopens ``events.jsonl`` with mode ``w``;
a shrink below the follower's offset *or* an inode change resets it to
zero and the monitor discards event-derived state while keeping the
journal-derived state).

Surfaces: ``repro top`` (live refresh), ``repro tail`` (filtered event
stream), ``repro status --json`` and ``repro metrics export`` all sit
on this module; see :func:`render_status`.
"""

from __future__ import annotations

import json
import os
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .audit import aggregates_from_events
from .metrics import MetricsRegistry

#: ``supervisor`` actions the monitor tallies for the status line.
_SUPERVISOR_TALLIES = ("retry", "timeout", "pool_rebuild", "bisect")

#: Snapshot states, from least to most settled.
STATES = ("unknown", "running", "aborted", "complete-with-quarantine",
          "complete")


class JsonlFollower:
    """Incrementally read a JSONL file that another process appends to.

    Each :meth:`poll` reads everything between the remembered byte
    offset and the current end of file, parses only *complete* lines
    (up to the last newline — a torn final line stays buffered in the
    file until the writer finishes it), and advances the offset, so a
    follower can be destroyed and rebuilt from ``(path, offset)`` at
    any time. Rotation (the file truncated or recreated by a new
    invocation) is detected by two independent signals: a size below
    the stored offset (in-place truncation) and an inode change (the
    file replaced) — the latter catches a rotation that *regrows past*
    the old offset between polls, which would otherwise be silently
    misread as growth and yield records spliced across generations.
    On filesystems that report no inodes (``st_ino == 0``) the size
    check alone applies. Either way the offset resets to zero and
    ``rotations`` increments so the consumer can reset derived state.
    """

    def __init__(self, path: str | os.PathLike, offset: int = 0):
        self.path = pathlib.Path(path)
        self.offset = int(offset)
        self.rotations = 0
        self.bad_lines = 0
        #: Bytes currently buffered as an unterminated (torn) tail.
        self.pending_tail = 0
        #: Inode of the generation being followed (None until first
        #: seen, or where the filesystem reports no inodes).
        self._ino: Optional[int] = None

    def poll(self) -> List[Dict[str, Any]]:
        """Every complete record appended since the last poll."""
        try:
            stat = self.path.stat()
        except OSError:
            return []
        size = stat.st_size
        ino = stat.st_ino or None
        # two independent rotation signals: a shrink below the offset
        # (in-place truncation, e.g. reopening with mode "w") and an
        # inode change (the file replaced — catches a rotation that
        # regrew past the old offset between polls, which size alone
        # would silently misread as plain growth)
        rotated = size < self.offset
        if ino is not None and self._ino is not None and ino != self._ino:
            rotated = True
        if rotated:
            self.offset = 0
            self.rotations += 1
        self._ino = ino
        if size <= self.offset:
            self.pending_tail = 0
            return []
        try:
            with open(self.path, "rb") as handle:
                handle.seek(self.offset)
                blob = handle.read(size - self.offset)
        except OSError:
            return []
        cut = blob.rfind(b"\n")
        if cut < 0:
            self.pending_tail = len(blob)
            return []
        self.offset += cut + 1
        self.pending_tail = len(blob) - cut - 1
        records: List[Dict[str, Any]] = []
        for line in blob[:cut].split(b"\n"):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                self.bad_lines += 1
                continue
            if isinstance(record, dict):
                records.append(record)
            else:
                self.bad_lines += 1
        return records


# ----------------------------------------------------------------------
# snapshot
# ----------------------------------------------------------------------
@dataclass
class PhaseProgress:
    """Per-phase roll-up (one campaign phase = one supervised fan-out)."""

    phase: str
    benchmark: str = "?"
    scheme: str = "?"
    windows_total: int = 0
    windows_done: int = 0
    chunks_total: int = 0
    chunks_done: int = 0
    quarantined: int = 0
    status: str = "pending"      # running | complete[-with-quarantine]
                                 # | aborted

    @property
    def windows_remaining(self) -> int:
        return max(0, self.windows_total - self.windows_done
                   - self.quarantined)

    def as_json(self) -> Dict[str, Any]:
        return {"phase": self.phase, "benchmark": self.benchmark,
                "scheme": self.scheme,
                "windows_total": self.windows_total,
                "windows_done": self.windows_done,
                "windows_remaining": self.windows_remaining,
                "chunks_total": self.chunks_total,
                "chunks_done": self.chunks_done,
                "quarantined": self.quarantined, "status": self.status}


@dataclass
class CampaignStatus:
    """One folded view of a campaign run directory at a point in time."""

    run_dir: str
    run_id: Optional[str] = None
    state: str = "unknown"
    phases: Dict[str, PhaseProgress] = field(default_factory=dict)
    #: worker pid -> timestamp of its last heartbeat/lifecycle event
    workers: Dict[int, float] = field(default_factory=dict)
    throughput: Optional[float] = None     # windows per second
    eta_seconds: Optional[float] = None
    aggregates: Dict[str, Any] = field(default_factory=dict)
    metrics: Dict[str, Any] = field(default_factory=dict)
    retries: int = 0
    timeouts: int = 0
    pool_rebuilds: int = 0
    resumes: int = 0
    events_seen: int = 0
    journal_records: int = 0
    truncated_tails: int = 0
    rotations: int = 0
    updated_at: float = 0.0

    @property
    def windows_total(self) -> int:
        return sum(p.windows_total for p in self.phases.values())

    @property
    def windows_done(self) -> int:
        return sum(p.windows_done for p in self.phases.values())

    @property
    def quarantined(self) -> int:
        return sum(p.quarantined for p in self.phases.values())

    @property
    def finished(self) -> bool:
        return self.state in ("complete", "complete-with-quarantine",
                              "aborted")

    def as_json(self) -> Dict[str, Any]:
        return {
            "run_dir": self.run_dir, "run_id": self.run_id,
            "state": self.state,
            "windows_total": self.windows_total,
            "windows_done": self.windows_done,
            "quarantined": self.quarantined,
            "phases": {name: p.as_json()
                       for name, p in self.phases.items()},
            "workers": {str(pid): ts
                        for pid, ts in sorted(self.workers.items())},
            "throughput_windows_per_sec": self.throughput,
            "eta_seconds": self.eta_seconds,
            "aggregates": self.aggregates,
            "metrics": self.metrics,
            "supervisor": {"retries": self.retries,
                           "timeouts": self.timeouts,
                           "pool_rebuilds": self.pool_rebuilds,
                           "resumes": self.resumes},
            "stream": {"events_seen": self.events_seen,
                       "journal_records": self.journal_records,
                       "truncated_tails": self.truncated_tails,
                       "rotations": self.rotations},
            "updated_at": self.updated_at,
        }


# ----------------------------------------------------------------------
# the monitor
# ----------------------------------------------------------------------
class CampaignMonitor:
    """Fold a run directory's journal + event log into live status.

    One monitor owns two followers. :meth:`poll` drains both and
    returns a fresh :class:`CampaignStatus`; call it in a loop (``repro
    top``) or once (``repro status``). The journal carries durable
    facts (plans, chunk completions, quarantines) that survive event-
    log rotation; everything event-derived (audits, heartbeats,
    metrics, progress samples) resets when ``events.jsonl`` is
    recreated by a new invocation.
    """

    def __init__(self, run_dir: str | os.PathLike):
        self.run_dir = pathlib.Path(run_dir)
        self.events_path = self.run_dir / "events.jsonl"
        self._events = JsonlFollower(self.events_path)
        self._journal = JsonlFollower(self.run_dir / "journal.jsonl")
        self._seen_rotations = 0
        # journal-derived state (survives event-log rotation)
        self._phases: Dict[str, PhaseProgress] = {}
        self._journal_records = 0
        self._resumes = 0
        self._aborted = False
        self._reset_event_state()

    def _reset_event_state(self) -> None:
        self._run_id: Optional[str] = None
        self._ended = False
        self._events_seen = 0
        self._truncated = 0
        self._last_ts = 0.0
        self._audits: List[Dict[str, Any]] = []
        self._workers: Dict[int, float] = {}
        self._samples: Dict[str, List[Tuple[float, float]]] = {}
        self._metrics = MetricsRegistry()
        self._tallies = {name: 0 for name in _SUPERVISOR_TALLIES}

    # -- folding -------------------------------------------------------
    def _phase(self, name: Optional[str]) -> PhaseProgress:
        name = name or "?"
        slot = self._phases.get(name)
        if slot is None:
            slot = PhaseProgress(phase=name)
            self._phases[name] = slot
        return slot

    def _fold_journal(self, entry: Dict[str, Any]) -> None:
        self._journal_records += 1
        entry_type = entry.get("type")
        if entry_type == "plan":
            slot = self._phase(entry.get("phase"))
            slot.benchmark = str(entry.get("benchmark", slot.benchmark))
            slot.scheme = str(entry.get("scheme", slot.scheme))
            slot.windows_total = int(entry.get("windows", 0))
            bounds = entry.get("bounds") or []
            gap = sum(int(hi) - int(lo) for lo, hi in bounds)
            resumed = int(entry.get("resumed_chunks", 0))
            slot.chunks_total = resumed + len(bounds)
            slot.chunks_done = max(slot.chunks_done, resumed)
            # windows already covered before this invocation: everything
            # outside the planned gaps, minus the quarantined singles
            covered = slot.windows_total - gap - slot.quarantined
            slot.windows_done = max(slot.windows_done, max(0, covered))
            slot.status = "running"
        elif entry_type == "chunk_done":
            slot = self._phase(entry.get("phase"))
            slot.chunks_done += 1
            slot.windows_done += int(entry.get("windows", 0))
            if slot.status == "pending":
                slot.status = "running"
        elif entry_type == "quarantine":
            self._phase(entry.get("phase")).quarantined += 1
        elif entry_type == "phase_done":
            slot = self._phase(entry.get("phase"))
            slot.status = str(entry.get("status", "complete"))
            slot.windows_done = int(entry.get("windows",
                                              slot.windows_done))
        elif entry_type == "resume":
            self._resumes += 1
        elif entry_type == "drain":
            self._aborted = True
            self._phase(entry.get("phase")).status = "aborted"

    def _fold_event(self, event: Dict[str, Any]) -> None:
        self._events_seen += 1
        ts = float(event.get("ts", 0.0) or 0.0)
        if ts > self._last_ts:
            self._last_ts = ts
        event_type = event.get("type")
        if event_type == "run_start":
            self._run_id = event.get("run")
            self._ended = False
        elif event_type == "run_end":
            self._ended = True
        elif event_type == "heartbeat":
            for pid in (event.get("workers") or [event.get("pid")]):
                if pid is not None:
                    self._workers[int(pid)] = ts
        elif event_type == "worker_start":
            pid = event.get("pid")
            if pid is not None:
                self._workers[int(pid)] = ts
        elif (event_type == "counter"
                and event.get("name") == "campaign_progress"):
            attrs = event.get("attrs") or {}
            phase = str(attrs.get("phase", "?"))
            self._samples.setdefault(phase, []).append(
                (ts, float(event.get("value", 0.0))))
        elif event_type == "fault_audit":
            self._audits.append(event)
        elif event_type == "metrics":
            snapshot = event.get("snapshot")
            if isinstance(snapshot, dict):
                self._metrics.merge(snapshot)
        elif event_type == "supervisor":
            action = event.get("action")
            if action in self._tallies:
                self._tallies[action] += 1
            elif action == "drain":
                self._aborted = True
        elif event_type == "truncated_tail":
            self._truncated += 1

    # -- derived views -------------------------------------------------
    def _rate(self) -> Optional[float]:
        """Windows per second from the ``campaign_progress`` trail.

        Computed from first-to-last *deltas* per phase, so a resumed
        run's non-zero baseline (satellite: the journal seeds the first
        sample) never inflates the rate.
        """
        delta = 0.0
        lo_ts: Optional[float] = None
        hi_ts: Optional[float] = None
        for samples in self._samples.values():
            if not samples:
                continue
            first_ts, first_value = samples[0]
            last_ts, last_value = samples[-1]
            delta += max(0.0, last_value - first_value)
            lo_ts = first_ts if lo_ts is None else min(lo_ts, first_ts)
            hi_ts = last_ts if hi_ts is None else max(hi_ts, last_ts)
        if delta <= 0 or lo_ts is None or hi_ts is None or hi_ts <= lo_ts:
            return None
        return delta / (hi_ts - lo_ts)

    def _state(self) -> str:
        if self._aborted:
            return "aborted"
        if self._ended:
            if any(p.quarantined for p in self._phases.values()):
                return "complete-with-quarantine"
            return "complete"
        if (self._phases or self._run_id is not None
                or self._events_seen or self._journal_records):
            return "running"
        return "unknown"

    def poll(self) -> CampaignStatus:
        """Drain both followers and return the folded snapshot."""
        for entry in self._journal.poll():
            self._fold_journal(entry)
        events = self._events.poll()
        if self._events.rotations != self._seen_rotations:
            self._seen_rotations = self._events.rotations
            self._reset_event_state()
        for event in events:
            self._fold_event(event)
        rate = self._rate()
        remaining = sum(p.windows_remaining
                        for p in self._phases.values())
        eta = (remaining / rate if rate and remaining > 0
               and not self._ended else None)
        return CampaignStatus(
            run_dir=str(self.run_dir), run_id=self._run_id,
            state=self._state(),
            phases={name: PhaseProgress(**vars(slot))
                    for name, slot in self._phases.items()},
            workers=dict(self._workers),
            throughput=rate, eta_seconds=eta,
            aggregates=aggregates_from_events(self._audits),
            metrics=self._metrics.snapshot(),
            retries=self._tallies["retry"],
            timeouts=self._tallies["timeout"],
            pool_rebuilds=self._tallies["pool_rebuild"],
            resumes=self._resumes,
            events_seen=self._events_seen,
            journal_records=self._journal_records,
            truncated_tails=self._truncated + (
                1 if self._events.pending_tail else 0),
            rotations=self._events.rotations,
            updated_at=self._last_ts)


# ----------------------------------------------------------------------
# rendering (``repro status`` / ``repro top``)
# ----------------------------------------------------------------------
def _format_eta(seconds: Optional[float]) -> str:
    if seconds is None:
        return "-"
    seconds = int(round(seconds))
    if seconds >= 3600:
        return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"
    if seconds >= 60:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds}s"


def _progress_bar(done: int, total: int, width: int = 24) -> str:
    if total <= 0:
        return "-" * width
    filled = min(width, int(round(width * done / total)))
    return "#" * filled + "." * (width - filled)


def render_status(status: CampaignStatus) -> str:
    """Human-readable multi-line snapshot (shared by status/top)."""
    lines = [f"campaign {status.run_dir}"]
    run = f"   run {status.run_id}" if status.run_id else ""
    lines.append(f"state {status.state}{run}   workers "
                 f"{len(status.workers)}   resumes {status.resumes}")
    if status.phases:
        lines.append(f"{'phase':14s} {'scheme':12s} "
                     f"{'windows':>13s}  {'bar':24s} {'chunks':>9s}  "
                     f"status")
        for slot in status.phases.values():
            windows = f"{slot.windows_done}/{slot.windows_total}"
            chunks = f"{slot.chunks_done}/{slot.chunks_total}"
            lines.append(
                f"{slot.phase:14s} {slot.scheme:12s} {windows:>13s}  "
                f"{_progress_bar(slot.windows_done, slot.windows_total)} "
                f"{chunks:>9s}  {slot.status}")
    rate = (f"{status.throughput:.2f} windows/s"
            if status.throughput else "-")
    lines.append(f"throughput {rate}   eta {_format_eta(status.eta_seconds)}"
                 f"   quarantined {status.quarantined}")
    lines.append(f"retries {status.retries}   timeouts {status.timeouts}"
                 f"   pool rebuilds {status.pool_rebuilds}   events "
                 f"{status.events_seen}   journal {status.journal_records}")
    aggregates = status.aggregates
    if aggregates.get("applied"):
        mix = aggregates.get("recovery_mix", {})
        mix_text = "  ".join(f"{label}:{count}"
                             for label, count in mix.items() if count)
        lines.append(f"audited {aggregates['records']} faults "
                     f"({aggregates['applied']} applied)   "
                     f"recovery {mix_text or 'none yet'}")
    if status.truncated_tails:
        lines.append(f"note: {status.truncated_tails} torn line(s) "
                     f"buffered (writer mid-append)")
    return "\n".join(lines)


__all__ = ["CampaignMonitor", "CampaignStatus", "JsonlFollower",
           "PhaseProgress", "render_status", "STATES"]
