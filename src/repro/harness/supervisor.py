"""Fault-tolerant campaign execution: the resilient supervisor.

Large tandem campaigns (thousands of windows per benchmark x scheme)
must survive the failures they study: a window that raises, or a
Ctrl-C, used to kill the whole run and discard every finished result.
The :class:`Supervisor` runs every window fan-out on one in-process
dispatcher with four layers of protection:

- **retry with exponential backoff + jitter** — a chunk whose
  classification raises is re-enqueued up to ``max_retries`` times;
  every attempt is recorded as a ``supervisor`` event in
  :mod:`repro.obs`;
- **poison-window quarantine** — a chunk that fails deterministically
  is bisected down to the offending window(s), which are quarantined
  into ``<run-dir>/poisoned.jsonl`` (config digest, window coordinates,
  traceback) while the rest of the campaign completes;
- **crash-safe journal + resume** — completed chunks are appended to a
  fsync'd JSONL journal keyed by the same content-addressed digests the
  artifact cache uses, with the chunk results pickled under
  ``<run-dir>/chunks/``; ``repro resume <run-dir>`` restarts a killed
  campaign from the journal, re-running only the missing chunks —
  bit-for-bit equal to an uninterrupted run;
- **graceful drain** — SIGINT/SIGTERM stop dispatch after the chunk in
  flight, flush the journal and abort with a resume hint.

The dispatcher threads one live golden core through the chunks in
window order, so the golden timeline is walked once, exactly as the
plain serial classifier walks it (the paper's tandem method resyncs the
golden state between windows, which makes that walk sequential). Hangs
need no watchdog: every window is bounded by ``max_window_cycles``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pathlib
import signal
import time
import traceback
from collections import deque
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import ReproError
from ..faults.classifier import WindowResult
from ..faults.model import FaultRecord
from ..obs.events import NULL_LOG, read_jsonl
from ..obs.manifest import config_digest
from ..obs.metrics import NULL_METRICS
from . import parallel as _parallel
from .cache import ArtifactCache

#: Campaign exit codes (``repro campaign`` / ``repro resume``).
EXIT_COMPLETE = 0
EXIT_QUARANTINE = 3
EXIT_ABORTED = 4


def _jitter_fraction(*coords: Any) -> float:
    """Deterministic pseudo-random fraction in [0, 1) from coordinates."""
    blob = ":".join(str(c) for c in coords).encode()
    word = int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")
    return word / 2.0 ** 64


def wait(seconds: float) -> None:
    """Idle the dispatcher while every pending chunk is backing off —
    the one place a fan-out waits (a module function, so profilers can
    time it)."""
    time.sleep(seconds)


class CampaignAborted(ReproError):
    """A supervised campaign drained before completing (SIGINT/SIGTERM).

    The journal under ``run_dir`` holds every completed chunk; ``repro
    resume <run_dir>`` finishes the campaign.
    """

    def __init__(self, phase: str, run_dir: Optional[pathlib.Path]):
        self.phase = phase
        self.run_dir = run_dir
        hint = (f"; resume with: repro resume {run_dir}" if run_dir else "")
        super().__init__(f"campaign drained during {phase} phase{hint}")


# ----------------------------------------------------------------------
# policy and reports
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SupervisorPolicy:
    """Retry/quarantine knobs for one supervised campaign."""

    #: Extra attempts after the first, per chunk.
    max_retries: int = 3
    #: Extra attempts for bisected sub-chunks (determinism is already
    #: suspected by the time a chunk is bisected).
    bisect_retries: int = 1
    #: Exponential backoff between attempts: base * 2^(attempt-1),
    #: capped, plus deterministic jitter (a fraction of the delay).
    backoff_base: float = 0.1
    backoff_max: float = 5.0
    backoff_jitter: float = 0.5
    #: Target windows per chunk — the journal (and retry) granularity:
    #: each uncovered run of windows splits into
    #: ``ceil(windows / chunk_windows)`` chunks.
    chunk_windows: int = 8
    #: Seconds between ``heartbeat`` events while a fan-out is in
    #: flight (worker health for ``repro top``); <= 0 disables them.
    heartbeat_interval: float = 5.0


@dataclass
class QuarantineRecord:
    """One poisoned window: the coordinates needed to reproduce it."""

    phase: str
    benchmark: str
    scheme: str
    index: int                   # position in the phase's fault list
    fault_index: int             # FaultRecord.index
    site: str
    bit: int
    inject_at_commit: int
    attempts: int
    reason: str                  # failure kind, e.g. "exception"
    error: str                   # last traceback / failure description
    config_digest: str

    def as_json(self) -> Dict[str, Any]:
        return {"type": "quarantine", **asdict(self)}


@dataclass
class PhaseReport:
    """What the supervisor did for one campaign phase."""

    phase: str
    benchmark: str
    scheme: str
    status: str = "complete"     # | "complete-with-quarantine" | "aborted"
    windows: List[WindowResult] = field(default_factory=list)
    quarantined: List[QuarantineRecord] = field(default_factory=list)
    retries: int = 0
    chunks_run: int = 0
    chunks_resumed: int = 0
    #: Live-progress coordinates behind the ``campaign_progress``
    #: counter trail (windows_done starts at the resumed baseline).
    windows_total: int = 0
    windows_done: int = 0

    @property
    def timeouts(self) -> int:
        """Always 0: windows are bounded by ``max_window_cycles``, so
        there is no watchdog. Kept for readers of the old report shape
        (``perfbench/probe.py`` counts attempts with it)."""
        return 0


# ----------------------------------------------------------------------
# crash-safe journal
# ----------------------------------------------------------------------
class CampaignJournal:
    """Append-only, fsync'd JSONL journal of campaign progress.

    Every line is one JSON object with a ``type`` field (``plan``,
    ``chunk_done``, ``quarantine``, ``phase_done``, ``resume``,
    ``drain``). Appends are flushed *and fsync'd* so a SIGKILL never
    loses an acknowledged chunk; a truncated trailing line (killed
    mid-append) becomes a synthesized ``truncated_tail`` note — exactly
    the :func:`repro.obs.events.read_events` contract — while corruption
    anywhere *before* the tail is a hard error (an fsync'd append-only
    journal cannot legitimately contain one).
    """

    def __init__(self, run_dir: str | os.PathLike):
        self.run_dir = pathlib.Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.path = self.run_dir / "journal.jsonl"
        self._handle = open(self.path, "a", encoding="utf-8")

    def append(self, record: Dict[str, Any]) -> None:
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        try:
            self._handle.close()
        except OSError:
            pass

    @staticmethod
    def read(run_dir: str | os.PathLike) -> List[Dict[str, Any]]:
        """Parsed journal records (:func:`repro.obs.events.read_jsonl`);
        a torn final line (SIGKILL mid-append) is reported as a
        ``truncated_tail`` note instead of failing the resume. Resume
        replay ignores the note (it only folds ``chunk_done``/
        ``quarantine``); ``repro report`` surfaces it so the
        interruption stays visible."""
        path = pathlib.Path(run_dir) / "journal.jsonl"
        return read_jsonl(path) if path.exists() else []


# ----------------------------------------------------------------------
# internal chunk bookkeeping
# ----------------------------------------------------------------------
@dataclass
class _Chunk:
    lo: int
    hi: int
    key: str
    max_attempts: int
    attempts: int = 0
    eligible_at: float = 0.0     # monotonic timestamp gating the retry
    last_reason: str = ""
    last_error: str = ""
    #: retry stash: ``(golden_clone, resume_commit)`` taken
    #: at this chunk's start boundary, so a backing-off chunk can be
    #: skipped (letting later chunks advance the live golden core) and
    #: still restart from its own boundary on revisit
    rewind: Optional[Tuple[Any, int]] = None

    @property
    def windows(self) -> int:
        return self.hi - self.lo


@dataclass
class _Phase:
    """Immutable coordinates shared by every chunk of one fan-out."""

    cfg: Any
    hw: Any
    benchmark: str
    scheme: Optional[str]
    label: str
    phase: str
    records: List[FaultRecord]
    digest: str


# ----------------------------------------------------------------------
# the supervisor
# ----------------------------------------------------------------------
class Supervisor:
    """Fault-tolerant, in-process window-chunk dispatcher.

    One instance supervises one campaign (both phases). With *run_dir*
    it journals completed chunks and pickles their results under
    ``run_dir/chunks/``, enabling crash-safe resume; without it the
    retry/quarantine machinery still runs, but an interrupted campaign
    cannot be resumed.
    """

    def __init__(self, policy: Optional[SupervisorPolicy] = None,
                 run_dir: Optional[str | os.PathLike] = None,
                 events=None, metrics=None):
        self.policy = policy or SupervisorPolicy()
        self.events = events if events is not None else NULL_LOG
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.run_dir = pathlib.Path(run_dir) if run_dir else None
        self.journal: Optional[CampaignJournal] = None
        self.chunk_store: Optional[ArtifactCache] = None
        self._journal_chunks: List[Dict[str, Any]] = []
        self._journal_quarantine: List[Dict[str, Any]] = []
        if self.run_dir is not None:
            for record in CampaignJournal.read(self.run_dir):
                if record.get("type") == "chunk_done":
                    self._journal_chunks.append(record)
                elif record.get("type") == "quarantine":
                    self._journal_quarantine.append(record)
            self.journal = CampaignJournal(self.run_dir)
            self.chunk_store = ArtifactCache(self.run_dir / "chunks")
            if self._journal_chunks or self._journal_quarantine:
                self.journal.append({
                    "type": "resume",
                    "chunks": len(self._journal_chunks),
                    "quarantined": len(self._journal_quarantine)})
        self._keyer = self.chunk_store or ArtifactCache(
            pathlib.Path(".") / ".repro-keys")   # key derivation only
        self.reports: List[PhaseReport] = []
        self.drain = False
        self._jitter_salt = 0
        self._last_heartbeat = 0.0

    # -- lifecycle -----------------------------------------------------
    def bind(self, events=None, metrics=None) -> None:
        """Late wiring from the owning ExperimentContext."""
        if events is not None and self.events is NULL_LOG:
            self.events = events
        if metrics is not None and self.metrics is NULL_METRICS:
            self.metrics = metrics

    def request_drain(self) -> None:
        """Stop submitting new chunks; flush and abort gracefully."""
        self.drain = True

    @contextmanager
    def graceful(self) -> Iterator["Supervisor"]:
        """Install SIGINT/SIGTERM handlers that trigger a graceful drain
        (a second signal aborts hard via KeyboardInterrupt)."""
        previous: Dict[int, Any] = {}

        def handler(signum, frame):
            if self.drain:
                raise KeyboardInterrupt
            self.request_drain()

        try:
            for sig in (signal.SIGINT, signal.SIGTERM):
                previous[sig] = signal.signal(sig, handler)
        except ValueError:          # not the main thread: run unguarded
            previous = {}
        try:
            yield self
        finally:
            for sig, old in previous.items():
                signal.signal(sig, old)

    def close(self) -> None:
        if self.journal is not None:
            self.journal.close()

    # -- campaign-level status -----------------------------------------
    @property
    def quarantined(self) -> List[QuarantineRecord]:
        return [q for report in self.reports for q in report.quarantined]

    @property
    def status(self) -> str:
        if any(r.status == "aborted" for r in self.reports):
            return "aborted"
        if self.quarantined:
            return "complete-with-quarantine"
        return "complete"

    @property
    def exit_code(self) -> int:
        return {"complete": EXIT_COMPLETE,
                "complete-with-quarantine": EXIT_QUARANTINE,
                "aborted": EXIT_ABORTED}[self.status]

    def adopt_quarantine(self,
                         quarantined: Sequence[QuarantineRecord]) -> None:
        """Take over one phase's quarantines from another supervisor
        (a prefetch worker's), so this campaign's status, exit code and
        quarantine report include them."""
        if not quarantined:
            return
        first = quarantined[0]
        self.reports.append(PhaseReport(
            phase=first.phase, benchmark=first.benchmark,
            scheme=first.scheme, status="complete-with-quarantine",
            quarantined=list(quarantined)))

    # -- main entry ----------------------------------------------------
    def classify_windows(self, cfg, hw, benchmark: str,
                         scheme: Optional[str],
                         records: Sequence[FaultRecord], *, phase: str,
                         ctx=None) -> PhaseReport:
        """Classify *records* under supervision; positionally identical
        to ``classifier.run(records)`` minus any quarantined windows."""
        records = list(records)
        label = scheme or "baseline"
        phase_ctx = _Phase(cfg=cfg, hw=hw, benchmark=benchmark,
                           scheme=scheme, label=label, phase=phase,
                           records=records,
                           digest=config_digest(cfg, hw))
        report = PhaseReport(phase=phase, benchmark=benchmark, scheme=label)
        self.reports.append(report)
        if not records:
            return report

        done: Dict[int, Tuple[int, List[WindowResult]]] = {}
        quarantined: List[QuarantineRecord] = []
        self._load_journal_state(phase_ctx, done, quarantined, report)
        report.windows_total = len(records)
        report.windows_done = sum(hi - lo for lo, (hi, _) in done.items())

        gaps = self._gaps(len(records), done, quarantined)
        bounds = self._chunk_gaps(gaps, records)
        self._emit("plan", phase_ctx, chunks=len(bounds),
                   windows=len(records), resumed=report.chunks_resumed)
        if self.journal is not None:
            self.journal.append({
                "type": "plan", "phase": phase, "benchmark": benchmark,
                "scheme": label, "windows": len(records),
                "bounds": [list(b) for b in bounds],
                "resumed_chunks": report.chunks_resumed,
                "config_digest": phase_ctx.digest})
        # baseline progress sample: a resumed run's monitor restarts ETA
        # estimation from the journal-adopted windows, not from zero
        self._progress(phase_ctx, report)

        if bounds:
            chunks = deque(
                _Chunk(lo, hi, self._chunk_key(phase_ctx, lo, hi),
                       max_attempts=self.policy.max_retries + 1)
                for lo, hi in bounds)
            self._run_serial(phase_ctx, chunks, done, quarantined, report,
                             ctx=ctx)

        if report.status == "aborted":
            self._emit("drain", phase_ctx)
            if self.journal is not None:
                self.journal.append({"type": "drain", "phase": phase})
            raise CampaignAborted(phase, self.run_dir)

        report.windows = [window for lo in sorted(done)
                          for window in done[lo][1]]
        report.quarantined = sorted(quarantined, key=lambda q: q.index)
        if report.quarantined:
            report.status = "complete-with-quarantine"
        if self.journal is not None:
            self.journal.append({"type": "phase_done", "phase": phase,
                                 "status": report.status,
                                 "windows": len(report.windows),
                                 "quarantined": len(report.quarantined)})
        self._emit("phase_done", phase_ctx, status=report.status,
                   windows=len(report.windows),
                   quarantined=len(report.quarantined))
        return report

    # -- chunk identity and resume -------------------------------------
    def _chunk_key(self, phase_ctx: _Phase, lo: int, hi: int) -> str:
        """Content-addressed chunk identity: configuration, phase, the
        full fault plan and the window range — the same digest family
        the artifact cache uses, so a journal line proves exactly which
        computation it stands for."""
        return self._keyer.key(
            "chunk", cfg=phase_ctx.cfg, hw=phase_ctx.hw,
            benchmark=phase_ctx.benchmark, scheme=phase_ctx.label,
            phase=phase_ctx.phase, lo=lo, hi=hi,
            records=phase_ctx.records)

    def _load_journal_state(self, phase_ctx: _Phase,
                            done: Dict[int, Tuple[int, List[WindowResult]]],
                            quarantined: List[QuarantineRecord],
                            report: PhaseReport) -> None:
        """Adopt completed chunks and quarantines from a prior run's
        journal. A journaled chunk counts only when its recorded key
        matches the key recomputed from the live configuration (same
        config, same fault plan, same range) *and* its pickled results
        load — anything else is re-run."""
        if self.chunk_store is None:
            return
        for entry in self._journal_chunks:
            if entry.get("phase") != phase_ctx.phase:
                continue
            lo, hi = int(entry.get("lo", -1)), int(entry.get("hi", -1))
            if not (0 <= lo < hi <= len(phase_ctx.records)):
                continue
            if entry.get("key") != self._chunk_key(phase_ctx, lo, hi):
                continue
            if lo in done:
                continue
            windows = self.chunk_store.get("chunk", entry["key"])
            if windows is None:
                continue
            done[lo] = (hi, windows)
            report.chunks_resumed += 1
        for entry in self._journal_quarantine:
            if (entry.get("phase") != phase_ctx.phase
                    or entry.get("benchmark") != phase_ctx.benchmark
                    or entry.get("scheme") != phase_ctx.label
                    or entry.get("config_digest") != phase_ctx.digest):
                continue
            index = int(entry.get("index", -1))
            if not 0 <= index < len(phase_ctx.records):
                continue
            if any(q.index == index for q in quarantined):
                continue
            quarantined.append(QuarantineRecord(
                phase=phase_ctx.phase, benchmark=phase_ctx.benchmark,
                scheme=phase_ctx.label, index=index,
                fault_index=int(entry.get("fault_index", -1)),
                site=str(entry.get("site", "?")),
                bit=int(entry.get("bit", -1)),
                inject_at_commit=int(entry.get("inject_at_commit", -1)),
                attempts=int(entry.get("attempts", 0)),
                reason=str(entry.get("reason", "?")),
                error=str(entry.get("error", "")),
                config_digest=phase_ctx.digest))

    @staticmethod
    def _gaps(count: int, done: Dict[int, Tuple[int, List[WindowResult]]],
              quarantined: List[QuarantineRecord]) -> List[Tuple[int, int]]:
        """Maximal uncovered ``[lo, hi)`` runs of the window range."""
        covered = sorted([(lo, hi) for lo, (hi, _) in done.items()]
                         + [(q.index, q.index + 1) for q in quarantined])
        gaps = []
        cursor = 0
        for lo, hi in covered:
            if lo > cursor:
                gaps.append((cursor, lo))
            cursor = max(cursor, hi)
        if cursor < count:
            gaps.append((cursor, count))
        return gaps

    def _chunk_gaps(self, gaps: List[Tuple[int, int]],
                    records: Sequence[FaultRecord]) -> List[Tuple[int, int]]:
        """Split uncovered runs into chunks of ~``chunk_windows`` each.
        Cuts are window-aligned per gap: faults sharing an injection
        commit stay in one chunk (gap edges themselves are fixed — they
        border windows already done or quarantined)."""
        per_chunk = max(1, self.policy.chunk_windows)
        bounds: List[Tuple[int, int]] = []
        for lo, hi in gaps:
            span = hi - lo
            bounds.extend((lo + a, lo + b) for a, b in _parallel.chunk_bounds(
                span, math.ceil(span / per_chunk)))
        return _parallel.align_chunk_bounds(bounds, records)

    # -- dispatch ------------------------------------------------------
    def _run_serial(self, phase_ctx: _Phase, chunks: "deque[_Chunk]",
                    done, quarantined, report: PhaseReport,
                    ctx=None) -> None:
        """In-process execution threading one live golden core through
        the chunks in window order.

        No per-chunk prefix replay: a healthy supervised campaign does
        exactly the simulation work of the plain serial classifier, plus
        one in-memory ``clone()`` per chunk boundary kept as the rewind
        point for retries. SIGKILL-grade failures are covered by the
        journal + resume. A chunk in retry backoff is *skipped*, not
        slept on: later ready chunks keep dispatching (threading the
        live golden forward) and the backing-off chunk restarts from its
        stashed boundary clone (``_Chunk.rewind``) once its
        ``eligible_at`` deadline passes.
        """
        queue = deque(sorted(chunks, key=lambda c: c.lo))
        if not queue:
            return
        if ctx is None:
            ctx = _parallel._worker_context(phase_ctx.cfg, phase_ctx.hw)
        campaign = ctx.build_campaign(phase_ctx.benchmark)
        if phase_ctx.scheme is None:
            factory = campaign.baseline_factory
        else:
            factory = lambda: ctx.make_core(phase_ctx.benchmark,
                                            phase_ctx.scheme)
        records = phase_ctx.records
        golden = None        # live golden core, advanced to `position`
        position = 0
        resume_commit = 0

        def golden_for(chunk: _Chunk):
            """The golden core advanced to *chunk*'s start boundary."""
            nonlocal golden, position, resume_commit
            if chunk.rewind is not None and (golden is None
                                             or position != chunk.lo):
                # revisit of a skipped chunk: the live golden moved past
                # this boundary while the chunk backed off — restart
                # from the clone stashed when it failed
                golden, resume_commit = chunk.rewind
                position = chunk.lo
                return golden
            if golden is None or position > chunk.lo:
                # min-lo dispatch makes a live golden past the boundary
                # unreachable for chunks without a rewind stash;
                # cold-rebuild from window zero if it ever trips
                golden, position, resume_commit = factory(), 0, 0
            if position < chunk.lo:     # adopted/quarantined gap: golden-
                campaign.classifier(factory).advance_golden(   # only step
                    golden, records[position:chunk.lo])
                position = chunk.lo
                resume_commit = records[chunk.lo - 1].inject_at_commit
            return golden

        while queue:
            if self.drain:
                report.status = "aborted"
                return
            now = time.monotonic()
            # skip-and-revisit: never sleep on a backing-off chunk while
            # other chunks are ready — pick the lowest eligible window
            # range (keeps the golden threading forward when possible)
            chunk = min((c for c in queue if c.eligible_at <= now),
                        key=lambda c: c.lo, default=None)
            if chunk is None:
                wake = min(c.eligible_at for c in queue)
                wait(min(0.25, max(0.0, wake - now)))
                continue
            queue.remove(chunk)
            chunk.attempts += 1
            core = golden_for(chunk)
            boundary = core.clone()
            boundary_resume = resume_commit
            try:
                windows = campaign.classifier(factory).run(
                    records[chunk.lo:chunk.hi], golden=core,
                    resume_at_commit=resume_commit)
            except Exception:
                golden = boundary       # rewind to the chunk boundary
                resume_commit = boundary_resume
                # the stash must not alias the live golden: chunks that
                # run while this one backs off advance (mutate) `golden`
                chunk.rewind = (boundary.clone(), boundary_resume)
                self._note_failure(phase_ctx, chunk, report, "exception",
                                   traceback.format_exc(limit=8))
                retry: "deque[_Chunk]" = deque()
                self._requeue_or_split(phase_ctx, chunk, retry,
                                       quarantined, report)
                queue.extend(retry)
                continue
            position = chunk.hi
            resume_commit = records[chunk.hi - 1].inject_at_commit
            self._complete(phase_ctx, chunk, windows, done, report)
            self._maybe_heartbeat(phase_ctx, report, pending=len(queue))

    # -- backoff -------------------------------------------------------
    def _backoff(self, chunk: _Chunk) -> float:
        """Seconds before *chunk*'s next attempt: exponential in the
        attempt count plus deterministic jitter (no RNG, so a run is
        replayable), clamped so ``backoff_max`` is a true ceiling."""
        policy = self.policy
        delay = policy.backoff_base * 2.0 ** (chunk.attempts - 1)
        self._jitter_salt += 1
        jitter = _jitter_fraction("backoff", chunk.lo, chunk.hi,
                                  chunk.attempts, self._jitter_salt)
        return min(policy.backoff_max,
                   delay * (1.0 + policy.backoff_jitter * jitter))

    # -- outcome handling ----------------------------------------------
    def _emit(self, action: str, phase_ctx: _Phase, **fields: Any) -> None:
        self.events.emit("supervisor", action=action,
                         phase=phase_ctx.phase,
                         benchmark=phase_ctx.benchmark,
                         scheme=phase_ctx.label, **fields)

    def _progress(self, phase_ctx: _Phase, report: PhaseReport) -> None:
        """One ``campaign_progress`` counter sample (live ETA feed)."""
        self.events.counter("campaign_progress", report.windows_done,
                            phase=phase_ctx.phase,
                            benchmark=phase_ctx.benchmark,
                            scheme=phase_ctx.label,
                            total=report.windows_total)

    def _maybe_heartbeat(self, phase_ctx: _Phase, report: PhaseReport,
                         pending: int) -> None:
        """Rate-limited liveness beacon while a fan-out is in flight
        (sent between chunks, so none is running)."""
        interval = self.policy.heartbeat_interval
        if interval <= 0 or not self.events.enabled:
            return
        now = time.monotonic()
        if now - self._last_heartbeat < interval:
            return
        self._last_heartbeat = now
        self.events.emit("heartbeat", phase=phase_ctx.phase,
                         benchmark=phase_ctx.benchmark,
                         scheme=phase_ctx.label, running=0,
                         pending=pending, workers=[os.getpid()],
                         windows_done=report.windows_done,
                         windows_total=report.windows_total)
        self.metrics.gauge("supervisor_workers_alive").set(1)

    def _complete(self, phase_ctx: _Phase, chunk: _Chunk,
                  windows: List[WindowResult], done,
                  report: PhaseReport) -> None:
        done[chunk.lo] = (chunk.hi, windows)
        report.chunks_run += 1
        report.windows_done += chunk.windows
        self._emit("chunk_done", phase_ctx, lo=chunk.lo, hi=chunk.hi,
                   attempt=chunk.attempts, key=chunk.key)
        if self.journal is not None:
            self.chunk_store.put("chunk", chunk.key, windows)
            self.journal.append({
                "type": "chunk_done", "phase": phase_ctx.phase,
                "key": chunk.key, "lo": chunk.lo, "hi": chunk.hi,
                "windows": len(windows), "attempt": chunk.attempts})
        self._progress(phase_ctx, report)
        if self.metrics.enabled:
            self.metrics.counter("supervisor_chunks_done_total").inc()
            self.metrics.counter("supervisor_windows_done_total").inc(
                chunk.windows)

    def _note_failure(self, phase_ctx: _Phase, chunk: _Chunk,
                      report: PhaseReport, reason: str,
                      error: str) -> None:
        chunk.last_reason = reason
        chunk.last_error = error
        self.metrics.counter("supervisor_failures_total").inc()
        self._emit("retry", phase_ctx, lo=chunk.lo, hi=chunk.hi,
                   attempt=chunk.attempts, reason=reason,
                   error=error[-400:])

    def _requeue_or_split(self, phase_ctx: _Phase, chunk: _Chunk,
                          pending, quarantined: List[QuarantineRecord],
                          report: PhaseReport) -> None:
        """Retry with backoff; once the attempt budget is spent, bisect
        toward the offending window(s) and quarantine at size one."""
        if chunk.attempts < chunk.max_attempts:
            report.retries += 1
            self.metrics.counter("supervisor_retries_total").inc()
            chunk.eligible_at = time.monotonic() + self._backoff(chunk)
            pending.append(chunk)
            return
        if chunk.windows <= 1:
            self._quarantine(phase_ctx, chunk, quarantined, report)
            return
        mid = (chunk.lo + chunk.hi) // 2
        self._emit("bisect", phase_ctx, lo=chunk.lo, hi=chunk.hi)
        budget = self.policy.bisect_retries + 1
        # the lower half shares the parent's start boundary, so its
        # rewind stash still applies; the upper half is reached by
        # golden-only stepping from the live core
        pending.append(_Chunk(chunk.lo, mid,
                              self._chunk_key(phase_ctx, chunk.lo, mid),
                              max_attempts=budget, rewind=chunk.rewind))
        pending.append(_Chunk(mid, chunk.hi,
                              self._chunk_key(phase_ctx, mid, chunk.hi),
                              max_attempts=budget))

    def _quarantine(self, phase_ctx: _Phase, chunk: _Chunk,
                    quarantined: List[QuarantineRecord],
                    report: PhaseReport) -> None:
        record = phase_ctx.records[chunk.lo]
        quarantine = QuarantineRecord(
            phase=phase_ctx.phase, benchmark=phase_ctx.benchmark,
            scheme=phase_ctx.label, index=chunk.lo,
            fault_index=record.index, site=record.site.value,
            bit=record.bit, inject_at_commit=record.inject_at_commit,
            attempts=chunk.attempts, reason=chunk.last_reason or "?",
            error=chunk.last_error, config_digest=phase_ctx.digest)
        quarantined.append(quarantine)
        self.metrics.counter("supervisor_quarantined_total").inc()
        self._emit("quarantine", phase_ctx, lo=chunk.lo, hi=chunk.hi,
                   attempt=chunk.attempts, reason=quarantine.reason)
        if self.run_dir is not None:
            path = self.run_dir / "poisoned.jsonl"
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(quarantine.as_json(),
                                        sort_keys=True) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
        if self.journal is not None:
            self.journal.append(quarantine.as_json())


# ----------------------------------------------------------------------
# run-dir inspection (``repro report --run-dir`` / ``repro resume``)
# ----------------------------------------------------------------------
def read_poisoned(run_dir: str | os.PathLike) -> List[Dict[str, Any]]:
    """Parsed ``poisoned.jsonl`` records (empty when none quarantined)."""
    path = pathlib.Path(run_dir) / "poisoned.jsonl"
    records: List[Dict[str, Any]] = []
    if not path.exists():
        return records
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                continue
    return records


def summarize_run_dir(run_dir: str | os.PathLike) -> Dict[str, Any]:
    """Journal roll-up for one campaign run directory."""
    journal = CampaignJournal.read(run_dir)
    by_type: Dict[str, int] = {}
    phases: Dict[str, Dict[str, Any]] = {}
    for entry in journal:
        entry_type = entry.get("type", "?")
        by_type[entry_type] = by_type.get(entry_type, 0) + 1
        phase = entry.get("phase")
        if phase is None:
            continue
        slot = phases.setdefault(phase, {"chunks_done": 0, "windows": 0,
                                         "status": "incomplete"})
        if entry_type == "chunk_done":
            slot["chunks_done"] += 1
            slot["windows"] += int(entry.get("windows", 0))
        elif entry_type == "phase_done":
            slot["status"] = entry.get("status", "complete")
    poisoned = read_poisoned(run_dir)
    return {"run_dir": str(run_dir), "journal_records": len(journal),
            "by_type": dict(sorted(by_type.items())), "phases": phases,
            "poisoned": len(poisoned),
            "poisoned_windows": [
                {k: p.get(k) for k in ("phase", "index", "site", "bit",
                                       "reason")}
                for p in poisoned]}


__all__ = [
    "CampaignAborted",
    "CampaignJournal",
    "EXIT_ABORTED",
    "EXIT_COMPLETE",
    "EXIT_QUARANTINE",
    "PhaseReport",
    "QuarantineRecord",
    "Supervisor",
    "SupervisorPolicy",
    "read_poisoned",
    "summarize_run_dir",
]
