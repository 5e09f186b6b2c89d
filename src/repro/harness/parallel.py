"""Process-parallel execution layer for figure artefacts.

Whole fault-free timing runs, SRT-iso runs, characterisation campaigns
and (benchmark, scheme) coverage phases are independent given the
configuration; :meth:`ExperimentContext.prefetch` fans them out across
a worker pool. Results are bit-for-bit identical to serial execution
because every worker re-derives its state from the explicit seeds in
:class:`~repro.harness.experiment.ExperimentConfig` (design decision #10
in DESIGN.md — nothing is shared between workers except the immutable
configuration).

Fault windows inside one campaign phase are *not* fanned out: the
golden timeline is one sequential walk (the tandem method resyncs the
golden state between windows), so the supervisor
(:mod:`repro.harness.supervisor`) classifies them in-process, threading
one live golden core through the chunks. This module still supplies its
chunk geometry (:func:`chunk_bounds`, :func:`align_chunk_bounds`).

Workers are plain processes (``concurrent.futures.ProcessPoolExecutor``,
fork start method where available); each keeps a private serial
``ExperimentContext`` memoised per (config, hardware) pair so repeated
tasks for the same configuration share generated programs. If a pool
cannot be created (restricted sandboxes), execution degrades to the
serial path — same results, no parallelism.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Dict, List, Sequence, Tuple

from ..config import HardwareConfig
from ..faults import CampaignResult
from ..faults.model import FaultRecord
from ..obs.events import NULL_LOG, WORKER_DIR_ENV, worker_task_span
from ..obs.metrics import NULL_METRICS

# ----------------------------------------------------------------------
# pool plumbing
# ----------------------------------------------------------------------
def default_jobs() -> int:
    return os.cpu_count() or 1


def chunk_bounds(count: int, chunks: int) -> List[Tuple[int, int]]:
    """Split ``range(count)`` into at most *chunks* contiguous,
    near-equal ``(lo, hi)`` slices covering every index exactly once."""
    if count <= 0:
        return []
    chunks = max(1, min(chunks, count))
    base, extra = divmod(count, chunks)
    bounds = []
    lo = 0
    for i in range(chunks):
        hi = lo + base + (1 if i < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def align_chunk_bounds(bounds: Sequence[Tuple[int, int]],
                       records: Sequence[FaultRecord]
                       ) -> List[Tuple[int, int]]:
    """Snap chunk cuts so faults sharing an ``inject_at_commit`` (one
    run-window) never split across chunks.

    A raw :func:`chunk_bounds` cut through the middle of a window would
    split one run-window's faults across two chunks (and two journal
    entries), so every producer of window chunks runs its bounds
    through this.
    Each interior cut is snapped *down* to the start of the window it
    lands in; cuts that collapse onto each other drop the resulting
    empty chunk. Bounds may cover several non-contiguous runs (the
    supervisor's gap list) — cuts only move within their own run, so
    covered/quarantined windows between runs are never re-entered. Plans with all-distinct injection points
    (every evenly spaced campaign) pass through unchanged, keeping chunk
    identities — cache keys, journal chunk keys — stable.
    """
    bounds = list(bounds)
    if not bounds:
        return []
    runs: List[List[Tuple[int, int]]] = [[bounds[0]]]
    for bound in bounds[1:]:
        if bound[0] == runs[-1][-1][1]:
            runs[-1].append(bound)
        else:
            runs.append([bound])
    aligned: List[Tuple[int, int]] = []
    for run in runs:
        floor, ceil = run[0][0], run[-1][1]
        edges = [floor]
        for lo, _hi in run[1:]:
            cut = lo
            while cut > floor and (records[cut].inject_at_commit
                                   == records[cut - 1].inject_at_commit):
                cut -= 1
            # a cut snapped at or below the previous edge leaves an
            # empty chunk: drop it (the previous chunk absorbs it)
            if cut > edges[-1]:
                edges.append(cut)
        edges.append(ceil)
        aligned.extend((a, b) for a, b in zip(edges, edges[1:]) if b > a)
    return aligned


def _mp_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:      # platforms without fork
        return multiprocessing.get_context("spawn")


class ParallelExecutor:
    """A thin, deterministic fan-out wrapper over a process pool.

    ``map`` preserves task order, so merged results are positionally
    identical to the serial loop. With ``jobs == 1`` (or one task, or a
    pool that fails to start) it degrades to in-process execution.
    """

    def __init__(self, jobs: int | None = None, events=None, metrics=None):
        self.jobs = max(1, jobs if jobs is not None else default_jobs())
        self.events = events if events is not None else NULL_LOG
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self._pool_broken = False

    def map(self, fn: Callable[[Any], Any],
            tasks: Sequence[Any]) -> List[Any]:
        tasks = list(tasks)
        self.metrics.counter("dispatcher_tasks_total").inc(len(tasks))
        if self.jobs == 1 or len(tasks) <= 1 or self._pool_broken:
            return [fn(task) for task in tasks]
        self.metrics.counter("dispatcher_fanouts_total").inc()
        self.metrics.gauge("dispatcher_jobs").set(self.jobs)
        # Hand workers their event spool through the environment (fork
        # inherits it); absorb their per-worker files once the fan-out
        # completes so the main log stays the single source of truth.
        spool = self.events.worker_spool() if self.events.enabled else None
        if spool is not None:
            os.environ[WORKER_DIR_ENV] = spool
        try:
            return self._map_pool(fn, tasks)
        finally:
            if spool is not None:
                os.environ.pop(WORKER_DIR_ENV, None)
                self.events.absorb_worker_files()

    def _map_pool(self, fn: Callable[[Any], Any],
                  tasks: List[Any]) -> List[Any]:
        workers = min(self.jobs, len(tasks))
        try:
            with ProcessPoolExecutor(max_workers=workers,
                                     mp_context=_mp_context()) as pool:
                return list(pool.map(fn, tasks, chunksize=1))
        except (OSError, PermissionError) as exc:
            # Restricted environment (no fork/semaphores): fall back to
            # the serial path, once, loudly on stderr.
            print(f"repro: process pool unavailable ({exc}); "
                  f"running serially", file=sys.stderr)
            self._pool_broken = True
            return [fn(task) for task in tasks]


# ----------------------------------------------------------------------
# worker-side context (one per process, memoised per configuration)
# ----------------------------------------------------------------------
_WORKER_CONTEXTS: Dict[Tuple[Any, HardwareConfig], Any] = {}


def _worker_context(cfg, hw: HardwareConfig):
    """A serial, cache-less ExperimentContext private to this worker.

    Memoised per (config, hardware) so consecutive tasks for the same
    campaign share generated programs; bounded so a long-lived pool
    cannot accumulate contexts.
    """
    from .experiment import ExperimentContext    # local: avoid cycle
    key = (cfg, hw)
    ctx = _WORKER_CONTEXTS.get(key)
    if ctx is None:
        if len(_WORKER_CONTEXTS) >= 4:
            _WORKER_CONTEXTS.clear()
        ctx = ExperimentContext(cfg, hw, jobs=1, cache=None)
        _WORKER_CONTEXTS[key] = ctx
    return ctx


# ----------------------------------------------------------------------
# artefact-level tasks (whole runs / campaigns per worker)
# ----------------------------------------------------------------------
def fault_free_task(args) -> Any:
    cfg, hw, benchmark, scheme = args
    with worker_task_span("worker:fault_free", benchmark=benchmark,
                          scheme=scheme):
        return _worker_context(cfg, hw).fault_free(benchmark, scheme)


def srt_task(args) -> Any:
    cfg, hw, benchmark, coverage = args
    with worker_task_span("worker:srt", benchmark=benchmark,
                          coverage=coverage):
        return _worker_context(cfg, hw).srt_run(benchmark, coverage)


def characterize_task(args) -> CampaignResult:
    cfg, hw, benchmark = args
    with worker_task_span("worker:characterize", benchmark=benchmark):
        _, characterization = _worker_context(cfg, hw).campaign(benchmark)
        return characterization


def coverage_task(args) -> CampaignResult:
    cfg, hw, benchmark, scheme, characterization = args
    with worker_task_span("worker:coverage", benchmark=benchmark,
                          scheme=scheme):
        ctx = _worker_context(cfg, hw)
        if benchmark not in ctx._campaigns:
            # the parent's characterisation, so the worker never
            # re-classifies the baseline phase
            ctx._adopt_characterization(benchmark, characterization,
                                        from_cache=False)
        return ctx.coverage(benchmark, scheme)


def chunk_checkpoints(*_args: Any, **_kwargs: Any):
    """Retired with the window-level process pool: no boundary
    checkpoints are captured any more. The name stays only because the
    benchmark's tracing probe (``perfbench/probe.py``) wraps it."""
    raise NotImplementedError("window-level checkpoint shipping was "
                              "removed; windows classify in-process")


__all__ = [
    "ParallelExecutor",
    "align_chunk_bounds",
    "chunk_bounds",
    "default_jobs",
    "fault_free_task",
    "srt_task",
    "characterize_task",
    "coverage_task",
]
