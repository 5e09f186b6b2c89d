"""Probes installed into a benchmark task process before it runs.

The benchmark measures the program from outside: this module wraps
public functions and methods of the ``repro`` package at their module
or class attribute (never editing ``src/``) and records what happens
at each layer boundary. Two modes:

``setup``
    Only the set-up boundary: CLI parsing and program generation
    (``build_smt_programs``). Used on untimed-by-tracing runs, so the
    end-to-end ``setup_s`` metric can be summed over every process of
    a pass, forked pool workers included. A handful of calls per
    process; the cost is negligible.
``trace``
    Every layer of the per-layer table in README.md: spans (name,
    start, end, parent, pid) for calls that happen at most a few
    thousand times per process, and aggregate (count, seconds) cells
    for hot per-instruction calls such as the screening checks.

Wrappers are installed before the command runs, so forked pool
workers inherit them. A worker writes its records after every pool
task it executes (the supervisor SIGKILLs idle workers at teardown, so
nothing may wait for process exit); the root process writes at the
end. Each process appends JSON lines to ``<dir>/<pid>.jsonl``; the
driver merges the files of a pass (see ``stats.merge_records``).

Clock: ``time.monotonic()``, which is CLOCK_MONOTONIC on Linux and so
comparable across the processes of one machine.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import pickle
import sys
import time
from typing import Any, Callable, Dict, List, Optional

DIR_ENV = "PERFBENCH_PROBE_DIR"
MODE_ENV = "PERFBENCH_PROBE_MODE"

_dir: Optional[str] = None
_root_pid = os.getpid()
_ids = itertools.count()
_spans: List[Dict[str, Any]] = []       # finished spans not yet written
_stack: List[str] = []                  # ids of the open spans
_depth: Dict[str, int] = {}             # open spans per name
_aggs: Dict[str, List[float]] = {}      # name -> [calls, seconds]
_counts: Dict[str, float] = {}          # name -> amount
_fork_parent: Optional[str] = None      # parent's open span at fork
_proc_start = time.monotonic()


# ----------------------------------------------------------------------
# recording
# ----------------------------------------------------------------------
def count(name: str, amount: float = 1) -> None:
    _counts[name] = _counts.get(name, 0) + amount


def _open(name: str):
    """Open a span; None when a span of the same name is already open
    in this process (only the outermost call of a name is timed, so a
    method that calls itself is never counted twice)."""
    if _depth.get(name):
        return None
    _depth[name] = 1
    span_id = f"{os.getpid()}:{next(_ids)}"
    parent = _stack[-1] if _stack else _fork_parent
    _stack.append(span_id)
    return (span_id, parent, name, time.monotonic())


def _close(token) -> None:
    span_id, parent, name, start = token
    end = time.monotonic()
    _stack.pop()
    _depth[name] = 0
    _spans.append({"id": span_id, "parent": parent, "name": name,
                   "start": start, "end": end, "pid": os.getpid()})


def flush() -> None:
    """Append this process's pending records to its per-pid file."""
    if _dir is None:
        return
    record = {"pid": os.getpid(), "root": os.getpid() == _root_pid,
              "proc_start": _proc_start, "seen": time.monotonic(),
              "spans": list(_spans), "aggs": dict(_aggs),
              "counts": dict(_counts)}
    with open(os.path.join(_dir, f"{os.getpid()}.jsonl"), "a",
              encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")
    _spans.clear()
    _aggs.clear()
    _counts.clear()


def _after_fork_in_child() -> None:
    global _fork_parent, _proc_start
    _fork_parent = _stack[-1] if _stack else _fork_parent
    _proc_start = time.monotonic()
    _spans.clear()
    _stack.clear()
    _depth.clear()
    _aggs.clear()
    _counts.clear()


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def spanned(name: str, original: Callable,
            after: Optional[Callable] = None,
            before: Optional[Callable] = None) -> Callable:
    """*original* wrapped in a span. After an outermost call,
    ``after(args, result, state)`` runs, where ``state`` is what
    ``before(args)`` returned ahead of the call (None without one)."""
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        token = _open(name)
        if token is None:
            return original(*args, **kwargs)
        state = before(args) if before else None
        try:
            result = original(*args, **kwargs)
        finally:
            _close(token)
        if after:
            after(args, result, state)
        return result
    return wrapper


def aggregated(name: str, original: Callable) -> Callable:
    """*original* counted and timed into one aggregate cell, no span:
    for calls made once per simulated instruction."""
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        started = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            cell = _aggs.get(name)
            if cell is None:
                cell = _aggs[name] = [0, 0.0]
            cell[0] += 1
            cell[1] += time.perf_counter() - started
    return wrapper


def patch_function(module, attr: str, make: Callable) -> None:
    """Replace ``module.attr`` with ``make(original)`` in every loaded
    ``repro`` module that imported the same object by name."""
    original = getattr(module, attr)
    wrapper = make(original)
    for loaded in list(sys.modules.values()):
        if getattr(loaded, "__name__", "").startswith("repro") \
                and getattr(loaded, attr, None) is original:
            setattr(loaded, attr, wrapper)


def patch_method(cls, attr: str, make: Callable) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(make(raw.__func__)))
    else:
        setattr(cls, attr, make(raw))


# ----------------------------------------------------------------------
# what is probed
# ----------------------------------------------------------------------
def _install_setup() -> None:
    import repro.cli as cli
    import repro.workloads.generator as generator

    def flush_if_worker(args, result, state):
        if os.getpid() != _root_pid:
            flush()     # a pool worker may be SIGKILLed when idle

    patch_function(generator, "build_smt_programs",
                   lambda f: spanned("workloads.build", f,
                                     after=flush_if_worker))

    original_parser = cli.build_parser

    @functools.wraps(original_parser)
    def build_parser():
        parser = original_parser()
        parser.parse_args = spanned("cli.parse", parser.parse_args)
        return parser
    cli.build_parser = build_parser


def _core_state(args):
    return args[0].stats.cycles, args[0].stats.committed


def _core_delta(args, result, state):
    count("pipeline.sim_cycles", args[0].stats.cycles - state[0])
    count("pipeline.committed", args[0].stats.committed - state[1])


def _windows(args, result, state):
    count("faults.windows", len(result))


def _checkpoint_bytes(args, result, state):
    count("checkpoint.bytes", result.nbytes)


def _supervisor_report(args, result, state):
    count("supervisor.chunks", result.chunks_run)
    count("supervisor.attempts",
          result.chunks_run + result.retries + result.timeouts)


def _cache_hit(args, result, state):
    count("cache.hits", result is not None)


def _cache_written(args, result, state):
    cache, kind, key = args[0], args[1], args[2]
    if result:
        try:
            count("cache.bytes_written",
                  os.path.getsize(cache.artifact_path(kind, key)))
        except OSError:
            pass


def run_task(fn, *args, **kwargs):
    """Pool-side wrapper of every task submitted to a process pool:
    one ``parallel.task`` span, then a flush before the result goes
    back (an idle worker may be killed before it could exit)."""
    token = _open("parallel.task")
    try:
        return fn(*args, **kwargs)
    finally:
        if token is not None:
            _close(token)
        flush()


def _install_trace() -> None:
    import repro.energy.accounting as accounting
    import repro.faults.classifier as classifier
    import repro.harness.cache as cache
    import repro.harness.parallel as parallel
    import repro.harness.supervisor as supervisor
    import repro.memory.main_memory as main_memory
    import repro.obs.events as events
    import repro.pipeline.checkpoint as checkpoint
    import repro.pipeline.core as core
    import repro.redundancy.srt as srt
    from repro.core import faulthound, pbfs, screening

    core_cls = core.PipelineCore
    for attr in ("run", "run_to_commit", "run_until_commits",
                 "run_to_capture", "step_until"):
        patch_method(core_cls, attr,
                     lambda f: spanned("pipeline.run", f, _core_delta,
                                       _core_state))
    patch_method(core_cls, "clone",
                 lambda f: spanned("pipeline.clone", f))
    ckpt = checkpoint.CoreCheckpoint
    patch_method(ckpt, "capture",
                 lambda f: spanned("checkpoint.capture", f,
                                   _checkpoint_bytes))
    patch_method(ckpt, "restore",
                 lambda f: spanned("checkpoint.restore", f))
    tandem = classifier.TandemClassifier
    patch_method(tandem, "run",
                 lambda f: spanned("faults.classify", f, _windows))
    patch_method(tandem, "advance_golden",
                 lambda f: spanned("faults.advance_golden", f))
    patch_method(main_memory.MainMemory, "nonzero_snapshot",
                 lambda f: spanned("memory.snapshot", f))
    for unit in (faulthound.FaultHoundUnit, pbfs.PBFSUnit,
                 screening.ScreeningUnit, screening.NullScreeningUnit):
        for attr in ("check_at_complete", "check_at_commit"):
            if attr in unit.__dict__:
                patch_method(unit, attr,
                             lambda f: aggregated("core.check", f))
    patch_method(accounting.EnergyModel, "compute",
                 lambda f: spanned("energy.compute", f))

    def srt_core_and_run(original):
        @functools.wraps(original)
        def srt_iso_core(*args, **kwargs):
            built = spanned("redundancy.srt", original)(*args, **kwargs)
            built.run = spanned("redundancy.srt", built.run)
            return built
        return srt_iso_core
    patch_function(srt, "srt_iso_core", srt_core_and_run)

    patch_function(parallel, "chunk_checkpoints",
                   lambda f: spanned("parallel.golden_pass", f))
    patch_method(parallel.ParallelExecutor, "map",
                 lambda f: spanned("parallel.map", f))
    patch_method(supervisor.Supervisor, "classify_windows",
                 lambda f: spanned("supervisor.classify", f,
                                   _supervisor_report))
    patch_function(supervisor, "wait",
                   lambda f: spanned("supervisor.dispatch_wait", f))
    patch_method(supervisor.CampaignJournal, "append",
                 lambda f: spanned("supervisor.journal", f))
    patch_method(cache.ArtifactCache, "get",
                 lambda f: spanned("cache.get", f, _cache_hit))
    patch_method(cache.ArtifactCache, "put",
                 lambda f: spanned("cache.put", f, _cache_written))
    patch_method(events.EventLog, "emit",
                 lambda f: aggregated("obs.emit", f))

    patch_pool_submit()


def patch_pool_submit() -> None:
    """Count and size every task shipped to a process pool, and run it
    under :func:`run_task` in the worker."""
    from concurrent.futures import ProcessPoolExecutor
    original_submit = ProcessPoolExecutor.submit

    @functools.wraps(original_submit)
    def submit(self, fn, /, *args, **kwargs):
        count("parallel.tasks")
        count("parallel.ship_bytes",
              len(pickle.dumps((fn, args, kwargs),
                               protocol=pickle.HIGHEST_PROTOCOL)))
        return original_submit(self, run_task, fn, *args, **kwargs)
    ProcessPoolExecutor.submit = submit


def activate(directory: str) -> None:
    """Record into *directory*; forked children start with empty
    buffers and parent their root spans to the span open at fork."""
    global _dir
    if _dir is None:
        os.register_at_fork(after_in_child=_after_fork_in_child)
    _dir = directory


def install_from_env() -> None:
    """Install the probes the environment names, if any."""
    directory = os.environ.get(DIR_ENV)
    mode = os.environ.get(MODE_ENV)
    if not directory or not mode:
        return
    activate(directory)
    _install_setup()
    if mode == "trace":
        _install_trace()
