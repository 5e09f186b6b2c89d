"""The out-of-order SMT pipeline core: cycle loop and recovery actions.

One :class:`PipelineCore` models one of the paper's cores: ``smt_contexts``
threads sharing the issue queue, physical register file, functional units
and data-cache hierarchy, each with private ROB/LSQ partitions and rename
tables. The screening unit (FaultHound, PBFS, or the null baseline) is
consulted at instruction completion and — for FaultHound's LSQ scheme — at
commit, and the core implements the three recovery actions: predecessor
replay out of the delay buffer, full pipeline rollback, and the singleton
re-execute with value comparison.

Stage order within a cycle is commit → complete → issue → dispatch →
fetch, the conventional reverse order that prevents same-cycle
flow-through.
"""

from __future__ import annotations

import weakref
from collections import deque
from time import perf_counter
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..config import HardwareConfig
from ..core.actions import CheckAction, CheckKind
from ..core.screening import NullScreeningUnit, ScreeningUnit
from ..errors import MemoryFault, SimulationError
from ..isa.interpreter import Interpreter
from ..isa.opcodes import Opcode
from ..isa.program import Program
from ..isa.semantics import (alu_result, branch_taken, check_address,
                             effective_address)
from ..memory.hierarchy import MemoryHierarchy
from .branch import BranchPredictor
from .func_units import FunctionalUnits
from .issue_queue import IssueQueue
from .lsq import ForwardStatus
from .regfile import FreeList, PhysicalRegisterFile
from .stats import PipelineStats
from .thread import ThreadContext
from .uops import MicroOp, OpState

#: Fetch-to-dispatch latency in cycles (fetch + decode depth).
FRONTEND_DEPTH = 3
#: Fetch-buffer capacity per thread.
FETCH_BUFFER_CAP = 16

#: Ordering of screening actions by severity, for stores that produce two
#: check results (address and value).
_SEVERITY = {
    CheckAction.NONE: 0,
    CheckAction.SUPPRESSED: 1,
    CheckAction.REPLAY: 2,
    CheckAction.SINGLETON: 3,
    CheckAction.SQUASH: 4,
}
#: Hoisted bound method: the screening path runs once per memory op.
_SEVERITY_OF = _SEVERITY.__getitem__

#: Event horizon for :meth:`PipelineCore.quiescent_until`: returned when
#: nothing is pending at all, so a hung window jumps straight to its
#: cycle bound — exactly where cycle-by-cycle stepping would land.
_NO_EVENT = 1 << 62

#: Branch-oracle cache: ``(id(program), max_commits)`` → recorded
#: outcomes. Keyed by the program object the caller passed to the
#: constructor (campaigns hold and reuse those across every fresh core),
#: relying on Program's immutable-once-built convention. A finalizer
#: evicts entries when the program is collected, so recycled ids can
#: never alias.
_ORACLE_CACHE: Dict[Tuple[int, Optional[int]], Tuple[bool, ...]] = {}


class PipelineCore:
    """A value-accurate out-of-order core running one program per thread."""

    def __init__(self, programs: Sequence[Program],
                 hw: HardwareConfig | None = None,
                 screening: ScreeningUnit | None = None,
                 thread_options: Optional[Sequence[dict]] = None):
        self.hw = hw or HardwareConfig()
        if not programs:
            raise SimulationError("need at least one program")
        if len(programs) > self.hw.smt_contexts:
            raise SimulationError(
                f"{len(programs)} programs > {self.hw.smt_contexts} contexts")
        self.screening = screening or NullScreeningUnit()
        self.stats = PipelineStats()

        self.prf = PhysicalRegisterFile(self.hw.phys_regs)
        used = len(programs) * 32
        self.free_list = FreeList(range(used, self.hw.phys_regs))

        delay_size = (self.hw.delay_buffer_size
                      if self.screening.wants_delay_buffer else 0)
        self.iq = IssueQueue(self.hw.issue_queue_size, delay_size)

        self.hierarchy = MemoryHierarchy(self.hw)
        self._ideal_hierarchy = MemoryHierarchy(self.hw, ideal=True)

        thread_options = thread_options or [{} for _ in programs]
        self.threads: List[ThreadContext] = []
        self.predictors: List[BranchPredictor] = []
        for tid, (program, opts) in enumerate(zip(programs, thread_options)):
            mapping = list(range(tid * 32, tid * 32 + 32))
            thread = ThreadContext(tid, program, self.hw, mapping,
                                   ideal_memory=opts.get("ideal_memory", False),
                                   ideal_branch=opts.get("ideal_branch", False),
                                   max_commits=opts.get("max_commits"))
            for reg, value in thread.program.initial_regs.items():
                if reg != 0:
                    self.prf.write(mapping[reg], value)
            self.threads.append(thread)
            self.predictors.append(
                BranchPredictor(ideal=thread.ideal_branch))
        self._branch_oracles: Dict[int, Deque[bool]] = {}
        for program, thread in zip(programs, self.threads):
            if thread.ideal_branch:
                self._branch_oracles[thread.thread_id] = deque(
                    self._cached_branch_outcomes(program, thread))
        # every rotation of the round-robin thread priority, prebuilt so
        # the commit/dispatch stages never allocate per cycle
        self._thread_orders = self._build_thread_orders()

        self.fus = FunctionalUnits(self.hw)
        self.cycle = 0
        self._uid = 0
        self._fetch_buffers: List[Deque[MicroOp]] = [
            deque() for _ in self.threads]
        self._executing: List[MicroOp] = []
        self._replay_pending: set = set()
        # per-cycle aggregate occupancy snapshots (see _dispatch_stage)
        self._rob_total = 0
        self._lsq_total = 0
        #: Issue suspended until this cycle (singleton re-execute).
        self._issue_suspended_until = 0
        #: (cycle, uid, source) records of declared fault detections
        #: (singleton re-execute value mismatches, Section 3.5).
        self.declared_faults: List[Tuple[int, int, str]] = []
        #: Cycle of every screening filter trigger (any non-NONE check
        #: action, including second-level suppressions) — the raw series
        #: behind the audit trail's detection latencies.
        self.screen_trigger_cycles: List[int] = []
        #: Per-stage wall-clock accounting, populated only after
        #: :meth:`enable_stage_profiling` (the default step() path pays
        #: a single attribute test).
        self.stage_seconds: Dict[str, float] = {}
        self._stage_profiling = False
        #: Tandem-classification hooks: when a thread's committed count
        #: reaches its target, its architectural snapshot is captured
        #: exactly at that boundary (see repro.faults.classifier).
        self.snapshot_targets: Dict[int, int] = {}
        self.captured_snapshots: Dict[int, Tuple] = {}
        #: Armed invariant sanitizer, or None (the default — costs one
        #: attribute on the instance, nothing per cycle; see
        #: :meth:`enable_sanitizer` and repro.pipeline.invariants).
        self._sanitizer = None
        self._sanitize_every = 1
        #: Idle-cycle elision (event-skip fast-forward). On by default;
        #: :meth:`enable_fast_forward` turns it off for cycle-by-cycle
        #: reference runs (equivalence tests, before/after benchmarks).
        self.fast_forward = True
        #: Cycles jumped over by :meth:`elide_idle_cycles` (diagnostic).
        self.cycles_elided = 0
        #: Lazily built SoA mirror of fault-reachable state (see
        #: :meth:`soa_view`); never cloned or pickled — each core
        #: rebuilds its own on first use.
        self._soa_view = None
        self.stats.bind_cycle_source(self)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _cached_branch_outcomes(self, program: Program,
                                thread: ThreadContext) -> Tuple[bool, ...]:
        """Branch-oracle outcomes for *thread*, memoised per
        ``(program identity, max_commits)`` so campaigns constructing
        many fresh cores re-interpret each program once, not per core.
        *program* is the caller's object (pre-``ensure_halts``; appending
        a HALT never adds branch outcomes, so the recording is keyed on
        the object callers actually share)."""
        key = (id(program), thread.max_commits)
        outcomes = _ORACLE_CACHE.get(key)
        if outcomes is None:
            outcomes = tuple(self._build_branch_oracle(thread))
            _ORACLE_CACHE[key] = outcomes
            weakref.finalize(program, _ORACLE_CACHE.pop, key, None)
        return outcomes

    def _build_branch_oracle(self, thread: ThreadContext) -> Deque[bool]:
        """Pre-execute the program to record conditional-branch outcomes
        (SRT-iso's perfect trailing-thread branch prediction)."""
        interp = Interpreter(thread.program)
        outcomes: Deque[bool] = deque()
        limit = (thread.max_commits or 200_000) * 2 + 1000
        state = interp.state
        for _ in range(limit):
            if state.halted:
                break
            inst = thread.program.fetch(state.pc)
            if inst is None:
                break
            if inst.is_branch and inst.opcode is not Opcode.JMP:
                taken = branch_taken(inst.opcode, state.read_reg(inst.rs1),
                                     state.read_reg(inst.rs2))
                outcomes.append(taken)
            if interp.step() is None:
                break
        return outcomes

    # ------------------------------------------------------------------
    # public driving API
    # ------------------------------------------------------------------
    @property
    def all_halted(self) -> bool:
        return all(t.halted for t in self.threads)

    def step(self) -> None:
        """Advance the core by one cycle."""
        self.cycle += 1
        self.fus.new_cycle()
        if self._stage_profiling:
            self._step_stages_timed()
            return
        self._commit_stage()
        if self._executing:
            self._complete_stage()
        self._issue_stage()
        self._dispatch_stage()
        self._fetch_stage()

    def enable_stage_profiling(self, enabled: bool = True) -> None:
        """Opt into per-stage wall-clock accounting (``stage_seconds``).
        Fast-forward scans and jumps are attributed to the dedicated
        ``"idle-skip"`` bucket."""
        self._stage_profiling = enabled

    def _step_stages_timed(self) -> None:
        accumulate = self.stage_seconds
        for name, stage in (("commit", self._commit_stage),
                            ("complete", self._complete_stage),
                            ("issue", self._issue_stage),
                            ("dispatch", self._dispatch_stage),
                            ("fetch", self._fetch_stage)):
            started = perf_counter()
            stage()
            accumulate[name] = (accumulate.get(name, 0.0)
                                + perf_counter() - started)

    def record_metrics(self, metrics, prefix: str = "core") -> None:
        """Fold this core's cumulative state into a live-telemetry
        registry (repro.obs.metrics). Read-only over the core — called
        once per completed run, never per cycle, so it cannot perturb
        results and costs nothing against :data:`~repro.obs.metrics.
        NULL_METRICS`."""
        if not metrics.enabled:
            return
        stats = self.stats
        metrics.counter(f"{prefix}_cycles_total").inc(self.cycle)
        metrics.counter(f"{prefix}_cycles_elided_total").inc(
            self.cycles_elided)
        metrics.counter(f"{prefix}_commits_total").inc(stats.committed)
        metrics.counter(f"{prefix}_replay_events_total").inc(
            stats.replay_events)
        metrics.counter(f"{prefix}_rollback_events_total").inc(
            stats.rollback_events)
        metrics.counter(f"{prefix}_singleton_reexecs_total").inc(
            stats.singleton_reexecs)
        metrics.counter(f"{prefix}_branch_mispredicts_total").inc(
            stats.branch_mispredicts)
        metrics.gauge(f"{prefix}_ipc").set(stats.ipc)
        metrics.gauge(f"{prefix}_rob_occupancy").set(self._rob_total)
        metrics.gauge(f"{prefix}_lsq_occupancy").set(self._lsq_total)
        for stage, seconds in self.stage_seconds.items():
            metrics.counter(
                f"{prefix}_stage_{stage.replace('-', '_')}_seconds"
            ).inc(seconds)

    # ------------------------------------------------------------------
    # invariant sanitizer (repro.pipeline.invariants)
    # ------------------------------------------------------------------
    def enable_sanitizer(self, sanitizer=None, every: int = 1):
        """Arm an invariant sanitizer on this core; returns it.

        ``every=N`` checks after every Nth cycle by shadowing ``step``
        with a checking wrapper *on this instance only* — the class-level
        ``step`` is untouched, so cores that never opt in pay nothing.
        ``every=0`` arms the sanitizer for explicit
        :meth:`check_invariants` calls only (the tandem classifier's
        capture-site mode).
        """
        from .invariants import InvariantSanitizer
        if sanitizer is None:
            sanitizer = InvariantSanitizer()
        self._sanitizer = sanitizer
        # record the mode: 0 (explicit-check) imposes no per-cycle
        # cadence, so idle-cycle elision stays unrestricted; N >= 1 makes
        # elide_idle_cycles stop short of every Nth cycle so the periodic
        # checks run at exactly the legacy cycles
        self._sanitize_every = every
        if every:
            self.step = self._step_sanitized
        else:
            self.__dict__.pop("step", None)
        return sanitizer

    def disable_sanitizer(self) -> None:
        """Disarm: restores the un-instrumented class-level ``step``."""
        self._sanitizer = None
        self.__dict__.pop("step", None)

    def check_invariants(self):
        """Run the armed sanitizer once against the current state; a
        no-op (empty list) when no sanitizer is armed. ``getattr`` guards
        against cores unpickled from pre-sanitizer checkpoints."""
        sanitizer = getattr(self, "_sanitizer", None)
        if sanitizer is None:
            return []
        return sanitizer.check(self)

    def _step_sanitized(self) -> None:
        PipelineCore.step(self)
        if self.cycle % self._sanitize_every == 0:
            self._sanitizer.check(self)

    def inflight_ops(self):
        """Every micro-op currently tracked by the core: fetch buffers
        (pre-dispatch) then each thread's ROB. The supported iteration
        surface for tracers and debuggers — the underlying containers
        are private."""
        for buffer in self._fetch_buffers:
            yield from buffer
        for thread in self.threads:
            yield from thread.rob

    # ------------------------------------------------------------------
    # checkpoint protocol
    # ------------------------------------------------------------------
    def clone(self) -> "PipelineCore":
        """A fully independent copy of this core, mid-flight.

        Purpose-built replacement for ``copy.deepcopy`` in the tandem
        classifier's hot loop: every mutable structure is copied through
        its own ``clone()``, immutable state (hardware config, programs,
        instructions) is shared, and micro-op identity is preserved — an
        op resident in several containers at once (ROB, LSQ, issue
        queue, delay buffer, executing list) maps to exactly one clone,
        keyed by its core-global ``uid``.
        """
        twin = object.__new__(type(self))
        twin.hw = self.hw                     # frozen config, shared
        twin.screening = self.screening.clone()
        twin.stats = self.stats.clone()
        twin.prf = self.prf.clone()
        twin.free_list = self.free_list.clone()
        twin.hierarchy = self.hierarchy.clone()
        twin._ideal_hierarchy = self._ideal_hierarchy.clone()

        memo: Dict[int, MicroOp] = {}

        def clone_op(op: MicroOp) -> MicroOp:
            copy_ = memo.get(op.uid)
            if copy_ is None:
                copy_ = op.clone()
                memo[op.uid] = copy_
            return copy_

        twin.threads = [t.clone(clone_op) for t in self.threads]
        twin.predictors = [p.clone() for p in self.predictors]
        twin._branch_oracles = {tid: deque(oracle) for tid, oracle
                                in self._branch_oracles.items()}
        twin.iq = self.iq.clone(clone_op)
        twin.fus = self.fus.clone()
        twin.cycle = self.cycle
        twin._uid = self._uid
        twin._fetch_buffers = [deque(clone_op(op) for op in buffer)
                               for buffer in self._fetch_buffers]
        twin._executing = [clone_op(op) for op in self._executing]
        twin._replay_pending = set(self._replay_pending)
        twin._rob_total = self._rob_total
        twin._lsq_total = self._lsq_total
        twin._issue_suspended_until = self._issue_suspended_until
        twin.declared_faults = list(self.declared_faults)
        twin.screen_trigger_cycles = list(self.screen_trigger_cycles)
        twin.stage_seconds = dict(self.stage_seconds)
        twin._stage_profiling = self._stage_profiling
        twin.snapshot_targets = dict(self.snapshot_targets)
        twin.captured_snapshots = dict(self.captured_snapshots)
        # forks start unsanitized: the classifier's faulty copies *will*
        # break rename invariants by design, and the golden core re-arms
        # explicitly (clone never copies the instance-level step shadow)
        twin._sanitizer = None
        twin._sanitize_every = 1
        twin.fast_forward = self.fast_forward
        twin.cycles_elided = self.cycles_elided
        twin._soa_view = None    # mirrors are per-core, rebuilt lazily
        twin._thread_orders = twin._build_thread_orders()
        twin.stats.bind_cycle_source(twin)
        return twin

    def __del__(self):
        # stats handed out by run() may outlive this core: leave them
        # the final cycle count their weak binding can no longer read
        stats = self.__dict__.get("stats")
        cycle = self.__dict__.get("cycle")
        if stats is not None and cycle is not None:
            stats.detach_cycle_source(cycle)

    def __getstate__(self):
        state = dict(self.__dict__)
        # The SoA view holds numpy mirrors plus a back-reference to this
        # core; it is rebuilt lazily on demand, so checkpoints never
        # carry it. (An instance-level ``step`` shadow — an armed
        # periodic sanitizer — stays: restored checkpoints keep their
        # sanitizer cadence by design.)
        state.pop("_soa_view", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        # cores pickled before fast-forward existed restore with defaults
        self.__dict__.setdefault("fast_forward", True)
        self.__dict__.setdefault("cycles_elided", 0)
        self.__dict__.setdefault("_soa_view", None)
        if "_thread_orders" not in self.__dict__:
            self._thread_orders = self._build_thread_orders()
        stats = self.__dict__.get("stats")
        if stats is not None:
            stats.bind_cycle_source(self)

    def soa_view(self):
        """This core's structure-of-arrays source-operand mirror
        (:class:`repro.faults.batched.CoreSoAView`), built lazily on
        first use and cached — the lazy faulty twin's divergence probe
        rebuilds it at most once per cycle. Imported lazily:
        repro.faults.batched imports this module."""
        view = self._soa_view
        if view is None:
            from ..faults.batched import CoreSoAView
            view = self._soa_view = CoreSoAView(self)
        return view

    # ------------------------------------------------------------------
    # event-skip fast-forward
    # ------------------------------------------------------------------
    def enable_fast_forward(self, enabled: bool = True) -> None:
        """Toggle idle-cycle elision in the run drivers. Disabling forces
        the cycle-by-cycle reference behaviour (the fast path is bit-for-
        bit equivalent; the toggle exists for before/after measurement
        and equivalence testing)."""
        self.fast_forward = enabled

    def activity_signature(self) -> int:
        """Cheap digest of the event counters that any state-changing
        cycle bumps in practice. Run drivers consult the (more expensive)
        :meth:`quiescent_until` scan only after a step that left this
        unchanged; the scan alone is authoritative, so a counter missed
        here costs one wasted scan, never correctness."""
        stats = self.stats
        return (stats.fetched + stats.dispatched + stats.issued
                + stats.completed + stats.committed + stats.squashed
                + stats.exceptions + stats.replay_events
                + stats.branch_mispredicts)

    def quiescent_until(self) -> int:
        """The earliest cycle > ``self.cycle`` at which any stage can
        change state, aggregated from every structure's
        ``next_event_cycle()`` contract.

        Conservative by construction: an event may be reported early
        (the core just steps normally through it) but never late, so
        jumping to ``quiescent_until() - 1`` is always safe. Returns
        ``cycle + 1`` when the core may be busy next cycle and the
        :data:`_NO_EVENT` horizon when nothing is pending at all (a
        deadlocked window then jumps straight to its cycle bound).
        """
        now = self.cycle
        horizon = now + 1

        # commit: acts exactly on a COMPLETED head (retire, exception,
        # singleton_stall decrement) — an event every cycle while true
        for thread in self.threads:
            if thread.rob.next_event_cycle(now) is not None:
                return horizon

        nxt = _NO_EVENT

        # complete: the earliest in-flight execution finish
        executing = self._executing
        if executing:
            done = min(op.exec_done_at for op in executing)
            if done <= horizon:
                return horizon
            if done < nxt:
                nxt = done

        # issue: a ready WAITING op issues next cycle (or once a
        # singleton suspension lifts); loads whose forwarding probe
        # stalls retry every cycle without changing anything
        event = self.iq.next_event_cycle(now, self.prf.ready,
                                         self._issue_blocked)
        if event is not None:
            event = max(event, self._issue_suspended_until)
            if event <= horizon:
                return horizon
            if event < nxt:
                nxt = event

        # frontend: fetch-buffer dispatch readiness and fetch eligibility
        event = self._frontend_next_event(now)
        if event is not None:
            if event <= horizon:
                return horizon
            if event < nxt:
                nxt = event

        # structures with no autonomous events today honour the contract
        # anyway, so future subclasses participate without core changes
        for source in (self.fus, self.screening, self.hierarchy,
                       self._ideal_hierarchy):
            event = source.next_event_cycle(now)
            if event is not None:
                if event <= horizon:
                    return horizon
                if event < nxt:
                    nxt = event
        for thread in self.threads:
            event = thread.lsq.next_event_cycle(now)
            if event is not None:
                if event <= horizon:
                    return horizon
                if event < nxt:
                    nxt = event
        return nxt

    def _issue_blocked(self, op: MicroOp) -> bool:
        """True when a ready WAITING op still cannot leave the issue
        stage: a valid-address load whose store-to-load forwarding probe
        stalls (it retries every cycle with no effect until the blocking
        store's value resolves — a completion event). Pure: mirrors the
        issue stage's own side-effect-free probe."""
        if not op.is_load:
            return False
        base = self.prf.read(op.phys_srcs[0])
        address = effective_address(base, op.inst.imm)
        if not check_address(address):
            return False    # would issue and resolve as an exception
        status, _value, _uid = self.threads[op.thread_id].lsq.forward_value(
            op, address)
        return status is ForwardStatus.STALL

    def _frontend_next_event(self, now: int) -> Optional[int]:
        """Dispatch/fetch events: the earliest cycle either front-end
        stage can act, or None when both are blocked on events tracked
        elsewhere (every resource that gates dispatch — ROB/IQ/LSQ slots,
        free-list tags — frees only in commit/complete/squash paths)."""
        nxt = None
        buffers = self._fetch_buffers
        threads = self.threads
        rob_total = -1
        for thread in threads:
            buffer = buffers[thread.thread_id]
            if not buffer:
                continue
            op = buffer[0]
            ready_at = op.dispatch_ready_at
            if ready_at > now:
                if nxt is None or ready_at < nxt:
                    nxt = ready_at
                continue
            # mirror _dispatch_op's resource gates without mutating
            if rob_total < 0:
                rob_total = sum(len(t.rob) for t in threads)
                lsq_total = sum(len(t.lsq) for t in threads)
            if thread.rob.full or rob_total >= self.hw.rob_size:
                continue
            if not self.iq.can_accept():
                continue
            if op.is_mem and (thread.lsq.full
                              or lsq_total >= self.hw.lsq_size):
                continue
            if (op.inst.writes_reg and op.inst.rd != 0
                    and self.free_list.empty):
                continue
            return now + 1    # dispatchable as soon as the stage runs
        for thread in threads:
            # program exhaustion still counts: the stage must run once to
            # latch stop_fetch, which feeds the ICOUNT fairness timing
            if (not thread.fetch_active
                    or len(buffers[thread.thread_id]) >= FETCH_BUFFER_CAP):
                continue
            event = thread.fetch_stalled_until
            if event <= now:
                return now + 1
            if nxt is None or event < nxt:
                nxt = event
        return nxt

    def elide_idle_cycles(self, bound: int) -> bool:
        """Jump ``self.cycle`` to one cycle before the next event (clamped
        to *bound*) when the core is provably idle; True when at least one
        cycle was elided. Safe to call at any time — the jump happens only
        when :meth:`quiescent_until` proves the skipped cycles are no-ops.
        A periodic sanitizer caps the jump so its checks still run at the
        legacy cycles; under stage profiling the scan/jump cost lands in
        the ``"idle-skip"`` bucket of ``stage_seconds``."""
        if not self.fast_forward:
            return False
        profiling = self._stage_profiling
        if profiling:
            started = perf_counter()
        landing = self.quiescent_until() - 1
        if landing > bound:
            landing = bound
        if self._sanitizer is not None and self._sanitize_every:
            every = self._sanitize_every
            next_check = (self.cycle // every + 1) * every
            if landing >= next_check:
                landing = next_check - 1
        elided = landing - self.cycle
        if elided > 0:
            self.cycle = landing
            self.cycles_elided += elided
        if profiling:
            self.stage_seconds["idle-skip"] = (
                self.stage_seconds.get("idle-skip", 0.0)
                + perf_counter() - started)
        return elided > 0

    # ------------------------------------------------------------------
    # run drivers
    # ------------------------------------------------------------------
    def step_until(self, target_cycle: int) -> None:
        """Advance to *target_cycle* (or until every thread halts),
        eliding provably idle stretches."""
        step = self.step
        signature = -1
        while self.cycle < target_cycle:
            if self.all_halted:
                return
            current = self.activity_signature()
            if (current == signature
                    and self.elide_idle_cycles(target_cycle)
                    and self.cycle >= target_cycle):
                return
            signature = current
            step()

    def run(self, max_cycles: int = 2_000_000) -> PipelineStats:
        """Run until every thread halts, or *max_cycles* more cycles."""
        self.step_until(self.cycle + max_cycles)
        return self.stats

    def run_to_commit(self, total_commits: int,
                      max_cycles: int = 2_000_000) -> bool:
        """Run until the all-thread committed count reaches the absolute
        coordinate *total_commits*; True when reached, False when every
        thread halted or the cycle budget ran out first."""
        bound = self.cycle + max_cycles
        step = self.step
        stats = self.stats
        signature = -1
        while stats.committed < total_commits:
            if self.all_halted or self.cycle >= bound:
                break
            current = self.activity_signature()
            if (current == signature and self.elide_idle_cycles(bound)
                    and self.cycle >= bound):
                break
            signature = current
            step()
        return stats.committed >= total_commits

    def run_until_commits(self, total_commits: int,
                          max_cycles: int = 2_000_000) -> int:
        """Run until *total_commits* more instructions commit (across all
        threads); returns the number actually committed (may be fewer if
        every thread halts first)."""
        before = self.stats.committed
        self.run_to_commit(before + total_commits, max_cycles)
        return self.stats.committed - before

    def run_to_capture(self, max_cycles: int) -> None:
        """Run until every armed snapshot target is captured or every
        thread halts, bounded by *max_cycles* more cycles (the tandem
        classifier's window driver)."""
        bound = self.cycle + max_cycles
        step = self.step
        signature = -1
        while not (self.all_snapshots_captured or self.all_halted) \
                and self.cycle < bound:
            current = self.activity_signature()
            if (current == signature and self.elide_idle_cycles(bound)
                    and self.cycle >= bound):
                return
            signature = current
            step()

    def arch_snapshot(self) -> Tuple:
        """Digest of every thread's architectural state (classifier input)."""
        return tuple(t.arch_state_snapshot(self.prf) for t in self.threads)

    # ------------------------------------------------------------------
    # fault-injection hooks (used by repro.faults.injector)
    # ------------------------------------------------------------------
    def inject_prf_bit(self, reg: int, bit: int) -> None:
        """Flip one bit of a physical register (back-end datapath fault)."""
        self.prf.flip_bit(reg % self.prf.num_regs, bit)

    def inject_rat_bit(self, thread_id: int, logical: int, bit: int) -> None:
        """Flip one bit of a speculative rename mapping (front-end fault)."""
        self.threads[thread_id].spec_rat.flip_bit(logical, bit)
        sanitizer = getattr(self, "_sanitizer", None)
        if sanitizer is not None:
            # wrong frees / reallocation clobbers are now part of the
            # fault model on this core, not simulator errors
            sanitizer.relax_for_rename_fault()

    def inject_lsq_bit(self, thread_id: int, entry_index: int,
                       field: str, bit: int) -> bool:
        """Flip one bit of an executed LSQ entry's address or store value.

        Returns False when the LSQ holds no executed entry to corrupt.
        """
        entries = self.threads[thread_id].lsq.executed_entries()
        if not entries:
            return False
        op = entries[entry_index % len(entries)]
        if field == "value" and op.is_store and op.store_value is not None:
            op.store_value ^= 1 << bit
        else:
            op.eff_addr ^= 1 << bit
        return True

    # ------------------------------------------------------------------
    # commit stage
    # ------------------------------------------------------------------
    def _commit_stage(self) -> None:
        # gate: commit acts only on a COMPLETED head; every other head
        # state (and an empty ROB) is a stall this stage cannot clear
        for thread in self.threads:
            head = thread.rob.head()
            if head is not None and head.state is OpState.COMPLETED:
                break
        else:
            return
        budget = self.hw.commit_width
        order = self._thread_order()
        for thread in order:
            while budget > 0:
                op = thread.rob.head()
                if op is None or op.state is not OpState.COMPLETED:
                    break
                if op.exception_addr is not None:
                    self._deliver_exception(thread, op)
                    budget -= 1
                    break
                if op.singleton_stall > 0:
                    op.singleton_stall -= 1
                    break
                if (op.is_mem and not op.lsq_checked
                        and self.screening.wants_commit_checks):
                    if self._commit_check(thread, op):
                        break  # singleton re-execute stalls this commit
                if not self._commit_op(thread, op):
                    budget -= 1
                    break
                budget -= 1
            if budget <= 0:
                break

    def _commit_check(self, thread: ThreadContext, op: MicroOp) -> bool:
        """Run the commit-time LSQ check; True when commit must stall for a
        singleton re-execute."""
        op.lsq_checked = True
        suppress = (thread.screen_suppress_remaining > 0
                    or op.screen_suppressed)
        action = self._screen(op, at_commit=True, suppress=suppress)
        if action is not CheckAction.SINGLETON:
            return False
        self.stats.singleton_reexecs += 1
        op.singleton_stall = self.hw.singleton_reexec_cycles
        self._issue_suspended_until = max(
            self._issue_suspended_until,
            self.cycle + self.hw.singleton_reexec_cycles)
        self._singleton_reexecute(thread, op)
        return True

    def _singleton_reexecute(self, thread: ThreadContext, op: MicroOp) -> None:
        """Re-execute a single load/store from register-file values and
        compare with the LSQ copy (Section 3.5): a mismatch means a fault
        in the register file or the LSQ and is *declared* (detection)."""
        base = self.prf.read(op.phys_srcs[0])
        new_addr = effective_address(base, op.inst.imm)
        self.stats.regfile_reads += 1
        mismatch = new_addr != op.eff_addr
        new_value = None
        if op.is_store:
            new_value = self.prf.read(op.phys_srcs[1])
            self.stats.regfile_reads += 1
            mismatch = mismatch or new_value != op.store_value
        if mismatch:
            self.stats.singleton_mismatch_detections += 1
            self.declared_faults.append((self.cycle, op.uid, "lsq-compare"))
        # The re-executed values are adopted (recovery for LSQ faults).
        op.eff_addr = new_addr
        if op.is_store:
            op.store_value = new_value
        if not check_address(new_addr):
            op.exception_addr = new_addr

    def _commit_op(self, thread: ThreadContext, op: MicroOp) -> bool:
        """Architecturally retire the ROB head; False on a late exception."""
        if op.is_store:
            try:
                thread.memory.write(op.eff_addr, op.store_value)
            except MemoryFault:
                op.exception_addr = op.eff_addr
                self._deliver_exception(thread, op)
                return False
            self.stats.committed_stores += 1
        elif op.is_load:
            self.stats.committed_loads += 1

        if op.writes_reg:
            # Free the physical register holding the previous committed
            # value of this logical register. A corrupted rename mapping
            # makes this free the *wrong* (live) register — the uncovered
            # rename-fault corruption of Section 5.5.
            if op.old_phys_dest is not None:
                self.free_list.free(op.old_phys_dest)
            thread.committed_rat.set(op.inst.rd, op.phys_dest)

        if op.is_mem:
            thread.lsq.remove(op)
        self.iq.remove(op)

        if op.is_branch:
            thread.arch_pc = (op.inst.imm if op.actual_taken else op.pc + 1)
        elif op.inst.opcode is Opcode.HALT:
            thread.arch_pc = op.pc + 1
        else:
            thread.arch_pc = op.pc + 1

        op.state = OpState.COMMITTED
        op.cycle_committed = self.cycle
        thread.rob.pop_head()
        thread.committed_count += 1
        self.stats.note_commit(thread.thread_id, op.pc)
        self._maybe_capture(thread)
        if thread.screen_suppress_remaining > 0:
            thread.screen_suppress_remaining -= 1

        if op.inst.opcode is Opcode.HALT:
            self._halt_thread(thread)
        elif (thread.max_commits is not None
                and thread.committed_count >= thread.max_commits):
            self._halt_thread(thread)
        return True

    def _maybe_capture(self, thread: ThreadContext) -> None:
        tid = thread.thread_id
        target = self.snapshot_targets.get(tid)
        if (target is not None and thread.committed_count >= target
                and tid not in self.captured_snapshots):
            self.captured_snapshots[tid] = thread.output_snapshot()

    @property
    def all_snapshots_captured(self) -> bool:
        return all(tid in self.captured_snapshots
                   for tid in self.snapshot_targets)

    def set_snapshot_targets(self, targets: Dict[int, int]) -> None:
        """Arm per-thread snapshot capture at the given committed counts.

        A thread already at or past its target (or halted) is captured
        immediately.
        """
        self.snapshot_targets = dict(targets)
        self.captured_snapshots = {}
        for thread in self.threads:
            target = self.snapshot_targets.get(thread.thread_id)
            if target is not None and (thread.committed_count >= target
                                       or thread.halted):
                self.captured_snapshots[thread.thread_id] = \
                    thread.output_snapshot()

    def _halt_thread(self, thread: ThreadContext) -> None:
        thread.halted = True
        thread.stop_fetch()
        tid = thread.thread_id
        if (tid in self.snapshot_targets
                and tid not in self.captured_snapshots):
            self.captured_snapshots[tid] = thread.output_snapshot()
        self._squash_ops(thread, thread.rob.drain_all(), restore_walk=False)
        self._fetch_buffers[thread.thread_id].clear()
        thread.lsq.clear()

    def _deliver_exception(self, thread: ThreadContext, op: MicroOp) -> None:
        """Precise architectural exception at commit: record, halt thread
        (the ISA has no trap handlers), squash everything younger."""
        self.stats.exceptions += 1
        thread.exceptions.append(
            (thread.committed_count, op.pc, op.exception_addr))
        thread.arch_pc = op.pc
        op.state = OpState.COMMITTED  # consumed by the exception
        thread.rob.pop_head()
        if op.is_mem:
            thread.lsq.remove(op)
        self.iq.remove(op)
        if op.phys_dest is not None:
            self.free_list.free(op.phys_dest)
        self._halt_thread(thread)

    # ------------------------------------------------------------------
    # complete stage
    # ------------------------------------------------------------------
    def _complete_stage(self) -> None:
        if not self._executing:
            return    # gate for the profiled path; step() gates inline
        finished = [op for op in self._executing
                    if op.exec_done_at <= self.cycle]
        if not finished:
            return
        finished.sort(key=lambda op: op.uid)
        for op in finished:
            if op.state is not OpState.EXECUTING:
                # squashed earlier this cycle (possibly already unlinked)
                if op in self._executing:
                    self._executing.remove(op)
                continue
            self._try_complete(op)
            # completed *and* bounced ops leave the list: a bounced op is
            # WAITING in the issue queue again, and leaving it here would
            # let it transiently appear twice if re-issued this cycle —
            # `_executing` holds exactly the EXECUTING ops, once each
            if op in self._executing:
                self._executing.remove(op)

    def _sources_ready(self, op: MicroOp) -> bool:
        # hot path: direct ready-bit indexing, no generator / method calls
        ready = self.prf.ready
        for phys in op.phys_srcs:
            if not ready[phys]:
                return False
        return True

    def _bounce(self, op: MicroOp) -> None:
        """Return an op whose operands became unready (producer replay) to
        the issue queue — the load-hit-speculation-style retry."""
        op.state = OpState.WAITING
        op.exec_done_at = -1
        if op.is_mem:
            op.eff_addr = None
            op.forwarded_from = None

    def _try_complete(self, op: MicroOp) -> bool:
        """Finish execution of *op*; returns False when it bounced."""
        if not self._sources_ready(op):
            self._bounce(op)
            return False
        thread = self.threads[op.thread_id]
        inst = op.inst
        opcode = inst.opcode

        if op.is_load:
            if not self._complete_load(thread, op):
                return False
        elif op.is_store:
            base = self.prf.read(op.phys_srcs[0])
            op.eff_addr = effective_address(base, inst.imm)
            op.store_value = self.prf.read(op.phys_srcs[1])
            self.stats.regfile_reads += 2
            if not check_address(op.eff_addr):
                op.exception_addr = op.eff_addr
            else:
                self._check_order_violation(thread, op)
        elif op.is_branch:
            self._complete_branch(thread, op)
        elif opcode in (Opcode.NOP, Opcode.HALT):
            pass
        else:
            srcs = [self.prf.read(p) for p in op.phys_srcs]
            self.stats.regfile_reads += len(srcs)
            a = srcs[0] if srcs else 0
            b = srcs[1] if len(srcs) > 1 else 0
            op.result = alu_result(opcode, a, b, inst.imm)

        if op.phys_dest is not None and op.result is not None:
            self.prf.write(op.phys_dest, op.result)
            self.stats.regfile_writes += 1
        elif op.phys_dest is not None:
            self.prf.write(op.phys_dest, 0)
            self.stats.regfile_writes += 1

        op.state = OpState.COMPLETED
        op.cycle_completed = self.cycle
        self.stats.completed += 1
        was_replay = op.replay_marked
        if was_replay:
            op.replay_marked = False
            self._replay_pending.discard(op.uid)
            if not self._replay_pending:
                self.screening.replaying = False
        self.iq.on_complete(op)

        if op.is_mem and op.exception_addr is None:
            # A re-completing replayed op must not re-trigger: its
            # re-computed value is deemed final (Section 3.3).
            self._screen_completion(thread, op, force_suppress=was_replay)
        return True

    def _complete_load(self, thread: ThreadContext, op: MicroOp) -> bool:
        """Produce a load's value: forward from the newest older resolved
        store to the same address, else read memory (speculatively past
        stores with unresolved *addresses*; a late-resolving store catches
        stale loads via the memory-order violation check). A matching
        store with a resolved address but unresolved *value* bounces the
        load instead — no check would ever revisit that stale read."""
        base = self.prf.read(op.phys_srcs[0])
        self.stats.regfile_reads += 1
        address = effective_address(base, op.inst.imm)
        op.eff_addr = address
        if not check_address(address):
            op.exception_addr = address
            op.result = 0
            return True
        status, value, store_uid = thread.lsq.forward_value(op, address)
        if status is ForwardStatus.STALL:
            # the newest matching older store has not produced its value
            # yet: reading memory here would consume a stale value that
            # no later check revisits — bounce and retry instead
            self._bounce(op)
            return False
        if status is ForwardStatus.HIT:
            op.result = value
            op.forwarded_from = store_uid
            self.stats.forwarded_loads += 1
        else:
            op.result = thread.memory.read(address)
        return True

    def _complete_branch(self, thread: ThreadContext, op: MicroOp) -> None:
        srcs = [self.prf.read(p) for p in op.phys_srcs]
        self.stats.regfile_reads += len(srcs)
        a = srcs[0] if srcs else 0
        b = srcs[1] if len(srcs) > 1 else 0
        op.actual_taken = branch_taken(op.inst.opcode, a, b)
        predictor = self.predictors[op.thread_id]
        if op.inst.opcode is not Opcode.JMP:
            op.mispredicted = op.actual_taken != op.predicted_taken
            predictor.update(op.thread_id, op.pc, op.actual_taken,
                             op.mispredicted)
            if op.mispredicted:
                self.stats.branch_mispredicts += 1
                self._recover_from_branch(thread, op)

    # ------------------------------------------------------------------
    # screening hooks
    # ------------------------------------------------------------------
    def _screen(self, op: MicroOp, at_commit: bool,
                suppress: bool) -> CheckAction:
        """Run the load/store checks for *op*; returns the strongest action."""
        unit = self.screening
        saved = unit.replaying
        if suppress:
            unit.replaying = True
        check = unit.check_at_commit if at_commit else unit.check_at_complete
        try:
            if op.is_load:
                # single check: no max() needed
                action = check(CheckKind.LOAD_ADDR, op.eff_addr, op.pc).action
            else:
                addr = check(CheckKind.STORE_ADDR, op.eff_addr, op.pc).action
                value = check(CheckKind.STORE_VALUE, op.store_value,
                              op.pc).action
                action = (addr if _SEVERITY_OF(addr) >= _SEVERITY_OF(value)
                          else value)
        finally:
            unit.replaying = saved
        if action is not CheckAction.NONE:
            self.screen_trigger_cycles.append(self.cycle)
        return action

    def _screen_completion(self, thread: ThreadContext, op: MicroOp,
                           force_suppress: bool = False) -> None:
        suppress = (force_suppress
                    or thread.screen_suppress_remaining > 0
                    or op.screen_suppressed)
        action = self._screen(op, at_commit=False, suppress=suppress)
        if action is CheckAction.REPLAY:
            self._initiate_replay(op)
        elif action is CheckAction.SQUASH:
            self._screening_rollback(thread)

    def _initiate_replay(self, trigger: MicroOp) -> None:
        """Predecessor replay (Section 3.3): the trigger and its delay-
        buffered predecessors return to the issue queue for re-execution."""
        marked = self.iq.mark_predecessors_for_replay(trigger.uid)
        if trigger.in_delay_buffer:
            self.iq.delay_buffer.remove(trigger)
        if trigger in self.iq and trigger.state is OpState.COMPLETED:
            trigger.mark_for_replay()
            marked.append(trigger)
        if not marked:
            return
        for op in marked:
            if op.phys_dest is not None:
                self.prf.mark_pending(op.phys_dest)
            self._replay_pending.add(op.uid)
        self.stats.replay_events += 1
        self.stats.replayed_ops += len(marked)
        self.screening.replaying = True

    def _screening_rollback(self, thread: ThreadContext) -> None:
        """Full pipeline rollback for this thread: squash every uncommitted
        instruction and refetch from the commit point. Recovers rename
        faults because the speculative rename table is restored from the
        committed one."""
        drained = thread.rob.drain_all()
        self._squash_ops(thread, drained, restore_walk=False)
        thread.spec_rat.copy_from(thread.committed_rat)
        thread.lsq.clear()
        self._fetch_buffers[thread.thread_id].clear()
        thread.redirect_fetch(thread.arch_pc,
                              self.cycle + self.hw.rollback_redirect_penalty)
        mem_ops = sum(1 for op in drained if op.is_mem)
        thread.screen_suppress_remaining += mem_ops
        self.stats.rollback_events += 1
        self.stats.rollback_squashed_ops += len(drained)

    # ------------------------------------------------------------------
    # squash machinery
    # ------------------------------------------------------------------
    def _squash_ops(self, thread: ThreadContext, ops: List[MicroOp],
                    restore_walk: bool) -> None:
        """Remove *ops* from every structure. With *restore_walk*, ops must
        be ordered youngest-first and the speculative rename table is
        restored mapping by mapping (branch-mispredict recovery); otherwise
        the caller restores the table wholesale (full rollback) or does not
        need it (halt)."""
        for op in ops:
            if restore_walk and op.phys_dest is not None:
                thread.spec_rat.set(op.inst.rd, op.old_phys_dest)
            if op.phys_dest is not None:
                self.free_list.free(op.phys_dest)
            self.iq.remove(op)
            if op.state is OpState.EXECUTING and op in self._executing:
                self._executing.remove(op)
            self._replay_pending.discard(op.uid)
            op.state = OpState.SQUASHED
            self.stats.squashed += 1
        if not self._replay_pending:
            self.screening.replaying = False

    def _check_order_violation(self, thread: ThreadContext,
                               store: MicroOp) -> None:
        """A resolving store exposes younger completed loads to the same
        address that consumed stale data: squash from the oldest such load
        and refetch (standard memory-order-violation recovery)."""
        violations = thread.lsq.violating_loads(store)
        if not violations:
            return
        oldest = min(violations, key=lambda op: op.uid)
        self.stats.memory_order_violations += 1
        drained = thread.rob.drain_younger_than(oldest.uid - 1)
        self._squash_ops(thread, drained, restore_walk=True)
        thread.lsq.remove_younger_than(oldest.uid - 1)
        self._fetch_buffers[thread.thread_id].clear()
        thread.redirect_fetch(oldest.pc,
                              self.cycle + self.hw.branch_mispredict_penalty)

    def _recover_from_branch(self, thread: ThreadContext,
                             branch: MicroOp) -> None:
        drained = thread.rob.drain_younger_than(branch.uid)
        self._squash_ops(thread, drained, restore_walk=True)
        thread.lsq.remove_younger_than(branch.uid)
        self._fetch_buffers[thread.thread_id].clear()
        target = branch.inst.imm if branch.actual_taken else branch.pc + 1
        thread.redirect_fetch(target,
                              self.cycle + self.hw.branch_mispredict_penalty)
        self.stats.branch_squashed_ops += len(drained)

    # ------------------------------------------------------------------
    # issue stage
    # ------------------------------------------------------------------
    def _issue_stage(self) -> None:
        if self.iq.empty or self.cycle < self._issue_suspended_until:
            return
        budget = self.hw.issue_width
        # hot loop: hoist the shared-structure attribute lookups and walk
        # the queue's list directly (waiting_ops() semantics inlined —
        # dispatch order, WAITING only; issuing flips states but never
        # mutates the list)
        threads = self.threads
        prf = self.prf
        fus = self.fus
        stats = self.stats
        ready_bits = prf.ready
        waiting = OpState.WAITING
        for op in self.iq._ops:
            if op.state is not waiting:
                continue
            if budget <= 0:
                break
            # hot path: inline operand-ready check
            srcs_ready = True
            for phys in op.phys_srcs:
                if not ready_bits[phys]:
                    srcs_ready = False
                    break
            if not srcs_ready:
                continue
            thread = threads[op.thread_id]
            inst = op.inst
            latency = inst.latency
            if op.is_load:
                base = prf.read(op.phys_srcs[0])
                address = effective_address(base, inst.imm)
                valid = check_address(address)
                status = ForwardStatus.MISS
                if valid:
                    # probe forwarding (side-effect free) before claiming
                    # a unit: a STALL must not issue at all, it would
                    # either read stale memory or burn the FU slot
                    status, _value, _uid = thread.lsq.forward_value(
                        op, address)
                    if status is ForwardStatus.STALL:
                        continue
                if not fus.try_claim(inst.op_class):
                    continue
                if not valid:
                    latency = 1  # exception resolved at completion
                elif status is ForwardStatus.HIT:
                    latency = self.hw.l1d_latency
                else:
                    hierarchy = (self._ideal_hierarchy
                                 if thread.ideal_memory else self.hierarchy)
                    latency = hierarchy.access(
                        address, now=self.cycle,
                        space=op.thread_id).latency
            elif not fus.try_claim(inst.op_class):
                continue
            op.state = OpState.EXECUTING
            op.cycle_issued = self.cycle
            op.exec_done_at = self.cycle + latency
            self._executing.append(op)
            stats.issued += 1
            budget -= 1

    # ------------------------------------------------------------------
    # dispatch stage
    # ------------------------------------------------------------------
    def _dispatch_stage(self) -> None:
        if not any(self._fetch_buffers):
            return    # nothing to dispatch: skip the occupancy sums too
        if not self.iq.can_accept():
            return    # dispatch only fills the IQ, so a full queue at
            # stage entry blocks every candidate this cycle
        budget = self.hw.decode_width
        # snapshot aggregate occupancies once per cycle; dispatches below
        # update the running totals
        self._rob_total = sum(len(t.rob) for t in self.threads)
        self._lsq_total = sum(len(t.lsq) for t in self.threads)
        for thread in self._thread_order():
            buffer = self._fetch_buffers[thread.thread_id]
            while budget > 0 and buffer:
                op = buffer[0]
                if op.dispatch_ready_at > self.cycle:
                    break
                if not self._dispatch_op(thread, op):
                    break
                buffer.popleft()
                budget -= 1
            if budget <= 0:
                break

    def _dispatch_op(self, thread: ThreadContext, op: MicroOp) -> bool:
        # ROB and LSQ are shared dynamically: dispatch checks aggregate
        # occupancy across all SMT contexts (cheapest comparisons first —
        # all the gates are pure, so order is free).
        if self._rob_total >= self.hw.rob_size or thread.rob.full \
                or not self.iq.can_accept():
            return False
        if op.is_mem and (thread.lsq.full
                          or self._lsq_total >= self.hw.lsq_size):
            return False
        # op.writes_reg already folds in the rd != 0 discard rule
        if op.writes_reg and self.free_list.empty:
            return False

        inst = op.inst
        op.phys_srcs = tuple(thread.spec_rat.get(r)
                             for r in inst.source_regs())
        if op.writes_reg:
            new_phys = self.free_list.allocate()
            op.old_phys_dest = thread.spec_rat.get(inst.rd)
            op.phys_dest = new_phys
            self.prf.mark_pending(new_phys)
            thread.spec_rat.set(inst.rd, new_phys)

        if not self.iq.insert(op):
            # roll the rename back; this should not happen after can_accept
            if op.phys_dest is not None:
                thread.spec_rat.set(op.inst.rd, op.old_phys_dest)
                self.free_list.free(op.phys_dest)
                op.phys_dest = None
            return False
        if self.iq.delay_buffer.squashes > self.stats.delay_buffer_squashes:
            self.stats.delay_buffer_squashes = self.iq.delay_buffer.squashes
        thread.rob.push(op)
        self._rob_total += 1
        if op.is_mem:
            thread.lsq.push(op)
            self._lsq_total += 1
        self.stats.dispatched += 1
        return True

    # ------------------------------------------------------------------
    # fetch stage
    # ------------------------------------------------------------------
    def _fetch_stage(self) -> None:
        thread = self._fetch_thread()
        if thread is None:
            return
        buffer = self._fetch_buffers[thread.thread_id]
        predictor = self.predictors[thread.thread_id]
        oracle = self._branch_oracles.get(thread.thread_id)
        for _ in range(self.hw.fetch_width):
            if len(buffer) >= FETCH_BUFFER_CAP:
                break
            inst = thread.program.fetch(thread.fetch_pc)
            if inst is None:
                thread.stop_fetch()
                break
            self._uid += 1
            op = MicroOp(self._uid, thread.thread_id, thread.fetch_pc, inst,
                         self.cycle, self.cycle + FRONTEND_DEPTH)
            if inst.opcode is Opcode.JMP:
                thread.fetch_pc = inst.imm
            elif inst.is_branch:
                hint = None
                if oracle is not None:
                    hint = oracle.popleft() if oracle else False
                op.predicted_taken = predictor.predict(
                    thread.thread_id, thread.fetch_pc, hint)
                thread.fetch_pc = (inst.imm if op.predicted_taken
                                   else thread.fetch_pc + 1)
            else:
                thread.fetch_pc += 1
            buffer.append(op)
            self.stats.fetched += 1
            if inst.opcode is Opcode.HALT:
                thread.stop_fetch()
                break
            if inst.is_branch and op.predicted_taken:
                break  # taken-branch redirect ends the fetch group

    def _fetch_thread(self) -> Optional[ThreadContext]:
        """ICOUNT fetch policy: the eligible thread with the fewest
        in-flight instructions gets the full fetch width this cycle.

        This is the classic SMT fairness rule — without it a thread
        stalled on a long miss chain fills its whole ROB partition and
        starves the shared free list and issue queue, collapsing the
        other thread's throughput.
        """
        best = None
        best_count = None
        n = len(self.threads)
        for offset in range(n):
            thread = self.threads[(self.cycle + offset) % n]
            if (not thread.fetch_active
                    or self.cycle < thread.fetch_stalled_until
                    or len(self._fetch_buffers[thread.thread_id])
                    >= FETCH_BUFFER_CAP):
                continue
            in_flight = (len(thread.rob)
                         + len(self._fetch_buffers[thread.thread_id]))
            if best_count is None or in_flight < best_count:
                best, best_count = thread, in_flight
        return best

    def _build_thread_orders(self) -> List[List[ThreadContext]]:
        threads = self.threads
        n = len(threads)
        return [threads[i:] + threads[:i] for i in range(n)]

    def _thread_order(self) -> List[ThreadContext]:
        orders = self._thread_orders
        return orders[self.cycle % len(orders)]


__all__ = ["PipelineCore", "FRONTEND_DEPTH"]
