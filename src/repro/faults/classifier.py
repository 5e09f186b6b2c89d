"""Tandem golden/faulty classification (paper Section 4).

One fault-free *golden* core advances through the workload. For each
planned fault the classifier forks a copy (the purpose-built
:meth:`~repro.pipeline.core.PipelineCore.clone`, not a generic
deepcopy), injects the fault, runs both copies to the same per-thread
committed-instruction boundary (the paper's run-window), and compares:

- extra exceptions in the faulty run  →  **noisy**
- identical architectural state       →  **masked**
- anything else                       →  **SDC**

The golden core is then re-used for the next fault (the paper's trick of
serving all injections from one benchmark run). REGFILE and RENAME
windows fork the faulty copy lazily — only once the flipped bit may be
read (:mod:`repro.faults.batched`) — with bit-for-bit the same verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence

from ..obs.metrics import LATENCY_CYCLE_BUCKETS, NULL_METRICS
from ..pipeline.core import PipelineCore
from .batched import Lane, LaneState
from .injector import FaultInjector
from .model import FaultClass, FaultRecord, FaultSite


@dataclass
class WindowResult:
    """Everything observed about one injected fault's run-window."""

    record: FaultRecord
    fault_class: Optional[FaultClass] = None
    applied: bool = True
    state_equal: bool = False
    extra_exceptions: int = 0
    hung: bool = False
    #: Scheme events observed between injection and the window end.
    replays: int = 0
    rollbacks: int = 0
    singletons: int = 0
    declared: int = 0
    suppressions: int = 0
    triggers: int = 0
    #: Audit-trail coordinates: the faulty core's cycle when the fault
    #: landed, the cycle of the first screening filter trigger at or
    #: after injection, and their difference (-1 = no trigger observed).
    inject_cycle: int = -1
    first_trigger_cycle: int = -1
    detection_latency: int = -1


@dataclass
class LaneStats:
    """Lazy-twin lifecycle tallies (always maintained, independent of
    the metrics registry, so equivalence tests can assert e.g. "no
    masked fault ever materialized")."""

    lanes: int = 0              # windows run by _classify_window
    dormant: int = 0            # lanes classified without a clone
    converged: int = 0          # ... of which via patch-death detection
    materialized: int = 0       # lanes that diverged (lane_divergences)
    fallbacks: int = 0          # LSQ eager delegations (batch_fallbacks)
    dormant_cycles: int = 0     # golden cycles spent with a lane dormant


@dataclass
class _EventBaseline:
    replays: int
    rollbacks: int
    singletons: int
    declared: int
    suppressions: int
    triggers: int

    @staticmethod
    def of(core: PipelineCore) -> "_EventBaseline":
        unit = core.screening
        suppressions = getattr(unit, "second_level_suppressions", 0)
        return _EventBaseline(
            replays=core.stats.replay_events,
            rollbacks=core.stats.rollback_events,
            singletons=core.stats.singleton_reexecs,
            declared=len(core.declared_faults),
            suppressions=suppressions,
            triggers=unit.trigger_count,
        )


class TandemClassifier:
    """Runs an injection list against one workload + scheme combination."""

    def __init__(self, core_factory: Callable[[], PipelineCore],
                 injector: FaultInjector,
                 window_commits: int = 300,
                 max_window_cycles: int = 60_000,
                 lsq_wait_cycles: int = 200,
                 sanitize: bool = True,
                 metrics=NULL_METRICS):
        self.core_factory = core_factory
        self.injector = injector
        self.window_commits = window_commits
        self.max_window_cycles = max_window_cycles
        self.lsq_wait_cycles = lsq_wait_cycles
        #: Cumulative lazy-twin lifecycle tallies.
        self.lane_stats = LaneStats()
        #: Live-telemetry registry (repro.obs.metrics); NULL when off.
        #: Observes only per-window facts, never the golden core's
        #: cumulative stats, so results stay bit-for-bit metrics on/off.
        self.metrics = metrics
        #: Arm the invariant sanitizer on the golden core, checked at
        #: every window's capture point (repro.pipeline.invariants) —
        #: campaigns self-validate their golden reference. Faulty forks
        #: are never sanitized (clone() drops the sanitizer): their
        #: rename invariants break by design.
        self.sanitize = sanitize

    # ------------------------------------------------------------------
    def run(self, records: List[FaultRecord],
            skip: Sequence[FaultRecord] = (),
            golden: Optional[PipelineCore] = None,
            resume_at_commit: int = 0) -> List[WindowResult]:
        """Classify every fault in *records*.

        The one golden core serves every window, which is only sound
        because the injection plan never asks it to rewind — asserted
        here as a cheap monotonicity check on ``inject_at_commit``
        (``Campaign._space_records`` guarantees it) instead of
        re-deriving golden state per window.

        *skip* is the fast-forward prefix a worker can replay when it has
        nothing better: the golden core replays those windows (advance +
        capture, no fault, no tandem copy) so it reaches bit-for-bit the
        same state the serial classifier would carry into ``records[0]``.

        *golden* skips even that: a caller that already holds the
        prefix-advanced core — restored from a chunk-boundary
        :class:`~repro.pipeline.checkpoint.CoreCheckpoint` — passes it
        directly with *resume_at_commit* set to the commit coordinate it
        was advanced through, and no replay happens at all.
        """
        if golden is not None and skip:
            raise ValueError("pass either a restored golden core or a "
                             "skip prefix, not both")
        self._check_contract(skip, records,
                             resume_at_commit if golden is not None else 0)
        if golden is None:
            golden = self.core_factory()
        self._arm_sanitizer(golden)
        for record in skip:
            self._skip_window(golden, record)
        lanes_before = replace(self.lane_stats)
        results = [self._classify_window(golden, record)
                   for record in records]
        self._record_metrics(results, lanes_before)
        return results

    def _record_metrics(self, results: Sequence[WindowResult],
                        lanes_before: LaneStats) -> None:
        """Fold one run's per-window observations into the registry."""
        if not self.metrics.enabled or not results:
            return
        lanes = self.lane_stats
        for name, tally in (("lanes_dormant_cycles", "dormant_cycles"),
                            ("lane_divergences", "materialized"),
                            ("batch_fallbacks", "fallbacks")):
            self.metrics.counter(name).inc(
                getattr(lanes, tally) - getattr(lanes_before, tally))
        self.metrics.counter("classifier_windows_total").inc(len(results))
        self.metrics.counter("classifier_applied_total").inc(
            sum(1 for r in results if r.applied))
        latency = self.metrics.histogram("classifier_detection_latency_cycles",
                                         LATENCY_CYCLE_BUCKETS)
        for result in results:
            if result.detection_latency >= 0:
                latency.observe(result.detection_latency)

    def advance_golden(self, golden: PipelineCore,
                       records: Sequence[FaultRecord]) -> None:
        """Advance *golden* through *records* exactly as the serial
        classifier's golden side would (the dispatcher's one golden pass
        that captures chunk-boundary checkpoints)."""
        self._arm_sanitizer(golden)
        for record in records:
            self._skip_window(golden, record)

    def _arm_sanitizer(self, golden: PipelineCore) -> None:
        """Arm the invariant sanitizer on the golden core in explicit-
        check mode: one full check per window at the capture point, well
        under the ≤2× golden-pass budget. Never rearms (a restored
        checkpoint may carry an armed sanitizer already) and never
        touches the per-cycle step path."""
        if self.sanitize \
                and getattr(golden, "_sanitizer", None) is None \
                and hasattr(golden, "enable_sanitizer"):
            golden.enable_sanitizer(every=0)

    @staticmethod
    def _check_contract(skip: Sequence[FaultRecord],
                        records: Sequence[FaultRecord],
                        already_at_commit: int = 0) -> None:
        previous = already_at_commit if already_at_commit else None
        for record in (*skip, *records):
            if previous is not None and record.inject_at_commit < previous:
                raise ValueError(
                    "fault records must be sorted by inject_at_commit: "
                    "the shared golden core never rewinds")
            previous = record.inject_at_commit

    def _skip_window(self, golden: PipelineCore, record: FaultRecord) -> None:
        """Advance the golden core through one window without classifying.

        Mirrors exactly the golden-side stepping of
        :meth:`_classify_window` and :meth:`_classify_one` (advance to
        the injection commit, arm the snapshot targets, run to capture)
        so a chunk worker's golden core is indistinguishable from the
        serial one. When the serial run
        would have failed to land the fault it leaves golden parked at
        the injection commit; only LSQ faults can fail, and the decision
        depends on faulty-side stepping, so those are probed on a
        throwaway copy.
        """
        if not self._advance_to(golden, record.inject_at_commit):
            return
        if record.site is FaultSite.LSQ:
            probe = golden.clone()
            if not self._apply_with_retry(probe, record):
                return
        golden.set_snapshot_targets(self._window_targets(golden))
        self._run_to_capture(golden)
        self._check_golden(golden)

    def _window_targets(self, golden: PipelineCore) -> Dict[int, int]:
        """Each thread's capture point: one run-window of commits past
        the injection point."""
        return {t.thread_id: t.committed_count + self.window_commits
                for t in golden.threads}

    def _check_golden(self, golden: PipelineCore) -> None:
        """Run the armed sanitizer at a capture point (no-op otherwise).
        Raises InvariantError: a structurally broken golden core would
        silently skew every classification it serves."""
        if hasattr(golden, "check_invariants"):
            golden.check_invariants()

    def _advance_to(self, core: PipelineCore, total_commits: int) -> bool:
        """Advance *core* until its total committed count reaches
        *total_commits*; False when it halted first. Delegates to the
        core's event-skip driver: idle stretches (long-latency misses,
        redirect stalls) are jumped instead of stepped."""
        return core.run_to_commit(total_commits, self.max_window_cycles * 4)

    def _classify_window(self, golden: PipelineCore,
                         record: FaultRecord) -> WindowResult:
        """Classify one window on the lazy faulty twin.

        The fault rides the golden pass as a dormant :class:`Lane`; a
        real twin is cloned only if the lane materializes. A lane that
        stays dormant (or converges) to the window end IS the golden
        core, so golden is compared against itself, which reproduces
        every eager formula (zero event deltas bar the declared-fault
        background, ``state_equal`` iff all snapshots captured, MASKED).
        LSQ faults have no dormant phase and take the eager path.
        """
        stats = self.lane_stats
        stats.lanes += 1
        if record.site is FaultSite.LSQ:
            stats.fallbacks += 1
            return self._classify_one(golden, record)
        result = WindowResult(record=record)
        if not self._advance_to(golden, record.inject_at_commit):
            result.applied = False
            record.applied = False
            return result

        inject_cycle = golden.cycle
        before = _EventBaseline.of(golden)
        triggers_before = len(golden.screen_trigger_cycles)
        lane = Lane(golden, record)
        golden.set_snapshot_targets(self._window_targets(golden))
        # the eager faulty run's cycle budget is measured from the
        # injection cycle, and so is golden's
        bound = golden.cycle + self.max_window_cycles
        faulty = lane.run_window(golden, bound)
        self._check_golden(golden)
        stats.dormant_cycles += lane.dormant_cycles
        if faulty is not None:
            stats.materialized += 1
            faulty.run_to_capture(bound - faulty.cycle)
        else:
            stats.dormant += 1
            if lane.state is LaneState.CONVERGED:
                stats.converged += 1
            faulty = golden
        return self._compare_window(golden, faulty, record, before,
                                    triggers_before, inject_cycle)

    def _classify_one(self, golden: PipelineCore,
                      record: FaultRecord) -> WindowResult:
        """The eager tandem window: clone at injection, run both copies
        to capture. The LSQ path, and the reference the lazy
        :meth:`_classify_window` is tested against."""
        result = WindowResult(record=record)
        if not self._advance_to(golden, record.inject_at_commit):
            result.applied = False
            record.applied = False
            return result

        faulty = golden.clone()
        if not self._apply_with_retry(faulty, record):
            result.applied = False
            return result
        before = _EventBaseline.of(faulty)
        inject_cycle = faulty.cycle
        triggers_before = len(faulty.screen_trigger_cycles)

        targets = self._window_targets(golden)
        golden.set_snapshot_targets(targets)
        faulty.set_snapshot_targets(targets)
        self._run_to_capture(golden)
        self._check_golden(golden)
        self._run_to_capture(faulty)

        return self._compare_window(golden, faulty, record, before,
                                    triggers_before, inject_cycle)

    def _compare_window(self, golden: PipelineCore, faulty: PipelineCore,
                        record: FaultRecord, before: _EventBaseline,
                        triggers_before: int,
                        inject_cycle: int) -> WindowResult:
        """Classify one finished window from its golden/faulty pair.

        The comparison tail shared by the eager path and materialized
        lazy lanes — and, with ``faulty is golden``, by dormant/converged
        lanes: a lane whose patch was never read (and, if overwritten,
        overwritten with a value computed from un-patched state) is the
        golden core.
        """
        result = WindowResult(record=record)
        result.inject_cycle = inject_cycle

        if not faulty.all_snapshots_captured and not faulty.all_halted:
            result.hung = True

        golden_exc = [tuple(t.exceptions) for t in golden.threads]
        faulty_exc = [tuple(t.exceptions) for t in faulty.threads]
        result.extra_exceptions = sum(
            max(0, len(f) - len(g)) for g, f in zip(golden_exc, faulty_exc))

        result.state_equal = (
            faulty.all_snapshots_captured
            and golden.captured_snapshots == faulty.captured_snapshots)

        after = _EventBaseline.of(faulty)
        golden_after = _EventBaseline.of(golden)
        golden_before_delta = _Delta(before, golden_after)
        # events attributable to the fault = faulty delta minus the
        # false-positive background the golden run shows in the same window
        delta = _Delta(before, after)
        result.replays = max(0, delta.replays - golden_before_delta.replays)
        result.rollbacks = max(0, delta.rollbacks - golden_before_delta.rollbacks)
        result.singletons = max(0, delta.singletons - golden_before_delta.singletons)
        result.declared = delta.declared
        result.suppressions = max(
            0, delta.suppressions - golden_before_delta.suppressions)
        result.triggers = max(0, delta.triggers - golden_before_delta.triggers)

        # Detection latency: injection to the faulty core's first filter
        # trigger afterwards. The series may include the same background
        # false positives the golden run shows, but the first trigger in
        # a window that *did* react to the fault is overwhelmingly the
        # fault's own (the FP rate is a few per thousand commits).
        new_triggers = faulty.screen_trigger_cycles[triggers_before:]
        if new_triggers:
            result.first_trigger_cycle = new_triggers[0]
            result.detection_latency = max(
                0, new_triggers[0] - result.inject_cycle)

        if result.extra_exceptions or (faulty.all_halted
                                       and not golden.all_halted):
            result.fault_class = FaultClass.NOISY
        elif result.state_equal:
            result.fault_class = FaultClass.MASKED
        else:
            result.fault_class = FaultClass.SDC
        record.fault_class = result.fault_class
        return result

    def _apply_with_retry(self, faulty: PipelineCore,
                          record: FaultRecord) -> bool:
        """Inject; LSQ faults wait (a bounded number of cycles) for an
        executed entry to exist.

        The retry loop elides provably idle cycles: the LSQ's executed-
        entry set cannot change while the core is quiescent, so a failing
        ``apply`` keeps failing identically across the skipped stretch
        and the injection lands at exactly the cycle the cycle-by-cycle
        loop would have found.
        """
        if self.injector.apply(faulty, record):
            return True
        if record.site is not FaultSite.LSQ:
            return False
        bound = faulty.cycle + self.lsq_wait_cycles
        signature = -1
        while faulty.cycle < bound:
            if faulty.all_halted:
                return False
            current = faulty.activity_signature()
            if (current == signature and faulty.elide_idle_cycles(bound)
                    and faulty.cycle >= bound):
                break
            signature = current
            faulty.step()
            if self.injector.apply(faulty, record):
                return True
        return False

    def _run_to_capture(self, core: PipelineCore) -> None:
        core.run_to_capture(self.max_window_cycles)


class _Delta:
    """Difference between two event baselines."""

    def __init__(self, before: _EventBaseline, after: _EventBaseline):
        self.replays = after.replays - before.replays
        self.rollbacks = after.rollbacks - before.rollbacks
        self.singletons = after.singletons - before.singletons
        self.declared = after.declared - before.declared
        self.suppressions = after.suppressions - before.suppressions
        self.triggers = after.triggers - before.triggers


__all__ = ["LaneStats", "TandemClassifier", "WindowResult"]
