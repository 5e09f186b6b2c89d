"""The lazy faulty twin: dormant lanes over the shared golden core.

The eager tandem path (:meth:`TandemClassifier._classify_one`) pays, for
every planned fault, one full ``clone()`` plus a complete faulty-side
re-execution of the run-window — even though, until the flipped bit is
actually *read*, the faulty twin is cycle-for-cycle identical to the
golden core it was cloned from. The paper's AVF results make that the
common case: most register-file faults land in dead or free registers and
stay invisible forever.

Every REGFILE and RENAME window therefore runs as a :class:`Lane`
(:meth:`TandemClassifier._classify_window`): the fault is registered as a
**dormant lane** — logically the golden core *plus a one-entry patch*
(the XOR'd physical register value, or the XOR'd rename mapping) — and
only the golden core is stepped. Dormancy is maintained by two exact
mechanisms:

- a **divergence probe**, run before every golden step, that decides
  whether the coming cycle *could read* the patched entry: a numpy scan
  of the SoA mirror of all in-flight source operands (REGFILE — every
  PRF read in the core reads an op resident in some ROB), or a scan of
  the thread's fetch buffer for instructions naming the patched logical
  register (RENAME — dispatch is the only speculative-RAT reader). The
  probe is conservative: firing early just materializes a lane that
  would have stayed dormant, which is result-neutral.
- a **write watch** — an instance-level shadow of ``prf.write`` (or the
  rename table's ``set``/``copy_from``) — that detects the patched entry
  being overwritten. Because the probe guarantees the patch was never
  read, the overwriting value was computed from un-patched state and is
  identical in both lanes: the fault is dead and the lane **converges**
  (classified from golden state alone, like a fully dormant lane).

Only when the probe fires does the lane **materialize**: a real
``clone()`` of the golden core at the last pre-divergence cycle (its
trajectory up to there is provably identical to the eager faulty
twin's), the patch applied directly, and the window finished on the
eager comparison tail — so results are bit-for-bit equal to the eager
path by construction, not by tolerance. LSQ faults have no dormant
phase (whether one even lands is decided by faulty-side stepping) and
stay on the eager path.
"""

from __future__ import annotations

import enum
from typing import List, Optional

import numpy as np

from ..core.screening import NullScreeningUnit
from ..pipeline.core import PipelineCore
from ..pipeline.regfile import PhysicalRegisterFile
from ..pipeline.rename import RenameTable
from .injector import FaultInjector
from .model import FaultRecord, FaultSite, RegStatus


# ----------------------------------------------------------------------
# SoA state mirrors
# ----------------------------------------------------------------------
class CoreSoAView:
    """Structure-of-arrays mirror of a core's in-flight source operands.

    The dormant-lane divergence probe needs only the flattened source-
    operand matrix (:meth:`src_matrix`), rebuilt at most once per cycle:
    it is memoised on the activity stamp ``(cycle, uid, committed,
    squashed, issued)``.
    """

    def __init__(self, core: PipelineCore):
        self.core = core
        self._srcs_at: Optional[tuple] = None
        self._srcs: Optional[np.ndarray] = None

    def _stamp(self) -> tuple:
        core = self.core
        stats = core.stats
        return (core.cycle, core._uid, stats.committed, stats.squashed,
                stats.issued)

    def src_matrix(self) -> np.ndarray:
        """Flattened physical source operands of every ROB-resident op
        (all threads). Every PRF value read in the core — issue-stage
        address probes, execute-stage operand reads, commit-time
        singleton re-reads, the quiescence scan's load-base peek — reads
        an op that is resident in some ROB at the start of the cycle, so
        this matrix is a sound overapproximation of the registers the
        coming cycle can read."""
        stamp = self._stamp()
        if stamp != self._srcs_at:
            srcs: List[int] = []
            for thread in self.core.threads:
                for op in thread.rob:
                    srcs.extend(op.phys_srcs)
            self._srcs = np.asarray(srcs, dtype=np.int32)
            self._srcs_at = stamp
        return self._srcs

    def reads_phys(self, reg: int) -> bool:
        """Vectorized probe: may any in-flight op read physical *reg*?"""
        srcs = self.src_matrix()
        return srcs.size > 0 and bool((srcs == reg).any())


# ----------------------------------------------------------------------
# divergence probes (per fault site)
# ----------------------------------------------------------------------
class _RegfileProbe:
    """May the coming cycle read physical register *reg*?

    The base answer is "some in-flight op names *reg* as a source". On a
    null-screening core the probe is additionally gated on the ready bit,
    which is exact there: every value read is ready-gated (the issue
    stage checks ``srcs_ready`` inline before its load-base ``prf.read``;
    ``IssueQueue.next_event_cycle`` consults ``cannot_issue`` only after
    its own ``srcs_ready`` loop; completion-side reads belong to ops that
    issued with ready sources, and a fault-free golden never frees a
    register before all its consumers commit, so their ready bit cannot
    be cleared mid-flight) and the only non-ready read path in the
    pipeline — the commit-time singleton re-execute — exists solely
    under ``wants_commit_checks`` schemes. Replay/squash actions, which
    *can* clear ready bits of in-flight producers, never come out of the
    null unit either. For any real screening scheme the gate is dropped
    and the conservative source scan stands alone.

    With the gate, a free register reallocated mid-window merely parks
    its new consumers in the ROB (sources pending); the new producer's
    ``prf.write`` then lands on the write-watch and retires the lane as
    CONVERGED before anything could observe the stale value.
    """

    def __init__(self, core: PipelineCore, reg: int,
                 free_at_arm: bool = False):
        self.view = core.soa_view()
        self.reg = reg
        self.prf = core.prf
        self.gated = isinstance(core.screening, NullScreeningUnit)
        # A register that is FREE at arm (no committed-RAT entry, no ROB
        # dest) is unreachable: every old consumer has committed and
        # left the ROB, and any future consumer must be renamed through
        # a fresh allocation of this tag — which runs ``mark_pending``
        # and cannot issue before the new producer's ``prf.write`` lands
        # on the write-watch. On a gated (null-screening) core the probe
        # is therefore a constant False for the whole dormancy, costing
        # nothing per cycle.
        self.never = free_at_arm and self.gated

    def may_read(self) -> bool:
        if self.never:
            return False
        if self.gated and not self.prf.ready[self.reg]:
            return False
        return self.view.reads_phys(self.reg)


class _RenameProbe:
    """May the coming cycle read the speculative mapping of *logical*?

    Dispatch is the only reader of the speculative RAT, and it only
    dispatches ops sitting in the thread's fetch buffer at stage entry —
    ``spec_rat.get`` for each source register, plus ``get(rd)`` (the
    old-mapping read) for register writers. Scanning the whole buffer
    (it is capped at a handful of entries) overapproximates the per-
    cycle decode budget, which is safe: an early fire just materializes
    a lane a cycle or two sooner.
    """

    def __init__(self, core: PipelineCore, thread_id: int, logical: int):
        self.buffer = core._fetch_buffers[thread_id]
        self.logical = logical

    def may_read(self) -> bool:
        logical = self.logical
        for op in self.buffer:
            inst = op.inst
            if logical in inst.source_regs():
                return True
            if op.writes_reg and inst.rd == logical:
                return True
        return False


# ----------------------------------------------------------------------
# write watches (patch-death detection)
# ----------------------------------------------------------------------
class _PrfWatch:
    """Instance-level shadow of ``prf.write`` flagging writes to *reg*.

    Armed only inside a window and always disarmed in ``finally`` —
    the shadow closure is unpicklable by design, and checkpoints are
    captured strictly between windows (``checkpoint.capture`` guards).
    """

    def __init__(self, prf: PhysicalRegisterFile, reg: int):
        self.prf = prf
        self.reg = reg
        self.hit = False
        self.armed = False

    def arm(self) -> None:
        prf, reg = self.prf, self.reg
        unshadowed = PhysicalRegisterFile.write

        def write(target: int, value: int) -> None:
            if target == reg:
                self.hit = True
            unshadowed(prf, target, value)

        prf.write = write
        self.armed = True

    def disarm(self) -> None:
        if self.armed:
            self.prf.__dict__.pop("write", None)
            self.armed = False


class _RatWatch:
    """Shadow of a rename table's ``set``/``copy_from`` flagging writes
    to the patched *logical* mapping (``copy_from`` overwrites every
    entry, so it always counts)."""

    def __init__(self, rat: RenameTable, logical: int):
        self.rat = rat
        self.logical = logical
        self.hit = False
        self.armed = False

    def arm(self) -> None:
        rat, logical = self.rat, self.logical
        unshadowed_set = RenameTable.set
        unshadowed_copy = RenameTable.copy_from

        def set_(target: int, phys: int) -> None:
            if target == logical:
                self.hit = True
            unshadowed_set(rat, target, phys)

        def copy_from(other: RenameTable) -> None:
            self.hit = True
            unshadowed_copy(rat, other)

        rat.set = set_
        rat.copy_from = copy_from
        self.armed = True

    def disarm(self) -> None:
        if self.armed:
            self.rat.__dict__.pop("set", None)
            self.rat.__dict__.pop("copy_from", None)
            self.armed = False


def assert_unwatched(core: PipelineCore) -> None:
    """Raise if *core* carries an armed lane watch (unpicklable shadow
    closures) — the checkpoint layer's defense against capturing one."""
    if "write" in vars(core.prf):
        raise RuntimeError("core carries an armed PRF write watch; "
                           "checkpoints must be captured between windows")
    for thread in core.threads:
        shadows = vars(thread.spec_rat)
        if "set" in shadows or "copy_from" in shadows:
            raise RuntimeError("core carries an armed rename-table watch; "
                               "checkpoints must be captured between windows")


# ----------------------------------------------------------------------
# lanes
# ----------------------------------------------------------------------
class LaneState(enum.Enum):
    DORMANT = "dormant"
    CONVERGED = "converged"
    MATERIALIZED = "materialized"


class Lane:
    """One planned REGFILE or RENAME fault held as a dormant patch on
    the golden core.

    Arming records what the eager ``injector.apply`` records at
    injection time (``reg_status``, ``applied``) and the patch
    coordinates, but touches no core state: a dormant lane IS the golden
    core plus this patch descriptor. :meth:`run_window` then steps the
    golden core to the window's capture point and reports whether the
    lane had to materialize a real faulty twin on the way.
    """

    def __init__(self, golden: PipelineCore, record: FaultRecord):
        self.record = record
        self.state = LaneState.DORMANT
        #: Golden cycles the lane spent dormant (set by run_window).
        self.dormant_cycles = 0
        if record.site is FaultSite.REGFILE:
            record.reg_status = FaultInjector.reg_status(golden, record.reg)
            reg = record.reg % golden.prf.num_regs
            self.watch = _PrfWatch(golden.prf, reg)
            self.probe = _RegfileProbe(
                golden, reg,
                free_at_arm=record.reg_status is RegStatus.FREE)
        else:
            rat = golden.threads[record.thread_id].spec_rat
            old = rat.get(record.logical)
            if (old ^ (1 << record.bit)) % rat.num_phys == old:
                # identity flip: the wrap leaves the mapping unchanged,
                # so the lanes are equal from cycle zero
                self.state = LaneState.CONVERGED
            self.watch = _RatWatch(rat, record.logical)
            self.probe = _RenameProbe(golden, record.thread_id,
                                      record.logical)
        record.applied = True

    def run_window(self, golden: PipelineCore,
                   bound: int) -> Optional[PipelineCore]:
        """Step *golden* to its armed capture point (or cycle *bound*).

        Returns the materialized faulty twin — cloned at the first cycle
        that could read the patch, and not yet stepped past it — or None
        when the lane stayed dormant or converged to the end.
        """
        state = self.state
        probe, watch = self.probe, self.watch
        faulty: Optional[PipelineCore] = None
        dormant_from = dormant_until = golden.cycle
        if state is LaneState.DORMANT:
            watch.arm()
        try:
            # One continuous run_to_capture-shaped loop: the elision
            # signature must span the whole window, or golden's elide
            # pattern (and cycles_elided) would diverge from the eager
            # path's single golden run_to_capture call.
            signature = -1
            step = golden.step
            while not (golden.all_snapshots_captured or golden.all_halted) \
                    and golden.cycle < bound:
                if state is LaneState.DORMANT and probe.may_read():
                    # First cycle that could observe the patch: clone a
                    # real twin pre-step (its trajectory so far is
                    # provably identical to the eager faulty core's).
                    watch.disarm()
                    dormant_until = golden.cycle
                    faulty = self._materialize(golden)
                    state = LaneState.MATERIALIZED
                current = golden.activity_signature()
                if (current == signature
                        and golden.elide_idle_cycles(bound)
                        and golden.cycle >= bound):
                    break
                signature = current
                step()
                if state is LaneState.DORMANT and watch.hit:
                    # The patched entry was overwritten with a value
                    # computed from un-patched state (the probe rules
                    # out any earlier read): the fault is dead, the
                    # lanes are equal again.
                    watch.disarm()
                    dormant_until = golden.cycle
                    state = LaneState.CONVERGED
        finally:
            watch.disarm()
        if state is LaneState.DORMANT:
            dormant_until = golden.cycle
        self.state = state
        self.dormant_cycles = dormant_until - dormant_from
        return faulty

    def _materialize(self, golden: PipelineCore) -> PipelineCore:
        """A real faulty twin at the last pre-divergence cycle: clone
        golden (targets and any mid-window snapshots ride along) and
        re-apply the patch directly. ``reg_status`` was already recorded
        at arm time, so this must not go through ``injector.apply``."""
        record = self.record
        faulty = golden.clone()
        if record.site is FaultSite.REGFILE:
            faulty.inject_prf_bit(record.reg, record.bit)
        else:
            faulty.inject_rat_bit(record.thread_id, record.logical,
                                  record.bit)
        return faulty


__all__ = ["CoreSoAView", "Lane", "LaneState", "assert_unwatched"]
