"""Pipeline event counters: the raw material for performance and energy."""

from __future__ import annotations

import weakref
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Deque, Dict, Tuple


@dataclass
class PipelineStats:
    """Per-run event counts. Every field feeds either the performance
    metrics (Figure 9), the energy model (Figure 10) or the breakdown
    analyses (Figures 11/12).

    ``cycles`` is *derived*: a core binds itself as the cycle source
    (:meth:`bind_cycle_source`) and the property reads ``core.cycle``
    live, so the hot loop never writes a per-cycle counter. Detached
    stats objects (clones, unpickled checkpoints, hand-built tests) fall
    back to the materialised ``_cycles`` field. The binding is a weak
    reference — a strong one would make every core a reference cycle
    that only the cyclic GC can free — and a dying core materialises
    its final count (:meth:`detach_cycle_source`), so stats that
    outlive their core still report it.
    """

    _cycles: int = 0
    fetched: int = 0
    dispatched: int = 0
    issued: int = 0
    completed: int = 0
    committed: int = 0
    committed_loads: int = 0
    committed_stores: int = 0
    squashed: int = 0

    branch_mispredicts: int = 0
    branch_squashed_ops: int = 0
    memory_order_violations: int = 0
    #: Loads satisfied by store-to-load forwarding (diagnostic; not part
    #: of the energy/report surface, so deliberately absent from
    #: ``summary()``).
    forwarded_loads: int = 0

    # screening recovery actions
    replay_events: int = 0
    replayed_ops: int = 0
    rollback_events: int = 0
    rollback_squashed_ops: int = 0
    singleton_reexecs: int = 0
    singleton_mismatch_detections: int = 0
    delay_buffer_squashes: int = 0

    exceptions: int = 0

    # regfile traffic (energy)
    regfile_reads: int = 0
    regfile_writes: int = 0

    per_thread_committed: Dict[int, int] = field(default_factory=dict)
    #: Ring of the most recent commits as (thread_id, pc) — enough for a
    #: debugger to see everything committed since its last per-cycle check
    #: (commit width is far below the ring size).
    recent_commits: Deque[Tuple[int, int]] = field(
        default_factory=lambda: deque(maxlen=32))

    #: Weak reference to the live cycle source (the owning core), or
    #: None when detached. A plain class attribute, not a dataclass
    #: field: ``replace``-based clones and unpickled copies start
    #: detached by construction.
    _cycle_source = None

    @property
    def cycles(self) -> int:
        source = self._cycle_source
        if source is not None:
            core = source()
            if core is not None:
                return core.cycle
        return self._cycles

    @cycles.setter
    def cycles(self, value: int) -> None:
        self._cycles = value

    def bind_cycle_source(self, core) -> None:
        """Derive ``cycles`` from *core*.cycle at read time (no per-step
        write). The binding is dropped on pickle and on ``clone`` — both
        materialise the current count first."""
        self._cycle_source = weakref.ref(core)

    def detach_cycle_source(self, cycle: int) -> None:
        """Materialise *cycle* (the source's final count) and drop the
        binding — called by the owning core as it is freed."""
        self._cycles = cycle
        self._cycle_source = None

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_cycle_source", None)
        state["_cycles"] = self.cycles
        return state

    def __setstate__(self, state):
        state.pop("_cycle_source", None)
        # stats pickled before cycles became derived carry the old field
        legacy = state.pop("cycles", None)
        if legacy is not None and "_cycles" not in state:
            state["_cycles"] = legacy
        self.__dict__.update(state)

    @property
    def ipc(self) -> float:
        return self.committed / self.cycles if self.cycles else 0.0

    @property
    def cpi(self) -> float:
        return self.cycles / self.committed if self.committed else 0.0

    def clone(self) -> "PipelineStats":
        """Independent copy for core forking. ``replace`` carries every
        scalar counter (including any added later); only the two container
        fields need their own copies. The twin starts detached from any
        cycle source with the current count materialised — the cloning
        core re-binds it."""
        twin = replace(self)
        twin._cycles = self.cycles
        twin.per_thread_committed = dict(self.per_thread_committed)
        twin.recent_commits = deque(self.recent_commits,
                                    maxlen=self.recent_commits.maxlen)
        return twin

    def thread_committed(self, thread_id: int) -> int:
        return self.per_thread_committed.get(thread_id, 0)

    def note_commit(self, thread_id: int, pc: int = -1) -> None:
        self.committed += 1
        self.per_thread_committed[thread_id] = (
            self.per_thread_committed.get(thread_id, 0) + 1)
        self.recent_commits.append((thread_id, pc))

    def summary(self) -> Dict[str, float]:
        """Flat dict for reports, the event log and EXPERIMENTS.md tables.

        Covers every counter the energy model and breakdown analyses
        consume — reports must agree with the model inputs, so nothing
        that feeds :mod:`repro.energy` may be omitted here.
        """
        return {
            "cycles": self.cycles,
            "committed": self.committed,
            "ipc": round(self.ipc, 4),
            "branch_mispredicts": self.branch_mispredicts,
            "memory_order_violations": self.memory_order_violations,
            "replay_events": self.replay_events,
            "replayed_ops": self.replayed_ops,
            "rollback_events": self.rollback_events,
            "rollback_squashed_ops": self.rollback_squashed_ops,
            "singleton_reexecs": self.singleton_reexecs,
            "singleton_mismatch_detections": self.singleton_mismatch_detections,
            "delay_buffer_squashes": self.delay_buffer_squashes,
            "regfile_reads": self.regfile_reads,
            "regfile_writes": self.regfile_writes,
            "exceptions": self.exceptions,
        }


__all__ = ["PipelineStats"]
