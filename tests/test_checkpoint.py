"""Checkpoint/restore subsystem tests.

The contract: the purpose-built ``clone()`` protocol and the pickled
:class:`CoreCheckpoint` are pure accelerators — classifying from a
restored checkpoint is bit-for-bit classifying straight through, and
the never-rewind contract survives the hand-off.
"""

import copy
import gc
import pickle
import weakref

import pytest

from repro.faults.model import FaultClass
from repro.harness.experiment import ExperimentConfig, ExperimentContext
from repro.harness.parallel import chunk_bounds
from repro.harness.supervisor import Supervisor
from repro.pipeline import (CoreCheckpoint, PipelineCore, capture_checkpoint,
                            restore_checkpoint)

_TINY = ExperimentConfig(benchmarks=("mcf",), dynamic_target=3_000,
                         num_faults=10, warmup_commits=200,
                         window_commits=100)


def _signature(core):
    """Everything the classifier can observe about a core's evolution."""
    return (
        core.cycle,
        core.stats.committed,
        core.arch_snapshot(),
        tuple(tuple(t.exceptions) for t in core.threads),
        tuple((t.arch_pc, t.committed_count, t.halted)
              for t in core.threads),
        core.screening.trigger_count,
        core.screening.checks,
        core.stats.replay_events,
        core.stats.rollback_events,
        core.stats.singleton_reexecs,
        core.stats.branch_mispredicts,
        tuple(core.declared_faults),
        tuple(core.screen_trigger_cycles),
    )


def _warm_core(scheme="faulthound", commits=400):
    ctx = ExperimentContext(_TINY, jobs=1)
    core = ctx.make_core("mcf", scheme)
    core.run_until_commits(commits)
    return core


# ----------------------------------------------------------------------
# clone protocol
# ----------------------------------------------------------------------
class TestCloneProtocol:
    @pytest.mark.parametrize("scheme", ["baseline", "faulthound", "pbfs"])
    def test_clone_matches_deepcopy_in_lockstep(self, scheme):
        core = _warm_core(scheme)
        via_deepcopy = copy.deepcopy(core)
        via_clone = core.clone()
        for _ in range(1_500):
            core.step()
            via_deepcopy.step()
            via_clone.step()
        assert _signature(via_clone) == _signature(core)
        assert _signature(via_clone) == _signature(via_deepcopy)

    def test_clone_covers_every_attribute(self):
        # Regression guard: a new mutable field added to PipelineCore
        # without a corresponding line in clone() shows up here.
        core = _warm_core()
        assert set(vars(core.clone())) == set(vars(core))

    def test_clone_is_independent(self):
        core = _warm_core()
        twin = core.clone()
        before = _signature(core)
        for _ in range(500):
            twin.step()
        assert _signature(core) == before

    def test_clone_preserves_microop_identity(self):
        # An op resident in several containers (ROB + issue queue +
        # executing list) must map to exactly one clone.
        core = _warm_core()
        twin = core.clone()
        by_uid = {}
        for op in twin.inflight_ops():
            assert by_uid.setdefault(op.uid, op) is op
        originals = {op.uid: op for op in core.inflight_ops()}
        for uid, op in by_uid.items():
            assert op is not originals[uid]


# ----------------------------------------------------------------------
# dead cores are freed by refcount, not left for the cyclic GC
# ----------------------------------------------------------------------
@pytest.fixture
def gc_disabled():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class TestRefcountFreeing:
    def test_dropped_clone_is_freed_without_gc(self, gc_disabled):
        """A discarded faulty twin (and its memory snapshots) must not
        wait for the cyclic GC: a core holds no reference cycle."""
        core = _warm_core()
        twin = core.clone()
        ref = weakref.ref(twin)
        del twin
        assert ref() is None

    def test_run_stats_outlive_their_core(self, gc_disabled):
        """``run()`` returns the core's stats; with the core itself
        unreferenced they still report its final cycle count."""
        programs = ExperimentContext(_TINY, jobs=1).programs("mcf")
        kept = PipelineCore(programs)
        kept.run(max_cycles=2_500)
        stats = PipelineCore(programs).run(max_cycles=2_500)
        assert stats.cycles == kept.cycle
        assert stats.committed == kept.stats.committed
        assert stats.ipc == kept.stats.ipc


# ----------------------------------------------------------------------
# CoreCheckpoint capture / restore
# ----------------------------------------------------------------------
class TestCoreCheckpoint:
    def test_restore_matches_live_core_in_lockstep(self):
        core = _warm_core()
        checkpoint = CoreCheckpoint.capture(core, window_index=3,
                                            resume_at_commit=500)
        restored = checkpoint.restore()
        for _ in range(1_500):
            core.step()
            restored.step()
        assert _signature(restored) == _signature(core)

    def test_capture_does_not_disturb_the_core(self):
        core = _warm_core()
        control = core.clone()
        CoreCheckpoint.capture(core)
        for _ in range(500):
            core.step()
            control.step()
        assert _signature(core) == _signature(control)

    def test_each_restore_is_independent(self):
        checkpoint = CoreCheckpoint.capture(_warm_core())
        first, second = checkpoint.restore(), checkpoint.restore()
        for _ in range(300):
            first.step()
        assert second.cycle == checkpoint.cycle

    def test_checkpoint_survives_pickling(self):
        # Checkpoints travel by pickle (the artifact cache stores them).
        core = _warm_core()
        checkpoint = CoreCheckpoint.capture(core, window_index=2,
                                            resume_at_commit=300)
        thawed = pickle.loads(pickle.dumps(checkpoint))
        assert thawed.window_index == 2
        assert thawed.resume_at_commit == 300
        assert thawed.nbytes == checkpoint.nbytes
        assert _signature(thawed.restore()) == _signature(core)

    def test_module_level_mirrors(self):
        core = _warm_core()
        checkpoint = capture_checkpoint(core, window_index=1)
        assert checkpoint.window_index == 1
        assert _signature(restore_checkpoint(checkpoint)) == _signature(core)


# ----------------------------------------------------------------------
# never-rewind contract across the hand-off
# ----------------------------------------------------------------------
class TestNeverRewind:
    def _classifier(self):
        ctx = ExperimentContext(_TINY, jobs=1)
        campaign = ctx.build_campaign("mcf")
        return campaign, campaign.classifier(campaign.baseline_factory)

    def test_golden_and_skip_are_mutually_exclusive(self):
        campaign, classifier = self._classifier()
        golden = campaign.baseline_factory()
        with pytest.raises(ValueError, match="not both"):
            classifier.run(campaign.records[2:], skip=campaign.records[:2],
                           golden=golden)

    def test_resume_at_commit_enforces_the_contract(self):
        campaign, classifier = self._classifier()
        golden = campaign.baseline_factory()
        behind = campaign.records[:1]    # injects before the resume point
        with pytest.raises(ValueError, match="never rewinds"):
            classifier.run(behind, golden=golden,
                           resume_at_commit=behind[0].inject_at_commit + 1)

    def test_restored_checkpoint_carries_resume_coordinate(self):
        """A checkpoint captured at a window boundary carries the commit
        the golden core stopped at, and classifying the remaining
        windows from its restore matches the straight-through run."""
        campaign, classifier = self._classifier()
        records = campaign.records
        serial = classifier.run([r.fresh_copy() for r in records])
        lo = chunk_bounds(len(records), 2)[1][0]
        golden = campaign.baseline_factory()
        classifier.advance_golden(golden, records[:lo])
        checkpoint = CoreCheckpoint.capture(
            golden, window_index=lo,
            resume_at_commit=records[lo - 1].inject_at_commit)
        restored = pickle.loads(pickle.dumps(checkpoint))
        assert restored.window_index == lo
        assert (restored.resume_at_commit
                == records[lo - 1].inject_at_commit)
        tail = classifier.run([r.fresh_copy() for r in records[lo:]],
                              golden=restored.restore(),
                              resume_at_commit=restored.resume_at_commit)
        assert tail == serial[lo:]


# ----------------------------------------------------------------------
# fresh_copy: replay must not disturb characterisation records
# ----------------------------------------------------------------------
class TestFreshCopy:
    def test_fresh_copy_is_deep_enough(self):
        ctx = ExperimentContext(_TINY, jobs=1)
        record = ctx.build_campaign("mcf").records[0]
        record.outcomes["x"] = None
        twin = record.fresh_copy()
        assert twin == record
        twin.applied = False
        twin.fault_class = FaultClass.SDC
        twin.outcomes["y"] = None
        assert record.applied and record.fault_class is None
        assert "y" not in record.outcomes

    def test_replay_leaves_characterization_pristine(self):
        ctx = ExperimentContext(_TINY, jobs=1)
        _, characterization = ctx.campaign("mcf")
        frozen = [r.fresh_copy() for r in characterization.records]
        ctx.coverage("mcf", "faulthound")
        ctx.coverage("mcf", "pbfs")
        assert characterization.records == frozen
        sdc = [r for r in characterization.records
               if r.applied and r.fault_class is FaultClass.SDC]
        assert all(not r.outcomes for r in sdc)


# ----------------------------------------------------------------------
# chunk plumbing edge cases
# ----------------------------------------------------------------------
class TestChunkEdges:
    def test_zero_count_yields_no_chunks(self):
        assert chunk_bounds(0, 4) == []
        assert chunk_bounds(-3, 4) == []

    def test_fewer_records_than_chunks(self):
        assert chunk_bounds(3, 8) == [(0, 1), (1, 2), (2, 3)]

    def test_single_chunk_covers_everything(self):
        assert chunk_bounds(9, 1) == [(0, 9)]

    def test_empty_records_classify_to_nothing(self):
        ctx = ExperimentContext(_TINY, jobs=2)
        report = Supervisor().classify_windows(
            _TINY, ctx.hw, "mcf", None, [], phase="characterize", ctx=ctx)
        assert report.windows == []
