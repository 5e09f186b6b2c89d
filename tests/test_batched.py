"""Lazy faulty twin tests (``repro.faults.batched``).

The contract: the lazy twin is a pure accelerator over the eager
clone-per-window path. Characterisation windows, coverage results,
Figure 11 outcomes, audit aggregates and the golden core's own evolution
(``cycles_elided`` included) are bit-for-bit identical to the eager
reference — serial, checkpointed-chunk and supervised alike, on every
profile — and masked faults on free registers never leave dormancy
(never pay a clone).
"""

from contextlib import contextmanager
from types import SimpleNamespace

import pytest

from repro.cli import _campaign_config
from repro.config import HardwareConfig
from repro.core.screening import NullScreeningUnit, ScreeningUnit
from repro.faults.batched import LaneState, assert_unwatched
from repro.faults.campaign import Campaign
from repro.faults.classifier import TandemClassifier
from repro.faults.model import (FaultClass, FaultRecord, FaultSite,
                                RegStatus)
from repro.harness.experiment import (SCHEMES, ExperimentConfig,
                                      ExperimentContext)
from repro.harness.parallel import (align_chunk_bounds, chunk_bounds,
                                    chunk_checkpoints, window_chunk_task)
from repro.harness.supervisor import Supervisor, SupervisorPolicy
from repro.obs.audit import audit_aggregates, audit_records
from repro.pipeline import CoreCheckpoint
from repro.pipeline.core import PipelineCore
from repro.pipeline.issue_queue import DelayBuffer
from repro.workloads import build_smt_programs
from repro.workloads.profiles import PROFILES

_TINY = ExperimentConfig(benchmarks=("mcf",), dynamic_target=3_000,
                         num_faults=12, warmup_commits=200,
                         window_commits=100)


@contextmanager
def eager_reference():
    """Classify every window on the eager clone-per-window path — the
    reference the lazy twin must reproduce bit-for-bit."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TandemClassifier, "_classify_window",
                      TandemClassifier._classify_one)
        yield


def _char_signature(result):
    return [(w.record, w.applied, w.fault_class, w.state_equal,
             w.extra_exceptions, w.hung, w.replays, w.rollbacks,
             w.singletons, w.declared, w.suppressions, w.triggers,
             w.inject_cycle, w.first_trigger_cycle, w.detection_latency)
            for w in result.characterization]


def _cov_signature(result):
    return (result.coverage_results,
            {index: outcome.value
             for index, outcome in result.outcomes.items()},
            result.coverage)


def _golden_signature(core):
    """Everything observable about the shared golden core after a run —
    the lazy twin borrows it for dormant lanes, so its evolution must be
    indistinguishable from the eager path's."""
    return (core.cycle, core.cycles_elided, core.stats.summary(),
            core.arch_snapshot(),
            tuple((t.arch_pc, t.committed_count, t.halted)
                  for t in core.threads))


def _serial_campaign(cfg, benchmark="mcf"):
    ctx = ExperimentContext(cfg, jobs=1)
    _, characterization = ctx.campaign(benchmark)
    coverage = ctx.coverage(benchmark, "faulthound")
    return characterization, coverage


# ----------------------------------------------------------------------
# the acceptance bar: lazy default vs eager reference, every path
# ----------------------------------------------------------------------
class TestBatchedEquivalence:
    @pytest.fixture(scope="class")
    def eager(self):
        with eager_reference():
            return _serial_campaign(_TINY)

    @pytest.fixture(scope="class")
    def lazy(self):
        return _serial_campaign(_TINY)

    def test_characterization_bit_for_bit(self, eager, lazy):
        assert _char_signature(lazy[0]) == _char_signature(eager[0])

    def test_coverage_bit_for_bit(self, eager, lazy):
        assert _cov_signature(lazy[1]) == _cov_signature(eager[1])

    def test_audit_aggregates_bit_for_bit(self, eager, lazy):
        for phase, slot in (("characterize", 0), ("coverage", 1)):
            want = audit_aggregates(audit_records(eager[slot], phase))
            got = audit_aggregates(audit_records(lazy[slot], phase))
            assert got == want

    def test_golden_core_evolution_matches(self):
        # The dormant fast path shares the golden core across lanes; its
        # cycle count, event-skip tally (cycles_elided) and architectural
        # state must come out exactly as the eager path leaves them.
        def run():
            ctx = ExperimentContext(_TINY, jobs=1)
            campaign = ctx.build_campaign("mcf")
            classifier = campaign.classifier(campaign.baseline_factory)
            golden = campaign.baseline_factory()
            classifier.run([r.fresh_copy() for r in campaign.records],
                           golden=golden)
            return golden, classifier.lane_stats

        with eager_reference():
            eager_golden, eager_stats = run()
        lazy_golden, lazy_stats = run()
        assert _golden_signature(lazy_golden) \
            == _golden_signature(eager_golden)
        # the eager path never enters the lane engine ...
        assert eager_stats.lanes == 0
        # ... the lazy path routes every record through it, and LSQ
        # faults (no dormant phase to elide) delegate to the eager path
        assert lazy_stats.lanes == _TINY.num_faults
        lsq = sum(1 for r in ExperimentContext(_TINY, jobs=1)
                  .build_campaign("mcf").records
                  if r.site is FaultSite.LSQ)
        assert lazy_stats.fallbacks == lsq

    def test_parallel_chunks_match_scalar_serial(self, eager):
        ctx = ExperimentContext(_TINY, jobs=3)
        campaign = ctx.build_campaign("mcf")
        fresh = [r.fresh_copy() for r in campaign.records]
        bounds = align_chunk_bounds(chunk_bounds(len(fresh), 3), fresh)
        checkpoints = chunk_checkpoints(_TINY, ctx.hw, "mcf", None,
                                        fresh, bounds, ctx=ctx, jobs=3)
        chunks = ctx._executor.map(window_chunk_task, [
            (_TINY, ctx.hw, "mcf", None, fresh, lo, hi, checkpoint)
            for (lo, hi), checkpoint in zip(bounds, checkpoints)])
        windows = [window for chunk in chunks for window in chunk]
        assert windows == eager[0].characterization

    def test_supervised_pool_matches_scalar_serial(self, eager, tmp_path):
        sup = Supervisor(SupervisorPolicy(chunk_windows=3),
                         run_dir=tmp_path / "run")
        ctx = ExperimentContext(_TINY, jobs=3, supervisor=sup)
        _, characterization = ctx.campaign("mcf")
        coverage = ctx.coverage("mcf", "faulthound")
        sup.close()
        assert sup.status == "complete" and sup.exit_code == 0
        assert (_char_signature(characterization)
                == _char_signature(eager[0]))
        assert _cov_signature(coverage) == _cov_signature(eager[1])


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_lazy_matches_eager_on_every_profile(profile):
    # The bench scale of `repro campaign P --faults 8` (faulthound): the
    # geometry the end-to-end benchmark classifies on every profile.
    cfg = _campaign_config(SimpleNamespace(name=profile, faults=8,
                                           seed=101))
    with eager_reference():
        eager = _serial_campaign(cfg, profile)
    lazy = _serial_campaign(cfg, profile)
    assert _char_signature(lazy[0]) == _char_signature(eager[0])
    assert _cov_signature(lazy[1]) == _cov_signature(eager[1])
    for phase, slot in (("characterize", 0), ("coverage", 1)):
        assert (audit_aggregates(audit_records(lazy[slot], phase))
                == audit_aggregates(audit_records(eager[slot], phase)))


# ----------------------------------------------------------------------
# lane lifecycle: masked faults never pay a clone
# ----------------------------------------------------------------------
class TestLaneLifecycle:
    def test_free_register_faults_stay_dormant(self):
        # A wide PRF over the stock workload: most REGFILE faults land
        # in registers that are FREE at arm time. Those lanes must
        # classify as masked without ever materialising a clone.
        hw = HardwareConfig(phys_regs=2048)
        programs = build_smt_programs(PROFILES["mcf"], 3_000, copies=2)

        def factory():
            return PipelineCore(programs, hw=hw,
                                screening=NullScreeningUnit())

        campaign = Campaign("mcf", factory, hw.phys_regs, 2,
                            num_faults=16, seed=11, warmup_commits=200,
                            window_commits=50)
        import random
        rng = random.Random(11)
        campaign.records = [
            FaultRecord(index=i, site=FaultSite.REGFILE,
                        inject_at_commit=200 + i * 50,
                        bit=rng.randrange(64),
                        reg=rng.randrange(hw.phys_regs))
            for i in range(16)]
        classifier = campaign.classifier(factory)
        results = classifier.run(campaign.records)
        stats = classifier.lane_stats

        free = [r for r in results
                if r.record.reg_status is RegStatus.FREE]
        assert free, "plan produced no free-register faults"
        for window in free:
            assert window.fault_class is FaultClass.MASKED
            assert window.state_equal
        # every materialised lane must be one of the non-FREE faults
        assert stats.lanes == len(results)
        assert stats.materialized <= stats.lanes - len(free)
        assert stats.fallbacks == 0   # REGFILE-only plan
        assert stats.dormant + stats.converged >= len(free)
        assert stats.dormant_cycles > 0

    def test_golden_sanitizer_audits_every_window(self, monkeypatch):
        # The lazy path restores the per-window golden audit: one armed
        # check_invariants call per applied REGFILE/RENAME window.
        audits = []
        check = PipelineCore.check_invariants

        def counting_check(core):
            if core._sanitizer is not None:
                audits.append(core.cycle)
            return check(core)

        monkeypatch.setattr(PipelineCore, "check_invariants",
                            counting_check)
        campaign = ExperimentContext(_TINY, jobs=1).build_campaign("mcf")
        records = [r.fresh_copy() for r in campaign.records
                   if r.site is not FaultSite.LSQ]
        classifier = campaign.classifier(campaign.baseline_factory)
        results = classifier.run(records)
        applied = sum(1 for r in results if r.applied)
        assert applied == len(records) > 0
        assert len(audits) == applied

    def test_lane_state_enum_is_closed(self):
        # The stats fold and the docs enumerate exactly these phases.
        assert {s.value for s in LaneState} == {
            "dormant", "converged", "materialized"}


# ----------------------------------------------------------------------
# next_event_cycle contract (event-skip soundness under the lazy twin)
# ----------------------------------------------------------------------
class TestNextEventCycleContract:
    """The dormant-lane probe leans on event-skip staying sound: a unit
    that acted 'unprompted' between commits could make golden reads the
    SoA probe never saw. Every in-tree screening unit and the delay
    buffer declare themselves event-free; the equivalence runs above
    then confirm the composed engine agrees with eager stepping."""

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_screening_units_declare_no_autonomous_events(self, scheme):
        unit = SCHEMES[scheme]()
        for now in (0, 1, 999, 60_000):
            assert unit.next_event_cycle(now) is None

    def test_base_class_contract(self):
        assert ScreeningUnit.next_event_cycle(NullScreeningUnit(), 5) is None

    def test_delay_buffer_declares_no_autonomous_events(self):
        buffer = DelayBuffer(capacity=2)
        assert buffer.next_event_cycle(0) is None
        # still None while occupied: aging is driven by completions and
        # evictions by dispatches, never by the passage of cycles
        buffer.push(SimpleNamespace(in_delay_buffer=False, uid=1))
        buffer.push(SimpleNamespace(in_delay_buffer=False, uid=2))
        assert len(buffer) == 2
        for now in (1, 10, 10_000):
            assert buffer.next_event_cycle(now) is None


# ----------------------------------------------------------------------
# chunk alignment: windows never split
# ----------------------------------------------------------------------
def _plan(commits):
    return [FaultRecord(index=i, site=FaultSite.REGFILE,
                        inject_at_commit=commit, bit=0, reg=1)
            for i, commit in enumerate(commits)]


class TestAlignChunkBounds:
    def test_empty_bounds(self):
        assert align_chunk_bounds([], []) == []

    def test_distinct_plans_pass_through_unchanged(self):
        records = _plan([10, 20, 30, 40, 50, 60, 70])
        bounds = chunk_bounds(len(records), 3)
        assert align_chunk_bounds(bounds, records) == bounds

    def test_cut_inside_window_snaps_down(self):
        records = _plan([10, 20, 20, 30])
        assert align_chunk_bounds([(0, 2), (2, 4)], records) \
            == [(0, 1), (1, 4)]

    def test_cut_on_window_start_stays_put(self):
        records = _plan([10, 10, 20, 20, 30])
        bounds = [(0, 2), (2, 4), (4, 5)]
        assert align_chunk_bounds(bounds, records) == bounds

    def test_collapsed_cut_drops_empty_chunk(self):
        records = _plan([10, 10, 10, 20])
        assert align_chunk_bounds([(0, 2), (2, 4)], records) == [(0, 4)]

    def test_cuts_only_move_within_their_run(self):
        # Non-contiguous runs (the supervisor's gap list): the cut at 7
        # snaps inside its own run; the gap [3, 5) is never re-entered.
        records = _plan([10, 20, 30, 40, 50, 60, 70, 70, 80])
        got = align_chunk_bounds([(0, 1), (1, 3), (5, 7), (7, 9)],
                                 records)
        assert got == [(0, 1), (1, 3), (5, 6), (6, 9)]

    def test_coverage_is_preserved(self):
        records = _plan([10, 10, 20, 20, 20, 30, 40, 40])
        bounds = chunk_bounds(len(records), 4)
        aligned = align_chunk_bounds(bounds, records)
        indices = [i for lo, hi in aligned for i in range(lo, hi)]
        assert indices == list(range(len(records)))
        for lo, hi in aligned:
            assert lo < hi
            if lo > 0:      # no window straddles a chunk edge
                assert (records[lo].inject_at_commit
                        != records[lo - 1].inject_at_commit)


# ----------------------------------------------------------------------
# SoA mirrors and watch-guard plumbing
# ----------------------------------------------------------------------
def _warm_core(commits=400):
    ctx = ExperimentContext(_TINY, jobs=1)
    core = ctx.make_core("mcf", "baseline")
    core.run_until_commits(commits)
    return core


class TestSoAViewAndWatches:
    def test_soa_view_is_cached_per_core(self):
        core = _warm_core()
        assert core.soa_view() is core.soa_view()
        assert core.clone()._soa_view is None

    def test_assert_unwatched_passes_on_clean_core(self):
        assert_unwatched(_warm_core())

    def test_assert_unwatched_catches_prf_watch(self):
        core = _warm_core()
        core.prf.write = core.prf.write     # instance-level shadow
        with pytest.raises(RuntimeError, match="PRF write watch"):
            assert_unwatched(core)
        with pytest.raises(RuntimeError):
            CoreCheckpoint.capture(core)    # checkpoint guard fires too
        del core.prf.write
        assert_unwatched(core)
        assert CoreCheckpoint.capture(core).restore() is not None

    def test_assert_unwatched_catches_rename_watch(self):
        core = _warm_core()
        rat = core.threads[0].spec_rat
        rat.set = rat.set
        with pytest.raises(RuntimeError, match="rename-table watch"):
            assert_unwatched(core)
        del rat.set
        assert_unwatched(core)
