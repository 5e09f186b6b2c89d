"""Lazy faulty twin bench: the eager clone-per-window path vs the lazy
twin every window runs on.

The profile is deliberately *masked-heavy* — the population the lazy
twin exists for. A wide physical register file (4096 tags, ~84% free
at any instant) over a deep ROB means almost every REGFILE fault lands
in a free register, stays dormant for its whole window (zero per-cycle
cost behind the golden core), and the eager path's clone + faulty
window re-execution is pure waste. The core geometry (8-wide frontend
feeding a 2-wide backend through a 256-entry issue queue) keeps ~650
micro-ops in flight so each eager ``clone()`` is expensive — the cost
the dormant path never pays.

Every timed pair first re-asserts bit-for-bit result equivalence: a
throughput number from a diverging classification would be meaningless.
Results land in ``benchmarks/results/bench_batched_lanes.json``.
"""

import random
import time

from repro.config import HardwareConfig
from repro.core.screening import NullScreeningUnit
from repro.faults.campaign import Campaign
from repro.faults.classifier import TandemClassifier
from repro.faults.model import FaultRecord, FaultSite
from repro.harness import ExperimentConfig
from repro.harness.store import ResultStore
from repro.pipeline.core import PipelineCore
from repro.workloads import build_smt_programs
from repro.workloads.profiles import WorkloadProfile

from conftest import RESULTS_DIR

_PROFILE = WorkloadProfile(
    name="masked-heavy", suite="bench", working_set_words=256,
    pointer_chase=0.0, loads_per_iter=1, stores_per_iter=1,
    alu_per_iter=12, value_model="counter", branchiness=0.05, seed=42)

_HW = HardwareConfig(phys_regs=4096, rob_size=1024, fetch_width=8,
                     decode_width=8, issue_width=2, commit_width=2,
                     issue_queue_size=256)

_NUM_FAULTS = 60
_WINDOW_COMMITS = 16
_WARMUP_COMMITS = 200
_CFG = ExperimentConfig(benchmarks=("masked-heavy",), dynamic_target=6_000,
                        num_faults=_NUM_FAULTS,
                        warmup_commits=_WARMUP_COMMITS,
                        window_commits=_WINDOW_COMMITS)

_RESULTS = ResultStore(RESULTS_DIR)


def _plan():
    """REGFILE-only fault list: the PRF soft-error population the paper
    characterises, and (with 4096 tags) overwhelmingly masked."""
    rng = random.Random(5)
    return [FaultRecord(index=i, site=FaultSite.REGFILE,
                        inject_at_commit=_WARMUP_COMMITS
                        + i * _WINDOW_COMMITS,
                        bit=rng.randrange(64),
                        reg=rng.randrange(_HW.phys_regs))
            for i in range(_NUM_FAULTS)]


def _signature(results):
    return [(r.record.index, r.applied, r.fault_class, r.state_equal,
             r.declared, r.triggers, r.extra_exceptions, r.hung,
             r.record.reg_status) for r in results]


def _run():
    programs = build_smt_programs(_PROFILE, _CFG.dynamic_target, copies=2)

    def factory():
        return PipelineCore(programs, hw=_HW, screening=NullScreeningUnit())

    campaign = Campaign("masked-heavy", factory, _HW.phys_regs, 2,
                        num_faults=_NUM_FAULTS, seed=5,
                        warmup_commits=_WARMUP_COMMITS,
                        window_commits=_WINDOW_COMMITS)
    campaign.records = _plan()
    classifier = campaign.classifier(factory)
    started = time.perf_counter()
    results = classifier.run(campaign.records)
    seconds = time.perf_counter() - started
    return _signature(results), seconds, classifier.lane_stats


def test_batched_lanes_throughput_and_equivalence(monkeypatch):
    eager_best = lazy_best = None
    for _ in range(3):  # best-of-3: absorb one-off allocator/cache noise
        with monkeypatch.context() as patch:
            patch.setattr(TandemClassifier, "_classify_window",
                          TandemClassifier._classify_one)
            eager_sig, eager_seconds, _ = _run()
        lazy_sig, lazy_seconds, stats = _run()
        assert eager_sig == lazy_sig
        if eager_best is None or eager_seconds < eager_best:
            eager_best = eager_seconds
        if lazy_best is None or lazy_seconds < lazy_best:
            lazy_best = lazy_seconds

    speedup = round(eager_best / lazy_best, 2)
    # masked-heavy faults must overwhelmingly ride the dormant path
    assert stats.lanes == _NUM_FAULTS
    assert stats.dormant + stats.converged >= int(0.8 * _NUM_FAULTS)
    assert stats.fallbacks == 0  # REGFILE-only plan: no LSQ lanes
    # recorded runs land at 2.6-3.6x; keep headroom for noisy CI machines
    assert speedup >= 2.5, (eager_best, lazy_best, stats)

    _RESULTS.save("bench_batched_lanes", {
        "profile": "masked-heavy (regfile-only faults, 4096 phys regs)",
        "num_faults": _NUM_FAULTS,
        "window_commits": _WINDOW_COMMITS,
        "eager_seconds": round(eager_best, 3),
        "lazy_seconds": round(lazy_best, 3),
        "eager_windows_per_sec": round(_NUM_FAULTS / eager_best, 1),
        "lazy_windows_per_sec": round(_NUM_FAULTS / lazy_best, 1),
        "speedup": speedup,
        "lane_stats": {
            "lanes": stats.lanes,
            "dormant": stats.dormant,
            "converged": stats.converged,
            "materialized": stats.materialized,
            "fallbacks": stats.fallbacks,
            "dormant_cycles": stats.dormant_cycles,
        },
    }, config=_CFG)
