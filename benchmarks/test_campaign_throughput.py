"""Campaign-throughput benches.

These time a small characterisation + coverage campaign cold and from
a warm artifact cache (which should be near-instant regardless of
scale).

Two core-fork benches record into ``benchmarks/results``:
``test_clone_vs_deepcopy`` times the purpose-built ``clone()`` against
``copy.deepcopy`` on a warm core, and ``test_restore_vs_replay_startup``
times restoring a pickled checkpoint against golden prefix replay.
"""

import copy
import os
import pathlib
import tempfile
import time

from repro.harness import ArtifactCache, ExperimentConfig, ExperimentContext
from repro.harness.parallel import chunk_bounds
from repro.harness.store import ResultStore
from repro.pipeline import CoreCheckpoint

#: One small benchmark keeps this a guard, not a soak test.
_CFG = ExperimentConfig(benchmarks=("mcf",), dynamic_target=4_000,
                        num_faults=16, warmup_commits=250,
                        window_commits=110)

_RESULTS = ResultStore(pathlib.Path(__file__).parent / "results")


def _campaign_results(jobs, cache=None):
    ctx = ExperimentContext(_CFG, jobs=jobs, cache=cache)
    _, characterization = ctx.campaign("mcf")
    coverage = ctx.coverage("mcf", "faulthound")
    return ctx, characterization, coverage


def test_campaign_serial_throughput(benchmark):
    _, characterization, _ = benchmark.pedantic(
        lambda: _campaign_results(jobs=1), rounds=1, iterations=1)
    assert characterization.throughput is not None
    assert characterization.throughput.windows_per_sec > 0


def test_campaign_warm_cache_throughput(benchmark):
    with tempfile.TemporaryDirectory() as tmp:
        cache = ArtifactCache(pathlib.Path(tmp))
        _, cold_char, cold_cov = _campaign_results(jobs=1, cache=cache)

        ctx, warm_char, warm_cov = benchmark.pedantic(
            lambda: _campaign_results(
                jobs=1, cache=ArtifactCache(pathlib.Path(tmp))),
            rounds=1, iterations=1)
        assert ctx.cache.hits > 0
        assert ctx.cache.misses == 0
        assert warm_char.throughput.from_cache
        assert warm_char.characterization == cold_char.characterization
        assert warm_cov.outcomes == cold_cov.outcomes


# ----------------------------------------------------------------------
# checkpoint/restore benches
# ----------------------------------------------------------------------
def test_clone_vs_deepcopy():
    """The purpose-built clone() against generic deepcopy on a warm,
    mid-flight FaultHound core — the per-window fork the tandem
    classifier pays for every fault."""
    ctx = ExperimentContext(_CFG, jobs=1)
    core = ctx.make_core("mcf", "faulthound")
    core.run_until_commits(400)

    loops = 20
    started = time.perf_counter()
    for _ in range(loops):
        copy.deepcopy(core)
    deepcopy_seconds = (time.perf_counter() - started) / loops

    started = time.perf_counter()
    for _ in range(loops):
        core.clone()
    clone_seconds = (time.perf_counter() - started) / loops

    speedup = deepcopy_seconds / clone_seconds
    _RESULTS.save("bench_clone_vs_deepcopy", {
        "deepcopy_ms": round(deepcopy_seconds * 1e3, 3),
        "clone_ms": round(clone_seconds * 1e3, 3),
        "speedup": round(speedup, 2),
    }, config=_CFG)
    # the fork must be both equivalent and no slower than deepcopy
    assert core.clone().arch_snapshot() == copy.deepcopy(core).arch_snapshot()
    assert speedup > 1.0


def test_restore_vs_replay_startup():
    """Time to bring a golden core to a window boundary — restoring a
    checkpoint captured there vs replaying the golden prefix. This is
    what a checkpoint ladder would save per rung, and it is
    machine-independent (pure serial work on both sides)."""
    ctx = ExperimentContext(_CFG, jobs=1)
    campaign = ctx.build_campaign("mcf")
    records = campaign.records
    lo = chunk_bounds(len(records), 4)[-1][0]
    classifier = campaign.classifier(campaign.baseline_factory)

    started = time.perf_counter()
    replayed = campaign.baseline_factory()
    classifier.advance_golden(replayed, records[:lo])
    replay_seconds = time.perf_counter() - started

    checkpoint = CoreCheckpoint.capture(
        replayed, window_index=lo,
        resume_at_commit=records[lo - 1].inject_at_commit)
    started = time.perf_counter()
    restored = checkpoint.restore()
    restore_seconds = time.perf_counter() - started

    # the two startup paths land in the same state
    assert restored.cycle == replayed.cycle
    assert restored.arch_snapshot() == replayed.arch_snapshot()
    speedup = replay_seconds / restore_seconds
    _RESULTS.save("bench_restore_vs_replay_startup", {
        "prefix_windows": lo,
        "replay_ms": round(replay_seconds * 1e3, 2),
        "restore_ms": round(restore_seconds * 1e3, 2),
        "checkpoint_bytes": checkpoint.nbytes,
        "speedup": round(speedup, 1),
    }, config=_CFG)
    assert speedup >= 2.0


# ----------------------------------------------------------------------
# supervisor overhead
# ----------------------------------------------------------------------
def test_supervisor_overhead_is_negligible():
    """The resilient supervisor (retry/quarantine bookkeeping, fsync'd
    journal) must cost <= 3% on a fault-free campaign.

    Identical simulation work on both sides, so the delta is exactly
    the supervisor's bookkeeping — with best-of-3 wall times to shed
    scheduler noise.
    """
    from repro.harness import Supervisor, SupervisorPolicy

    def plain_serial():
        # the bare serial classifier: ExperimentContext itself always
        # classifies under a supervisor
        ctx = ExperimentContext(_CFG, jobs=1)
        campaign = ctx.build_campaign("mcf")
        started = time.perf_counter()
        characterization = campaign.characterize()
        campaign.run_coverage(
            "faulthound", lambda: ctx.make_core("mcf", "faulthound"),
            characterization)
        return time.perf_counter() - started

    def supervised_serial(run_root):
        sup = Supervisor(SupervisorPolicy(),
                         run_dir=pathlib.Path(run_root) / "run")
        ctx = ExperimentContext(_CFG, jobs=1, supervisor=sup)
        started = time.perf_counter()
        ctx.campaign("mcf")
        ctx.coverage("mcf", "faulthound")
        elapsed = time.perf_counter() - started
        sup.close()
        assert sup.status == "complete"
        return elapsed

    rounds = 3
    plain = min(plain_serial() for _ in range(rounds))
    with tempfile.TemporaryDirectory() as tmp:
        supervised = min(
            supervised_serial(os.path.join(tmp, f"s{i}"))
            for i in range(rounds))

    overhead = supervised / plain - 1.0
    _RESULTS.save("bench_supervisor_overhead", {
        "plain_serial_s": round(plain, 3),
        "supervised_serial_s": round(supervised, 3),
        "serial_overhead_pct": round(100 * overhead, 2),
        "rounds": rounds,
    }, config=_CFG)
    assert overhead <= 0.03, f"supervisor overhead {overhead:.1%} > 3%"
