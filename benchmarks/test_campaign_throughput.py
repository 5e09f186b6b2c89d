"""Campaign-throughput benches: the parallel execution layer must be
faster than serial where cores allow, and *identical* always.

These time a small characterisation + coverage campaign serially and
with a 2-worker pool, and assert the two produce bit-for-bit equal
results (the tentpole contract: workers re-derive state from explicit
seeds, so fan-out is pure mechanism, never policy). A separate bench
times the warm-cache path, which should be near-instant regardless of
scale.

Two checkpoint benches quantify the deepcopy/replay elimination:
``test_clone_vs_deepcopy`` times the purpose-built ``clone()`` against
``copy.deepcopy`` on a warm core, and
``test_checkpoint_restore_beats_prefix_replay`` times the warm-cache
checkpoint fan-out against the legacy per-worker prefix replay at
jobs=4. Both record windows/sec into ``benchmarks/results``.
"""

import copy
import os
import pathlib
import tempfile
import time

import pytest

from repro.harness import ArtifactCache, ExperimentConfig, ExperimentContext
from repro.harness.parallel import (CheckpointStats, chunk_bounds,
                                    chunk_checkpoints, window_chunk_task)
from repro.harness.store import ResultStore

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


def test_campaign_parallel_matches_serial(benchmark):
    _, serial_char, serial_cov = _campaign_results(jobs=1)
    _, par_char, par_cov = benchmark.pedantic(
        lambda: _campaign_results(jobs=2), rounds=1, iterations=1)
    # bit-for-bit: same windows, same outcomes, same coverage number
    assert par_char.characterization == serial_char.characterization
    assert par_cov.coverage_results == serial_cov.coverage_results
    assert par_cov.outcomes == serial_cov.outcomes
    assert par_cov.coverage == serial_cov.coverage


def test_campaign_warm_cache_throughput(benchmark):
    with tempfile.TemporaryDirectory() as tmp:
        cache = ArtifactCache(pathlib.Path(tmp))
        _, cold_char, cold_cov = _campaign_results(jobs=1, cache=cache)

        ctx, warm_char, warm_cov = benchmark.pedantic(
            lambda: _campaign_results(jobs=1, cache=cache),
            rounds=1, iterations=1)
        assert ctx.metrics.cache_hits > 0
        assert ctx.metrics.cache_misses == 0
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
    """Time to bring a chunk worker to its start boundary — restoring
    the shipped checkpoint vs replaying the golden prefix. This is the
    per-worker cost the dispatcher's golden pass amortises away, and it
    is machine-independent (pure serial work on both sides)."""
    ctx = ExperimentContext(_CFG, jobs=1)
    campaign = ctx.build_campaign("mcf")
    records = campaign.records
    bounds = chunk_bounds(len(records), 4)
    checkpoints = chunk_checkpoints(_CFG, ctx.hw, "mcf", None, records,
                                    bounds, ctx=ctx)
    lo = bounds[-1][0]
    classifier = campaign.classifier(campaign.baseline_factory)

    started = time.perf_counter()
    replayed = campaign.baseline_factory()
    classifier.advance_golden(replayed, records[:lo])
    replay_seconds = time.perf_counter() - started

    started = time.perf_counter()
    restored = checkpoints[-1].restore()
    restore_seconds = time.perf_counter() - started

    # the two startup paths land in the same state
    assert restored.cycle == replayed.cycle
    assert restored.arch_snapshot() == replayed.arch_snapshot()
    speedup = replay_seconds / restore_seconds
    _RESULTS.save("bench_restore_vs_replay_startup", {
        "prefix_windows": lo,
        "replay_ms": round(replay_seconds * 1e3, 2),
        "restore_ms": round(restore_seconds * 1e3, 2),
        "checkpoint_bytes": checkpoints[-1].nbytes,
        "speedup": round(speedup, 1),
    }, config=_CFG)
    assert speedup >= 2.0


@pytest.mark.skipif((os.cpu_count() or 1) < 4,
                    reason="speedup floor needs >= 4 real cores")
def test_checkpoint_restore_beats_prefix_replay():
    """Warm-cache checkpoint fan-out vs legacy per-worker prefix replay
    at jobs=4: the replay path re-steps O(N^2) golden windows across the
    pool, the checkpoint path restores chunk boundaries and steps O(N).
    The acceptance floor is 2x windows/sec."""
    jobs = 4
    bench_cfg = ExperimentConfig(benchmarks=("mcf",), dynamic_target=4_000,
                                 num_faults=28, warmup_commits=250,
                                 window_commits=110)
    ctx = ExperimentContext(bench_cfg, jobs=jobs)
    campaign = ctx.build_campaign("mcf")
    records = campaign.records
    with tempfile.TemporaryDirectory() as tmp:
        cache = ArtifactCache(pathlib.Path(tmp))
        # one golden pass warms the chunk-boundary checkpoints
        chunk_checkpoints(bench_cfg, ctx.hw, "mcf", None, records,
                          chunk_bounds(len(records), jobs),
                          cache=cache, ctx=ctx, jobs=jobs)

        bounds = chunk_bounds(len(records), jobs)

        def fan_out(checkpoints=None):
            fresh = [r.fresh_copy() for r in records]
            if checkpoints is None:
                checkpoints = [None] * len(bounds)
            tasks = [(bench_cfg, ctx.hw, "mcf", None, fresh, lo, hi,
                      checkpoint)
                     for (lo, hi), checkpoint in zip(bounds, checkpoints)]
            chunks = ctx._executor.map(window_chunk_task, tasks)
            return [window for chunk in chunks for window in chunk]

        started = time.perf_counter()
        via_replay = fan_out()          # checkpoint None: prefix replay
        replay_seconds = time.perf_counter() - started

        stats = CheckpointStats()
        started = time.perf_counter()
        via_checkpoint = fan_out(chunk_checkpoints(
            bench_cfg, ctx.hw, "mcf", None, records, bounds,
            cache=cache, ctx=ctx, stats=stats, jobs=jobs))
        checkpoint_seconds = time.perf_counter() - started

    assert via_checkpoint == via_replay          # same answer, faster
    assert stats.hits > 0 and stats.captured == 0
    replay_wps = len(records) / replay_seconds
    checkpoint_wps = len(records) / checkpoint_seconds
    speedup = checkpoint_wps / replay_wps
    _RESULTS.save("bench_checkpoint_vs_replay", {
        "jobs": jobs,
        "windows": len(records),
        "prefix_replay_windows_per_sec": round(replay_wps, 2),
        "checkpoint_windows_per_sec": round(checkpoint_wps, 2),
        "speedup": round(speedup, 2),
        "golden_pass_seconds": round(stats.golden_pass_seconds, 4),
    }, config=bench_cfg)
    assert speedup >= 2.0


# ----------------------------------------------------------------------
# supervisor overhead
# ----------------------------------------------------------------------
def test_supervisor_overhead_is_negligible():
    """The resilient supervisor (retry/watchdog/quarantine bookkeeping,
    fsync'd journal) must cost <= 3% on a fault-free campaign.

    Measured on the serial dispatch path — identical simulation work on
    both sides, so the delta is exactly the supervisor's bookkeeping —
    with best-of-3 wall times to shed scheduler noise. The supervised
    pool path is timed too and recorded for reference (it additionally
    pays per-phase pool construction, which amortises with campaign
    size and is not supervisor bookkeeping).
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

    def supervised_pool(run_root):
        sup = Supervisor(SupervisorPolicy(),
                         run_dir=pathlib.Path(run_root) / "run")
        ctx = ExperimentContext(_CFG, jobs=2, supervisor=sup)
        started = time.perf_counter()
        ctx.campaign("mcf")
        ctx.coverage("mcf", "faulthound")
        elapsed = time.perf_counter() - started
        sup.close()
        return elapsed

    rounds = 3
    plain = min(plain_serial() for _ in range(rounds))
    with tempfile.TemporaryDirectory() as tmp:
        supervised = min(
            supervised_serial(os.path.join(tmp, f"s{i}"))
            for i in range(rounds))
        pool = min(supervised_pool(os.path.join(tmp, f"p{i}"))
                   for i in range(rounds))

    overhead = supervised / plain - 1.0
    _RESULTS.save("bench_supervisor_overhead", {
        "plain_serial_s": round(plain, 3),
        "supervised_serial_s": round(supervised, 3),
        "supervised_pool_s": round(pool, 3),
        "serial_overhead_pct": round(100 * overhead, 2),
        "rounds": rounds,
    }, config=_CFG)
    assert overhead <= 0.03, f"supervisor overhead {overhead:.1%} > 3%"
