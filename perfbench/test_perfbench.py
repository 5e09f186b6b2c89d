"""Tests of the benchmark's own code (not of the program it measures).

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
import textwrap

import pytest

import stats
from run import Invocation, Workload

HERE = pathlib.Path(__file__).resolve().parent


# ----------------------------------------------------------------------
# percentiles: report the highest one with >= 10 samples beyond it
# ----------------------------------------------------------------------
@pytest.mark.parametrize("count, expected", [
    (1, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0),
    (99, 75.0), (100, 90.0), (199, 90.0), (200, 95.0), (1000, 99.0),
    (10_000, 99.9)])
def test_tail_percentile_leaves_ten_samples_beyond(count, expected):
    assert stats.tail_percentile(count) == expected


def test_summarize_reports_median_tail_and_count():
    values = list(range(1, 101))          # 100 samples: p90 supported
    summary = stats.summarize(values)
    assert summary["median"] == 50.5
    assert summary["n"] == 100
    assert summary["tail_p"] == 90.0
    assert summary["tail"] == pytest.approx(90.1)
    beyond = sum(1 for v in values if v > summary["tail"])
    assert beyond >= stats.MIN_BEYOND


def test_summarize_of_few_samples_has_no_tail():
    summary = stats.summarize([3.0, 1.0, 2.0])
    assert summary == {"median": 2.0, "n": 3, "tail_p": None,
                       "tail": None}


def test_percentile_interpolates_between_ranks():
    assert stats.percentile([10, 20, 30, 40], 50) == 25
    assert stats.percentile([5], 99) == 5
    with pytest.raises(ValueError):
        stats.percentile([], 50)


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------
def _span(span_id, parent, name, start, end, pid=1):
    return {"id": span_id, "parent": parent, "name": name,
            "start": start, "end": end, "pid": pid}


def test_self_time_subtracts_direct_children_only():
    spans = [_span("a", None, "outer", 0.0, 10.0),
             _span("b", "a", "middle", 1.0, 4.0),
             _span("c", "b", "inner", 2.0, 3.0),
             _span("d", "a", "middle", 5.0, 6.0)]
    own = stats.self_times(spans)
    assert own["outer"] == pytest.approx(10.0 - 3.0 - 1.0)
    assert own["middle"] == pytest.approx((3.0 - 1.0) + 1.0)
    assert own["inner"] == pytest.approx(1.0)


def test_self_time_merges_overlapping_children_from_workers():
    # two pool workers run children of one dispatcher span in parallel
    spans = [_span("a", None, "dispatch", 0.0, 10.0, pid=1),
             _span("w1", "a", "task", 1.0, 7.0, pid=2),
             _span("w2", "a", "task", 2.0, 9.0, pid=3),
             _span("late", "a", "task", 9.5, 12.0, pid=2)]
    own = stats.self_times(spans)
    # covered: [1, 9] and [9.5, 10] (clipped to the parent)
    assert own["dispatch"] == pytest.approx(10.0 - 8.0 - 0.5)


def test_step_self_excludes_snapshot_clone_and_restore():
    spans = [_span("k", None, "faults.classify", 0.0, 10.0),
             _span("s", "k", "memory.snapshot", 1.0, 2.0),
             _span("c", "k", "pipeline.clone", 3.0, 5.0),
             _span("r", "k", "pipeline.run", 5.0, 9.0),
             _span("x", None, "memory.snapshot", 20.0, 21.0)]
    metrics = stats.layer_metrics(stats.merge_records([{
        "pid": 1, "root": True, "proc_start": 0.0,
        "seen": 21.0, "spans": spans, "aggs": {}, "counts": {}}]))
    assert metrics["faults.step_self_s"] == pytest.approx(7.0)
    assert metrics["memory.snapshot_n"] == 2
    assert metrics["faults.classify.self_s"] == pytest.approx(3.0)


# ----------------------------------------------------------------------
# correctness gate
# ----------------------------------------------------------------------
REFERENCE = b"8 faults applied:\n\nfaulthound vs 2 SDC faults: coverage 50.0%\n"


def _campaign_workload():
    workload = Workload("campaign", seed=1)
    workload.references = {"mcf": REFERENCE}
    return workload


def test_identical_stdout_passes():
    inv = Invocation("mcf", [], key="mcf", returncode=0, stdout=REFERENCE)
    assert not _campaign_workload().failed(inv)


def test_altered_stdout_counts_as_failure():
    altered = REFERENCE.replace(b"50.0%", b"50.1%")
    inv = Invocation("mcf", [], key="mcf", returncode=0, stdout=altered)
    assert _campaign_workload().failed(inv)


def test_nonzero_exit_and_quarantine_count_as_failures():
    workload = _campaign_workload()
    crashed = Invocation("mcf", [], key="mcf", returncode=1,
                         stdout=REFERENCE)
    quarantined = Invocation(
        "mcf", [], key="mcf", returncode=0, stdout=REFERENCE,
        stderr=b"warning: 1 poison window(s) quarantined:\n")
    assert workload.failed(crashed)
    assert workload.failed(quarantined)


def test_windows_count_faults_plus_sdc_coverage_windows():
    workload = _campaign_workload()
    inv = Invocation("mcf", [], key="mcf", returncode=0, stdout=REFERENCE)
    assert workload.windows(inv) == 8 + 2


def test_faultfree_rows_must_equal_the_reference(tmp_path):
    workload = Workload("faultfree", seed=1)
    workload.references = {"mcf": {"baseline": {"cycles": 10,
                                                "committed": 5}}}
    rows = tmp_path / "rows.json"
    inv = Invocation("faultfree", [], returncode=0, rows_path=rows)
    rows.write_text(json.dumps(workload.references))
    assert not workload.failed(inv)
    rows.write_text(json.dumps({"mcf": {"baseline": {"cycles": 11,
                                                     "committed": 5}}}))
    assert workload.failed(inv)
    rows.unlink()
    assert workload.failed(inv)


# ----------------------------------------------------------------------
# spans survive a forked pool worker (even one killed when idle)
# ----------------------------------------------------------------------
FORK_SCRIPT = textwrap.dedent("""
    import multiprocessing
    import sys
    from concurrent.futures import ProcessPoolExecutor
    sys.path.insert(0, {here!r})
    import probe

    def work(x):
        return probe.spanned("leaf", lambda y: y * 2)(x)

    probe.activate({out!r})
    probe.patch_pool_submit()

    def dispatch():
        pool = ProcessPoolExecutor(
            max_workers=2, mp_context=multiprocessing.get_context("fork"))
        results = list(pool.map(work, [1, 2, 3]))
        for proc in list(pool._processes.values()):
            proc.kill()          # as the supervisor's pool teardown does
        pool.shutdown(wait=True)
        return results

    assert probe.spanned("dispatch", dispatch)() == [2, 4, 6]
    probe.flush()
""")


def test_spans_survive_a_forked_worker(tmp_path):
    script = FORK_SCRIPT.format(here=str(HERE), out=str(tmp_path))
    done = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    merged = stats.merge_records(stats.load_records(tmp_path))
    roots = [p for p in merged["procs"] if p["root"]]
    workers = [p for p in merged["procs"] if not p["root"]]
    assert len(roots) == 1 and workers
    by_name = {}
    for span in merged["spans"]:
        by_name.setdefault(span["name"], []).append(span)
    (dispatch,) = by_name["dispatch"]
    assert len(by_name["leaf"]) == 3
    assert len(by_name["parallel.task"]) == 3
    worker_pids = {p["pid"] for p in workers}
    for task in by_name["parallel.task"]:
        assert task["pid"] in worker_pids
        assert task["parent"] == dispatch["id"]
    for leaf in by_name["leaf"]:
        assert leaf["parent"] in {t["id"] for t in by_name["parallel.task"]}
    assert merged["counts"]["parallel.tasks"] == 3
    assert merged["counts"]["parallel.ship_bytes"] > 0
    metrics = stats.layer_metrics(merged)
    assert metrics["trace.worker_spans"] == 6
    assert metrics["parallel.worker_busy_s"] > 0
