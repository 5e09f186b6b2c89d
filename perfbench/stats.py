"""Pure helpers of the benchmark: summaries, record merging, self time
and the per-layer table. Nothing here starts processes or reads the
clock, so the tests in ``test_perfbench.py`` cover it directly."""

from __future__ import annotations

import json
import math
import pathlib
import statistics
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """The *p*-th percentile by linear interpolation between ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(count: int) -> Optional[float]:
    """The highest percentile of :data:`TAIL_LADDER` that leaves at least
    :data:`MIN_BEYOND` of *count* samples beyond it, or None when even
    the median does not (fewer than 20 samples)."""
    best = None
    for p in TAIL_LADDER:
        if round(count * (100.0 - p) / 100.0, 9) >= MIN_BEYOND:
            best = p
    return best


def summarize(values: Sequence[float]) -> Dict[str, Any]:
    """Median, the highest supported tail percentile and the count."""
    values = list(values)
    tail_p = tail_percentile(len(values))
    return {"median": statistics.median(values), "n": len(values),
            "tail_p": tail_p,
            "tail": percentile(values, tail_p) if tail_p else None}


# ----------------------------------------------------------------------
# probe records
# ----------------------------------------------------------------------
def load_records(directory: pathlib.Path) -> List[Dict[str, Any]]:
    """Every record line of every per-pid file under *directory*."""
    records = []
    for path in sorted(directory.glob("*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.strip():
                records.append(json.loads(line))
    return records


def merge_records(records: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold per-process records into one view: all spans, aggregate
    cells and counts summed, and per-process lifetimes."""
    spans: List[Dict[str, Any]] = []
    aggs: Dict[str, List[float]] = {}
    counts: Dict[str, float] = {}
    procs: Dict[int, Dict[str, Any]] = {}
    for record in records:
        spans.extend(record["spans"])
        for name, (calls, seconds) in record["aggs"].items():
            cell = aggs.setdefault(name, [0, 0.0])
            cell[0] += calls
            cell[1] += seconds
        for name, amount in record["counts"].items():
            counts[name] = counts.get(name, 0) + amount
        proc = procs.setdefault(record["pid"], {
            "pid": record["pid"], "root": record["root"],
            "start": record["proc_start"], "seen": record["seen"]})
        proc["seen"] = max(proc["seen"], record["seen"])
    return {"spans": spans, "aggs": aggs, "counts": counts,
            "procs": list(procs.values())}


def _covered(intervals: Iterable[Tuple[float, float]],
             lo: float, hi: float) -> float:
    """Length of the union of *intervals* clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Per span name: duration minus the part of it that its child
    spans cover. Children may run in other processes (a pool worker's
    spans name the parent's span open when it forked), so children are
    merged as a union of intervals, not summed."""
    children: Dict[str, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"]))
    totals: Dict[str, float] = {}
    for span in spans:
        own = span["end"] - span["start"] - _covered(
            children.get(span["id"], ()), span["start"], span["end"])
        totals[span["name"]] = totals.get(span["name"], 0.0) + own
    return totals


def span_totals(spans: Sequence[Dict[str, Any]]) -> Dict[str, List[float]]:
    """Per span name: [calls, seconds]."""
    totals: Dict[str, List[float]] = {}
    for span in spans:
        cell = totals.setdefault(span["name"], [0, 0.0])
        cell[0] += 1
        cell[1] += span["end"] - span["start"]
    return totals


def _step_self(spans: Sequence[Dict[str, Any]]) -> float:
    """Classifier time minus the snapshot, clone and restore calls made
    inside it: the golden and faulty window stepping itself."""
    inner = ("memory.snapshot", "pipeline.clone", "checkpoint.restore")
    by_pid: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["name"] in inner:
            by_pid.setdefault(span["pid"], []).append(
                (span["start"], span["end"]))
    total = 0.0
    for span in spans:
        if span["name"] == "faults.classify":
            total += span["end"] - span["start"] - _covered(
                by_pid.get(span["pid"], ()), span["start"], span["end"])
    return total


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


#: Span names whose self time the per-layer table reports.
SELF_TIME_SPANS = (
    "workloads.build", "pipeline.run", "pipeline.clone",
    "checkpoint.capture", "checkpoint.restore", "faults.classify",
    "faults.advance_golden", "memory.snapshot", "energy.compute",
    "redundancy.srt", "parallel.golden_pass", "parallel.map",
    "parallel.task", "supervisor.classify", "supervisor.dispatch_wait",
    "supervisor.journal", "cache.get", "cache.put")


def layer_metrics(merged: Dict[str, Any]) -> Dict[str, float]:
    """The per-layer metrics of one traced pass (see README.md)."""
    spans, aggs, counts = merged["spans"], merged["aggs"], merged["counts"]
    totals = span_totals(spans)

    def n(name: str) -> float:
        return totals.get(name, [0, 0.0])[0]

    def s(name: str) -> float:
        return totals.get(name, [0, 0.0])[1]

    def c(name: str) -> float:
        return counts.get(name, 0)

    workers = [p for p in merged["procs"] if not p["root"]]
    worker_pids = {p["pid"] for p in workers}
    busy = sum(span["end"] - span["start"] for span in spans
               if span["name"] == "parallel.task")
    alive = sum(p["seen"] - p["start"] for p in workers)
    check = aggs.get("core.check", [0, 0.0])
    emit = aggs.get("obs.emit", [0, 0.0])
    metrics = {
        "cli.import_s": c("cli.import_s"),
        "workloads.build_n": n("workloads.build"),
        "workloads.build_s": s("workloads.build"),
        "pipeline.run_s": s("pipeline.run"),
        "pipeline.sim_cycles": c("pipeline.sim_cycles"),
        "pipeline.committed": c("pipeline.committed"),
        "pipeline.clone_n": n("pipeline.clone"),
        "pipeline.clone_s": s("pipeline.clone"),
        "checkpoint.capture_n": n("checkpoint.capture"),
        "checkpoint.capture_s": s("checkpoint.capture"),
        "checkpoint.restore_s": s("checkpoint.restore"),
        "checkpoint.bytes": c("checkpoint.bytes"),
        "faults.windows": c("faults.windows"),
        "faults.classify_s": s("faults.classify"),
        "faults.advance_golden_s": s("faults.advance_golden"),
        "faults.step_self_s": _step_self(spans),
        "memory.snapshot_n": n("memory.snapshot"),
        "memory.snapshot_s": s("memory.snapshot"),
        "core.check_n": check[0],
        "core.check_s": check[1],
        "energy.compute_s": s("energy.compute"),
        "redundancy.srt_s": s("redundancy.srt"),
        "parallel.golden_pass_s": s("parallel.golden_pass"),
        "parallel.map_s": s("parallel.map"),
        "parallel.tasks": c("parallel.tasks"),
        "parallel.ship_bytes": c("parallel.ship_bytes"),
        "parallel.worker_busy_s": busy,
        "parallel.worker_idle_frac": (1.0 - busy / alive) if alive else 0.0,
        "supervisor.classify_s": s("supervisor.classify"),
        "supervisor.chunks": c("supervisor.chunks"),
        "supervisor.attempts": c("supervisor.attempts"),
        "supervisor.first_try_frac": _ratio(c("supervisor.chunks"),
                                            c("supervisor.attempts")),
        "supervisor.dispatch_wait_s": s("supervisor.dispatch_wait"),
        "supervisor.journal_n": n("supervisor.journal"),
        "supervisor.journal_s": s("supervisor.journal"),
        "cache.get_n": n("cache.get"),
        "cache.get_s": s("cache.get"),
        "cache.put_n": n("cache.put"),
        "cache.put_s": s("cache.put"),
        "cache.hit_frac": _ratio(c("cache.hits"), n("cache.get")),
        "cache.bytes_written": c("cache.bytes_written"),
        "obs.emit_n": emit[0],
        "obs.emit_s": emit[1],
        "trace.spans": len(spans),
        "trace.worker_spans": sum(1 for span in spans
                                  if span["pid"] in worker_pids),
        "trace.processes": len(merged["procs"]),
    }
    own = self_times(spans)
    for name in SELF_TIME_SPANS:
        metrics[f"{name}.self_s"] = own.get(name, 0.0)
    return metrics


def layer_unit(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "fraction"
    if name.endswith("bytes") or name.endswith("bytes_written"):
        return "B"
    if name in ("pipeline.sim_cycles",):
        return "cycles"
    if name in ("pipeline.committed",):
        return "instructions"
    return "count"


def setup_seconds(merged: Dict[str, Any]) -> float:
    """Set-up time summed over the processes of one record set: spawn
    to ready (interpreter start and ``repro`` import), CLI parsing and
    program generation, pool workers included."""
    totals = span_totals(merged["spans"])
    return (merged["counts"].get("launch.ready_s", 0.0)
            + totals.get("cli.parse", [0, 0.0])[1]
            + totals.get("workloads.build", [0, 0.0])[1])
