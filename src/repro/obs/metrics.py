"""Typed, low-overhead metrics registry: the fifth leg of ``repro.obs``.

Three instrument kinds, mirroring the Prometheus data model:

- :class:`Counter` — monotonically increasing totals (cycles stepped,
  cache hits, supervisor retries);
- :class:`Gauge` — last-written values (IPC, average ROB occupancy,
  workers alive);
- :class:`Histogram` — fixed-bucket distributions (chunk seconds,
  artifact bytes, detection latency). Bucket schemas are *fixed at
  registration* so snapshots from different processes merge with plain
  element-wise addition and aggregates compare with ``==``.

The registry follows the ``NULL_LOG`` pattern exactly: call sites hold
:data:`NULL_METRICS` (a shared no-op singleton) when telemetry is off,
so the instrumented hot paths cost one attribute call that does
nothing. Fork-safety reuses the worker-spool design of
:mod:`repro.obs.events`: pool workers accumulate into a private
module-level registry (:func:`worker_metrics`) that
:func:`repro.obs.events.worker_task_span` drains into the worker's
event spool as one ``metrics`` event per task; the parent absorbs the
spools and any consumer folds the per-process snapshots back together
with :func:`snapshot_from_events` / :meth:`MetricsRegistry.merge`.

:func:`to_prometheus` renders a snapshot in the Prometheus text
exposition format for ``repro metrics export``.
"""

from __future__ import annotations

import os
import re
from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Optional, Tuple

# -- shared bucket schemas ---------------------------------------------
#: Detection-latency buckets, matching the fixed geometry of
#: ``repro.obs.audit.detection_latency_histogram`` (8 bins x 16 cycles;
#: everything past the last bound lands in the implicit overflow bucket).
LATENCY_CYCLE_BUCKETS: Tuple[float, ...] = tuple(
    float(16 * (i + 1)) for i in range(8))

#: Wall-clock buckets for spans/chunks/phases, in seconds.
SECONDS_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0, 300.0)

#: Payload-size buckets for cache traffic, in bytes.
BYTES_BUCKETS: Tuple[float, ...] = (
    1024.0, 4096.0, 16384.0, 65536.0, 262144.0,
    1048576.0, 4194304.0, 16777216.0)


def _num(value: float) -> Any:
    """Ints where exact — keeps snapshots JSON-clean and ``==``-stable."""
    as_float = float(value)
    if as_float.is_integer():
        return int(as_float)
    return as_float


class Counter:
    """Monotonic total. ``inc()`` is the only mutator."""

    __slots__ = ("name", "_value")
    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def value(self) -> float:
        return self._value


class Gauge:
    """Last-written value."""

    __slots__ = ("name", "_value")
    kind = "gauge"

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket distribution with sum and count.

    ``buckets`` are inclusive upper bounds in ascending order; one
    implicit overflow bucket catches everything beyond the last bound.
    Counts are stored per-bucket (not cumulative) so two snapshots
    merge by element-wise addition; :func:`to_prometheus` converts to
    the cumulative ``le`` form on export.
    """

    __slots__ = ("name", "buckets", "counts", "sum", "count")
    kind = "histogram"

    def __init__(self, name: str, buckets: Iterable[float]):
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError(
                f"histogram {name!r}: buckets must be ascending and "
                f"unique, got {bounds}")
        self.name = name
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    def value(self) -> Dict[str, Any]:
        return {"buckets": list(self.buckets), "counts": list(self.counts),
                "sum": _num(self.sum), "count": self.count}


class _NullInstrument:
    """One no-op stands in for all three kinds when metrics are off."""

    __slots__ = ()
    name = "null"

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def value(self) -> float:
        return 0.0


_NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Named instruments, memoised by name, snapshot/merge-able.

    Names are namespaced by convention (``core_cycles_total``,
    ``cache_hits_total``, ``classifier_detection_latency_cycles``);
    re-registering a name returns the existing instrument, and
    registering it as a different kind (or a histogram with a different
    bucket schema) is a programming error and raises.
    """

    enabled = True

    def __init__(self) -> None:
        self._instruments: Dict[str, Any] = {}

    # -- registration --------------------------------------------------
    def _get(self, name: str, kind: str, factory) -> Any:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = factory()
            self._instruments[name] = instrument
        elif instrument.kind != kind:
            raise ValueError(f"metric {name!r} already registered as "
                             f"{instrument.kind}, not {kind}")
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, "counter", lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get(name, "gauge", lambda: Gauge(name))

    def histogram(self, name: str,
                  buckets: Iterable[float] = SECONDS_BUCKETS) -> Histogram:
        histogram = self._get(name, "histogram",
                              lambda: Histogram(name, buckets))
        wanted = tuple(float(b) for b in buckets)
        if histogram.buckets != wanted:
            raise ValueError(f"histogram {name!r} already registered with "
                             f"buckets {histogram.buckets}, not {wanted}")
        return histogram

    # -- snapshot / merge ----------------------------------------------
    def __len__(self) -> int:
        return len(self._instruments)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe dump: ``{"counters": .., "gauges": .., "histograms": ..}``."""
        counters: Dict[str, Any] = {}
        gauges: Dict[str, Any] = {}
        histograms: Dict[str, Any] = {}
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            if instrument.kind == "counter":
                counters[name] = _num(instrument.value())
            elif instrument.kind == "gauge":
                gauges[name] = _num(instrument.value())
            else:
                histograms[name] = instrument.value()
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}

    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters and histogram cells add; gauges take the incoming
        value (last writer wins, matching single-process semantics).
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, dump in snapshot.get("histograms", {}).items():
            histogram = self.histogram(name, dump["buckets"])
            counts = dump["counts"]
            if len(counts) != len(histogram.counts):
                raise ValueError(f"histogram {name!r}: merge with "
                                 f"mismatched bucket schema")
            for index, cell in enumerate(counts):
                histogram.counts[index] += cell
            histogram.sum += dump.get("sum", 0.0)
            histogram.count += dump.get("count", 0)

    def clear(self) -> None:
        self._instruments.clear()

    def emit(self, events: Any, scope: str = "session") -> None:
        """Write one ``metrics`` event carrying the current snapshot."""
        if self._instruments and getattr(events, "enabled", False):
            events.emit("metrics", snapshot=self.snapshot(), scope=scope)


class NullMetricsRegistry:
    """Do-nothing registry: the metrics-off fast path."""

    enabled = False

    def counter(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str,
                  buckets: Iterable[float] = ()) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def __len__(self) -> int:
        return 0

    def snapshot(self) -> Dict[str, Any]:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def merge(self, snapshot: Dict[str, Any]) -> None:
        pass

    def clear(self) -> None:
        pass

    def emit(self, events: Any, scope: str = "session") -> None:
        pass


#: The shared disabled registry; ``metrics is NULL_METRICS`` is the
#: "off" test, exactly like ``NULL_LOG``.
NULL_METRICS = NullMetricsRegistry()


# ----------------------------------------------------------------------
# worker-side accumulation (pool processes; drained via the event spool)
# ----------------------------------------------------------------------
_WORKER_REGISTRY = MetricsRegistry()


def worker_metrics() -> Any:
    """The per-process accumulator for pool workers.

    Live only when the parent exported the worker spool directory
    (``REPRO_EVENTS_WORKER_DIR``) — i.e. exactly when worker events are
    being collected; otherwise the NULL registry, so library code can
    call this unconditionally.
    """
    from .events import WORKER_DIR_ENV
    if os.environ.get(WORKER_DIR_ENV):
        return _WORKER_REGISTRY
    return NULL_METRICS


def drain_worker_metrics() -> Optional[Dict[str, Any]]:
    """Snapshot-and-reset the worker accumulator (None when empty)."""
    if not len(_WORKER_REGISTRY):
        return None
    snapshot = _WORKER_REGISTRY.snapshot()
    _WORKER_REGISTRY.clear()
    return snapshot


# ----------------------------------------------------------------------
# consumption
# ----------------------------------------------------------------------
def snapshot_from_events(events: Iterable[dict]) -> Dict[str, Any]:
    """Merge every ``metrics`` event in a log into one snapshot."""
    registry = MetricsRegistry()
    for event in events:
        if event.get("type") == "metrics":
            snapshot = event.get("snapshot")
            if isinstance(snapshot, dict):
                registry.merge(snapshot)
    return registry.snapshot()


_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(namespace: str, name: str) -> str:
    return _NAME_RE.sub("_", f"{namespace}_{name}" if namespace else name)


def _prom_value(value: float) -> str:
    as_float = float(value)
    if as_float.is_integer():
        return str(int(as_float))
    return repr(as_float)


def to_prometheus(snapshot: Dict[str, Any], namespace: str = "repro") -> str:
    """Render a snapshot in the Prometheus text exposition format."""
    lines: List[str] = []
    for name, value in snapshot.get("counters", {}).items():
        full = _prom_name(namespace, name)
        lines.append(f"# TYPE {full} counter")
        lines.append(f"{full} {_prom_value(value)}")
    for name, value in snapshot.get("gauges", {}).items():
        full = _prom_name(namespace, name)
        lines.append(f"# TYPE {full} gauge")
        lines.append(f"{full} {_prom_value(value)}")
    for name, dump in snapshot.get("histograms", {}).items():
        full = _prom_name(namespace, name)
        lines.append(f"# TYPE {full} histogram")
        cumulative = 0
        for bound, cell in zip(dump["buckets"], dump["counts"]):
            cumulative += cell
            lines.append(f'{full}_bucket{{le="{_prom_value(bound)}"}} '
                         f"{cumulative}")
        cumulative += dump["counts"][-1]
        lines.append(f'{full}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{full}_sum {_prom_value(dump.get('sum', 0))}")
        lines.append(f"{full}_count {dump.get('count', 0)}")
    return "\n".join(lines) + ("\n" if lines else "")


__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "NullMetricsRegistry", "NULL_METRICS",
           "LATENCY_CYCLE_BUCKETS", "SECONDS_BUCKETS", "BYTES_BUCKETS",
           "worker_metrics", "drain_worker_metrics",
           "snapshot_from_events", "to_prometheus"]
