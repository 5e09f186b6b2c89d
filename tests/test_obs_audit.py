"""Fault-audit-trail tests.

The acceptance contract: one audit record per injected fault, and the
aggregates (recovery mix, detection-latency histogram) are bit-for-bit
identical across serial, parallel and warm-cache executions.
"""

import pytest

from repro.harness.cache import ArtifactCache
from repro.harness.experiment import ExperimentConfig, ExperimentContext
from repro.obs import (EventLog, aggregates_from_events, audit_aggregates,
                       audit_records, detection_latency_histogram,
                       read_events, recovery_mix)
from repro.obs.audit import LATENCY_BINS, LATENCY_BIN_WIDTH

_TINY = ExperimentConfig(benchmarks=("mcf",), dynamic_target=3_000,
                         num_faults=10, warmup_commits=200,
                         window_commits=100)


@pytest.fixture(scope="module")
def serial_ctx():
    ctx = ExperimentContext(_TINY, jobs=1)
    ctx.campaign("mcf")
    ctx.coverage("mcf", "faulthound")
    return ctx


# ----------------------------------------------------------------------
# record derivation
# ----------------------------------------------------------------------
class TestAuditRecords:
    def test_one_record_per_campaign_fault(self, serial_ctx):
        _, characterization = serial_ctx.campaign("mcf")
        records = audit_records(characterization, "characterize")
        assert len(records) == _TINY.num_faults
        assert len(records) == len(characterization.records)
        indices = [r.index for r in records]
        assert indices == sorted(indices)

    def test_coverage_records_join_outcomes(self, serial_ctx):
        coverage = serial_ctx.coverage("mcf", "faulthound")
        records = audit_records(coverage, "coverage")
        assert len(records) == len(coverage.coverage_results)
        for record in records:
            assert record.phase == "coverage"
            assert record.scheme == "faulthound"
            joined = coverage.outcomes.get(record.index)
            assert record.outcome == (joined.value if joined else None)

    def test_unknown_phase_rejected(self, serial_ctx):
        _, characterization = serial_ctx.campaign("mcf")
        with pytest.raises(ValueError, match="unknown audit phase"):
            audit_records(characterization, "bogus")

    def test_recovery_label_and_latency_fields(self, serial_ctx):
        _, characterization = serial_ctx.campaign("mcf")
        for record in audit_records(characterization, "characterize"):
            assert record.recovery in ("rollback", "replay", "singleton",
                                       "suppress", "none")
            if record.detection_latency is not None:
                assert record.detection_latency >= 0
                assert record.first_trigger_cycle >= record.inject_cycle


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
class TestAggregates:
    def test_recovery_mix_counts_applied_only(self):
        rows = [
            {"applied": True, "recovery": "replay"},
            {"applied": True, "recovery": "replay"},
            {"applied": False, "recovery": "rollback"},
            {"applied": True, "recovery": "none"},
        ]
        mix = recovery_mix(rows)
        assert mix == {"rollback": 0, "replay": 2, "singleton": 0,
                       "suppress": 0, "none": 1}

    def test_latency_histogram_fixed_geometry(self):
        rows = [{"detection_latency": v}
                for v in (0, 15, 16, 1_000_000)] \
            + [{"detection_latency": None}]
        histogram = detection_latency_histogram(rows)
        assert len(histogram) == LATENCY_BINS + 1
        assert histogram["0-15"] == 2
        assert histogram["16-31"] == 1
        assert histogram[f">={LATENCY_BINS * LATENCY_BIN_WIDTH}"] == 1
        assert sum(histogram.values()) == 4     # None excluded
        # empty input still yields every bin, so == comparison works
        assert set(detection_latency_histogram([])) == set(histogram)

    def test_aggregates_shape(self, serial_ctx):
        coverage = serial_ctx.coverage("mcf", "faulthound")
        aggregates = audit_aggregates(audit_records(coverage, "coverage"))
        assert set(aggregates) == {"records", "applied", "recovery_mix",
                                   "detection_latency_histogram", "outcomes"}
        assert aggregates["applied"] <= aggregates["records"]


# ----------------------------------------------------------------------
# the acceptance criterion: serial == parallel == warm cache
# ----------------------------------------------------------------------
class TestAggregateDeterminism:
    @staticmethod
    def _aggregates(ctx):
        _, characterization = ctx.campaign("mcf")
        coverage = ctx.coverage("mcf", "faulthound")
        return (
            audit_aggregates(audit_records(characterization,
                                           "characterize")),
            audit_aggregates(audit_records(coverage, "coverage")),
        )

    def test_parallel_matches_serial(self, serial_ctx):
        parallel = ExperimentContext(_TINY, jobs=2)
        assert self._aggregates(parallel) == self._aggregates(serial_ctx)

    def test_warm_cache_matches_serial(self, serial_ctx, tmp_path):
        cold = ExperimentContext(_TINY, jobs=1, cache=ArtifactCache(tmp_path))
        cold_aggregates = self._aggregates(cold)
        warm = ExperimentContext(_TINY, jobs=1, cache=ArtifactCache(tmp_path))
        warm_aggregates = self._aggregates(warm)
        assert warm.cache.hits > 0
        assert cold_aggregates == self._aggregates(serial_ctx)
        assert warm_aggregates == cold_aggregates

    def test_event_log_reproduces_the_aggregates(self, serial_ctx,
                                                 tmp_path):
        log = EventLog(tmp_path / "events.jsonl")
        ctx = ExperimentContext(_TINY, jobs=2, events=log)
        _, characterization = ctx.campaign("mcf")
        coverage = ctx.coverage("mcf", "faulthound")
        log.close()
        from_log = aggregates_from_events(read_events(log.path))
        direct = audit_aggregates(
            audit_records(characterization, "characterize")
            + audit_records(coverage, "coverage"))
        assert from_log == direct
