"""Streaming-monitor tests: the JsonlFollower transport, CampaignMonitor
folding, and live-vs-post-hoc aggregate convergence on a real campaign."""

import json
import os

from repro.cli import main
from repro.obs import (CampaignMonitor, JsonlFollower, aggregates_from_events,
                       read_events, render_status)


def _write_lines(path, records, mode="a"):
    with open(path, mode, encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


# ----------------------------------------------------------------------
# the transport
# ----------------------------------------------------------------------
class TestJsonlFollower:
    def test_incremental_polls_return_only_new_records(self, tmp_path):
        path = tmp_path / "log.jsonl"
        follower = JsonlFollower(path)
        assert follower.poll() == []            # missing file is quiet
        _write_lines(path, [{"n": 1}])
        assert [r["n"] for r in follower.poll()] == [1]
        assert follower.poll() == []
        _write_lines(path, [{"n": 2}, {"n": 3}])
        assert [r["n"] for r in follower.poll()] == [2, 3]

    def test_torn_tail_buffers_until_completed(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"n": 1}\n{"n": 2')
        follower = JsonlFollower(path)
        assert [r["n"] for r in follower.poll()] == [1]
        assert follower.pending_tail > 0
        with open(path, "a") as handle:         # writer finishes the line
            handle.write("}\n")
        assert [r["n"] for r in follower.poll()] == [2]
        assert follower.pending_tail == 0

    def test_rotation_resets_offset(self, tmp_path):
        path = tmp_path / "log.jsonl"
        _write_lines(path, [{"n": 1}, {"n": 2}], mode="w")
        follower = JsonlFollower(path)
        follower.poll()
        _write_lines(path, [{"n": 9}], mode="w")    # recreated, smaller
        assert [r["n"] for r in follower.poll()] == [9]
        assert follower.rotations == 1

    def test_same_size_rotation_detected_by_inode(self, tmp_path):
        """Regression: a rotation that replaces the file with one of the
        exact same byte length never shrinks below the offset, so the
        size check alone silently misses it — the inode must catch it."""
        path = tmp_path / "log.jsonl"
        _write_lines(path, [{"n": 1}], mode="w")
        follower = JsonlFollower(path)
        assert [r["n"] for r in follower.poll()] == [1]
        fresh = tmp_path / "fresh.jsonl"
        _write_lines(fresh, [{"n": 2}], mode="w")   # same byte length
        assert fresh.stat().st_size == follower.offset
        os.replace(fresh, path)
        assert [r["n"] for r in follower.poll()] == [2]
        assert follower.rotations == 1

    def test_rotation_that_regrows_past_old_offset(self, tmp_path):
        """Regression: a replacement file already *larger* than the old
        offset used to be tailed from the stale offset, dropping its
        head and splicing records from two different runs."""
        path = tmp_path / "log.jsonl"
        _write_lines(path, [{"n": 1}], mode="w")
        follower = JsonlFollower(path)
        follower.poll()
        fresh = tmp_path / "fresh.jsonl"
        _write_lines(fresh, [{"n": 7}, {"n": 8}, {"n": 9}], mode="w")
        assert fresh.stat().st_size > follower.offset
        os.replace(fresh, path)
        assert [r["n"] for r in follower.poll()] == [7, 8, 9]
        assert follower.rotations == 1

    def test_bad_lines_are_counted_not_fatal(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"n": 1}\nnot json\n[1, 2]\n{"n": 2}\n')
        follower = JsonlFollower(path)
        assert [r["n"] for r in follower.poll()] == [1, 2]
        assert follower.bad_lines == 2

    def test_resumable_from_byte_offset(self, tmp_path):
        path = tmp_path / "log.jsonl"
        _write_lines(path, [{"n": 1}, {"n": 2}], mode="w")
        first = JsonlFollower(path)
        first.poll()
        _write_lines(path, [{"n": 3}])
        rebuilt = JsonlFollower(path, offset=first.offset)
        assert [r["n"] for r in rebuilt.poll()] == [3]


# ----------------------------------------------------------------------
# folding synthetic trails
# ----------------------------------------------------------------------
class TestMonitorFolding:
    def test_journal_plan_and_chunks_drive_progress(self, tmp_path):
        _write_lines(tmp_path / "journal.jsonl", [
            {"type": "plan", "phase": "characterize", "benchmark": "mcf",
             "scheme": "baseline", "windows": 10,
             "bounds": [[0, 5], [5, 10]], "resumed_chunks": 0},
            {"type": "chunk_done", "phase": "characterize",
             "lo": 0, "hi": 5, "windows": 5, "attempt": 1},
        ])
        status = CampaignMonitor(tmp_path).poll()
        assert status.state == "running"
        phase = status.phases["characterize"]
        assert phase.windows_total == 10
        assert phase.windows_done == 5
        assert phase.chunks_done == 1
        assert phase.chunks_total == 2
        assert status.windows_done == 5

    def test_resumed_plan_seeds_progress_from_journal(self, tmp_path):
        """Satellite: a resumed run's monitor starts from the adopted
        chunks, not zero — only the missing gap remains."""
        _write_lines(tmp_path / "journal.jsonl", [
            {"type": "plan", "phase": "characterize", "benchmark": "mcf",
             "scheme": "baseline", "windows": 10,
             "bounds": [[6, 10]], "resumed_chunks": 2},
        ])
        status = CampaignMonitor(tmp_path).poll()
        phase = status.phases["characterize"]
        assert phase.windows_done == 6          # 10 minus the [6,10) gap
        assert phase.chunks_done == 2
        assert phase.chunks_total == 3

    def test_quarantine_and_phase_done_fold(self, tmp_path):
        _write_lines(tmp_path / "journal.jsonl", [
            {"type": "plan", "phase": "characterize", "benchmark": "mcf",
             "scheme": "baseline", "windows": 4, "bounds": [[0, 4]],
             "resumed_chunks": 0},
            {"type": "quarantine", "phase": "characterize", "index": 2,
             "scheme": "baseline", "site": "regfile", "bit": 3,
             "reason": "exception", "attempts": 4},
            {"type": "phase_done", "phase": "characterize",
             "status": "complete-with-quarantine", "windows": 3,
             "quarantined": 1},
        ])
        _write_lines(tmp_path / "events.jsonl", [
            {"ts": 1.0, "type": "run_start", "pid": 1, "run": "r1"},
            {"ts": 9.0, "type": "run_end", "pid": 1, "run": "r1"},
        ])
        status = CampaignMonitor(tmp_path).poll()
        assert status.state == "complete-with-quarantine"
        assert status.quarantined == 1
        assert status.phases["characterize"].windows_done == 3

    def test_throughput_and_eta_from_progress_trail(self, tmp_path):
        _write_lines(tmp_path / "journal.jsonl", [
            {"type": "plan", "phase": "characterize", "benchmark": "mcf",
             "scheme": "baseline", "windows": 100,
             "bounds": [[0, 100]], "resumed_chunks": 0},
        ])
        _write_lines(tmp_path / "events.jsonl", [
            {"ts": 0.0, "type": "run_start", "pid": 1, "run": "r1"},
            {"ts": 10.0, "type": "counter", "pid": 1,
             "name": "campaign_progress", "value": 0,
             "attrs": {"phase": "characterize"}},
            {"ts": 20.0, "type": "counter", "pid": 1,
             "name": "campaign_progress", "value": 20,
             "attrs": {"phase": "characterize"}},
        ])
        status = CampaignMonitor(tmp_path).poll()
        assert status.throughput == 2.0         # 20 windows / 10 s
        assert status.eta_seconds == 50.0       # 100 remaining / 2 per s

    def test_heartbeats_and_supervisor_tallies(self, tmp_path):
        _write_lines(tmp_path / "events.jsonl", [
            {"ts": 1.0, "type": "run_start", "pid": 1, "run": "r1"},
            {"ts": 2.0, "type": "heartbeat", "pid": 1,
             "phase": "characterize", "running": 2, "pending": 3,
             "workers": [41, 42]},
            {"ts": 3.0, "type": "supervisor", "pid": 1, "action": "retry"},
            {"ts": 4.0, "type": "supervisor", "pid": 1, "action": "retry"},
        ])
        status = CampaignMonitor(tmp_path).poll()
        assert status.workers == {41: 2.0, 42: 2.0}
        assert status.retries == 2
        assert status.state == "running"

    def test_metrics_events_merge_across_polls(self, tmp_path):
        events = tmp_path / "events.jsonl"
        monitor = CampaignMonitor(tmp_path)
        _write_lines(events, [
            {"ts": 1.0, "type": "metrics", "pid": 1, "scope": "worker",
             "snapshot": {"counters": {"n_total": 2}}}])
        monitor.poll()
        _write_lines(events, [
            {"ts": 2.0, "type": "metrics", "pid": 1, "scope": "session",
             "snapshot": {"counters": {"n_total": 3}}}])
        status = monitor.poll()
        assert status.metrics["counters"]["n_total"] == 5

    def test_rotation_resets_event_state_keeps_journal(self, tmp_path):
        """`repro resume` recreates events.jsonl with mode w: the
        monitor drops event-derived state but journal progress stays."""
        _write_lines(tmp_path / "journal.jsonl", [
            {"type": "plan", "phase": "characterize", "benchmark": "mcf",
             "scheme": "baseline", "windows": 10, "bounds": [[0, 10]],
             "resumed_chunks": 0}])
        events = tmp_path / "events.jsonl"
        _write_lines(events, [
            {"ts": 1.0, "type": "run_start", "pid": 1, "run": "first"},
            {"ts": 2.0, "type": "metrics", "pid": 1,
             "snapshot": {"counters": {"n_total": 7}}}], mode="w")
        monitor = CampaignMonitor(tmp_path)
        assert monitor.poll().run_id == "first"
        _write_lines(events, [
            {"ts": 3.0, "type": "run_start", "pid": 2, "run": "second"}],
            mode="w")
        status = monitor.poll()
        assert status.run_id == "second"
        assert status.rotations == 1
        assert status.metrics["counters"] == {}          # event state reset
        assert status.phases["characterize"].windows_total == 10  # kept

    def test_empty_run_dir_is_unknown(self, tmp_path):
        status = CampaignMonitor(tmp_path).poll()
        assert status.state == "unknown"
        assert not status.finished

    def test_render_status_mentions_the_essentials(self, tmp_path):
        _write_lines(tmp_path / "journal.jsonl", [
            {"type": "plan", "phase": "characterize", "benchmark": "mcf",
             "scheme": "baseline", "windows": 4, "bounds": [[0, 4]],
             "resumed_chunks": 0}])
        text = render_status(CampaignMonitor(tmp_path).poll())
        assert "state running" in text
        assert "characterize" in text
        assert "0/4" in text


# ----------------------------------------------------------------------
# live-vs-post-hoc convergence on a real supervised campaign
# ----------------------------------------------------------------------
class TestLiveConvergence:
    def _run_campaign(self, run_dir):
        code = main(["campaign", "mcf", "--faults", "6", "--jobs", "1",
                     "--no-cache", "--run-dir", str(run_dir)])
        assert code == 0

    def test_post_run_monitor_matches_post_hoc_report(self, tmp_path,
                                                      capsys):
        run_dir = tmp_path / "run"
        self._run_campaign(run_dir)
        capsys.readouterr()
        status = CampaignMonitor(run_dir).poll()
        assert status.finished
        assert status.state == "complete"
        events = read_events(run_dir / "events.jsonl")
        assert status.aggregates == aggregates_from_events(events)
        assert status.aggregates["applied"] > 0
        assert status.windows_done == status.windows_total == 6
        # the final metrics event reached the snapshot too
        assert ("classifier_windows_total"
                in status.metrics["counters"])

    def test_monitor_attached_mid_run_converges(self, tmp_path, capsys):
        """Fold the same trails in arbitrary increments: a monitor that
        polled all along ends at the same snapshot as a one-shot one."""
        run_dir = tmp_path / "run"
        self._run_campaign(run_dir)
        capsys.readouterr()
        events_path = run_dir / "events.jsonl"
        blob = events_path.read_bytes()
        incremental = CampaignMonitor(run_dir)
        # replay the event log a few bytes at a time, polling as we go
        events_path.write_bytes(b"")
        step = max(1, len(blob) // 17)
        for start in range(0, len(blob), step):
            with open(events_path, "ab") as handle:
                handle.write(blob[start:start + step])
            incremental.poll()
        final = incremental.poll()
        one_shot = CampaignMonitor(run_dir).poll()
        assert final.as_json() == one_shot.as_json()

    def test_status_json_cli_matches_report_cli(self, tmp_path, capsys):
        """The acceptance check: `repro status --json` on a finished run
        reports aggregates identical to `repro report --events`."""
        run_dir = tmp_path / "run"
        self._run_campaign(run_dir)
        capsys.readouterr()
        assert main(["status", str(run_dir), "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        code = main(["report", "--events",
                     str(run_dir / "events.jsonl")])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert status["aggregates"] == report["aggregates"]
        assert report["schema_errors"] == 0
        assert status["state"] == "complete"

    def test_top_once_and_tail_and_export_cli(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        self._run_campaign(run_dir)
        capsys.readouterr()
        assert main(["top", str(run_dir), "--once", "--no-clear"]) == 0
        frame = capsys.readouterr().out
        assert "state complete" in frame
        assert main(["tail", str(run_dir), "--type", "fault_audit"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 6
        assert all(json.loads(l)["type"] == "fault_audit" for l in lines)
        assert main(["metrics", "export", str(run_dir)]) == 0
        text = capsys.readouterr().out
        assert "# TYPE repro_classifier_windows_total counter" in text
