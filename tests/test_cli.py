"""CLI tests (in-process, via main(argv))."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import build_parser, main
from repro.harness.supervisor import CampaignJournal


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_shows_everything(capsys):
    code, out, _ = run_cli(capsys, "list")
    assert code == 0
    assert "mcf" in out and "faulthound" in out and "fig9" in out


def test_run_program(tmp_path, capsys):
    source = tmp_path / "prog.asm"
    source.write_text("""
        movi r1, 5
        movi r2, 6
        add  r3, r1, r2
        halt
    """)
    code, out, _ = run_cli(capsys, "run", str(source), "--scheme", "baseline")
    assert code == 0
    assert "committed" in out
    assert "0xb" in out  # r3 == 11


def test_run_missing_file(capsys):
    code, _, err = run_cli(capsys, "run", "/nonexistent.asm")
    assert code == 1
    assert "error" in err


def test_run_bad_assembly(tmp_path, capsys):
    source = tmp_path / "bad.asm"
    source.write_text("bogus r1")
    code, _, err = run_cli(capsys, "run", str(source))
    assert code == 1
    assert "unknown mnemonic" in err


def test_bench_command(capsys):
    code, out, _ = run_cli(capsys, "bench", "gamess",
                           "--scheme", "fh-backend",
                           "--instructions", "2500")
    assert code == 0
    assert "perf degradation" in out
    assert "false-positive rate" in out


def test_campaign_command(capsys):
    code, out, _ = run_cli(capsys, "campaign", "bzip2", "--faults", "10")
    assert code == 0
    assert "masked" in out
    assert "coverage" in out


def test_figure_table2(capsys):
    code, out, _ = run_cli(capsys, "figure", "table2")
    assert code == 0
    assert "Re-order Buffer" in out


def test_parser_rejects_unknown_benchmark():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["bench", "nonesuch"])


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


_OUT_OF_RANGE = [
    ("--faults", "-3", ">= 1"),
    ("--faults", "0", ">= 1"),
    ("--chunk-windows", "0", ">= 1"),
    ("--jobs", "0", ">= 1"),
    ("--max-retries", "-1", ">= 0"),
]


@pytest.mark.parametrize("flag, bad, bound", _OUT_OF_RANGE,
                         ids=[f"{flag[2:]}={bad}"
                              for flag, bad, _ in _OUT_OF_RANGE])
def test_campaign_rejects_out_of_range_values(capsys, flag, bad, bound):
    """The parser enforces the bounds the spec compiler's validate_task
    enforces: an out-of-range value is rejected outright, never clamped,
    ignored or run as an empty campaign."""
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["campaign", "mcf", flag, bad])
    assert excinfo.value.code == 2
    assert f"{flag}: must be {bound}" in capsys.readouterr().err


def test_compile_command_writes_run_layer(tmp_path, capsys):
    spec = tmp_path / "c.src.json"
    spec.write_text(json.dumps({
        "kind": "repro.campaign.src", "version": 1, "name": "c",
        "defaults": {"benchmark": "mcf", "faults": 5},
        "sweep": {"scheme": ["faulthound", "pbfs"]}}))
    code, out, _ = run_cli(capsys, "compile", str(spec))
    assert code == 0
    assert "2 task" in out
    compiled = json.loads((tmp_path / "c.run.json").read_text())
    assert compiled["kind"] == "repro.campaign.run"
    assert len(compiled["tasks"]) == 2


def test_compile_rejects_invalid_spec(tmp_path, capsys):
    spec = tmp_path / "c.src.json"
    spec.write_text(json.dumps({
        "kind": "repro.campaign.src", "version": 1,
        "defaults": {"benchmark": "nonesuch"}}))
    code, _, err = run_cli(capsys, "compile", str(spec))
    assert code == 1
    assert "nonesuch" in err


def test_campaign_emit_events_then_report(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    events = tmp_path / "events.jsonl"
    code, _, err = run_cli(capsys, "campaign", "mcf", "--faults", "6",
                           "--jobs", "2", "--emit-events", str(events))
    assert code == 0
    assert events.exists()
    assert (tmp_path / "events.jsonl.manifest.json").exists()
    # the recorded log validates cleanly, manifest digest included
    code, out, err = run_cli(capsys, "report", "--events", str(events))
    assert code == 0
    summary = json.loads(out)
    assert summary["schema_errors"] == 0
    assert summary["by_type"]["fault_audit"] > 0


def test_report_rejects_invalid_event_log(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"ts": 1.0, "type": "mystery", "pid": 1}\n')
    code, out, err = run_cli(capsys, "report", "--events", str(bad))
    assert code == 1
    assert "unknown event type" in err


def test_report_rejects_missing_manifest(tmp_path, capsys):
    log = tmp_path / "events.jsonl"
    log.write_text('{"ts": 1.0, "type": "run_start", "pid": 1, '
                   '"run": "r", "schema": 1}\n')
    code, _, err = run_cli(capsys, "report", "--events", str(log),
                           "--manifest", str(tmp_path / "nope.json"))
    assert code == 1
    assert "unreadable" in err


def test_bench_profile_prints_stage_accounting(capsys):
    code, out, err = run_cli(capsys, "bench", "gamess",
                             "--scheme", "baseline",
                             "--instructions", "1500", "--profile")
    assert code == 0
    assert "stage wall-clock" in out
    assert "cProfile top" in err


# ----------------------------------------------------------------------
# supervised campaign plumbing: cache verify, resume, report --run-dir
# ----------------------------------------------------------------------
def test_cache_verify_reports_and_quarantines(tmp_path, capsys):
    from repro.harness.cache import ArtifactCache
    cache = ArtifactCache(tmp_path)
    key = cache.key("srt", benchmark="mcf")
    cache.put("srt", key, [1, 2, 3])
    (tmp_path / "srt" / f"{key}.pkl").write_bytes(b"garbage")
    code, out, err = run_cli(capsys, "cache", "verify",
                             "--cache-dir", str(tmp_path))
    assert code == 0            # informative by default
    summary = json.loads(out)
    assert summary["corrupt"] == 1 and summary["quarantined"] == 1
    assert "corrupt: srt/" in err
    # --strict turns surviving corruption into a non-zero exit
    (tmp_path / "srt" / f"{key}.pkl").write_bytes(b"garbage again")
    code, out, _ = run_cli(capsys, "cache", "verify", "--strict",
                           "--cache-dir", str(tmp_path))
    assert code == 1
    # once clean, --strict passes
    code, out, _ = run_cli(capsys, "cache", "verify", "--strict",
                           "--cache-dir", str(tmp_path))
    assert code == 0
    assert json.loads(out)["corrupt"] == 0


def test_cache_stats_and_clear(tmp_path, capsys):
    from repro.harness.cache import ArtifactCache
    cache = ArtifactCache(tmp_path)
    cache.put("srt", cache.key("srt", benchmark="mcf"), [1])
    code, out, _ = run_cli(capsys, "cache", "stats",
                           "--cache-dir", str(tmp_path))
    assert code == 0 and "entries  1" in out
    code, out, _ = run_cli(capsys, "cache", "clear",
                           "--cache-dir", str(tmp_path))
    assert code == 0 and "removed 1 entry" in out


def test_resume_requires_campaign_manifest(tmp_path, capsys):
    code, _, err = run_cli(capsys, "resume", str(tmp_path))
    assert code == 1
    assert "campaign.json" in err


def test_report_run_dir_requires_journal(tmp_path, capsys):
    code, _, err = run_cli(capsys, "report", "--run-dir", str(tmp_path))
    assert code == 1
    assert "journal.jsonl" in err


def test_supervised_campaign_cli_roundtrip(tmp_path, capsys, monkeypatch):
    """campaign --run-dir → report --run-dir → resume is a no-op."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    run_dir = tmp_path / "run"
    code, out, err = run_cli(capsys, "campaign", "mcf", "--faults", "6",
                             "--jobs", "2", "--run-dir", str(run_dir))
    assert code == 0
    assert (run_dir / "journal.jsonl").exists()
    assert (run_dir / "campaign.json").exists()
    first = out
    code, out, _ = run_cli(capsys, "report", "--run-dir", str(run_dir))
    assert code == 0
    summary = json.loads(out)
    assert summary["poisoned"] == 0
    assert summary["by_type"].get("phase_done", 0) >= 1
    # resuming a completed run recomputes nothing and prints the same;
    # a batch_lanes field recorded by older versions is ignored
    manifest = run_dir / "campaign.json"
    saved = json.loads(manifest.read_text())
    manifest.write_text(json.dumps(dict(saved, batch_lanes=8)))
    code, out, _ = run_cli(capsys, "resume", str(run_dir))
    assert code == 0
    assert out == first


def test_resume_ignores_recorded_chunk_timeout(tmp_path, capsys):
    """A run dir from a version with a per-chunk watchdog may record a
    ``chunk_timeout``; resume ignores it — even one no window could
    meet — and finishes the campaign with nothing quarantined."""
    run_dir = tmp_path / "run"
    code, out, _ = run_cli(capsys, "campaign", "mcf", "--faults", "4",
                           "--jobs", "1", "--no-cache",
                           "--run-dir", str(run_dir))
    assert code == 0
    first = out
    manifest = run_dir / "campaign.json"
    saved = json.loads(manifest.read_text())
    manifest.write_text(json.dumps(dict(saved, chunk_timeout=1e-6)))
    # drop the progress so resume has every window left to classify
    (run_dir / "journal.jsonl").unlink()
    code, out, err = run_cli(capsys, "resume", str(run_dir))
    assert code == 0, err
    assert out == first
    assert not (run_dir / "poisoned.jsonl").exists()


def test_run_dir_defaults_event_log_into_it(tmp_path, capsys,
                                            monkeypatch):
    """A journaled campaign gets events.jsonl in the run dir by default
    (announced on stderr, stdout untouched) so the monitor surfaces
    have something to tail."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    run_dir = tmp_path / "run"
    code, _, err = run_cli(capsys, "campaign", "mcf", "--faults", "4",
                           "--jobs", "1", "--run-dir", str(run_dir))
    assert code == 0
    assert (run_dir / "events.jsonl").exists()
    assert f"events: {run_dir / 'events.jsonl'}" in err
    # report gained the audit aggregates alongside the summary
    code, out, _ = run_cli(capsys, "report", "--events",
                           str(run_dir / "events.jsonl"))
    assert code == 0
    summary = json.loads(out)
    assert summary["aggregates"]["records"] == 4
    assert summary["aggregates"]["applied"] > 0
    # and the session metrics snapshot rode the log
    assert summary["by_type"]["metrics"] >= 1


def test_status_and_top_reject_missing_run_dir(tmp_path, capsys):
    code, _, err = run_cli(capsys, "status", str(tmp_path / "nope"))
    assert code == 1
    assert "not a run directory" in err
    code, _, err = run_cli(capsys, "top", str(tmp_path / "nope"), "--once")
    assert code == 1


def test_tail_rejects_missing_log(tmp_path, capsys):
    code, _, err = run_cli(capsys, "tail", str(tmp_path / "none.jsonl"))
    assert code == 1
    assert "not found" in err


def test_metrics_export_from_plain_log(tmp_path, capsys):
    log = tmp_path / "events.jsonl"
    log.write_text(json.dumps(
        {"ts": 1.0, "type": "metrics", "pid": 1,
         "snapshot": {"counters": {"n_total": 3}}}) + "\n")
    code, out, _ = run_cli(capsys, "metrics", "export", str(log))
    assert code == 0
    assert "repro_n_total 3" in out


def test_metrics_export_empty_log_notes_it(tmp_path, capsys):
    log = tmp_path / "events.jsonl"
    log.write_text(json.dumps(
        {"ts": 1.0, "type": "worker_start", "pid": 1}) + "\n")
    code, out, err = run_cli(capsys, "metrics", "export", str(log))
    assert code == 0
    assert out == ""
    assert "no metrics" in err


# ----------------------------------------------------------------------
# repro sweep: a spec's tasks in order, with one-shot parity
# ----------------------------------------------------------------------
_SWEEP_SPEC = {"kind": "repro.campaign.src", "version": 1, "name": "sw",
               "defaults": {"faults": 10, "no_cache": True},
               "tasks": [{"benchmark": "bzip2"},
                         {"benchmark": "mcf", "faults": 48}]}


def _cli_env():
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def _repro(*argv, **kwargs):
    return subprocess.run([sys.executable, "-m", "repro.cli", *argv],
                          env=_cli_env(), capture_output=True,
                          timeout=240, **kwargs)


@pytest.fixture(scope="module")
def sweep_reference(tmp_path_factory):
    """The sweep spec on disk plus its tasks' one-shot stdouts, each
    from a hand-typed ``repro campaign`` with no run dir."""
    from repro.harness.spec import compile_spec, task_argv
    spec = tmp_path_factory.mktemp("sweep") / "sw.src.json"
    spec.write_text(json.dumps(_SWEEP_SPEC))
    tasks = compile_spec(_SWEEP_SPEC)["tasks"]
    stdout = b""
    for task in tasks:
        result = _repro(*task_argv(task))
        assert result.returncode == 0, result.stderr.decode()
        stdout += result.stdout
    return spec, tasks, stdout


def test_sweep_rejects_invalid_spec(tmp_path, capsys):
    spec = tmp_path / "bad.src.json"
    spec.write_text(json.dumps({
        "kind": "repro.campaign.src", "version": 1,
        "defaults": {"benchmark": "nonesuch"}}))
    code, _, err = run_cli(capsys, "sweep", str(spec), str(tmp_path / "r"))
    assert code == 1
    assert "nonesuch" in err


@pytest.mark.slow
@pytest.mark.timeout(300)
def test_sweep_stdout_is_oneshot_concatenation(tmp_path, sweep_reference):
    """A 2-task sweep prints exactly the two one-shot campaign stdouts,
    back to back, and journals each task under RUN_DIR/<task key>."""
    spec, tasks, reference = sweep_reference
    run_dir = tmp_path / "run"
    result = _repro("sweep", str(spec), str(run_dir))
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout == reference
    for number, task in enumerate(tasks, start=1):
        assert (run_dir / task["key"] / "journal.jsonl").exists()
        assert f"task {number}/2".encode() in result.stderr


@pytest.mark.slow
@pytest.mark.timeout(300)
def test_sweep_rerun_after_sigkill_converges(tmp_path, sweep_reference):
    """SIGKILL the sweep mid-way through its second task; re-running
    the same command resumes from the journals and prints the
    uninterrupted bytes."""
    spec, tasks, reference = sweep_reference
    run_dir = tmp_path / "run"
    victim = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "sweep", str(spec),
         str(run_dir)], env=_cli_env(), stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL, start_new_session=True)
    journal = run_dir / tasks[1]["key"] / "journal.jsonl"
    deadline = time.monotonic() + 180
    try:
        while time.monotonic() < deadline:
            if victim.poll() is not None:
                break
            if journal.exists() and "chunk_done" in journal.read_text():
                break
            time.sleep(0.05)
        assert victim.poll() is None, "sweep finished before the kill"
    finally:
        try:
            os.killpg(victim.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        victim.wait(timeout=30)

    rerun = _repro("sweep", str(spec), str(run_dir))
    assert rerun.returncode == 0, rerun.stderr.decode()
    assert rerun.stdout == reference
    records = CampaignJournal.read(run_dir / tasks[1]["key"])
    assert any(r["type"] == "resume" for r in records)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_figure_reports_quarantine_and_exit_code(capsys, monkeypatch, jobs):
    """A poison window in a figure run is quarantined, listed on stderr,
    and turns the exit code to 3 — on the pull path (--jobs 1) and on
    the prefetch worker pool (--jobs 2, one task per benchmark) alike."""
    from repro import cli
    from repro.faults.classifier import TandemClassifier
    from repro.harness import ExperimentConfig
    from repro.harness import parallel as _parallel
    from repro.harness.supervisor import EXIT_QUARANTINE
    monkeypatch.setattr(_parallel, "_WORKER_CONTEXTS", {})
    monkeypatch.setitem(cli._SCALES, "quick", ExperimentConfig(
        benchmarks=("bzip2", "mcf"), dynamic_target=2_200, num_faults=10,
        warmup_commits=400, window_commits=150, max_window_cycles=60_000))
    real_run = TandemClassifier.run

    def poisoned(self, records, **kwargs):
        if any(record.index == 0 for record in records):
            raise RuntimeError("injected deterministic poison")
        return real_run(self, records, **kwargs)

    monkeypatch.setattr(TandemClassifier, "run", poisoned)
    code, out, err = run_cli(capsys, "figure", "fig7", "--no-cache",
                             "--jobs", jobs)
    assert code == EXIT_QUARANTINE
    assert "Figure 7" in out
    assert "2 poison window(s) quarantined" in err
    assert err.count("characterize/baseline window 0") == 2
