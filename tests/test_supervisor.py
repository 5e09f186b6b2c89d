"""Tests for the resilient campaign supervisor.

The contract under test: supervision is a pure reliability layer — on a
healthy machine the supervised, retried and resumed-after-SIGKILL paths
all yield bit-for-bit the results of the plain serial classifier, at
any ``jobs``, and a deterministically poisonous window is bisected and
quarantined without taking its neighbours down with it.

Failures are injected by monkeypatching ``TandemClassifier.run`` to
raise: every window classifies in-process, so an exception is the
failure the supervisor sees (a process death is covered by the journal
and ``repro resume``, exercised end to end at the bottom).
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.harness import (ExperimentConfig, ExperimentContext, Supervisor,
                           SupervisorPolicy, read_poisoned,
                           summarize_run_dir)
from repro.harness import parallel as _parallel
from repro.harness.supervisor import (CampaignAborted, CampaignJournal,
                                      EXIT_ABORTED, EXIT_QUARANTINE,
                                      _Chunk)

# geometry matching `repro campaign mcf --faults 10`: produces a small
# but non-empty SDC set, so the coverage phase is exercised for real
_TINY = ExperimentConfig(benchmarks=("mcf",), dynamic_target=2_200,
                         num_faults=10, warmup_commits=400,
                         window_commits=150, max_window_cycles=60_000)

_FAST_BACKOFF = dict(backoff_base=0.01, backoff_max=0.05)


@pytest.fixture(scope="module")
def serial_reference():
    """The plain serial classifier, with no supervisor in the loop."""
    ctx = ExperimentContext(_TINY, jobs=1)
    campaign = ctx.build_campaign("mcf")
    characterization = campaign.characterize()
    coverage = campaign.run_coverage(
        "faulthound", lambda: ctx.make_core("mcf", "faulthound"),
        characterization)
    return characterization, coverage


# ----------------------------------------------------------------------
# dispatcher selection
# ----------------------------------------------------------------------
class TestSelection:
    def test_jobs_1_selects_serial(self, monkeypatch):
        calls = []
        monkeypatch.setattr(Supervisor, "_run_serial",
                            lambda self, *a, **k: calls.append("serial"))
        ctx = ExperimentContext(_TINY, jobs=1)
        records = ctx.build_campaign("mcf").records
        Supervisor().classify_windows(_TINY, ctx.hw, "mcf", None, records,
                                      phase="characterize", ctx=ctx)
        assert calls == ["serial"]


# ----------------------------------------------------------------------
# retry backoff
# ----------------------------------------------------------------------
class TestBackoff:
    @staticmethod
    def _delays(policy, attempts, lo=0):
        sup = Supervisor(policy)
        chunk = _Chunk(lo, lo + 4, "key", max_attempts=99)
        delays = []
        for attempt in attempts:
            chunk.attempts = attempt
            delays.append(sup._backoff(chunk))
        return delays

    def test_grows_exponentially_and_caps(self):
        delays = self._delays(SupervisorPolicy(backoff_base=0.1,
                                               backoff_max=5.0,
                                               backoff_jitter=0.0),
                              range(1, 12))
        assert delays[0] == pytest.approx(0.1)
        assert delays[1] == pytest.approx(0.2)
        assert delays[2] == pytest.approx(0.4)
        assert max(delays) <= 5.0
        assert delays[-1] == 5.0

    def test_jitter_is_deterministic_and_bounded(self):
        policy = SupervisorPolicy(backoff_base=0.1, backoff_max=5.0)
        plain = self._delays(SupervisorPolicy(backoff_base=0.1,
                                              backoff_max=5.0,
                                              backoff_jitter=0.0),
                             (1, 3, 7))
        first = self._delays(policy, (1, 3, 7))
        assert first == self._delays(policy, (1, 3, 7))   # no RNG
        for base, jittered in zip(plain, first):
            assert base <= jittered <= min(5.0, base * 1.5)

    def test_cap_is_a_true_ceiling(self):
        """Jitter is applied before the cap: no retry ever waits longer
        than ``backoff_max`` (it used to reach 1.5x the cap)."""
        policy = SupervisorPolicy(backoff_base=0.1, backoff_max=5.0,
                                  backoff_jitter=0.5)
        delays = self._delays(policy, range(1, 16))
        assert max(delays) <= 5.0
        assert delays[-1] == 5.0

    def test_salt_decorrelates_chunks(self):
        policy = SupervisorPolicy(backoff_base=0.1, backoff_max=5.0)
        spread = {self._delays(policy, (4,), lo=8 * i)[0]
                  for i in range(8)}
        assert len(spread) > 1


# ----------------------------------------------------------------------
# equivalence on a healthy machine
# ----------------------------------------------------------------------
class TestSupervisedEquivalence:
    def test_supervised_serial_matches_serial(self, serial_reference):
        s_char, s_cov = serial_reference
        sup = Supervisor(SupervisorPolicy(chunk_windows=3))
        ctx = ExperimentContext(_TINY, jobs=1, supervisor=sup)
        _, characterization = ctx.campaign("mcf")
        coverage = ctx.coverage("mcf", "faulthound")
        assert characterization.characterization == s_char.characterization
        assert coverage.coverage_results == s_cov.coverage_results
        assert sup.status == "complete" and sup.exit_code == 0

    def test_jobs_3_classifies_in_process(self, serial_reference,
                                          tmp_path, monkeypatch):
        """``jobs`` sizes artefact-level fan-out only: a ``jobs=3``
        campaign classifies its windows in-process — no process pool,
        no checkpoint golden pass — and matches the serial reference."""
        import multiprocessing.pool
        from concurrent.futures import ProcessPoolExecutor

        def no_pool(self, *args, **kwargs):
            raise AssertionError("a process pool was constructed")

        monkeypatch.setattr(ProcessPoolExecutor, "__init__", no_pool)
        monkeypatch.setattr(multiprocessing.pool.Pool, "__init__", no_pool)
        s_char, s_cov = serial_reference
        sup = Supervisor(SupervisorPolicy(chunk_windows=3),
                         run_dir=tmp_path / "run")
        ctx = ExperimentContext(_TINY, jobs=3, supervisor=sup)
        _, characterization = ctx.campaign("mcf")
        coverage = ctx.coverage("mcf", "faulthound")
        sup.close()
        assert "checkpoint:golden_pass" not in ctx.events.span_seconds
        assert characterization.characterization == s_char.characterization
        assert coverage.coverage_results == s_cov.coverage_results
        assert sup.status == "complete" and sup.exit_code == 0
        # supervisor instrumentation reaches the throughput record
        assert characterization.throughput.retries == 0
        assert characterization.throughput.quarantined == 0
        records = list(CampaignJournal.read(tmp_path / "run"))
        types = [r["type"] for r in records]
        assert "plan" in types and "chunk_done" in types
        assert types.count("phase_done") == 2    # characterize + coverage

    def test_transient_crashes_retried_to_convergence(
            self, serial_reference, monkeypatch):
        """Chunks that fail transiently are retried (from their rewind
        clones) until every chunk lands; nobody is quarantined, results
        identical."""
        from repro.faults.classifier import TandemClassifier
        s_char, _ = serial_reference
        real_run = TandemClassifier.run
        attempts = {}

        def flaky(self, records, **kwargs):
            key = (records[0].index, len(records))
            attempts[key] = attempts.get(key, 0) + 1
            if attempts[key] <= 2:          # the first two attempts fail
                raise RuntimeError("injected transient failure")
            return real_run(self, records, **kwargs)

        monkeypatch.setattr(TandemClassifier, "run", flaky)
        sup = Supervisor(SupervisorPolicy(max_retries=3, chunk_windows=2,
                                          **_FAST_BACKOFF))
        ctx = ExperimentContext(_TINY, jobs=3, supervisor=sup)
        _, characterization = ctx.campaign("mcf")
        assert characterization.characterization == s_char.characterization
        assert sup.status == "complete"
        assert not sup.quarantined
        (report,) = sup.reports
        assert report.chunks_run == len(attempts)
        assert report.retries == 2 * report.chunks_run


# ----------------------------------------------------------------------
# serial backoff must not block dispatch
# ----------------------------------------------------------------------
class TestSerialBackoff:
    def test_ready_chunks_dispatch_while_one_backs_off(
            self, serial_reference, monkeypatch):
        """Regression: the serial path used to ``time.sleep`` through a
        failed chunk's whole backoff delay and then retry it at the
        front, so one flaky chunk stalled every ready chunk behind it.
        Now a backing-off chunk is skipped and revisited: the very next
        dispatch after the failure must be a *different* chunk, and the
        failed one still completes (from its rewind clone) later."""
        s_char, _ = serial_reference
        from repro.faults.classifier import TandemClassifier
        real_run = TandemClassifier.run
        calls, tripped = [], []

        def spy(self, records, **kwargs):
            calls.append(records[0].index)
            if records[0].index == 0 and not tripped:
                tripped.append(True)
                raise RuntimeError("injected transient failure")
            return real_run(self, records, **kwargs)

        monkeypatch.setattr(TandemClassifier, "run", spy)
        sup = Supervisor(SupervisorPolicy(max_retries=3, chunk_windows=3,
                                          backoff_base=0.75,
                                          backoff_max=1.0))
        ctx = ExperimentContext(_TINY, jobs=1, supervisor=sup)
        _, characterization = ctx.campaign("mcf")
        assert sup.status == "complete"
        assert not sup.quarantined
        assert characterization.characterization == s_char.characterization
        # first dispatch was chunk 0 and it failed; with 0 backing off
        # for >= 0.75 s the dispatcher moved on instead of sleeping
        assert calls[0] == 0
        assert calls[1] != 0, (
            "a chunk in backoff was retried immediately instead of "
            "letting ready chunks dispatch")
        assert 0 in calls[1:]       # ...and the chunk was revisited


# ----------------------------------------------------------------------
# poison-window quarantine
# ----------------------------------------------------------------------
class TestQuarantine:
    def test_poison_window_quarantined_alone(self, serial_reference,
                                             monkeypatch, tmp_path):
        """A deterministically failing window is bisected down and
        quarantined; its innocent chunk-mates all complete bit-for-bit."""
        from repro.faults.classifier import TandemClassifier
        s_char, _ = serial_reference
        poison = s_char.characterization[4].record.index
        real_run = TandemClassifier.run

        def poisoned(self, records, **kwargs):
            if any(record.index == poison for record in records):
                raise RuntimeError("injected deterministic poison")
            return real_run(self, records, **kwargs)

        monkeypatch.setattr(TandemClassifier, "run", poisoned)
        run_dir = tmp_path / "run"
        sup = Supervisor(SupervisorPolicy(max_retries=1, chunk_windows=3,
                                          **_FAST_BACKOFF),
                         run_dir=run_dir)
        ctx = ExperimentContext(_TINY, jobs=3, supervisor=sup)
        _, characterization = ctx.campaign("mcf")
        sup.close()
        assert sup.status == "complete-with-quarantine"
        assert sup.exit_code == EXIT_QUARANTINE
        assert [q.index for q in sup.quarantined] == [4]
        assert sup.quarantined[0].reason == "exception"
        expected = [w for i, w in enumerate(s_char.characterization)
                    if i != 4]
        assert characterization.characterization == expected
        assert characterization.quarantined == sup.quarantined
        assert characterization.throughput.quarantined == 1
        # the quarantine is journalled and in poisoned.jsonl
        poisoned_records = read_poisoned(run_dir)
        assert len(poisoned_records) == 1
        assert poisoned_records[0]["index"] == 4
        assert '"index": 4' in (run_dir / "poisoned.jsonl").read_text()
        summary = summarize_run_dir(run_dir)
        assert summary["poisoned"] == 1
        assert summary["poisoned_windows"][0]["index"] == 4

    def test_quarantined_phase_never_caches_partial_results(
            self, monkeypatch, tmp_path):
        """A phase that quarantined a window must not publish its
        reduced result to the artifact cache."""
        from repro.faults.classifier import TandemClassifier
        from repro.harness import ArtifactCache
        real_run = TandemClassifier.run

        def poisoned(self, records, **kwargs):
            if any(record.index == 0 for record in records):
                raise RuntimeError("injected deterministic poison")
            return real_run(self, records, **kwargs)

        monkeypatch.setattr(TandemClassifier, "run", poisoned)
        cache = ArtifactCache(tmp_path / "cache")
        sup = Supervisor(SupervisorPolicy(max_retries=1, chunk_windows=3,
                                          **_FAST_BACKOFF))
        ctx = ExperimentContext(_TINY, jobs=2, supervisor=sup,
                                cache=cache)
        _, characterization = ctx.campaign("mcf")
        assert sup.status == "complete-with-quarantine"
        assert [q.index for q in sup.quarantined] == [0]
        assert characterization.quarantined == sup.quarantined
        assert not list((tmp_path / "cache").rglob("characterize/*.pkl"))

    def test_prefetch_worker_quarantine_is_reported_not_cached(
            self, monkeypatch, tmp_path):
        """A window that poisons a prefetch worker's coverage phase is
        quarantined there; the parent context reports it through its own
        supervisor and never publishes the reduced phase to the cache."""
        from repro.faults.campaign import Campaign
        from repro.faults.classifier import TandemClassifier
        from repro.harness import ArtifactCache
        cache = ArtifactCache(tmp_path / "cache")
        sup = Supervisor(SupervisorPolicy(**_FAST_BACKOFF))
        ctx = ExperimentContext(_TINY, jobs=2, supervisor=sup, cache=cache)
        _, characterization = ctx.campaign("mcf")
        sdc = Campaign.sdc_records(characterization)
        assert sdc, "the tiny geometry must produce SDC faults"
        poison = sdc[0].index
        real_run = TandemClassifier.run

        def poisoned(self, records, **kwargs):
            if any(record.index == poison for record in records):
                raise RuntimeError("injected deterministic poison")
            return real_run(self, records, **kwargs)

        # patched before the prefetch pool forks, so workers inherit it;
        # two schemes make two tasks, so the fan-out really uses the pool
        monkeypatch.setattr(TandemClassifier, "run", poisoned)
        monkeypatch.setattr(_parallel, "_WORKER_CONTEXTS", {})
        schemes = ("faulthound", "pbfs")
        ctx.prefetch(coverage=schemes)
        assert [(q.phase, q.scheme, q.index) for q in sup.quarantined] == [
            ("coverage", scheme, 0) for scheme in schemes]
        assert sup.exit_code == EXIT_QUARANTINE
        for scheme in schemes:
            coverage = ctx.coverage("mcf", scheme)
            assert [q.index for q in coverage.quarantined] == [0]
            assert coverage.throughput.quarantined == 1
            assert len(coverage.coverage_results) == len(sdc) - 1
        assert list((tmp_path / "cache").rglob("characterize/*.pkl"))
        assert not list((tmp_path / "cache").rglob("coverage/*.pkl"))


# ----------------------------------------------------------------------
# drain / abort
# ----------------------------------------------------------------------
class TestDrain:
    def test_drain_aborts_with_resume_hint(self, tmp_path):
        run_dir = tmp_path / "run"
        sup = Supervisor(SupervisorPolicy(chunk_windows=3),
                         run_dir=run_dir)
        sup.request_drain()
        ctx = ExperimentContext(_TINY, jobs=1, supervisor=sup)
        with pytest.raises(CampaignAborted) as excinfo:
            ctx.campaign("mcf")
        sup.close()
        assert sup.status == "aborted"
        assert sup.exit_code == EXIT_ABORTED
        assert "repro resume" in str(excinfo.value)

    def test_graceful_handler_requests_drain(self):
        before = signal.getsignal(signal.SIGTERM)
        sup = Supervisor(SupervisorPolicy())
        with sup.graceful():
            os.kill(os.getpid(), signal.SIGTERM)
            # the handler runs synchronously on the main thread
            assert sup.drain
        # original disposition restored on exit
        assert signal.getsignal(signal.SIGTERM) == before


# ----------------------------------------------------------------------
# journal
# ----------------------------------------------------------------------
class TestJournal:
    def test_truncated_tail_is_noted(self, tmp_path):
        """A torn final line (writer SIGKILLed mid-append) is surfaced
        as a synthetic ``truncated_tail`` record — visible to audits,
        ignored by resume's replay — instead of being silently dropped
        or failing the read."""
        journal = CampaignJournal(tmp_path)
        journal.append({"type": "plan", "chunks": 4})
        journal.append({"type": "chunk_done", "key": "k", "lo": 0,
                        "hi": 3, "windows": 3, "attempt": 1})
        journal.close()
        torn = '{"type": "chunk_done", "key": "trunc'
        with open(tmp_path / "journal.jsonl", "a") as handle:
            handle.write(torn)
        records = list(CampaignJournal.read(tmp_path))
        assert [r["type"] for r in records] == [
            "plan", "chunk_done", "truncated_tail"]
        note = records[-1]
        assert note["line"] == 3
        assert note["bytes"] == len(torn.encode("utf-8"))

    def test_interior_corruption_is_loud(self, tmp_path):
        """Garbage *before* the final line is real corruption, not a
        torn append — the read fails with the offending line number."""
        journal = CampaignJournal(tmp_path)
        journal.append({"type": "plan", "chunks": 4})
        journal.close()
        with open(tmp_path / "journal.jsonl", "a") as handle:
            handle.write("not json at all\n")
            handle.write('{"type": "chunk_done", "key": "k"}\n')
        with pytest.raises(ValueError, match="journal.jsonl:2"):
            CampaignJournal.read(tmp_path)

    def test_resume_survives_torn_tail(self, serial_reference, tmp_path):
        """End to end: a journal whose writer died mid-append still
        resumes, adopts every complete chunk_done, and converges to the
        serial reference bit-for-bit."""
        s_char, _ = serial_reference
        run_dir = tmp_path / "run"
        policy = SupervisorPolicy(chunk_windows=3)
        first = Supervisor(policy, run_dir=run_dir)
        ctx = ExperimentContext(_TINY, jobs=2, supervisor=first)
        ctx.campaign("mcf")
        first.close()
        # tear the tail the way a SIGKILL mid-append would
        with open(run_dir / "journal.jsonl", "a") as handle:
            handle.write('{"type": "chunk_done", "key": "torn", "lo"')
        second = Supervisor(policy, run_dir=run_dir)
        ctx2 = ExperimentContext(_TINY, jobs=2, supervisor=second)
        _, characterization = ctx2.campaign("mcf")
        second.close()
        assert characterization.characterization == s_char.characterization
        assert sum(r.chunks_resumed for r in second.reports) > 0

    def test_resume_skips_journalled_chunks(self, serial_reference,
                                            tmp_path):
        """Re-running a completed campaign in the same run dir adopts
        every chunk from the journal and recomputes nothing."""
        s_char, s_cov = serial_reference
        run_dir = tmp_path / "run"
        policy = SupervisorPolicy(chunk_windows=3)
        first = Supervisor(policy, run_dir=run_dir)
        ctx = ExperimentContext(_TINY, jobs=2, supervisor=first)
        ctx.campaign("mcf")
        ctx.coverage("mcf", "faulthound")
        first.close()

        second = Supervisor(policy, run_dir=run_dir)
        ctx2 = ExperimentContext(_TINY, jobs=2, supervisor=second)
        _, characterization = ctx2.campaign("mcf")
        coverage = ctx2.coverage("mcf", "faulthound")
        second.close()
        assert characterization.characterization == s_char.characterization
        assert coverage.coverage_results == s_cov.coverage_results
        assert all(r.chunks_run == 0 for r in second.reports)
        assert sum(r.chunks_resumed for r in second.reports) > 0


# ----------------------------------------------------------------------
# SIGKILL + resume, end to end via the CLI
# ----------------------------------------------------------------------
def _campaign_argv(run_dir, jobs):
    return [sys.executable, "-m", "repro.cli", "campaign", "mcf",
            "--scheme", "faulthound", "--faults", "10",
            "--jobs", str(jobs), "--no-cache", "--run-dir", str(run_dir)]


def _cli_env():
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


@pytest.mark.slow
@pytest.mark.timeout(300)
@pytest.mark.parametrize("jobs", [1, 4])
def test_sigkill_then_resume_is_bit_for_bit(tmp_path, jobs):
    env = _cli_env()
    ref_dir = tmp_path / "ref"
    reference = subprocess.run(_campaign_argv(ref_dir, jobs), env=env,
                               capture_output=True, text=True, timeout=240)
    assert reference.returncode == 0, reference.stderr

    int_dir = tmp_path / "interrupted"
    victim = subprocess.Popen(_campaign_argv(int_dir, jobs), env=env,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL,
                              start_new_session=True)
    journal = int_dir / "journal.jsonl"
    deadline = time.monotonic() + 120
    try:
        while time.monotonic() < deadline:
            if victim.poll() is not None:
                break
            if journal.exists() and "chunk_done" in journal.read_text():
                break
            time.sleep(0.05)
        assert victim.poll() is None, "campaign finished before the kill"
    finally:
        try:
            os.killpg(victim.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        victim.wait(timeout=30)

    resumed = subprocess.run(
        [sys.executable, "-m", "repro.cli", "resume", str(int_dir)],
        env=env, capture_output=True, text=True, timeout=240)
    assert resumed.returncode == 0, resumed.stderr
    assert resumed.stdout == reference.stdout
    records = list(CampaignJournal.read(int_dir))
    assert any(r["type"] == "resume" for r in records)


@pytest.mark.slow
@pytest.mark.timeout(300)
def test_sigkill_then_resume_cache_warm(tmp_path):
    """Resume equivalence with a warm artifact cache: chunk adoption and
    cache hits must not double-apply."""
    env = _cli_env()
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    # drop --no-cache everywhere so the artifact cache actually warms up
    argv = [a for a in _campaign_argv(tmp_path / "warm", 2)
            if a != "--no-cache"]
    warm = subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=240)
    assert warm.returncode == 0, warm.stderr
    argv = [a for a in _campaign_argv(tmp_path / "ref", 2)
            if a != "--no-cache"]
    reference = subprocess.run(argv, env=env, capture_output=True,
                               text=True, timeout=240)
    assert reference.returncode == 0, reference.stderr

    int_dir = tmp_path / "interrupted"
    argv = [a for a in _campaign_argv(int_dir, 2) if a != "--no-cache"]
    victim = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL,
                              start_new_session=True)
    time.sleep(0.3)
    try:
        os.killpg(victim.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    victim.wait(timeout=30)

    resumed = subprocess.run(
        [sys.executable, "-m", "repro.cli", "resume", str(int_dir)],
        env=env, capture_output=True, text=True, timeout=240)
    if not (int_dir / "campaign.json").exists():
        # the kill can land before the manifest write; then there is
        # nothing to resume and the CLI must say so
        assert resumed.returncode == 1
        assert "campaign.json" in resumed.stderr
        return
    assert resumed.returncode == 0, resumed.stderr
    assert resumed.stdout == reference.stdout
