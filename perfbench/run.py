"""End-to-end benchmark of the FaultHound reproduction.

    python3 perfbench/run.py --workload {campaign,faultfree,journaled}
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout: the program is built from ``src/``
there (``repro`` is pure Python, so building is importing it). One
closed-loop driver process, this one, plays a researcher who issues the
next command when the previous one returns. Each workload:

1. derives its inputs from ``--seed``;
2. computes the serial reference outputs (``--jobs 1 --batch-lanes 1``)
   outside timing, a few processes at a time;
3. runs one untimed warm-up task;
4. measures whole passes over the 14 profiles until ``--seconds`` is
   spent (at least one pass), each pass with its own empty artifact
   cache and run directories;
5. checks every output against the reference and prints one JSON
   object as the last line of stdout.

With ``--trace 1`` it measures one untraced and one traced pass and
reports the per-layer metrics of the traced one plus the tracing
overhead. Results also go to ``.bench_build/perfbench/``. README.md
beside this file describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import pathlib
import re
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import probe  # noqa: E402
import stats  # noqa: E402
from launch import READY_ENV  # noqa: E402

WORKLOADS = ("campaign", "faultfree", "journaled")
#: Faults injected per profile by every campaign task.
CAMPAIGN_FAULTS = 8
#: Committed instructions per thread in each fault-free run.
FAULTFREE_TARGET = 1_200
#: Longest a single task process may run before it counts as failed.
TASK_TIMEOUT_S = 120
#: The whole run stops here, finished or not, so that it stays within
#: the 180 s a benchmark run may take.
RUN_DEADLINE_S = 170
END_TO_END = ("wall_s", "setup_s", "cpu_s", "peak_rss_mb")
UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
         "task_s": "s", "windows_per_s": "1/s", "sim_kips": "kinstr/s",
         "failed_frac": "fraction"}


PR_SET_CHILD_SUBREAPER = 36


class RunTimeout(Exception):
    pass


# ----------------------------------------------------------------------
# task processes
# ----------------------------------------------------------------------
@dataclass
class Invocation:
    """One task process: what ran, and what it did."""

    label: str
    argv: List[str]
    #: the reference output this invocation must reproduce
    key: str = ""
    probe_dir: Optional[pathlib.Path] = None
    rows_path: Optional[pathlib.Path] = None
    cold: bool = True
    returncode: int = -1
    latency: float = 0.0
    cpu: float = 0.0
    maxrss_kb: int = 0
    stdout: bytes = b""
    stderr: bytes = b""


class Children:
    """Spawns task processes in their own process groups and reaps them
    with their resource usage. The driver is a child subreaper, so pool
    workers a task leaves behind are re-parented here, reaped, and
    their CPU time charged to the task that forked them."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        #: process groups that may still hold a live process
        self.groups: set = set()
        try:
            prctl = ctypes.CDLL(None, use_errno=True).prctl
            prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
            prctl.restype = ctypes.c_int
            prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
        except (OSError, AttributeError):
            pass    # orphaned workers then go to init, uncounted
        signal.signal(signal.SIGALRM, self._on_alarm)

    @staticmethod
    def _on_alarm(signum, frame):
        raise RunTimeout()

    def spawn(self, inv: Invocation, env: Dict[str, str],
              outdir: pathlib.Path) -> int:
        out, err = outdir / f"{inv.label}.out", outdir / f"{inv.label}.err"
        env = dict(env)
        env[READY_ENV] = repr(time.monotonic())
        argv = [sys.executable, str(HERE / "launch.py"), *inv.argv]
        pid = os.posix_spawn(sys.executable, argv, env, file_actions=[
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, str(out),
             os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(err),
             os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)],
            setpgroup=0)
        self.groups.add(pid)
        return pid

    def reap(self, wanted: Sequence[int]):
        """Block until one of *wanted* exits; returns (pid, status,
        rusage, orphan CPU seconds reaped meanwhile)."""
        orphan_cpu = 0.0
        while True:
            pid, status, usage = self._wait(0)
            if pid in wanted:
                return pid, status, usage, orphan_cpu
            orphan_cpu += usage.ru_utime + usage.ru_stime

    def drain(self) -> float:
        """Reap every remaining descendant; returns their CPU seconds."""
        cpu = 0.0
        while True:
            try:
                pid, status, usage = self._wait(os.WNOHANG)
            except ChildProcessError:
                self.groups.clear()
                return cpu
            if pid == 0:
                pid, status, usage = self._wait(0)
            cpu += usage.ru_utime + usage.ru_stime

    def _wait(self, flags: int):
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RunTimeout()
        signal.setitimer(signal.ITIMER_REAL, min(remaining, TASK_TIMEOUT_S))
        try:
            return os.wait4(-1, flags)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)

    def kill_all(self) -> None:
        for group in self.groups:
            try:
                os.killpg(group, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
        while True:
            try:
                os.wait4(-1, 0)
            except ChildProcessError:
                return


def run_one(children: Children, inv: Invocation, env: Dict[str, str],
            outdir: pathlib.Path) -> Invocation:
    started = time.monotonic()
    pid = children.spawn(inv, env, outdir)
    _, status, usage, orphans = children.reap([pid])
    inv.latency = time.monotonic() - started
    inv.returncode = os.waitstatus_to_exitcode(status)
    orphans += children.drain()
    inv.cpu = usage.ru_utime + usage.ru_stime + orphans
    inv.maxrss_kb = usage.ru_maxrss
    return inv


def run_concurrently(children: Children, invs: Sequence[Invocation],
                     env: Dict[str, str], outdir: pathlib.Path,
                     width: int) -> None:
    """Run *invs* with at most *width* at a time (outside timing)."""
    queue = list(invs)
    running: Dict[int, Invocation] = {}
    while queue or running:
        while queue and len(running) < width:
            inv = queue.pop(0)
            running[children.spawn(inv, env, outdir)] = inv
        pid, status, _usage, _ = children.reap(list(running))
        running.pop(pid).returncode = os.waitstatus_to_exitcode(status)
    children.drain()


def collect_output(inv: Invocation, outdir: pathlib.Path) -> None:
    inv.stdout = (outdir / f"{inv.label}.out").read_bytes()
    inv.stderr = (outdir / f"{inv.label}.err").read_bytes()


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
def campaign_tasks(seed: int, no_cache: bool) -> List[Dict[str, Any]]:
    """The 14-profile sweep of ``campaign.src.json``, compiled by the
    program's own spec compiler with the benchmark seed."""
    from repro.harness.spec import compile_spec
    src = json.loads((HERE / "campaign.src.json").read_text())
    src["defaults"].update(seed=seed, no_cache=no_cache,
                           faults=CAMPAIGN_FAULTS)
    return compile_spec(src)["tasks"]


@dataclass
class Workload:
    name: str
    seed: int
    #: worker count forced on every timed task; None keeps the defaults
    jobs: Optional[int] = None
    references: Dict[str, Any] = field(default_factory=dict)

    # -- the tasks of one pass -----------------------------------------
    def _faultfree(self, label: str, rows: pathlib.Path,
                   jobs: Optional[int], benchmarks=()) -> Invocation:
        argv = ["faultfree", "--seed", str(self.seed),
                "--dynamic-target", str(FAULTFREE_TARGET),
                "--rows", str(rows)]
        if jobs:
            argv += ["--jobs", str(jobs)]
        if benchmarks:
            argv += ["--benchmarks", ",".join(benchmarks)]
        return Invocation(label, argv, rows_path=rows)

    def pass_invocations(self, pass_dir: pathlib.Path) -> List[Invocation]:
        from repro.harness.spec import task_argv
        if self.name == "faultfree":
            return [self._faultfree("faultfree", pass_dir / "rows.json",
                                    self.jobs)]
        if self.name == "campaign":
            return [Invocation(t["benchmark"],
                               ["cli", *task_argv(t, jobs=self.jobs)],
                               key=t["benchmark"])
                    for t in campaign_tasks(self.seed, no_cache=True)]
        invs = []
        for t in campaign_tasks(self.seed, no_cache=False):
            for half in ("cold", "warm"):
                run_dir = pass_dir / f"run-{t['benchmark']}-{half}"
                invs.append(Invocation(
                    f"{t['benchmark']}-{half}",
                    ["cli", *task_argv(t, run_dir=run_dir,
                                       jobs=self.jobs)],
                    key=t["benchmark"], cold=half == "cold"))
        return invs

    def reference_invocations(self, ref_dir: pathlib.Path,
                              width: int) -> List[Invocation]:
        from repro.harness.spec import task_argv
        if self.name == "faultfree":
            from repro.workloads import PROFILES
            names = list(PROFILES)
            groups = [names[i::width] for i in range(width)]
            return [self._faultfree(f"ref-{i}", ref_dir / f"ref-{i}.json",
                                    1, group)
                    for i, group in enumerate(groups) if group]
        return [Invocation(f"ref-{t['benchmark']}", [
            "cli", *task_argv(dict(t, batch_lanes=1), jobs=1)],
            key=t["benchmark"])
            for t in campaign_tasks(self.seed, no_cache=True)]

    def warmup_invocations(self, pass_dir: pathlib.Path) -> List[Invocation]:
        """The first task of a pass, run once untimed so bytecode
        compilation and the page cache are warm."""
        if self.name != "faultfree":
            return self.pass_invocations(pass_dir)[
                :2 if self.name == "journaled" else 1]
        from repro.workloads import PROFILES
        return [self._faultfree("warmup", pass_dir / "warm.json",
                                self.jobs, [next(iter(PROFILES))])]

    # -- reference outputs ---------------------------------------------
    def adopt_references(self, invs: Sequence[Invocation],
                         ref_dir: pathlib.Path) -> None:
        for inv in invs:
            collect_output(inv, ref_dir)
            if inv.returncode != 0:
                raise SystemExit(f"reference {inv.label} exited "
                                 f"{inv.returncode}:\n"
                                 f"{inv.stderr.decode()[-2000:]}")
            if self.name == "faultfree":
                self.references.update(
                    json.loads(inv.rows_path.read_text()))
            else:
                self.references[inv.key] = inv.stdout

    # -- checks --------------------------------------------------------
    def failed(self, inv: Invocation) -> bool:
        """Nonzero exit, a quarantined window, or output unequal to the
        serial reference."""
        if inv.returncode != 0 or b"quarantined" in inv.stderr:
            return True
        if self.name == "faultfree":
            try:
                rows = json.loads(inv.rows_path.read_text())
            except (OSError, ValueError):
                return True
            return rows != self.references
        return inv.stdout != self.references[inv.key]

    def windows(self, inv: Invocation) -> int:
        """Fault windows the invocation classified, counted from the
        reference stdout: every injected fault in the characterisation
        phase, then every SDC fault in the coverage phase. A warm
        journaled run reloads them from the cache and classifies none."""
        if self.name == "faultfree" or not inv.cold:
            return 0
        sdc = re.search(rb"vs (\d+) SDC faults", self.references[inv.key])
        return CAMPAIGN_FAULTS + int(sdc.group(1))

    def committed(self, inv: Invocation) -> int:
        """Simulated committed instructions of a fault-free pass."""
        if self.name != "faultfree":
            return 0
        return sum(run["committed"] for profile in self.references.values()
                   for scheme, run in profile.items()
                   if scheme not in ("fig9", "fig10"))


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------
@dataclass
class Pass:
    wall: float
    invocations: List[Invocation]
    records: List[Dict[str, Any]]
    setup: float = 0.0
    cpu: float = 0.0
    peak_rss_mb: float = 0.0
    windows: int = 0
    committed: int = 0
    failed: int = 0


def run_pass(children: Children, workload: Workload,
             pass_dir: pathlib.Path, base_env: Dict[str, str],
             mode: str) -> Pass:
    """One closed-loop pass: every task in order, each started when the
    previous one has returned."""
    pass_dir.mkdir(parents=True)
    (pass_dir / "cache").mkdir()
    invs = workload.pass_invocations(pass_dir)
    envs = []
    for inv in invs:
        inv.probe_dir = pass_dir / "probe" / inv.label
        inv.probe_dir.mkdir(parents=True)
        envs.append(dict(base_env,
                         REPRO_CACHE_DIR=str(pass_dir / "cache"),
                         **{probe.DIR_ENV: str(inv.probe_dir),
                            probe.MODE_ENV: mode}))
    started = time.monotonic()
    for inv, env in zip(invs, envs):
        run_one(children, inv, env, pass_dir)
    wall = time.monotonic() - started

    records = []
    result = Pass(wall=wall, invocations=invs, records=records)
    for inv in invs:
        collect_output(inv, pass_dir)
        own = stats.load_records(inv.probe_dir)
        records.extend(own)
        result.setup += stats.setup_seconds(stats.merge_records(own))
        result.cpu += inv.cpu
        result.peak_rss_mb = max(result.peak_rss_mb, inv.maxrss_kb / 1024)
        result.windows += workload.windows(inv)
        result.committed += workload.committed(inv)
        if workload.failed(inv):
            result.failed += 1
            print(f"FAILED {inv.label}: exit {inv.returncode}\n"
                  f"{inv.stderr.decode(errors='replace')[-1500:]}",
                  file=sys.stderr)
    return result


def pass_metrics(passes: Sequence[Pass]) -> Dict[str, Dict[str, Any]]:
    """Every end-to-end metric with its median, tail and sample count."""
    samples = {
        "wall_s": [p.wall for p in passes],
        "setup_s": [p.setup for p in passes],
        "cpu_s": [p.cpu for p in passes],
        "peak_rss_mb": [p.peak_rss_mb for p in passes],
        "task_s": [inv.latency for p in passes for inv in p.invocations],
        "failed_frac": [p.failed / len(p.invocations) for p in passes],
    }
    if passes[0].windows:
        samples["windows_per_s"] = [p.windows / p.wall for p in passes]
    if passes[0].committed:
        samples["sim_kips"] = [p.committed / p.wall / 1e3 for p in passes]
    return {name: dict(stats.summarize(values), unit=UNITS[name])
            for name, values in samples.items()}


def print_table(title: str, metrics: Dict[str, Dict[str, Any]]) -> None:
    print(title)
    for name, m in metrics.items():
        tail = (f"p{m['tail_p']:g} {m['tail']:.4f}" if m["tail_p"]
                else "tail n/a (<20 samples)")
        print(f"  {name:14s} median {m['median']:.4f} {m['unit']:9s} "
              f"{tail}  n={m['n']}")


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int, default=None,
                        help="force this worker count on every timed "
                             "task (informational comparisons only; "
                             "the benchmark proper uses the defaults)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    root = pathlib.Path.cwd()
    src = root / "src"
    if not (src / "repro" / "cli.py").is_file():
        print(f"error: no program to benchmark: {src}/repro/cli.py is "
              f"missing (run from the root of a checkout)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    out_dir = root / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    tmp = pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=out_dir))
    base_env = dict(os.environ)
    base_env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([os.environ["PYTHONPATH"]]
                      if os.environ.get("PYTHONPATH") else []))
    children = Children(started + RUN_DEADLINE_S)
    try:
        return _measure(args, children, tmp, out_dir, base_env, started)
    except RunTimeout:
        print("error: run deadline exceeded", file=sys.stderr)
        return 3
    finally:
        children.kill_all()
        shutil.rmtree(tmp, ignore_errors=True)


def _measure(args, children: Children, tmp: pathlib.Path,
             out_dir: pathlib.Path, base_env: Dict[str, str],
             started: float) -> int:
    workload = Workload(args.workload, args.seed, jobs=args.jobs)
    width = max(1, min(4, len(os.sched_getaffinity(0))))

    ref_dir = tmp / "reference"
    ref_dir.mkdir()
    refs = workload.reference_invocations(ref_dir, width)
    ref_env = dict(base_env, REPRO_CACHE_DIR=str(ref_dir / "cache"))
    run_concurrently(children, refs, ref_env, ref_dir, width)
    workload.adopt_references(refs, ref_dir)

    warm_dir = tmp / "warmup"
    warm_dir.mkdir()
    warm_env = dict(base_env, REPRO_CACHE_DIR=str(warm_dir / "cache"))
    for inv in workload.warmup_invocations(warm_dir):
        run_one(children, inv, warm_env, warm_dir)
        if inv.returncode != 0:
            collect_output(inv, warm_dir)
            print(f"error: warm-up {inv.label} exited {inv.returncode}:\n"
                  f"{inv.stderr.decode(errors='replace')[-2000:]}",
                  file=sys.stderr)
            return 1
    setup_done = time.monotonic()

    passes: List[Pass] = []
    traced: Optional[Pass] = None
    if args.trace:
        passes.append(run_pass(children, workload, tmp / "pass-0",
                               base_env, "setup"))
        traced = run_pass(children, workload, tmp / "pass-traced",
                          base_env, "trace")
    else:
        while True:
            passes.append(run_pass(children, workload,
                                   tmp / f"pass-{len(passes)}", base_env,
                                   "setup"))
            spent = time.monotonic() - setup_done
            typical = statistics.median(p.wall for p in passes)
            if spent + typical > args.seconds:
                break

    everything = passes + ([traced] if traced else [])
    attempted = sum(len(p.invocations) for p in everything)
    failed = sum(p.failed for p in everything)
    summary = pass_metrics(passes)
    document: Dict[str, Any] = {
        "workload": args.workload, "seed": args.seed, "jobs": args.jobs,
        "seconds": args.seconds, "passes": len(passes),
        "attempted": attempted, "failed": failed,
        "reference_and_warmup_s": setup_done - started,
        "end_to_end": summary}
    print_table(f"{args.workload} seed {args.seed}: {len(passes)} "
                f"pass(es), {attempted} task(s), {failed} failed",
                summary)
    if traced is not None:
        merged = stats.merge_records(traced.records)
        layers = stats.layer_metrics(merged)
        layers["trace.overhead_s"] = traced.wall - passes[0].wall
        layers["trace.overhead_frac"] = layers["trace.overhead_s"] / \
            passes[0].wall
        layers["trace.wall_s"] = traced.wall
        document["per_layer"] = layers
        metrics = {name: {"value": value, "unit": stats.layer_unit(name)}
                   for name, value in layers.items()}
        suffix = "-trace"
    else:
        metrics = {name: {"value": summary[name]["median"],
                          "unit": summary[name]["unit"]}
                   for name in END_TO_END}
        suffix = ""
    if args.jobs:
        suffix = f"-jobs{args.jobs}{suffix}"
    (out_dir / f"{args.workload}-seed{args.seed}{suffix}.json").write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
