"""One benchmark task process.

    python3 perfbench/launch.py cli <repro argv...>
    python3 perfbench/launch.py faultfree --rows OUT.json --seed S
        --dynamic-target N [--jobs J] [--benchmarks a,b,...]

``cli`` runs ``repro.cli.main(argv)`` exactly as the ``repro`` console
script would, so stdout and the exit code are the user's. ``faultfree``
regenerates Figures 9 and 10 through ``ExperimentContext`` with no
artifact cache and writes every fault-free row to ``--rows`` for the
correctness check; the benchmark seed re-seeds each profile's layout.

The driver passes its clock reading at spawn in ``PERFBENCH_SPAWN_T``
and the probe settings (see ``probe.py``) in the environment; this
process records how long it took from spawn to ready (interpreter
start plus ``repro`` import) and the import alone.
"""

from __future__ import annotations

import os
import sys
import time
import zlib

READY_ENV = "PERFBENCH_SPAWN_T"

_entered = time.monotonic()

import probe  # noqa: E402  (the benchmark's own module, beside this file)


def _ready(import_started: float) -> None:
    now = time.monotonic()
    spawned = float(os.environ.get(READY_ENV, _entered))
    probe.count("launch.ready_s", now - spawned)
    probe.count("cli.import_s", now - import_started)


def layout_seed(name: str, seed: int) -> int:
    """The layout seed a profile gets under benchmark seed *seed*."""
    return zlib.crc32(f"{name}:{seed}".encode()) & 0xFFFF


def _faultfree(argv) -> int:
    import argparse
    import dataclasses
    import json
    parser = argparse.ArgumentParser(prog="launch.py faultfree")
    parser.add_argument("--rows", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dynamic-target", type=int, required=True)
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--benchmarks", default=None)
    args = parser.parse_args(argv)

    import_started = time.monotonic()
    from repro.harness import ExperimentConfig, ExperimentContext, figures
    from repro.workloads import PROFILES
    _ready(import_started)
    probe.install_from_env()

    for name, profile in list(PROFILES.items()):
        PROFILES[name] = dataclasses.replace(
            profile, seed=layout_seed(name, args.seed))
    names = (tuple(args.benchmarks.split(",")) if args.benchmarks
             else tuple(PROFILES))
    cfg = ExperimentConfig(benchmarks=names,
                           dynamic_target=args.dynamic_target)
    ctx = ExperimentContext(cfg, jobs=args.jobs, cache=None)
    fig9 = figures.fig9(ctx)
    fig10 = figures.fig10(ctx)

    def row(run):
        return {"cycles": run.cycles, "committed": run.committed,
                "fp_rate": run.fp_rate,
                "energy_pj": dataclasses.asdict(run.energy)}

    rows = {}
    for name in names:
        rows[name] = {scheme: row(ctx.fault_free(name, scheme))
                      for scheme in ("baseline",) + figures.FIG9_SCHEMES}
        rows[name]["srt-iso"] = row(ctx.srt_run(name))
        rows[name]["fig9"] = fig9["rows"][name]
        rows[name]["fig10"] = fig10["rows"][name]
    with open(args.rows, "w", encoding="utf-8") as handle:
        json.dump(rows, handle, sort_keys=True)
    return 0


def _cli(argv) -> int:
    import_started = time.monotonic()
    import repro.cli
    _ready(import_started)
    probe.install_from_env()
    return repro.cli.main(argv)


def main(argv) -> int:
    mode, rest = argv[0], argv[1:]
    try:
        return {"cli": _cli, "faultfree": _faultfree}[mode](rest)
    finally:
        sys.stdout.flush()
        probe.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
