"""Shared fixtures for the figure-regeneration benchmarks.

One :class:`ExperimentContext` is shared across the whole benchmark
session so the expensive artefacts (programs, fault-free runs, injection
campaigns) are computed once and reused by every figure.

Scale is controlled by the ``REPRO_SCALE`` environment variable:

- ``quick``   — a 4-benchmark smoke subset, minutes of wall clock;
- ``default`` — all 14 benchmarks at laptop scale (the shipped results);
- ``full``    — larger fault counts and longer runs (closer to the paper;
  expect a long wall-clock).

Execution is controlled by two more environment variables:

- ``REPRO_JOBS``     — worker processes for figure fan-out across
  benchmarks and schemes (default: all CPUs; 1 = the serial path);
- ``REPRO_NO_CACHE`` — when set (non-empty), skip the persistent artifact
  cache under ``benchmarks/.cache/`` and recompute everything;
- ``REPRO_EVENTS``   — when set, stream the structured JSONL event log
  (``repro.obs``) of the whole benchmark session to this path.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.harness import ArtifactCache, ExperimentConfig, ExperimentContext
from repro.obs import (EventLog, NULL_LOG, build_manifest,
                       manifest_path_for, write_manifest)

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

_SCALES = {
    "quick": ExperimentConfig(
        benchmarks=("bzip2", "mcf", "gamess", "apache"),
        dynamic_target=5_000, num_faults=24,
        warmup_commits=300, window_commits=120),
    "default": ExperimentConfig(
        dynamic_target=20_000, num_faults=120,
        warmup_commits=400, window_commits=150),
    "full": ExperimentConfig(
        dynamic_target=40_000, num_faults=250,
        warmup_commits=1_000, window_commits=300),
}


def _scale() -> ExperimentConfig:
    name = os.environ.get("REPRO_SCALE", "default")
    try:
        return _SCALES[name]
    except KeyError:
        raise RuntimeError(
            f"REPRO_SCALE={name!r}; choose from {sorted(_SCALES)}") from None


def _jobs():
    value = os.environ.get("REPRO_JOBS", "").strip()
    return int(value) if value else None


def _cache():
    if os.environ.get("REPRO_NO_CACHE"):
        return None
    return ArtifactCache(RESULTS_DIR.parent / ".cache")


def _events():
    path = os.environ.get("REPRO_EVENTS", "").strip()
    return EventLog(path) if path else NULL_LOG


@pytest.fixture(scope="session")
def ctx() -> ExperimentContext:
    events = _events()
    context = ExperimentContext(_scale(), jobs=_jobs(), cache=_cache(),
                                events=events)
    yield context
    if events.enabled:
        events.close()
        write_manifest(manifest_path_for(events.path),
                       context.run_manifest())
    print(f"\n[repro] {context.summary()}")


@pytest.fixture(scope="session")
def record_figure(ctx):
    """Persist a figure's rendered text (and, when given, its structured
    payload as JSON) under benchmarks/results/, echoing the text so
    ``pytest -s`` shows the series inline. A provenance manifest lands
    next to each figure."""
    from repro.harness.store import ResultStore

    RESULTS_DIR.mkdir(exist_ok=True)
    store = ResultStore(RESULTS_DIR)

    def _record(name: str, text: str, payload=None) -> None:
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        if payload is not None:
            slim = {k: v for k, v in payload.items()
                    if k not in ("text", "fractions")}
            store.save(name, slim, config=_scale())
        write_manifest(
            manifest_path_for(RESULTS_DIR / f"{name}.txt"),
            build_manifest("figure", ctx.cfg, ctx.hw,
                           parts={"name": name}, jobs=ctx.jobs))
        print(f"\n{text}\n")

    return _record
