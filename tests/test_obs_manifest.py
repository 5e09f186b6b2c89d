"""Run-manifest tests: round-trip, digest verification, cache provenance."""

import json

from repro.config import HardwareConfig
from repro.harness.cache import ArtifactCache
from repro.harness.experiment import ExperimentConfig, ExperimentContext
from repro.obs import (build_manifest, config_digest, load_manifest,
                       manifest_path_for, verify_manifest, write_manifest)

_TINY = ExperimentConfig(benchmarks=("mcf",), dynamic_target=3_000,
                         num_faults=10, warmup_commits=200,
                         window_commits=100)


class TestManifestRoundTrip:
    def test_write_load_verify(self, tmp_path):
        cfg, hw = ExperimentConfig(), HardwareConfig()
        manifest = build_manifest("fault_free", cfg, hw,
                                  parts={"benchmark": "mcf"},
                                  key="abc123", jobs=4,
                                  phase_seconds={"fault_free": 1.25})
        path = tmp_path / "artifact.manifest.json"
        assert write_manifest(path, manifest)
        loaded = load_manifest(path)
        assert loaded.kind == "fault_free"
        assert loaded.key == "abc123"
        assert loaded.jobs == 4
        assert loaded.parts == {"benchmark": "mcf"}
        assert loaded.phase_seconds == {"fault_free": 1.25}
        # self-verification and live-config verification both pass
        assert verify_manifest(loaded) == []
        assert verify_manifest(loaded, cfg, hw) == []

    def test_digest_is_config_sensitive(self):
        hw = HardwareConfig()
        assert (config_digest(ExperimentConfig(), hw)
                != config_digest(ExperimentConfig().quick(), hw))

    def test_tampered_config_is_detected(self, tmp_path):
        cfg, hw = ExperimentConfig(), HardwareConfig()
        path = tmp_path / "m.manifest.json"
        write_manifest(path, build_manifest("srt", cfg, hw))
        document = json.loads(path.read_text())
        document["config"]["num_faults"] = 999_999
        path.write_text(json.dumps(document))
        errors = verify_manifest(load_manifest(path))
        assert any("digest mismatch" in e for e in errors)

    def test_wrong_live_config_is_detected(self):
        hw = HardwareConfig()
        manifest = build_manifest("srt", ExperimentConfig(), hw)
        errors = verify_manifest(manifest, ExperimentConfig().quick(), hw)
        assert any("does not describe" in e for e in errors)

    def test_manifest_path_convention(self, tmp_path):
        assert str(manifest_path_for(tmp_path / "ab12.pkl")).endswith(
            "ab12.manifest.json")
        assert str(manifest_path_for(tmp_path / "fig8.txt")).endswith(
            "fig8.txt.manifest.json")
        assert str(manifest_path_for(tmp_path / "events.jsonl")).endswith(
            "events.jsonl.manifest.json")


class TestCacheProvenance:
    def test_manifest_written_next_to_every_artifact(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        ctx = ExperimentContext(_TINY, jobs=1, cache=cache)
        ctx.fault_free("mcf", "baseline")
        manifests = list(tmp_path.rglob("*.manifest.json"))
        assert len(manifests) == 1
        manifest = load_manifest(manifests[0])
        assert manifest.kind == "fault_free"
        assert manifest.parts == {"benchmark": "mcf", "scheme": "baseline"}
        # the manifest proves the artefact belongs to this configuration
        assert verify_manifest(manifest, ctx.cfg, ctx.hw) == []
        # and sits next to the pickle it describes
        pickle_path = cache.artifact_path("fault_free", manifest.key)
        assert pickle_path.exists()
        assert manifests[0] == manifest_path_for(pickle_path)

    def test_warm_hit_leaves_provenance_intact(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        ExperimentContext(_TINY, jobs=1, cache=cache).fault_free(
            "mcf", "baseline")
        before = {p: p.read_text() for p in tmp_path.rglob("*.manifest.json")}
        warm = ExperimentContext(_TINY, jobs=1, cache=ArtifactCache(tmp_path))
        warm.fault_free("mcf", "baseline")
        assert warm.cache.hits == 1
        after = {p: p.read_text() for p in tmp_path.rglob("*.manifest.json")}
        assert after == before
