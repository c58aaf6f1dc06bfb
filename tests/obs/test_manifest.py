"""Tests for run manifests and their runner/CLI integration."""

import json

import pytest

from repro.experiments.runner import run_experiments
from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    build_manifest,
    config_fingerprint,
    manifest_path,
    read_manifest,
    write_manifest,
)
from repro.params import TINY


class TestBuildManifest:
    def test_minimal_manifest_shape(self):
        manifest = build_manifest(experiment_id="x", seed=3, quick=True)
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert manifest["chain_schema"] == "chain-v2"
        assert manifest["experiment"] == "x"
        assert manifest["seed"] == 3
        assert len(manifest["config_fingerprint"]) == 16
        assert set(manifest["versions"]) == {"python", "numpy", "scipy"}

    def test_config_fingerprint_sensitivity(self):
        base = config_fingerprint("table2", None, 0, True)
        assert base == config_fingerprint("table2", None, 0, True)
        assert base != config_fingerprint("table2", None, 1, True)
        assert base != config_fingerprint("table3", None, 0, True)
        assert base != config_fingerprint("table2", TINY, 0, True)
        assert base != config_fingerprint("table2", None, 0, False)

    def test_rows_fingerprint_and_metrics(self):
        rows = [{"label": "a", "BER": 0.1}]
        snapshot = {"m": {"type": "gauge", "value": 2.0}}
        manifest = build_manifest(
            experiment_id="x",
            rows=rows,
            metrics_snapshot=snapshot,
            elapsed_s=1.23456,
            timings={"pmu": 0.5},
        )
        assert manifest["n_rows"] == 1
        assert len(manifest["result_fingerprint"]) == 16
        assert manifest["metrics"] == {"m": 2.0}
        assert manifest["elapsed_s"] == 1.235
        assert manifest["timings_s"] == {"pmu": 0.5}


class TestWriteRead:
    def test_round_trip(self, tmp_path):
        manifest = build_manifest(experiment_id="x")
        path = write_manifest(manifest, manifest_path(tmp_path, "x"))
        assert path.name == "x.manifest.json"
        assert read_manifest(path) == manifest

    def test_read_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "something-else"}))
        with pytest.raises(ValueError, match="manifest schema"):
            read_manifest(path)


class TestRunnerIntegration:
    def test_every_result_carries_manifest_and_metrics(self, tmp_path):
        results = run_experiments(
            ["table2"],
            quick=True,
            seed=0,
            echo=lambda *_: None,
            manifest_dir=str(tmp_path),
        )
        (result,) = results
        assert result.manifest is not None
        assert result.manifest["experiment"] == "table2"
        assert result.manifest["n_rows"] == len(result.rows)
        # The chain taps fired during the run.
        assert "chain.emission.rms.mean" in result.metrics
        on_disk = read_manifest(manifest_path(tmp_path, "table2"))
        assert on_disk["config_fingerprint"] == result.manifest[
            "config_fingerprint"
        ]
        assert on_disk["metrics"] == result.metrics
