"""The ported experiments must reproduce the legacy paths bit for bit.

Two pinning styles:

* **Committed baselines** - the keylog and stream ports are checked
  against the numbers recorded in ``baselines/*.json`` (the same files
  ``make regress`` gates on), so a port drifting from the legacy
  physics fails here even before the baseline gate runs.
* **Live equality** - the table2 port is compared against a direct
  ``run_sweep`` of the same spec in the same process, record by record.
"""

import json
from pathlib import Path

import pytest

from repro.exec.cache import reset_chain_cache
from repro.exec.context import execution_scope
from repro.scenario.registry import run_registered
from repro.sweep.engine import run_sweep

BASELINES = Path(__file__).resolve().parents[2] / "baselines"


def baseline_metrics(name):
    return json.loads((BASELINES / f"{name}.json").read_text())["metrics"]


@pytest.fixture(autouse=True)
def fresh_cache():
    reset_chain_cache()
    yield
    reset_chain_cache()


class TestKeylogPort:
    def test_matches_committed_baseline(self):
        pinned = baseline_metrics("keylog-quick-fox")
        with execution_scope(jobs=1, cache_enabled=False):
            outcome = run_registered("keylog", seed=2)
        # The port publishes detection quality as receiver.* gauges; the
        # legacy path records the same numbers as keylog.* histograms.
        assert outcome.metrics["receiver.true_positive_rate"] == (
            pinned["keylog.true_positive_rate.mean"]
        )
        assert outcome.metrics["receiver.false_positive_rate"] == (
            pinned["keylog.false_positive_rate.mean"]
        )
        assert outcome.metrics["receiver.n_detected"] == (
            pinned["keylog.n_detected"]
        )

    def test_row_carries_word_recovery(self):
        with execution_scope(jobs=1, cache_enabled=False):
            outcome = run_registered("keylog", seed=2)
        (row,) = outcome.rows
        assert 0.0 <= row["word_precision"] <= 1.0
        assert 0.0 <= row["word_recall"] <= 1.0


class TestStreamPort:
    def test_matches_committed_baseline(self):
        pinned = baseline_metrics("stream-covert-tiny")
        with execution_scope(jobs=1, cache_enabled=False):
            outcome = run_registered("stream-covert", seed=5)
        for name in (
            "stream.run.chunks_dropped",
            "stream.run.chunks_shed",
            "stream.run.gap_samples",
            "stream.run.max_lag_s",
            "stream.run.synchronized",
            "stream.run.lossy_ber",
        ):
            assert outcome.metrics[name] == pinned[name], name


class TestSweepPorts:
    def test_table2_records_equal_direct_run_sweep(self, tmp_path):
        from repro.experiments.table2_near_field import sweep_spec
        from repro.params import TINY

        spec = sweep_spec(TINY, quick=True, seed=0)
        # Shared cache: the two runs traverse identical chain keys, so
        # the comparison costs one cold sweep, not two.
        with execution_scope(
            jobs=1, cache_enabled=True, cache_dir=tmp_path
        ):
            legacy = run_sweep(spec, jobs=1)
            outcome = run_registered("table2", seed=0)
        by_id = {r["trial_id"]: r for r in legacy.records}
        assert len(outcome.records) == len(legacy.records)
        for record in outcome.records:
            ref = by_id[record["trial_id"]]
            assert record["digest"] == ref["result"]["bits_sha"]
            assert record["result"] == ref["result"]
            assert record["trial"] == ref["trial"]

    def test_table2_plan_metrics_surface(self, tmp_path):
        with execution_scope(
            jobs=1, cache_enabled=True, cache_dir=tmp_path
        ):
            outcome = run_registered("table2", seed=0)
        assert outcome.metrics["sweep.plan.trials"] == len(outcome.records)
        assert outcome.metrics["sweep.plan.sharing_factor"] >= 1.0
        # Every trial registered its chain-key path for the coherence
        # check.
        assert len(outcome.chain_keys) == len(outcome.records)
