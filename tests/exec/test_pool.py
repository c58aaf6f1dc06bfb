"""Tests for parallel_map and the execution context."""

import pytest

import repro.exec.pool as pool_mod
from repro.exec.context import (
    ExecutionConfig,
    execution_scope,
    get_execution_config,
)
from repro.exec.pool import default_jobs, parallel_map, resolve_jobs
from repro.exec.timing import collect_timings, format_timings, stage


@pytest.fixture(autouse=True)
def multi_cpu(monkeypatch):
    # These tests exercise the real fork paths; pin the CPU probe so a
    # single-CPU CI host doesn't trip the serial degradation.
    monkeypatch.setattr(pool_mod, "effective_cpus", lambda: 2)


def _square(x):
    return x * x


def _boom(x):
    raise RuntimeError(f"boom {x}")


def _timed_square(x):
    with stage("square"):
        return x * x


def _read_jobs(_):
    return get_execution_config().jobs


class TestContext:
    def test_default_is_serial(self):
        assert ExecutionConfig().jobs == 1

    def test_scope_overrides_and_restores(self):
        base = get_execution_config()
        with execution_scope(jobs=3):
            assert get_execution_config().jobs == 3
            assert get_execution_config().cache_enabled == base.cache_enabled
        assert get_execution_config().jobs == base.jobs

    def test_validation(self):
        with pytest.raises(ValueError):
            ExecutionConfig(jobs=0)
        with pytest.raises(ValueError):
            ExecutionConfig(cache_bytes=-1)


class TestParallelMap:
    def test_serial_path(self):
        assert parallel_map(_square, [1, 2, 3], jobs=1) == [1, 4, 9]

    def test_parallel_preserves_order(self):
        items = list(range(12))
        assert parallel_map(_square, items, jobs=4) == [x * x for x in items]

    def test_jobs_from_context(self):
        with execution_scope(jobs=2):
            assert parallel_map(_square, [2, 3]) == [4, 9]

    def test_empty_items(self):
        assert parallel_map(_square, [], jobs=4) == []

    def test_exceptions_propagate(self):
        with pytest.raises(RuntimeError, match="boom"):
            parallel_map(_boom, [1, 2], jobs=2)
        with pytest.raises(RuntimeError, match="boom"):
            parallel_map(_boom, [1, 2], jobs=1)

    def test_workers_run_serially_inside(self):
        # Nested fan-out inside a worker must see jobs=1 (no pool
        # recursion / oversubscription).
        assert parallel_map(_read_jobs, [0, 1], jobs=2) == [1, 1]

    def test_worker_timings_merged(self):
        with collect_timings() as timings:
            parallel_map(_timed_square, [1, 2, 3], jobs=2)
        assert timings.get("square", 0.0) > 0.0

    def test_resolve_jobs_validation(self):
        with pytest.raises(ValueError):
            resolve_jobs(0)
        assert resolve_jobs(5) == 5

    def test_default_jobs_positive(self):
        assert default_jobs() >= 1


class TestTiming:
    def test_stage_records_into_collector(self):
        with collect_timings() as timings:
            with stage("x"):
                pass
            with stage("x"):
                pass
        assert timings["x"] >= 0.0

    def test_stage_without_collector_is_noop(self):
        with stage("orphan"):
            pass  # must not raise

    def test_format_timings_sorted_by_cost(self):
        text = format_timings({"fast": 0.5, "slow": 2.0})
        assert text.index("slow") < text.index("fast")
        assert format_timings({}) == ""
