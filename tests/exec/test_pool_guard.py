"""The 1-CPU / pickle-bound degradation guard in ``parallel_map``.

ISSUE 6 satellite: ``BENCH_parallel.json`` showed the process pool
running 24% *slower* than serial on a single-CPU host - fork + pickle
overhead with no cores to hide it.  ``parallel_map`` now refuses to
fork in that regime (and when per-task pickle bytes dwarf compute),
degrading to the serial reference path with a structured trace event.
Results are identical either way; only the scheduling changes.
"""

import warnings

import pytest

import repro.exec.pool as pool_mod
from repro.exec.pool import parallel_map
from repro.obs.trace import collect_events


def _square(x):
    return x * x


class _MustNotFork:
    def __init__(self, *args, **kwargs):
        raise AssertionError("guard should have prevented pool creation")


@pytest.fixture
def no_fork(monkeypatch):
    monkeypatch.setattr(pool_mod, "ProcessPoolExecutor", _MustNotFork)


class TestSingleCpuGuard:
    def test_degrades_to_serial_without_forking(self, no_fork, monkeypatch):
        monkeypatch.setattr(pool_mod, "effective_cpus", lambda: 1)
        assert parallel_map(_square, [1, 2, 3], jobs=4) == [1, 4, 9]

    def test_degradation_is_silent_but_traced(self, no_fork, monkeypatch):
        # A correct scheduling decision, not a failure: no
        # RuntimeWarning, but a structured event for the manifest.
        monkeypatch.setattr(pool_mod, "effective_cpus", lambda: 1)
        with collect_events() as events:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                parallel_map(_square, [1, 2, 3], jobs=4)
        guards = [
            e
            for e in events
            if e.get("event") == "warning"
            and e.get("kind") == "pool-single-cpu"
        ]
        assert len(guards) == 1
        assert guards[0]["jobs"] == 3
        assert guards[0]["tasks"] == 3
        assert guards[0]["cpus"] == 1

    def test_multi_cpu_host_still_forks(self, monkeypatch):
        monkeypatch.setattr(pool_mod, "effective_cpus", lambda: 2)
        with collect_events() as events:
            assert parallel_map(_square, [1, 2], jobs=2) == [1, 4]
        assert not [
            e for e in events if e.get("kind") == "pool-single-cpu"
        ]


class TestPickleBoundGuard:
    def test_huge_payloads_stay_serial(self, no_fork, monkeypatch):
        monkeypatch.setattr(pool_mod, "effective_cpus", lambda: 8)
        with collect_events() as events:
            out = parallel_map(
                _square,
                [1, 2, 3],
                jobs=4,
                bytes_hint=pool_mod._PICKLE_BYTES_CEILING,
            )
        assert out == [1, 4, 9]
        guards = [
            e for e in events if e.get("kind") == "pool-pickle-bound"
        ]
        assert len(guards) == 1
        assert guards[0]["bytes_hint"] == pool_mod._PICKLE_BYTES_CEILING

    def test_small_payloads_fork(self, monkeypatch):
        monkeypatch.setattr(pool_mod, "effective_cpus", lambda: 2)
        assert parallel_map(_square, [1, 2], jobs=2, bytes_hint=64) == [1, 4]


class TestEffectiveCpus:
    def test_returns_positive_int(self):
        cpus = pool_mod.effective_cpus()
        assert isinstance(cpus, int) and cpus >= 1
