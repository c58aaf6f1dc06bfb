"""The sweep executor: bit-identity vs naive, warm-once, resume.

The hard correctness bar from the engine's contract: a trial's record is
bit-identical whether it runs through the engine (cold cache, warm
cache, resumed, any jobs count) or via plain per-trial execution with
the cache disabled.  These tests assert full-record equality - bits
digests, BER, RNG exit digests, thresholds - not approximate closeness.
"""

import dataclasses
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exec.cache import reset_chain_cache
from repro.exec.context import execution_scope
from repro.obs.trace import collect_events
from repro.sweep.engine import pooled_metrics, run_sweep
from repro.sweep.plan import plan_sweep
from repro.sweep.presets import RECEIVER_GRID
from repro.sweep.spec import SweepSpec

ANALOG_SPANS = ("pmu", "vrm", "emission", "propagation", "sdr")


@pytest.fixture(autouse=True)
def fresh_cache():
    reset_chain_cache()
    yield
    reset_chain_cache()


def receiver_spec(n=3, bits=24, seed=0):
    """A tiny receiver-only sweep: n trials sharing one full chain."""
    return SweepSpec(
        name="test-receivers",
        base={"bits": bits, "seed": seed},
        zips=[{"receiver": [None] + RECEIVER_GRID[: n - 1]}],
    )


def comparable(record):
    """A record minus its wall-clock field (everything else is physics)."""
    out = dict(record)
    out.pop("elapsed_s")
    return out


def assert_same_records(a, b):
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert comparable(ra) == comparable(rb)


class TestBitIdentity:
    def test_cold_engine_matches_naive(self):
        spec = receiver_spec()
        naive = run_sweep(spec, naive=True)
        reset_chain_cache()
        with execution_scope(cache_enabled=True):
            cold = run_sweep(spec)
        assert not cold.naive and naive.naive
        assert_same_records(naive.records, cold.records)
        # The identity is exact down to the decoded-bits and RNG digests.
        for rec in cold.records:
            assert len(rec["result"]["bits_sha"]) == 16
            assert rec["result"]["rng"]

    def test_warm_cache_rerun_identical(self):
        spec = receiver_spec()
        with execution_scope(cache_enabled=True):
            cold = run_sweep(spec)
            with collect_events() as events:
                warm = run_sweep(spec)
        assert_same_records(cold.records, warm.records)
        # Second run recomputed nothing on the analog chain.
        analog = [
            e
            for e in events
            if e.get("event") == "span" and e.get("name") in ANALOG_SPANS
        ]
        assert analog == []

    def test_multiprocess_engine_matches_naive(self):
        spec = receiver_spec()
        naive = run_sweep(spec, naive=True)
        reset_chain_cache()
        with execution_scope(cache_enabled=True):
            multi = run_sweep(spec, jobs=2)
        assert_same_records(naive.records, multi.records)


class TestWarmOnce:
    def test_analog_stages_execute_exactly_once(self):
        """The acceptance topology: N receiver configs, one chain."""
        spec = receiver_spec(n=4)
        with execution_scope(cache_enabled=True):
            with collect_events() as events:
                outcome = run_sweep(spec, jobs=1)
        assert outcome.executed == 4
        for stage in ANALOG_SPANS:
            runs = [
                e
                for e in events
                if e.get("event") == "span" and e.get("name") == stage
            ]
            assert len(runs) == 1, f"{stage} ran {len(runs)} times"
        groups = [e for e in events if e.get("name") == "sweep.group"]
        assert len(groups) == 1
        assert groups[0]["stage"] == "capture"
        assert groups[0]["fan_out"] == 4

    def test_naive_mode_runs_every_chain(self):
        spec = receiver_spec(n=3)
        with collect_events() as events:
            run_sweep(spec, naive=True)
        for stage in ANALOG_SPANS:
            runs = [
                e
                for e in events
                if e.get("event") == "span" and e.get("name") == stage
            ]
            assert len(runs) == 3

    def test_stats_surface_the_plan(self):
        spec = receiver_spec(n=3)
        with execution_scope(cache_enabled=True):
            outcome = run_sweep(spec)
        assert outcome.stats["trials"] == 3
        assert outcome.stats["sharing_factor"] == pytest.approx(3.0)
        assert outcome.stats["warm_groups"] == 1


class TestResume:
    def test_resume_after_kill(self, tmp_path):
        spec = receiver_spec()
        path = tmp_path / "results.jsonl"
        with execution_scope(cache_enabled=True):
            full = run_sweep(spec, results_path=path, resume=False)
            # Kill mid-write: tear the last record's line.
            lines = path.read_text().splitlines(keepends=True)
            path.write_text("".join(lines[:-1]) + lines[-1][:20])
            resumed = run_sweep(spec, results_path=path, resume=True)
        assert resumed.resumed == 2
        assert resumed.executed == 1
        assert_same_records(full.records, resumed.records)

    def test_complete_store_resumes_everything(self, tmp_path):
        spec = receiver_spec()
        path = tmp_path / "results.jsonl"
        with execution_scope(cache_enabled=True):
            run_sweep(spec, results_path=path, resume=False)
            reset_chain_cache()  # even cold, nothing should execute
            with collect_events() as events:
                again = run_sweep(spec, results_path=path, resume=True)
        assert again.executed == 0
        assert again.resumed == 3
        # Nothing pending -> no warming either.
        assert not [e for e in events if e.get("name") == "sweep.group"]

    def test_records_are_json_round_trippable(self, tmp_path):
        spec = receiver_spec(n=2)
        path = tmp_path / "results.jsonl"
        with execution_scope(cache_enabled=True):
            outcome = run_sweep(spec, results_path=path, resume=False)
        for line in path.read_text().splitlines():
            record = json.loads(line)
            assert record == outcome.record_for(record["trial_id"])


class TestPooledMetrics:
    def test_exact_integer_pooling(self):
        spec = receiver_spec(n=2)
        with execution_scope(cache_enabled=True):
            outcome = run_sweep(spec)
        pooled = pooled_metrics(outcome.records)
        assert pooled.transmitted == sum(
            r["result"]["transmitted"] for r in outcome.records
        )
        assert pooled.bit_errors == sum(
            r["result"]["bit_errors"] for r in outcome.records
        )


SCENARIOS = st.sampled_from(
    [None, {"kind": "distance", "distance_m": 1.0}]
)


class TestPropertyBitIdentity:
    """ISSUE satellite: for random small grids, sweep-engine results are
    bit-identical to per-trial naive execution - bits, BER, RNG digests -
    under cold cache, warm cache, and resume-after-kill."""

    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        bits=st.integers(min_value=24, max_value=40),
        receivers=st.lists(
            st.sampled_from(RECEIVER_GRID), min_size=2, max_size=3, unique_by=str
        ),
        scenario=SCENARIOS,
    )
    def test_random_grid_bit_identical(
        self, tmp_path, seed, bits, receivers, scenario
    ):
        spec = SweepSpec(
            name="prop",
            base={"bits": bits, "seed": seed, "scenario": scenario},
            zips=[{"receiver": receivers}],
        )
        reset_chain_cache()
        naive = run_sweep(spec, naive=True)
        want = [comparable(r) for r in naive.records]

        path = tmp_path / f"prop-{seed}-{bits}.jsonl"
        path.unlink(missing_ok=True)
        with execution_scope(cache_enabled=True):
            reset_chain_cache()
            cold = run_sweep(spec, results_path=path, resume=False)
            warm = run_sweep(spec)
            lines = path.read_text().splitlines(keepends=True)
            path.write_text("".join(lines[:-1]) + lines[-1][:20])
            resumed = run_sweep(spec, results_path=path, resume=True)
        reset_chain_cache()

        for outcome in (cold, warm, resumed):
            got = [comparable(r) for r in outcome.records]
            assert got == want
        assert resumed.resumed == len(receivers) - 1
        assert resumed.executed == 1


def _acq(fft_size, hop):
    return {"acquisition": {"fft_size": fft_size, "hop": hop}}


#: Capture-group shapes for the shared band-energy tail: hop grids that
#: nest (every 64-frame start is a 32- and a 16-frame start), hop grids
#: that only partly overlap, and several FFT sizes in one group.
RECEIVER_SETS = {
    "nested": [_acq(256, 16), _acq(256, 32), _acq(256, 64)],
    "non-nested": [_acq(256, 24), _acq(256, 32)],
    "mixed-fft": [_acq(128, 16), _acq(256, 32), _acq(512, 48), _acq(256, 64)],
}


class TestCaptureGroupBitIdentity:
    """Engine capture groups vs per-trial naive runs, record for record
    (bits and RNG digests included), across group shapes - including a
    trial the plan gives no capture key, which runs as its own group."""

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        bits=st.integers(min_value=24, max_value=32),
        shape=st.sampled_from(sorted(RECEIVER_SETS)),
        orphan=st.booleans(),
    )
    def test_group_shapes_bit_identical(self, seed, bits, shape, orphan):
        spec = SweepSpec(
            name=f"groups-{shape}",
            base={"bits": bits, "seed": seed},
            zips=[{"receiver": RECEIVER_SETS[shape]}],
        )
        plan = plan_sweep(spec)
        if orphan:
            tp = plan.trials[1]
            keys = dataclasses.replace(tp.keys, capture=None)
            plan.trials[1] = dataclasses.replace(tp, keys=keys)
        reset_chain_cache()
        naive = run_sweep(spec, plan=plan, naive=True)
        with execution_scope(cache_enabled=True):
            reset_chain_cache()
            engine = run_sweep(spec, plan=plan)
        reset_chain_cache()
        assert [comparable(r) for r in engine.records] == [
            comparable(r) for r in naive.records
        ]
