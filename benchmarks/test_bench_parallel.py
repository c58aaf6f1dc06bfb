"""Bench the execution subsystem: trial-pool fan-out and chain cache.

Two claims are benchmarked:

* the trial pool never regresses the Table II harness — the harness
  runs at ``jobs = min(4, cpus)``, and on a single-CPU host
  :func:`~repro.exec.pool.parallel_map`'s guard runs the tasks
  serially: an earlier recording of this file forked four workers on
  1 CPU and timed the pool 24% *slower* than serial (10.3 s vs 8.3 s).
  Rows are compared against a serial reference run either way; real
  pool speedups are only asserted when the host has spare cores.
* the content-addressed chain cache makes receiver-only sweeps cheap —
  the same link is decoded under four acquisition configs; after the
  first config the whole analog chain (PMU/VRM/emission/propagation/
  SDR) is served from ``k_capture`` hits, and the error rates are
  bit-identical to the uncached sweep.

Timings for both sides of each comparison land in
``benchmark.extra_info`` so `--benchmark-json` output (see
``make bench-parallel``) records the actual speedups.
"""

import time

import numpy as np

from repro.core.acquisition import AcquisitionConfig
from repro.core.decoder import DecoderConfig
from repro.covert.link import CovertLink
from repro.exec import execution_scope, get_chain_cache, reset_chain_cache
from repro.exec.pool import effective_cpus
from repro.experiments import get_experiment
from repro.params import TINY
from repro.systems.laptops import DELL_INSPIRON

def test_bench_parallel_table2(benchmark):
    """Table II through the trial pool: identical rows, never slower."""
    run = get_experiment("table2")

    with execution_scope(jobs=1, cache_enabled=False):
        t0 = time.perf_counter()
        serial = run(quick=True, seed=0)
        serial_s = time.perf_counter() - t0

    cpus = effective_cpus()
    jobs = min(4, cpus)

    def pooled():
        with execution_scope(jobs=jobs, cache_enabled=False):
            return run(quick=True, seed=0)

    resolved = benchmark.pedantic(pooled, rounds=1, iterations=1)
    pooled_s = benchmark.stats.stats.mean

    assert resolved.rows == serial.rows  # bit-identical at any jobs
    benchmark.extra_info["serial_s"] = round(serial_s, 3)
    benchmark.extra_info["pooled_s"] = round(pooled_s, 3)
    benchmark.extra_info["cpus"] = cpus
    benchmark.extra_info["jobs"] = jobs
    if cpus <= 1:
        # same code path as serial: equal up to timer noise, never the
        # 1.24x pool regression the old recording showed
        assert pooled_s < 1.15 * serial_s
    elif cpus >= 4:
        assert pooled_s < 0.75 * serial_s
    else:
        assert pooled_s < serial_s


def _receiver_sweep():
    """Decode one link under four acquisition configs (chain is fixed)."""
    payload = np.random.default_rng(48).integers(0, 2, size=120)
    rates = {}
    for fft_size, hop in ((256, 16), (256, 32), (256, 64), (512, 32)):
        link = CovertLink(
            machine=DELL_INSPIRON,
            profile=TINY,
            seed=17,
            decoder_config=DecoderConfig(
                acquisition=AcquisitionConfig(fft_size=fft_size, hop=hop)
            ),
        )
        m = link.run(payload).metrics
        rates[(fft_size, hop)] = (
            m.ber + m.insertion_probability + m.deletion_probability
        )
    return rates


def test_bench_chain_cache_receiver_sweep(benchmark):
    """Receiver-only sweep: cached pass skips the analog chain."""
    reset_chain_cache()
    with execution_scope(cache_enabled=False):
        t0 = time.perf_counter()
        uncached = _receiver_sweep()
        uncached_s = time.perf_counter() - t0

    def cached_sweep():
        with execution_scope(cache_enabled=True):
            rates = _receiver_sweep()
            return rates, get_chain_cache().stats()

    (cached, stats) = benchmark.pedantic(cached_sweep, rounds=1, iterations=1)
    cached_s = benchmark.stats.stats.mean

    assert cached == uncached  # cache is transparent
    assert stats["hits"] >= 3  # configs 2..4 hit the capture layer
    benchmark.extra_info["uncached_s"] = round(uncached_s, 3)
    benchmark.extra_info["cached_s"] = round(cached_s, 3)
    benchmark.extra_info["speedup"] = round(uncached_s / cached_s, 2)
    benchmark.extra_info["cache"] = stats
    assert cached_s < 0.7 * uncached_s
    reset_chain_cache()
