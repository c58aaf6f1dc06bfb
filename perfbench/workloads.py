"""One benchmark workload, run in a fresh single process.

``run.py`` starts this file for every run; it is not meant to be run by
hand.  Everything before the first timed op is set-up: interpreter
start, imports, building the inputs from ``--seed`` and a warm-up op.
Output references are computed after the timed window.  The last line
on stdout is one JSON object of raw measurements.

Each workload runs in *rounds*.  A round is a fixed list of ops whose
inputs depend only on ``(seed, round)``.  An untraced run is split over
``--parts`` fresh processes, which take rounds in turn (part ``k`` runs
rounds ``k``, ``k + parts`` ...) until they fill their share of
``--seconds`` and ran ``--min-ops`` ops; every run thus holds
whole rounds of the same mix, and no one process's memory layout sets
the result.  A traced run repeats round 0 in one process, alternating
an untraced and a traced pass over it, so the two passes time identical
work (their p50 ratio is the tracing overhead) and the work counters are
exact for a given seed.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from probes import Tracer, summarize

HERE = Path(__file__).resolve().parent


class Recorder:
    """Closed-loop timing of ops and of the phases between them.

    Ops and phases are timed in the process's CPU time (user + system):
    the workloads are serial, so on an idle machine it matches the wall
    clock, while on a shared host it leaves out the time the process
    waited for a CPU (the kernel's paravirtual accounting also leaves out
    hypervisor steal).  The wall clock is summed beside it for the
    report.  An op adds one latency sample; a phase (fleet build and
    finalisation) adds to the totals only.  With a tracer, each op and
    phase is a root span.
    """

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self.tracer = tracer
        self.latencies: List[float] = []  # CPU seconds per op
        self.cpu = 0.0
        self.wall = 0.0
        self.samples = 0
        self.failed = 0
        self._roots = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def _timed(self, name: str, fn: Callable):
        self._roots += 1
        scope = self.tracer.root(name, self._roots) if self.tracer else nullcontext()
        failed = False
        cpu_start = time.process_time()
        start = time.perf_counter()
        try:
            with scope:
                out = fn()
        except Exception:
            traceback.print_exc()
            failed, out = True, None
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu_start
        self.cpu += cpu
        self.wall += wall
        return out, cpu, failed

    def op(self, fn: Callable):
        """Time one op; None when it raised (counted as failed)."""
        out, cpu, failed = self._timed("op", fn)
        self.latencies.append(cpu)
        self.failed += failed
        return out

    def phase(self, name: str, fn: Callable):
        out, _, failed = self._timed(name, fn)
        if failed:
            raise RuntimeError(f"{name} failed; see the traceback above")
        return out


def _round_rng(seed: int, round_index: int) -> np.random.Generator:
    return np.random.default_rng([seed, round_index])


def _balanced_payload(rng: np.random.Generator, bits: int) -> np.ndarray:
    """Random payload bits, exactly half of them ones.

    A one is a busy loop and a zero a double sleep, so the ones count
    sets the length of the capture; fixing it makes an op's work depend
    on its setup and not on the seed's draw.
    """
    return rng.permutation(np.arange(bits) < bits // 2).astype(int)


class Link:
    """``CovertLink(machine, scenario, rate_scale, seed).run(payload)``."""

    def __init__(self, seed: int) -> None:
        from repro.core.align import align_bits
        from repro.covert.link import CovertLink
        from repro.covert.transmitter import frame_payload
        from repro.exec.cache import reset_chain_cache
        from repro.params import TINY
        from repro.sweep.spec import build_scenario
        from repro.systems.laptops import TABLE_I

        self._covert_link = CovertLink
        self._frame, self._align = frame_payload, align_bits
        self._reset = reset_chain_cache
        self.seed = seed
        config = json.loads((HERE / "link_setups.json").read_text())
        excluded = {(e["machine"], e["setup"]) for e in config["excluded"]}
        self.cells = []  # (machine, setup, scenario, rate, ceiling, payload bits)
        self.long_cells = []
        for machine in TABLE_I:
            windows = machine.os_name.startswith("Windows")
            for name, setup in config["setups"].items():
                if (machine.name, name) in excluded:
                    continue
                scenario = build_scenario(setup["scenario"], machine, TINY)
                cell = (machine, name, scenario, setup["rate_scale"],
                        setup["ber_ceiling"])
                if windows and setup["scenario"]["kind"] == "through_wall":
                    # >= 1 M-sample captures: one per round, rotating.
                    self.long_cells.append(cell + (48,))
                else:
                    self.cells.extend([cell + (16,)] * self._weight(windows, name))
        warm = next(c for c in self.cells if c[1] == "near_field_10cm")
        CovertLink(machine=warm[0], scenario=warm[2], rate_scale=warm[3],
                   seed=seed).run(np.zeros(16, dtype=int))

    @staticmethod
    def _weight(windows: bool, setup: str) -> int:
        """Draws per round, 34 ops in all, so three rounds make a run.

        Unix-timer laptops render about five times shorter captures than
        Windows ones, so their near-field and line-of-sight setups are
        drawn three times; the Windows line-of-sight setups twice, so
        that with the long capture they fill the top tenth of a round
        and p90 falls inside a cluster of like ops rather than on the
        edge between two.
        """
        if windows:
            return 2 if setup.startswith("los") else 1
        return 1 if setup.startswith("wall") else 3

    def run_round(self, r: int, rec: Recorder) -> None:
        rng = _round_rng(self.seed, r)
        # The long capture goes last, onto a chain cache the round has
        # filled, so the process's peak memory does not hang on the order.
        cells = [self.cells[i] for i in rng.permutation(len(self.cells))]
        cells.append(self.long_cells[r % len(self.long_cells)])
        self._reset()
        for machine, setup, scenario, rate, ceiling, bits in cells:
            payload = _balanced_payload(rng, bits)
            link = self._covert_link(
                machine=machine, scenario=scenario, rate_scale=rate,
                seed=int(rng.integers(2**31)))
            result = rec.op(lambda: link.run(payload))
            if result is None:
                continue
            rec.samples += result.capture.samples.size
            if not self._ok(link, payload, result, ceiling):
                print(f"link check failed: {machine.name} {setup}",
                      file=sys.stderr)
                rec.failed += 1

    def _ok(self, link, payload, result, ceiling: float) -> bool:
        frame = self._frame(payload, link.frame_format, link.use_ecc)
        m = self._align(frame, result.decode.bits)
        decode = result.decode
        values = [m.ber, m.insertion_probability, m.deletion_probability,
                  *decode.thresholds]
        return (
            m.received > 0
            and all(math.isfinite(v) for v in values)
            and bool(np.isfinite(decode.powers).all())
            and m.ber <= ceiling
        )

    def verify(self) -> None:
        pass  # every op is checked as it completes


class Grid:
    """``run_sweep(receiver_grid(seed))`` from an empty chain cache.

    Entry points are looked up on their package at call time, so a
    traced pass calls the probe wrapper installed there.
    """

    #: Grid seeds per run, one to a round.  Their naive references
    #: cost about a second each, so rounds alternate between two rather
    #: than drawing fresh ones; as the two processes of an untraced run
    #: take rounds in turn, each of them runs one seed.
    SEEDS = 2

    def __init__(self, seed: int) -> None:
        import repro.sweep
        from repro.exec.cache import get_chain_cache, reset_chain_cache

        self._sweep = repro.sweep
        self._reset, self._cache = reset_chain_cache, get_chain_cache
        rng = _round_rng(seed, 0)
        self.seeds = []
        while len(self.seeds) < self.SEEDS:
            # Grid seeds whose payload is half ones, as in ``Link``.
            s = int(rng.integers(0, 2**31))
            trial = self._sweep.receiver_grid(s).trials()[0]
            if 2 * int(self._sweep.trial_payload(trial).sum()) == trial.bits:
                self.seeds.append(s)
        self._samples: Dict[int, int] = {}
        self._pending = []  # (recorder, grid seed, {trial_id: bits_sha})
        reset_chain_cache()
        self._sweep.run_sweep(self._sweep.receiver_grid(self.seeds[0]))
        reset_chain_cache()

    def run_round(self, r: int, rec: Recorder) -> None:
        s = self.seeds[r % self.SEEDS]
        self._reset()
        outcome = rec.op(
            lambda: self._sweep.run_sweep(self._sweep.receiver_grid(s)))
        if outcome is None:
            return
        rec.samples += self._decoded_samples(s, outcome.plan)
        self._pending.append((rec, s, {
            record["trial_id"]: record["result"]["bits_sha"]
            for record in outcome.records
        }))

    def _decoded_samples(self, s: int, plan) -> int:
        """Capture samples times receivers (read back from the cache)."""
        if s not in self._samples:
            cache = self._cache()
            sizes = {}
            for tp in plan.trials:
                key = tp.keys.capture
                if key not in sizes:
                    sizes[key] = cache.get(key)[0].samples.size
            self._samples[s] = sum(sizes[tp.keys.capture] for tp in plan.trials)
        return self._samples[s]

    def verify(self) -> None:
        """Every record's bits digest against the naive path's."""
        references = {}
        for rec, s, digests in self._pending:
            if s not in references:
                naive = self._sweep.run_sweep(
                    self._sweep.receiver_grid(s), naive=True)
                references[s] = {
                    record["trial_id"]: record["result"]["bits_sha"]
                    for record in naive.records
                }
            if digests != references[s]:
                print(f"grid check failed: seed {s}", file=sys.stderr)
                rec.failed += 1


class Fleet:
    """One ``StreamMultiplexer.tick()``; a replay builds, ticks a mixed
    512-stream fleet to completion and finalises every stream."""

    MIX = (("stream-covert", 256), ("keylog", 128), ("clockmod-fsk", 128))

    def __init__(self, seed: int) -> None:
        import repro.mux
        from repro.mux import FleetStreamSpec
        from repro.mux.fleet import golden_digest

        self._mux = repro.mux
        self._golden = golden_digest
        self.seed = seed
        # Scenarios render at their registered seeds, as `repro mux` does;
        # the run's seed drives each replay's arrival jitter.
        self.fleet = [FleetStreamSpec(name, count=count)
                      for name, count in self.MIX]
        self._pending = []  # (recorder, ticks, {stream_id: digest})
        self._by_stream = None
        # Renders the three scenario captures into the chain cache.
        mux, _ = self._mux.build_multiplexer(
            self.fleet, jitter_seed=self._jitter(0))
        mux.tick()

    def _jitter(self, r: int) -> int:
        return int(_round_rng(self.seed, r).integers(2**31))

    def run_round(self, r: int, rec: Recorder) -> None:
        failed_before = rec.failed
        mux, by_stream = rec.phase("build", lambda: self._mux.build_multiplexer(
            self.fleet, jitter_seed=self._jitter(r)))
        ticks = 0
        while not mux.done and rec.failed == failed_before:
            rec.op(mux.tick)
            ticks += 1
        digests = rec.phase(
            "finalize", lambda: self._mux.finalized_digests(mux, by_stream))
        totals = mux.totals()
        rec.samples += totals["delivered_samples"]
        if rec.tracer is not None:
            rec.tracer.count("mux.delivered", totals["delivered_samples"])
            rec.tracer.count("mux.dropped", totals["dropped_samples"])
            rec.tracer.count("mux.shed", totals["shed_samples"])
            rec.tracer.peak("mux.pool_high_watermark", mux.pool.high_watermark)
        try:
            mux.check_conservation()
            lossless = totals["dropped_chunks"] + totals["shed_chunks"] == 0
        except AssertionError:
            traceback.print_exc()
            lossless = False
        if not lossless or rec.failed != failed_before:
            print("fleet check failed: ledger or lossless", file=sys.stderr)
            rec.failed = failed_before + ticks
            return
        self._by_stream = by_stream
        self._pending.append((rec, ticks, digests))

    def verify(self) -> None:
        """Each finalised digest against the per-stream golden path."""
        goldens = {}
        expected = {}
        for stream_id, spec in (self._by_stream or {}).items():
            if spec.scenario not in goldens:
                goldens[spec.scenario] = self._golden(spec)
            expected[stream_id] = goldens[spec.scenario]
        for rec, ticks, digests in self._pending:
            diverged = [k for k, digest in expected.items() if digests[k] != digest]
            if diverged:
                print(f"fleet check failed: {len(diverged)} stream(s) "
                      "diverged from the golden path", file=sys.stderr)
                rec.failed += ticks


WORKLOADS = {"link": Link, "grid": Grid, "fleet": Fleet}


def measure(workload, seconds: float, part: int, parts: int, min_ops: int):
    """Rounds ``part``, ``part + parts`` ... for this process's share.

    Another round runs while its end, judged by the last round's length,
    lies nearer the share of ``seconds`` than stopping now would.
    Returns the recorder and the process's CPU seconds before it.
    """
    rec = Recorder()
    setup = time.process_time()
    share = seconds / parts
    start = time.perf_counter()
    r = part
    while True:
        gc.collect()  # free the last round's cycles outside the timed ops
        round_start = time.perf_counter()
        workload.run_round(r, rec)
        r += parts
        now = time.perf_counter()
        if (rec.attempted >= min_ops
                and now + (now - round_start) / 2 - start >= share):
            return rec, setup


def measure_traced(workload, seconds: float, tracer: Tracer):
    """Untraced then traced passes over round 0 while a pair still fits."""
    plain, traced = Recorder(), Recorder(tracer)
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        gc.collect()
        workload.run_round(0, plain)
        gc.collect()
        tracer.install()
        try:
            workload.run_round(0, traced)
        finally:
            tracer.uninstall()
        now = time.perf_counter()
        if now + (now - pair_start) - start > seconds:
            return plain, traced


def provenance() -> Dict[str, object]:
    import scipy

    from repro.exec.context import get_execution_config

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "jobs": get_execution_config().jobs,
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--part", type=int, default=0,
                        help="this process's share of an untraced run ...")
    parser.add_argument("--parts", type=int, default=1,
                        help="... split over this many fresh processes")
    parser.add_argument("--min-ops", type=int, default=1,
                        help="ops this process runs at least")
    parser.add_argument("--spans", default=None,
                        help="JSONL file for the traced run's spans")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    # Set-up's objects are frozen, so the collection before each round
    # scans only what the rounds made (a full one took 40 ms on grid).
    gc.collect()
    gc.freeze()
    out: Dict[str, object] = {}
    if args.trace:
        tracer = Tracer()
        plain, rec = measure_traced(workload, args.seconds, tracer)
    else:
        rec, out["setup_s"] = measure(workload, args.seconds, args.part,
                                      args.parts, args.min_ops)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    workload.verify()
    if args.trace:
        summary = summarize(tracer, rec.attempted)
        summary["metrics"]["trace.overhead_pct"] = 100 * (
            statistics.median(rec.latencies) / statistics.median(plain.latencies)
            - 1
        )
        if args.spans:
            tracer.write_jsonl(args.spans)
        out.update(summary, absent=tracer.absent,
                   uncovered=tracer.uncovered(args.workload),
                   traced_ops=rec.attempted)
        rec.failed += plain.failed
        rec.latencies += plain.latencies  # both passes count as attempted
    out.update(
        latencies_s=rec.latencies,
        samples=rec.samples,
        cpu_s=rec.cpu,
        wall_s=rec.wall,
        failed=rec.failed,
        provenance=provenance(),
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
