"""Repository benchmark: the PMU -> VRM -> EM -> SDR -> receiver chain,
timed end to end on the ``link``, ``grid`` and ``fleet`` workloads.

Run from the repository root::

    python3 perfbench/run.py --workload link --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Each run starts the workload in a fresh single process
(``perfbench/workloads.py``) with ``src`` on ``PYTHONPATH`` and one
BLAS/FFT thread, as the workloads are serial.  With ``--trace 0`` it
reports the end-to-end metrics of ``BENCHMARK.json``; the run is split
over two fresh processes whose ops are pooled, ``setup_s`` (interpreter
start to the first timed op) is the median of the two and
``peak_rss_mb`` the larger of the two peaks.  Times are the workload
process's CPU time (user + system), which on an idle machine equals its
wall time but leaves out the waits a shared host adds; the wall-clock
figures are printed beside them and kept in the result file.  With
``--trace 1`` it reports the per-layer metrics from spans recorded
around each layer's public callables (``perfbench/probes.py``) and
writes the spans as JSONL.  Results, with provenance, land in
``perfbench/results/``.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
``error_rate`` is ``failed / attempted``.  The exit code is non-zero when
an output check fails, when a probed layer the workload must load was
never called, or when the repository's sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"

#: Fresh processes an untraced run is split over; ``setup_s`` is their
#: median, ``peak_rss_mb`` their maximum, latencies are pooled.
PARTS = 2
#: Ops an untraced run holds at least, so ten lie beyond its p90.
MIN_OPS = 100
#: A run must end within 180 s.
DEADLINE_S = 170


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # One thread: a pool's idle spinning would count as CPU time.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _child(args, extra, timeout: float):
    """Run one workload process; its raw measurements."""
    cmd = [sys.executable, str(BENCH / "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), timeout=timeout,
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(lines[-1])


def _commit() -> object:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        path = ROOT / ".git" / ref[5:]
        return path.read_text().strip() if path.is_file() else ref[5:]
    return ref


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_one(args, spec: dict) -> int:
    deadline = time.monotonic() + DEADLINE_S
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        raws = [_child(args, ["--spans", str(stem) + ".spans.jsonl"],
                       DEADLINE_S)]
    else:
        raws, done = [], 0
        for k in range(PARTS):
            # Share out the ops still missing, so whole rounds overshoot
            # the floor by as little as the round sizes allow.
            need = max(math.ceil((MIN_OPS - done) / (PARTS - k)), 1)
            raws.append(_child(
                args,
                ["--part", str(k), "--parts", str(PARTS), "--min-ops", str(need)],
                max(deadline - time.monotonic(), 1.0),
            ))
            done += len(raws[-1]["latencies_s"])

    latencies_ms = [t * 1e3 for raw in raws for t in raw["latencies_s"]]
    failed = sum(raw["failed"] for raw in raws)
    if args.trace:
        values = raws[0]["metrics"]
    else:
        values = {
            "setup_s": statistics.median(raw["setup_s"] for raw in raws),
            "iq_msps": sum(raw["samples"] for raw in raws)
            / sum(raw["cpu_s"] for raw in raws) / 1e6,
            "op_p50_ms": statistics.median(latencies_ms),
            "op_p90_ms": statistics.quantiles(latencies_ms, n=10)[-1],
            # With numpy's default huge-page advice, one fleet process at
            # one seed peaked at 313 MB or at 375 MB from run to run; the
            # larger of the two processes' peaks is the steadier figure.
            "peak_rss_mb": max(raw["peak_rss_mb"] for raw in raws),
        }
    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    uncovered = raws[0].get("uncovered", [])
    correct = failed == 0 and not uncovered
    result = {"correct": correct, "attempted": len(latencies_ms),
              "failed": failed, "metrics": metrics}

    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  error_rate=failed / len(latencies_ms),
                  wall_iq_msps=sum(raw["samples"] for raw in raws)
                  / sum(raw["wall_s"] for raw in raws) / 1e6,
                  processes=[{k: raw.get(k) for k in (
                      "setup_s", "peak_rss_mb", "samples", "cpu_s", "wall_s")}
                             for raw in raws],
                  provenance=dict(raws[0]["provenance"], commit=_commit(),
                                  src_sha256=_src_digest()))
    for key in ("layers", "wall_per_op_s", "absent", "uncovered", "traced_ops"):
        if key in raws[0]:
            record[key] = raws[0][key]
    stem.with_suffix(".json").write_text(json.dumps(record, indent=2) + "\n")

    _report(record)
    print(json.dumps(result))
    return 0 if correct else 1


def _report(record: dict) -> None:
    print(f"== {record['workload']} seed={record['seed']} "
          f"trace={record['trace']}: {record['attempted']} ops, "
          f"{record['failed']} failed, error_rate "
          f"{record['error_rate']:.4f} ratio")
    for name, metric in record["metrics"].items():
        print(f"  {name:26s} {metric['value']:14.6g} {metric['unit']}")
    if not record["trace"]:
        print(f"  on the wall clock: iq_msps {record['wall_iq_msps']:.6g} Msps")
    if "layers" in record:
        print(f"  per op (of {record['traced_ops']} traced ops; self times "
              f"sum to {record['wall_per_op_s'] * 1e3:.3f} ms):")
        print(f"  {'layer':18s} {'calls':>8s} {'total_ms':>10s} "
              f"{'self_ms':>10s}  counts")
        for layer, row in record["layers"].items():
            counts = ", ".join(f"{k}={v:.6g}" for k, v in row["counts"].items())
            print(f"  {layer:18s} {row['calls']:8d} {row['total_s'] * 1e3:10.3f} "
                  f"{row['self_s'] * 1e3:10.3f}  {counts}")
        for target in record["absent"]:
            print(f"  absent (no longer in the program): {target}")
        for target in record["uncovered"]:
            print(f"  ERROR: {target} was never called on this workload",
                  file=sys.stderr)
    print(f"  provenance: {json.dumps(record['provenance'], sort_keys=True)}")


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all":
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; known: {names}")
        try:
            return run_one(args, spec)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    status = 0
    for name in names:
        for trace in (0, 1):
            status |= main([f"--workload={name}", f"--seed={args.seed}",
                            f"--seconds={args.seconds}", f"--trace={trace}"])
    return status


if __name__ == "__main__":
    sys.exit(main())
