"""The benchmark's own checks: its exact work counters repeat.

Run from the repository root (takes about two minutes)::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: Counters that do not depend on timing, so they can be gated exactly.
EXACT = ("vrm.bursts", "emission.samples", "sdr.samples_in", "sdr.samples_out",
         "acquisition.fft_rows", "cache.hits", "cache.misses",
         "sweep.stages_saved", "batch.rows_per_call", "mux.fft_rows",
         "mux.delivered")


def _traced(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", ["link", "grid", "fleet"])
def test_exact_counters_repeat_at_one_seed(workload):
    first, second = _traced(workload, 7), _traced(workload, 7)
    assert {k: first[k] for k in EXACT} == {k: second[k] for k in EXACT}
    # Each workload does work on the layers it exists to load.
    loaded = {"link": "sdr.samples_out", "grid": "batch.rows_per_call",
              "fleet": "mux.delivered"}[workload]
    assert first[loaded] > 0


def test_fails_without_program_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in (ROOT / "perfbench").iterdir():
        if path.is_file():
            (bench / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes(
        (ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "link",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
