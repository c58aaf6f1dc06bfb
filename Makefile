PY := PYTHONPATH=src python

.PHONY: test lint lint-fast lint-baseline bench bench-lint bench-parallel bench-stream bench-sweep smoke-mux smoke-parallel smoke-scenario smoke-stream smoke-sweep regress regress-record

test:
	$(PY) -m pytest -x -q

# Static-analysis gate, three layers:
#   1. repro.lint  - repo-specific determinism, cache-coherence and
#                    cross-module flow rules (DET/CACHE/CONC/TRACE/
#                    FLOAT/ASYNC/RES/SCEN, see DESIGN.md sections 13+17)
#                    over src/repro, plus a narrowed determinism pass
#                    (DET001/DET002) over tests/ and benchmarks/ - the
#                    repro-scoped cross-module rules do not apply there
#   2. ruff        - general pyflakes/pycodestyle errors + format check
#   3. mypy        - types, strict on repro.exec / repro.sweep
# ruff and mypy are optional locally (install with `pip install -e
# '.[lint]'`); CI always runs all three.
lint:
	$(PY) -m repro lint
	$(PY) -m repro lint --root . --package tests \
		--select DET001 --select DET002 --no-baseline
	$(PY) -m repro lint --root . --package benchmarks \
		--select DET001 --select DET002 --no-baseline
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks && \
		ruff format --check src/repro/lint tests/lint; \
	else \
		echo "ruff not installed; skipping (pip install -e '.[lint]')"; \
	fi
	@if command -v mypy >/dev/null 2>&1; then \
		mypy; \
	else \
		echo "mypy not installed; skipping (pip install -e '.[lint]')"; \
	fi

# The repro.lint pass only, through the incremental cache
# (src/.lint-cache): a warm run over an unchanged tree is a content-
# hash check plus one JSON read (see BENCH_lint.json).
lint-fast:
	$(PY) -m repro lint --cache
	$(PY) -m repro lint --cache --root . --package tests \
		--select DET001 --select DET002 --no-baseline
	$(PY) -m repro lint --cache --root . --package benchmarks \
		--select DET001 --select DET002 --no-baseline

# Accept the current repro.lint findings as the new baseline
# (reviewable diff in src/repro/lint/baseline.json).
lint-baseline:
	$(PY) -m repro lint --write-baseline

bench:
	$(PY) -m pytest benchmarks/ --benchmark-only

# Time a cold full lint of the shipped tree against a warm cached run
# (content hashes + one run-layer JSON read) and record both sides and
# the speedup (floor: 3x) to BENCH_lint.json.
bench-lint:
	$(PY) -m pytest benchmarks/test_bench_lint.py \
		--benchmark-only --benchmark-json=BENCH_lint.json

# Time the execution subsystem (trial pool + chain cache) and record
# the numbers, including extra_info speedups, to BENCH_parallel.json.
bench-parallel:
	$(PY) -m pytest benchmarks/test_bench_parallel.py \
		--benchmark-only --benchmark-json=BENCH_parallel.json

# Time the fleet multiplexer: 1000-stream batched demod against the
# naive per-stream fleet loop (>=5x, bit-identical), plus the capacity
# curve (streams vs shed fraction vs aggregate bits/s) under a fixed
# service budget.  Numbers land in BENCH_stream.json.
bench-stream:
	$(PY) -m pytest benchmarks/test_bench_stream.py \
		--benchmark-only --benchmark-json=BENCH_stream.json

# Time the sweep engine against trial-at-a-time naive execution on the
# receiver grid (analog chain shared by all eight trials) and record
# the numbers, including the extra_info speedup, to BENCH_sweep.json.
bench-sweep:
	$(PY) -m pytest benchmarks/test_bench_sweep.py \
		--benchmark-only --benchmark-json=BENCH_sweep.json

# Quick end-to-end sanity check of the fleet multiplexer: a tiny
# 32-stream mixed fleet (covert + keylog + clockmod) through the
# batched cross-stream DSP tick, finalised decodes checked against the
# per-stream golden path (the command exits non-zero on divergence).
smoke-mux:
	$(PY) -m repro mux --fleet stream-covert=16 --fleet keylog=8 \
		--fleet clockmod-fsk=8 --check

# Quick end-to-end sanity check of the process pool: one experiment
# fanned out across two workers.
smoke-parallel:
	$(PY) -m repro run table2 --jobs 2

# Quick end-to-end sanity check of the sweep engine: the eight-config
# receiver grid planned along the chain-cache key DAG, run in-process
# (--jobs 1) and through the worker pool (--jobs 2; the shared capture
# travels by cache key).
smoke-sweep:
	$(PY) -m repro sweep receiver-grid --jobs 1
	$(PY) -m repro sweep receiver-grid --jobs 2

# Quick end-to-end sanity check of the scenario plugin framework: the
# two related-attack plugins re-run against their committed metric
# baselines, then the conformance suite over every registered scenario
# (determinism, order invariance, chain-key coherence, RNG isolation -
# see DESIGN.md section 15).
smoke-scenario:
	$(PY) -m repro regress --scenario scenario-ichannels-tiny \
		--scenario scenario-clockmod-tiny
	$(PY) -m pytest tests/scenario/test_conformance.py -q

# Quick end-to-end sanity check of the streaming receiver: chunked
# replay with arrival jitter, verified bit-exact against the batch
# decoder (the command exits non-zero on divergence).
smoke-stream:
	$(PY) -m repro stream "smoke" --seed 1 --chunk-size 2048 --jitter 0.2

# Signal-quality regression gate: re-run the fixed-seed baseline
# scenarios and fail on any metric drift (see baselines/*.json).
regress:
	$(PY) -m repro regress

# Re-record the baselines after an intentional physics/schema change.
regress-record:
	$(PY) -m repro regress --record
