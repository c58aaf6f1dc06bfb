"""repro.lint - determinism & cache-coherence static analysis.

AST-level checks for the contracts the rest of the repository relies on
but (until now) enforced only by convention:

=========  ============================================================
DET001     all randomness flows from trial-seeded Generators
DET002     wall-clock reads stay inside the explicit allowlist
CACHE001   chain inputs reach fingerprint() (cross-module call-graph
           proof); fingerprinted dataclass changes bump CHAIN_SCHEMA
           and refresh the manifest
CONC001    cache/scratch/result-store writes use the locked helpers
TRACE001   spans use span() with registered names
FLOAT001   no exact float equality in dsp/, vrm/, sdr/ and em/
ASYNC001   no blocking calls reachable from async code in repro/mux
ASYNC002   awaitables are awaited, not dropped
RES001     pooled buffers reach release/hand-off on every CFG path
RES002     no pooled-view reads after release
SCEN001    scenario components publish/read only declared resources
SCEN002    scenario randomness stays on the component's own stream
=========  ============================================================

The cross-module rules run on a project-wide symbol table + call graph
(:mod:`repro.lint.graph`) and a per-function CFG
(:mod:`repro.lint.cfg`); everything stays AST-level - the linted tree
is never imported.

Run with ``python -m repro lint`` (or ``make lint``; ``make lint-fast``
uses the incremental cache, :mod:`repro.lint.cache`).  Per-line
suppression: ``# lint: disable=CODE[,CODE]``.  Accepted findings live
in ``repro/lint/baseline.json``; the CACHE001 shape manifest in
``repro/lint/chain_schema.json`` (refresh with ``--update-schema``).
``[tool.repro.lint]`` in ``pyproject.toml`` overrides the built-in
defaults (:func:`repro.lint.config.load_config`).
"""

from __future__ import annotations

from .baseline import load_baseline, write_baseline
from .cache import LintCache
from .config import DEFAULT_CONFIG, LintConfig, load_config
from .engine import (
    LintReport,
    load_project,
    rule_catalog,
    run_lint,
    write_schema_manifest,
)
from .findings import Finding, finding_fingerprint
from .rules import all_rules, rules_by_code

__all__ = [
    "DEFAULT_CONFIG",
    "Finding",
    "LintCache",
    "LintConfig",
    "LintReport",
    "all_rules",
    "finding_fingerprint",
    "load_baseline",
    "load_config",
    "load_project",
    "rule_catalog",
    "rules_by_code",
    "run_lint",
    "write_baseline",
    "write_schema_manifest",
]
