"""``repro lint`` subcommand implementation.

Exit codes: 0 clean (all findings suppressed/baselined), 1 active
findings or parse errors, 0 after ``--write-baseline`` /
``--update-schema`` (they are maintenance actions, not gates).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Optional

from dataclasses import replace

from .baseline import write_baseline
from .cache import LintCache
from .config import LintConfig, load_config
from .engine import rule_catalog, run_lint, write_schema_manifest


def default_root() -> Path:
    """Directory containing the ``repro`` package (``src/`` here)."""
    return Path(__file__).resolve().parent.parent.parent


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="restrict per-file rules to these root-relative prefixes "
        "(e.g. repro/dsp); project rules always see the whole tree",
    )
    parser.add_argument(
        "--root",
        default=None,
        metavar="DIR",
        help="directory containing the repro package "
        "(default: auto-detected from the installed package)",
    )
    parser.add_argument(
        "--select",
        action="append",
        default=None,
        metavar="CODE",
        help="run only these rule codes (repeatable)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "jsonl"),
        default="text",
        help="stdout format (default: text)",
    )
    parser.add_argument(
        "--report",
        default=None,
        metavar="FILE",
        help="also write every finding as JSONL to FILE",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="baseline file (default: repro/lint/baseline.json)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline (report everything as active)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="accept the current active findings into the baseline",
    )
    parser.add_argument(
        "--update-schema",
        action="store_true",
        help="regenerate the CACHE001 chain-schema manifest after an "
        "intentional, CHAIN_SCHEMA-bumped dataclass change",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "--package",
        default=None,
        metavar="NAME",
        help="package directory under the root to walk "
        "(default: from config; 'repro' in this repository)",
    )
    parser.add_argument(
        "--cache",
        action="store_true",
        help="enable the incremental cache: warm runs with an "
        "unchanged tree skip parsing and rules entirely",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="force-disable the incremental cache",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="cache location (default: <root>/.lint-cache; implies --cache)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="parallel-parse worker budget for cold files "
        "(still serial on a single CPU)",
    )


def _emit(text: str) -> None:
    """Print, tolerating a consumer that closed the pipe (`| head`)."""
    try:
        print(text)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())


def cmd_lint(args, config: Optional[LintConfig] = None) -> int:
    if args.list_rules:
        _emit(rule_catalog())
        return 0
    root = Path(args.root) if args.root else default_root()
    if config is None:
        # Defaults overlaid with [tool.repro.lint] from pyproject.toml
        # (at the root or one directory above it).
        config = load_config(root)
    if args.package:
        config = replace(config, package=args.package)
    if args.update_schema:
        path = write_schema_manifest(root, config)
        print(f"chain-schema manifest written to {path}")
        return 0
    baseline_path = args.baseline
    if args.no_baseline:
        baseline_path = False
    cache = None
    if (args.cache or args.cache_dir) and not args.no_cache:
        cache_dir = (
            Path(args.cache_dir) if args.cache_dir else root / ".lint-cache"
        )
        cache = LintCache(cache_dir)
    report = run_lint(
        root,
        config,
        select=args.select,
        paths=args.paths or None,
        baseline_path=baseline_path,
        cache=cache,
        jobs=args.jobs,
    )
    if args.write_baseline:
        path = (
            Path(args.baseline)
            if args.baseline
            else root / config.baseline_path
        )
        write_baseline(path, report.active)
        print(f"baseline written to {path} ({len(report.active)} entries)")
        return 0
    if args.report:
        report.write_report(args.report)
    output = (
        report.render_jsonl() if args.format == "jsonl" else report.render_text()
    )
    if output:
        _emit(output)
    return 0 if report.ok else 1
