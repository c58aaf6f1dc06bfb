"""Trial fan-out: ``parallel_map`` over independent, seed-carrying tasks.

The one rule that makes worker count irrelevant to results: *tasks own
their seeds*.  Callers derive every trial's seed (or payload) up front,
serially, and pass it inside the task; workers never share an RNG
stream.  ``parallel_map`` then preserves input order, so the reduction
on the caller's side sees exactly the sequence a serial run produces.
"""

from __future__ import annotations

import os
import warnings
import weakref
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import replace
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, TypeVar

from ..obs.metrics import get_metrics, metrics_active, metrics_scope
from ..obs.trace import (
    collect_events,
    merge_events,
    span,
    trace_event,
    tracing_active,
)
from .context import (
    ExecutionConfig,
    get_execution_config,
    set_execution_config,
)
from .timing import collect_timings, merge_timings

T = TypeVar("T")
R = TypeVar("R")

#: Per-task pickle payloads above this are assumed to dwarf the compute
#: they carry; ``parallel_map`` degrades to serial rather than shuttle
#: them through the pipe.  Callers with genuinely heavy tasks should
#: pass cache keys, not arrays (the sweep engine's shared captures travel
#: through the chain cache's disk layer).
_PICKLE_BYTES_CEILING = 1 << 25  # 32 MiB

#: ExecutionConfig instances (by identity) that already produced the
#: serial-fallback warning.  A sweep retries the pool once per trial
#: group, which under a no-fork sandbox used to mean one identical
#: warning per group; the condition is a property of the environment
#: for the lifetime of the config, so warn once per config instance
#: (a new execution scope warns again) and keep only the structured
#: trace event per occurrence.
_serial_fallback_warned: "weakref.WeakValueDictionary[int, ExecutionConfig]" = (
    weakref.WeakValueDictionary()
)


def _first_fallback_for(config: ExecutionConfig) -> bool:
    """True exactly once per live config instance."""
    key = id(config)
    if _serial_fallback_warned.get(key) is config:
        return False
    _serial_fallback_warned[key] = config
    return True


def effective_cpus() -> int:
    """CPUs actually available to this process (affinity-aware).

    Overridable in tests (monkeypatch this name) so the fork paths stay
    exercised on single-CPU CI hosts.
    """
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """The effective worker count: explicit arg, else the active config."""
    if jobs is None:
        jobs = get_execution_config().jobs
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    return jobs


def _init_worker(config: ExecutionConfig) -> None:
    # Workers run their trials serially: a worker spawning its own pool
    # would oversubscribe and can deadlock on nested executors.
    set_execution_config(replace(config, jobs=1))


def _worker_call(
    fn: Callable[[T], R], item: T, want_trace: bool, want_metrics: bool
) -> Tuple[R, dict, List[dict], Optional[dict]]:
    # ContextVars don't cross the process boundary, so the parent tells
    # each task whether to buffer events/metrics for merging on return.
    events: List[dict] = []
    snapshot: Optional[dict] = None
    with ExitStack() as stack:
        timings = stack.enter_context(collect_timings())
        if want_trace:
            events = stack.enter_context(collect_events())
        registry = (
            stack.enter_context(metrics_scope()) if want_metrics else None
        )
        result = fn(item)
    if registry is not None:
        snapshot = registry.snapshot()
    return result, dict(timings), events, snapshot


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    jobs: Optional[int] = None,
    bytes_hint: int = 0,
) -> List[R]:
    """Apply ``fn`` to every item, fanning out over worker processes.

    Parameters
    ----------
    fn:
        A module-level callable (it crosses the process boundary).
    items:
        The tasks.  Each must carry everything its trial needs,
        including its seed; tasks and results are pickled.
    jobs:
        Worker count; None reads the active :class:`ExecutionConfig`.
        ``1`` runs serially in-process with no pickling at all - the
        reference path.
    bytes_hint:
        Estimated pickled bytes per task (payload + result).  When the
        payload dwarfs the compute a fork cannot pay for itself; see
        the degradation guard below.

    Results are returned in input order.  Stage timings recorded inside
    workers are merged into the caller's active collector.

    Single-CPU guard (BENCH_parallel.json pathology): when the host has
    one effective CPU, fork + pickle overhead cannot be hidden behind
    concurrency - a pool is strictly slower than the serial reference
    path, for identical results.  Likewise when ``bytes_hint`` says each
    task moves tens of megabytes through the pickle pipe.  Both cases
    degrade to serial with a structured trace event (no warning: the
    degradation is a correct scheduling decision, not a failure).
    """
    tasks: Sequence[T] = list(items)
    n_jobs = min(resolve_jobs(jobs), max(len(tasks), 1))
    if n_jobs <= 1 or len(tasks) <= 1:
        return [fn(task) for task in tasks]
    cpus = effective_cpus()
    if cpus <= 1 or bytes_hint >= _PICKLE_BYTES_CEILING:
        trace_event(
            "warning",
            kind=(
                "pool-single-cpu" if cpus <= 1 else "pool-pickle-bound"
            ),
            jobs=n_jobs,
            tasks=len(tasks),
            cpus=cpus,
            bytes_hint=int(bytes_hint),
        )
        # Same span the pool path emits: degradation changes the
        # scheduling, not the caller-visible trace shape.
        with span("parallel_map", {"jobs": 1, "tasks": len(tasks)}):
            return [fn(task) for task in tasks]
    config = get_execution_config()
    try:
        executor = ProcessPoolExecutor(
            max_workers=n_jobs,
            initializer=_init_worker,
            initargs=(config,),
        )
    except (OSError, PermissionError) as exc:
        # Environments without working process support (restricted
        # sandboxes) degrade to the serial reference path.  Results are
        # identical (tasks own their seeds) but wall-clock is not, so
        # say so instead of silently eating the requested parallelism -
        # but only once per execution config: every call in the same
        # scope hits the same environmental limitation.
        if _first_fallback_for(config):
            warnings.warn(
                f"parallel_map: cannot start a process pool ({exc!r}); "
                f"running {len(tasks)} task(s) serially instead of with "
                f"jobs={n_jobs}",
                RuntimeWarning,
                stacklevel=2,
            )
        trace_event(
            "warning",
            kind="pool-serial-fallback",
            jobs=n_jobs,
            tasks=len(tasks),
            error=repr(exc),
        )
        return [fn(task) for task in tasks]
    want_trace = tracing_active()
    want_metrics = metrics_active()
    with executor, span(
        "parallel_map", {"jobs": n_jobs, "tasks": len(tasks)}
    ):
        futures = [
            executor.submit(_worker_call, fn, task, want_trace, want_metrics)
            for task in tasks
        ]
        results: List[R] = []
        for future in futures:
            result, timings, events, snapshot = future.result()
            merge_timings(timings)
            if events:
                merge_events(events)
            if snapshot is not None:
                registry = get_metrics()
                if registry is not None:
                    registry.merge_snapshot(snapshot)
            results.append(result)
    return results


def default_jobs() -> int:
    """A sensible ``--jobs`` value for this host (all visible CPUs)."""
    return effective_cpus()
