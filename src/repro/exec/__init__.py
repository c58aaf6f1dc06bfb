"""Execution subsystem: trial fan-out, chain caching, stage timing.

Three cooperating layers, shared by every harness that runs independent
seed-controlled trials over the analog chain:

* :mod:`repro.exec.context` - the process-wide :class:`ExecutionConfig`
  (worker count, cache settings).  The CLI writes it; harnesses read it.
* :mod:`repro.exec.pool` - :func:`parallel_map`, the single fan-out
  primitive.  Process-based at ``jobs > 1`` with a deterministic serial
  fallback at ``jobs = 1``; output order always matches input order.
  It also makes the serial-vs-pool call: on one effective CPU
  (:func:`effective_cpus`) or for pickle-heavy tasks it runs serially.
* :mod:`repro.exec.cache` - a content-addressed cache for expensive
  chain intermediates (power-state trace, burst train, emission
  waveform), keyed by a stable hash of everything that determines them,
  including the RNG state on entry.
* :mod:`repro.exec.timing` - per-stage wall-clock accounting that
  survives the process boundary, so experiment reports can say where
  their time went even when trials ran in workers.
"""

from .cache import ChainCache, fingerprint, get_chain_cache, reset_chain_cache
from .context import (
    ExecutionConfig,
    execution_scope,
    get_execution_config,
    set_execution_config,
)
from .pool import effective_cpus, parallel_map
from .timing import collect_timings, merge_timings, record_stage, stage

__all__ = [
    "ChainCache",
    "ExecutionConfig",
    "collect_timings",
    "effective_cpus",
    "execution_scope",
    "fingerprint",
    "get_chain_cache",
    "get_execution_config",
    "merge_timings",
    "parallel_map",
    "record_stage",
    "reset_chain_cache",
    "set_execution_config",
    "stage",
]
