"""Cache-topology-aware sweep executor.

Scheduling policy (DESIGN.md §12): after planning, shared stage nodes
are warmed in chain order - every ``vrm`` group first, then ``emission``
groups, then ``capture`` groups - each phase fanned out over the
process pool.  A deeper warm therefore always finds its own prefix
already published, so each shared stage is computed exactly once across
the whole sweep.  The tails then fan out one task per *capture group*
(the pending trials sharing a capture key): a task reads the warmed
capture once and serves all its receivers' envelopes with one
band-energy kernel call over the union of their frame positions.  The
shared capture travels to the workers as a cache key into the shared
disk layer, never as a pickled array.

Correctness bar: a trial's record is bit-identical whether it runs here
(any jobs count, cold or warm cache, resumed or not) or via a plain
``link.run(payload)``.  That falls out of the chain cache's RNG
entry/exit-state discipline - the engine adds scheduling, not new
physics.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import tempfile
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..chain import render_bursts, render_emission, replay_capture_hit
from ..core.acquisition import acquire_many
from ..core.align import ChannelMetrics, align_bits
from ..core.decoder import BatchDecoder
from ..covert.link import LinkResult, PreparedTrial
from ..dsp.detection import histogram_modes
from ..exec.context import execution_scope, get_execution_config
from ..exec.pool import parallel_map, resolve_jobs
from ..obs.metrics import tap_sweep
from ..obs.trace import bits_digest, key_prefix, rng_digest, span, trace_event
from .plan import SweepPlan, TrialPlan, plan_sweep
from .spec import SweepSpec, TrialSpec, build_link, trial_payload
from .store import STORE_SCHEMA, ResultStore


@dataclass
class SweepOutcome:
    """Everything one :func:`run_sweep` call produced."""

    plan: SweepPlan
    records: List[dict]  # plan order; resumed records included
    executed: int
    resumed: int
    naive: bool
    elapsed_s: float
    stats: Dict[str, float] = field(default_factory=dict)

    def record_for(self, trial_id: str) -> Optional[dict]:
        for record in self.records:
            if record["trial_id"] == trial_id:
                return record
        return None


def pooled_metrics(records: List[dict]) -> ChannelMetrics:
    """Pool per-trial alignment counts (integer sums - exact)."""
    pooled = ChannelMetrics(0, 0, 0, 0, 0)
    for record in records:
        r = record["result"]
        pooled = pooled.combined(
            ChannelMetrics(
                bit_errors=r["bit_errors"],
                insertions=r["insertions"],
                deletions=r["deletions"],
                transmitted=r["transmitted"],
                received=r["received"],
            )
        )
    return pooled


def _record(tp: TrialPlan, result: LinkResult, rng, started: float) -> dict:
    """One trial's store record (everything but ``elapsed_s`` is physics)."""
    decode = result.decode
    m = result.metrics
    threshold = (
        float(decode.thresholds[0]) if decode.thresholds else float("nan")
    )
    lo_mode = hi_mode = float("nan")
    if decode.powers.size:
        _, _, modes = histogram_modes(decode.powers)
        lo_mode = float(min(modes[:2])) if modes.size >= 2 else float(modes[0])
        hi_mode = float(max(modes[:2])) if modes.size >= 2 else float(modes[0])
    return {
        "schema": STORE_SCHEMA,
        "trial_id": tp.trial_id,
        "label": tp.trial.label,
        "trial": dataclasses.asdict(tp.trial),
        "keys": {stage: key_prefix(key) for stage, key in tp.keys.stages()},
        "result": {
            "bit_errors": int(m.bit_errors),
            "insertions": int(m.insertions),
            "deletions": int(m.deletions),
            "transmitted": int(m.transmitted),
            "received": int(m.received),
            "ber": float(m.ber),
            "ip": float(m.insertion_probability),
            "dp": float(m.deletion_probability),
            "tr_bps": float(result.transmission_rate_bps),
            "duration_s": float(result.duration_s),
            "n_bits": int(decode.bits.size),
            "bits_sha": bits_digest(decode.bits),
            "tx_sha": bits_digest(result.tx_bits),
            "rng": rng_digest(rng),
            "threshold": threshold,
            "power_modes": [lo_mode, hi_mode],
        },
        "elapsed_s": round(time.perf_counter() - started, 6),
    }


def _execute_group(members: List[TrialPlan]) -> List[dict]:
    """The tails of one capture group; module-level so it crosses the
    process boundary.

    Members share one capture key, so they differ only in the receiver.
    Each digital prefix is prepared once, and the capture is read once
    through the chain cache: warmed for a shared group, computed inline
    for a lone trial.  Every other member replays the cache hit its solo
    run would have seen.  One :func:`acquire_many` call then serves all
    members' envelopes over the union of their frame positions, and each
    trial is decoded and aligned on its own.
    """
    started = time.perf_counter()
    links = [build_link(tp.trial) for tp in members]
    prepared: Dict[str, PreparedTrial] = {}
    rngs = []
    capture = None
    for tp, link in zip(members, links):
        if tp.digital_id not in prepared:
            prepared[tp.digital_id] = link.prepare(trial_payload(tp.trial))
        prep = prepared[tp.digital_id]
        rng = np.random.default_rng(0)
        if capture is None:
            rng.bit_generator.state = prep.rng.bit_generator.state
            capture = link.render_capture(prep.activity, rng)
        else:
            replay_capture_hit(
                tp.keys.capture,
                capture,
                rngs[0].bit_generator.state,
                prep.activity,
                rng,
            )
        rngs.append(rng)
    assert capture is not None
    nominal = [prepared[tp.digital_id].nominal_bit_duration_s for tp in members]
    envelopes = acquire_many(
        capture,
        [
            (
                link.vrm_frequency_hz,
                link.decoder_config.acquisition_for(period, capture.sample_rate),
            )
            for link, period in zip(links, nominal)
        ],
    )
    records = []
    for tp, link, period, envelope, rng in zip(
        members, links, nominal, envelopes, rngs
    ):
        prep = prepared[tp.digital_id]
        with span(
            "sweep.trial",
            {"trial": key_prefix(tp.trial_id), "label": tp.trial.label},
        ):
            decode = BatchDecoder(
                link.vrm_frequency_hz,
                expected_bit_period_s=period,
                config=link.decoder_config,
            ).decode_envelope(envelope)
            metrics = align_bits(prep.tx_bits, decode.bits)
        result = LinkResult(
            tx_bits=prep.tx_bits,
            decode=decode,
            metrics=metrics,
            capture=capture,
            activity=prep.activity,
            duration_s=prep.activity.duration,
            profile=link.profile,
        )
        records.append(_record(tp, result, rng, started))
    return records


def _capture_groups(
    pending: List[TrialPlan], share: bool
) -> List[List[TrialPlan]]:
    """Pending trials grouped by capture key (plan order within and
    across groups).  Without sharing, or without a capture key, every
    trial is its own group."""
    groups: Dict[str, List[TrialPlan]] = {}
    for tp in pending:
        key = tp.keys.capture if share and tp.keys.capture else tp.trial_id
        groups.setdefault(key, []).append(tp)
    return list(groups.values())


def _warm_node(task: Tuple[TrialPlan, str, str, int]) -> dict:
    """Compute one shared stage node (through its representative trial).

    Runs the representative's chain *down to* the node's stage via the
    stage-wise entry points, publishing every prefix key on the way; the
    value lands in the (shared) cache, never in the return payload.
    """
    tp, stage_name, key, fan_out = task
    trial = tp.trial
    link = build_link(trial)
    prepared = link.prepare(trial_payload(trial))
    started = time.perf_counter()
    with span(
        "sweep.group",
        {"stage": stage_name, "key": key_prefix(key), "fan_out": fan_out},
    ):
        if stage_name == "vrm":
            # The *raw* train is the shared value: trials diverge at the
            # dither stage, which each tail applies itself.
            render_bursts(
                link.machine,
                prepared.activity,
                link.profile,
                prepared.rng,
                allow_c_states=link.allow_c_states,
                allow_p_states=link.allow_p_states,
                vrm_dithering=None,
            )
        elif stage_name == "emission":
            render_emission(
                link.machine,
                prepared.activity,
                link.profile,
                prepared.rng,
                allow_c_states=link.allow_c_states,
                allow_p_states=link.allow_p_states,
                vrm_dithering=link.vrm_dithering,
            )
        elif stage_name == "capture":
            link.render_capture(prepared.activity, prepared.rng)
        else:  # pragma: no cover - planner only emits WARMABLE stages
            raise ValueError(f"cannot warm stage {stage_name!r}")
    return {
        "stage": stage_name,
        "key": key_prefix(key),
        "elapsed_s": round(time.perf_counter() - started, 6),
    }


def run_sweep(
    spec: Union[SweepSpec, List[TrialSpec]],
    *,
    plan: Optional[SweepPlan] = None,
    results_path: Optional[os.PathLike] = None,
    resume: bool = True,
    naive: bool = False,
    jobs: Optional[int] = None,
) -> SweepOutcome:
    """Plan and execute a sweep.

    Parameters
    ----------
    spec:
        A :class:`SweepSpec` (or explicit trial list); ignored when a
        pre-computed ``plan`` is supplied.
    results_path:
        Optional JSONL store.  With ``resume`` (the default), trials
        whose intact records are already on disk are skipped entirely -
        they never reach the pool, and their shared prefixes are not
        warmed unless a pending trial still needs them.
    naive:
        Run every trial independently with the chain cache disabled -
        the reference path the engine must match bit-for-bit (and the
        baseline the speedup benchmarks compare against).
    jobs:
        Worker count; ``None`` reads the active execution config.
    """
    started = time.perf_counter()
    if plan is None:
        plan = plan_sweep(spec)
    store = ResultStore(results_path)
    existing = store.load() if resume else {}
    resumed = {
        tp.trial_id: existing[tp.trial_id]
        for tp in plan.trials
        if tp.trial_id in existing
    }
    pending = [tp for tp in plan.trials if tp.trial_id not in resumed]
    engine = not naive and get_execution_config().cache_enabled
    groups = _capture_groups(pending, share=engine)
    phases = []
    if engine:
        pending_ids = {tp.trial_id for tp in pending}
        for stage_name in ("vrm", "emission", "capture"):
            nodes = [
                node
                for node in plan.warm_nodes()
                if node.stage == stage_name
                and any(t in pending_ids for t in node.trial_ids)
            ]
            if nodes:
                phases.append((stage_name, nodes))
    warm_groups = sum(len(nodes) for _, nodes in phases)
    widest = max([len(groups)] + [len(nodes) for _, nodes in phases])
    with ExitStack() as stack:
        if not engine:
            # Reference semantics: every trial owns its full chain.
            stack.enter_context(execution_scope(cache_enabled=False))
        elif min(resolve_jobs(jobs), widest) > 1 and (
            get_execution_config().cache_dir is None
        ):
            # Workers cannot share a memory-only cache, and a shared
            # capture must travel by key, not by pickled value - so
            # multi-process sweeps get a scratch disk layer.
            scratch = tempfile.mkdtemp(prefix="repro-sweep-cache-")
            stack.callback(shutil.rmtree, scratch, ignore_errors=True)
            stack.enter_context(execution_scope(cache_dir=scratch))
        by_id = {tp.trial_id: tp for tp in plan.trials}
        for stage_name, nodes in phases:
            trace_event("sweep.warm", stage=stage_name, groups=len(nodes))
            parallel_map(
                _warm_node,
                [
                    (
                        by_id[node.representative],
                        node.stage,
                        node.key,
                        len(node.children),
                    )
                    for node in nodes
                ],
                jobs=jobs,
            )
        done = {
            record["trial_id"]: record
            for records in parallel_map(_execute_group, groups, jobs=jobs)
            for record in records
        }
    for tp in pending:
        store.append(done[tp.trial_id])
    elapsed = time.perf_counter() - started
    records = [
        resumed.get(tp.trial_id) or store.get(tp.trial_id)
        for tp in plan.trials
    ]
    stats = {
        "trials": float(plan.n_trials),
        "executed": float(len(pending)),
        "resumed": float(len(resumed)),
        "naive_stage_runs": float(plan.naive_stage_runs),
        "planned_stage_runs": float(plan.planned_stage_runs),
        "stages_saved": float(plan.stages_saved),
        "sharing_factor": plan.sharing_factor,
        "warm_groups": float(warm_groups),
        "elapsed_s": elapsed,
    }
    tap_sweep(stats)
    trace_event(
        "sweep.done",
        sweep=plan.name,
        naive=bool(naive),
        **{k: round(v, 4) for k, v in stats.items()},
    )
    return SweepOutcome(
        plan=plan,
        records=records,
        executed=len(pending),
        resumed=len(resumed),
        naive=bool(naive),
        elapsed_s=elapsed,
        stats=stats,
    )
