"""The shared analog signal chain: activity trace -> SDR capture.

Both applications (covert channel, keylogging) drive the same physics:

    activity -> PMU (power states) -> VRM (bursts) -> emission
             -> propagation/noise -> antenna -> SDR -> IQ capture

This module is the single implementation of that chain.

Caching
-------
The digital and VRM stages are pure functions of (machine, activity,
profile, BIOS flags, dithering config) *and the RNG state on entry*, so
their outputs are content-addressed in :mod:`repro.exec.cache` under a
layered key chain::

    k_power   = H(machine, activity, profile, flags, rng_state)
    k_burst   = H(k_power)
    k_dither  = H(k_burst, dithering)     # only when dithering is on
    k_emit    = H(k_dither)
    k_capture = H(k_emit, scenario)

A sweep that varies only the receiver (decoder/detector config) hits
``k_capture`` and skips the whole analog chain; one that varies only
the propagation scenario hits ``k_emit`` and skips the PMU + VRM; one
that varies only the dithering hits ``k_burst`` and re-runs just the
dither + synthesis.
Every cached value stores the RNG state on *exit* from its stage, which
a hit restores, so cached and uncached runs are bit-identical.
Stage computes run under per-key stampede locks (disk-backed caches
only): when two workers miss the same key concurrently, exactly one
computes while the other blocks and is then served the published value,
traced as ``cache.stampede_avoided``.

:func:`capture_chain_keys` names a trial's whole key chain without
executing anything; :mod:`repro.sweep` uses it to group a parameter
grid by shared prefix and compute every shared stage exactly once.

Each stage is also bracketed with :func:`repro.exec.timing.stage`, so
harnesses that collect timings see where the wall-clock went
(``pmu`` / ``vrm`` / ``dither`` / ``emission`` / ``propagation`` /
``sdr``).

Observability
-------------
When tracing is on (:mod:`repro.obs.trace`), every stage emits one
structured event carrying its cache key prefix, hit/miss disposition,
duration and an RNG-state digest; when a metrics registry is active
(:mod:`repro.obs.metrics`), each stage also reports signal-quality
figures (duty cycle, burst rate, shed fraction, emission RMS, SNR,
clipping).  Both are single ``ContextVar`` reads when off.  Note that
under a warm cache the stages a hit skips do not tap (their
intermediates are never materialised); the baseline regression gate
therefore runs with the cache disabled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .em.environment import Scenario
from .exec.cache import CHAIN_SCHEMA, fingerprint, get_chain_cache
from .exec.timing import stage
from .obs.metrics import (
    get_metrics,
    tap_activity,
    tap_bursts,
    tap_capture,
    tap_emission,
    tap_propagation,
)
from .obs.trace import (
    key_prefix,
    rng_digest,
    span,
    trace_event,
    tracing_active,
)
from .params import SimProfile
from .power.pmu import PMU
from .sdr.rtlsdr import RtlSdrV3
from .systems.laptops import Machine
from .types import ActivityTrace, BurstTrain, IQCapture, PowerStateTrace
from .vrm.buck import BuckConverter
from .vrm.emission import EmissionModel
from .vrm.vid import VidInterface


def tuned_frequency_hz(machine: Machine, profile: SimProfile) -> float:
    """SDR tuning for a machine: midway between f0 and its first harmonic
    (profile-scaled), so both Eq. 1 components are in band."""
    return 1.5 * machine.vrm_frequency_hz / profile.total_freq_divisor


def paper_tuned_frequency_hz(machine: Machine) -> float:
    """Paper-scale tuning frequency (for profile-invariant link physics)."""
    return 1.5 * machine.vrm_frequency_hz


# ---------------------------------------------------------------------------
# Cache keys


def _activity_fingerprint(activity: ActivityTrace):
    """Activity content as arrays (fast to hash even for long traces)."""
    return (
        np.array([iv.start for iv in activity.intervals]),
        np.array([iv.end for iv in activity.intervals]),
        np.array([iv.level for iv in activity.intervals]),
        activity.duration,
    )


def _rng_state(rng: np.random.Generator) -> dict:
    return rng.bit_generator.state


def power_chain_key(
    machine: Machine,
    activity: ActivityTrace,
    profile: SimProfile,
    rng: np.random.Generator,
    allow_c_states: bool,
    allow_p_states: bool,
) -> str:
    """Content address of the power-state stage (and chain prefix root)."""
    return fingerprint(
        CHAIN_SCHEMA,
        "power",
        machine,
        _activity_fingerprint(activity),
        profile,
        allow_c_states,
        allow_p_states,
        _rng_state(rng),
    )


def _chain_keys(
    machine: Machine,
    activity: ActivityTrace,
    profile: SimProfile,
    rng: np.random.Generator,
    allow_c_states: bool,
    allow_p_states: bool,
    vrm_dithering,
):
    """The layered (power, burst, dither, emit) key chain for one run."""
    k_power = power_chain_key(
        machine, activity, profile, rng, allow_c_states, allow_p_states
    )
    k_burst = fingerprint(CHAIN_SCHEMA, "burst", k_power)
    if vrm_dithering is not None:
        k_dither = fingerprint(CHAIN_SCHEMA, "dither", k_burst, vrm_dithering)
    else:
        k_dither = k_burst
    k_emit = fingerprint(CHAIN_SCHEMA, "emit", k_dither)
    return k_power, k_burst, k_dither, k_emit


@dataclass(frozen=True)
class ChainKeys:
    """The layered cache-key chain of one trial, computed without
    running any stage.

    ``capture`` is None when no scenario was supplied (emission-only
    chains).  When dithering is off, ``dither`` equals ``burst`` and
    the dither stage does not exist as a distinct node.
    """

    power: str
    burst: str
    dither: str
    emit: str
    capture: Optional[str] = None

    def stages(self) -> List[Tuple[str, str]]:
        """Ordered (stage, key) nodes, collapsing the absent dither."""
        nodes = [("pmu", self.power), ("vrm", self.burst)]
        if self.dither != self.burst:
            nodes.append(("dither", self.dither))
        nodes.append(("emission", self.emit))
        if self.capture is not None:
            nodes.append(("capture", self.capture))
        return nodes


def capture_chain_keys(
    machine: Machine,
    activity: ActivityTrace,
    scenario: Optional[Scenario],
    profile: SimProfile,
    rng: np.random.Generator,
    *,
    allow_c_states: bool = True,
    allow_p_states: bool = True,
    vrm_dithering=None,
) -> ChainKeys:
    """Fingerprint a trial's whole key chain without executing it.

    This is the planner's entry point: given the chain inputs (the RNG
    is read, never advanced), it names every stage the trial would
    compute, so trials can be grouped by shared prefix before anything
    runs.
    """
    k_power, k_burst, k_dither, k_emit = _chain_keys(
        machine,
        activity,
        profile,
        rng,
        allow_c_states,
        allow_p_states,
        vrm_dithering,
    )
    k_capture = None
    if scenario is not None:
        k_capture = fingerprint(CHAIN_SCHEMA, "capture", k_emit, scenario)
    return ChainKeys(k_power, k_burst, k_dither, k_emit, k_capture)


# ---------------------------------------------------------------------------
# Tracing helpers


def _stage_hit(name: str, key, rng: np.random.Generator) -> None:
    """Trace a stage served from cache (RNG digest is post-restore)."""
    if tracing_active():
        trace_event(
            "stage",
            name=name,
            cache="hit",
            key=key_prefix(key),
            rng=rng_digest(rng),
        )


def _stage_span(name: str, key, rng: np.random.Generator):
    """Span for a stage that actually computes (miss, or cache off)."""
    return span(
        name,
        {"cache": "off" if key is None else "miss", "key": key_prefix(key)},
        lazy=lambda: {"rng": rng_digest(rng)},
    )


def _compute_through_lock(cache, key, name, rng, compute, on_hit=None):
    """Run a missed stage under the per-key stampede lock and publish it.

    ``compute`` executes the stage (with its own span/timing brackets)
    and returns the stage value, leaving ``rng`` in the stage's exit
    state.  If a concurrent worker published the value while this one
    waited for the lock, the re-probe serves the cached value instead -
    restoring the RNG state exactly as a plain hit would - and emits a
    ``cache.stampede_avoided`` event, so every key is computed at most
    once across all workers sharing the disk layer.  ``on_hit`` lets
    call sites replay metric taps that the skipped compute would have
    issued.
    """
    with cache.lock(key) as locked:
        if locked:
            hit = cache.reprobe(key)
            if hit is not None:
                value, state_after = hit
                rng.bit_generator.state = state_after
                trace_event(
                    "cache.stampede_avoided",
                    key=key_prefix(key),
                    stage=name,
                )
                registry = get_metrics()
                if registry is not None:
                    registry.counter("cache.stampede_avoided").inc()
                _stage_hit(name, key, rng)
                if on_hit is not None:
                    on_hit(value)
                return value
        value = compute()
        cache.put(key, (value, _rng_state(rng)))
    return value


# ---------------------------------------------------------------------------
# Stages


def run_power_chain(
    machine: Machine,
    activity: ActivityTrace,
    profile: SimProfile,
    rng: np.random.Generator,
    *,
    allow_c_states: bool = True,
    allow_p_states: bool = True,
) -> PowerStateTrace:
    """Digital half: activity -> power-state residencies."""
    cache = get_chain_cache()
    key = None
    if cache is not None:
        key = power_chain_key(
            machine, activity, profile, rng, allow_c_states, allow_p_states
        )
        hit = cache.get(key)
        if hit is not None:
            power_trace, state_after = hit
            rng.bit_generator.state = state_after
            _stage_hit("pmu", key, rng)
            return power_trace

    def compute() -> PowerStateTrace:
        with stage("pmu"), _stage_span("pmu", key, rng):
            table = machine.power_table(
                allow_c=allow_c_states, allow_p=allow_p_states
            )
            pmu = PMU(table, governor=machine.governor(table, profile), rng=rng)
            return pmu.run(activity)

    if cache is None:
        return compute()
    return _compute_through_lock(cache, key, "pmu", rng, compute)


def _simulate_bursts(
    machine: Machine,
    profile: SimProfile,
    power_trace: PowerStateTrace,
    rng: np.random.Generator,
    *,
    allow_c_states: bool,
    allow_p_states: bool,
    key=None,
) -> BurstTrain:
    """VRM half: power states -> raw (pre-dithering) burst train."""
    with stage("vrm"), _stage_span("vrm", key, rng):
        table = machine.power_table(allow_c=allow_c_states, allow_p=allow_p_states)
        load = power_trace.current_draw(table.current_a)
        requested_v = power_trace.voltage(table.voltage_v)
        realized_v = VidInterface().apply(requested_v)
        buck = BuckConverter(machine.buck_design(profile), rng=rng)
        return buck.simulate(load, realized_v)


def _synthesize(
    machine: Machine, profile: SimProfile, bursts: BurstTrain, key=None
) -> np.ndarray:
    with stage("emission"), span(
        "emission", {"cache": "off" if key is None else "miss", "key": key_prefix(key)}
    ):
        tap_bursts(bursts)
        emitter = EmissionModel(field_gain=machine.emission_strength)
        wave = emitter.synthesize(bursts, profile.rf_sample_rate_hz)
        tap_emission(wave)
        return wave


def render_emission(
    machine: Machine,
    activity: ActivityTrace,
    profile: SimProfile,
    rng: np.random.Generator,
    *,
    allow_c_states: bool = True,
    allow_p_states: bool = True,
    vrm_dithering=None,
) -> np.ndarray:
    """Activity -> emitted RF waveform (before propagation).

    ``vrm_dithering`` optionally applies the Section VI spread-spectrum
    countermeasure (:class:`repro.countermeasures.VrmDithering`) to the
    burst train before synthesis.
    """
    tap_activity(activity)
    cache = get_chain_cache()
    if cache is None:
        power_trace = run_power_chain(
            machine,
            activity,
            profile,
            rng,
            allow_c_states=allow_c_states,
            allow_p_states=allow_p_states,
        )
        bursts = _simulate_bursts(
            machine,
            profile,
            power_trace,
            rng,
            allow_c_states=allow_c_states,
            allow_p_states=allow_p_states,
        )
        if vrm_dithering is not None:
            with stage("dither"), _stage_span("dither", None, rng):
                bursts = vrm_dithering.apply(
                    bursts, rng, time_scale=profile.time_scale
                )
        return _synthesize(machine, profile, bursts)

    # Derive the whole key chain from the inputs alone, then probe from
    # the coarsest layer down so a hit skips every stage it covers.
    k_power, k_burst, k_dither, k_emit = _chain_keys(
        machine,
        activity,
        profile,
        rng,
        allow_c_states,
        allow_p_states,
        vrm_dithering,
    )

    hit = cache.get(k_emit)
    if hit is not None:
        wave, state_after = hit
        rng.bit_generator.state = state_after
        _stage_hit("emission", k_emit, rng)
        tap_emission(wave)
        return wave

    def compute_emit() -> np.ndarray:
        bursts = _resolve_bursts(
            cache,
            k_power,
            k_burst,
            k_dither,
            machine,
            activity,
            profile,
            rng,
            allow_c_states=allow_c_states,
            allow_p_states=allow_p_states,
            vrm_dithering=vrm_dithering,
        )
        # Synthesis is deterministic: RNG state is unchanged from the
        # dither/burst stage, so storing the current state is exact.
        return _synthesize(machine, profile, bursts, key=k_emit)

    return _compute_through_lock(
        cache, k_emit, "emission", rng, compute_emit, on_hit=tap_emission
    )


def render_bursts(
    machine: Machine,
    activity: ActivityTrace,
    profile: SimProfile,
    rng: np.random.Generator,
    *,
    allow_c_states: bool = True,
    allow_p_states: bool = True,
    vrm_dithering=None,
) -> BurstTrain:
    """Digital + VRM halves only: activity -> (optionally dithered)
    burst train.

    A stage-wise entry point for planners/executors that want to warm a
    shared burst-level prefix (e.g. a dithering sweep, where every trial
    shares the raw train but diverges at the dither stage) without
    paying for synthesis.
    """
    cache = get_chain_cache()
    if cache is None:
        power_trace = run_power_chain(
            machine,
            activity,
            profile,
            rng,
            allow_c_states=allow_c_states,
            allow_p_states=allow_p_states,
        )
        bursts = _simulate_bursts(
            machine,
            profile,
            power_trace,
            rng,
            allow_c_states=allow_c_states,
            allow_p_states=allow_p_states,
        )
        if vrm_dithering is not None:
            with stage("dither"), _stage_span("dither", None, rng):
                bursts = vrm_dithering.apply(
                    bursts, rng, time_scale=profile.time_scale
                )
        return bursts
    k_power, k_burst, k_dither, _ = _chain_keys(
        machine,
        activity,
        profile,
        rng,
        allow_c_states,
        allow_p_states,
        vrm_dithering,
    )
    return _resolve_bursts(
        cache,
        k_power,
        k_burst,
        k_dither,
        machine,
        activity,
        profile,
        rng,
        allow_c_states=allow_c_states,
        allow_p_states=allow_p_states,
        vrm_dithering=vrm_dithering,
    )


def _resolve_bursts(
    cache,
    k_power: str,
    k_burst: str,
    k_dither: str,
    machine: Machine,
    activity: ActivityTrace,
    profile: SimProfile,
    rng: np.random.Generator,
    *,
    allow_c_states: bool,
    allow_p_states: bool,
    vrm_dithering,
) -> BurstTrain:
    """The burst train a synthesis consumes: dithered when configured."""
    if vrm_dithering is None:
        return _cached_bursts(
            cache,
            k_power,
            k_burst,
            machine,
            activity,
            profile,
            rng,
            allow_c_states=allow_c_states,
            allow_p_states=allow_p_states,
        )
    hit = cache.get(k_dither)
    if hit is not None:
        bursts, state_after = hit
        rng.bit_generator.state = state_after
        _stage_hit("dither", k_dither, rng)
        return bursts

    def compute_dither() -> BurstTrain:
        bursts = _cached_bursts(
            cache,
            k_power,
            k_burst,
            machine,
            activity,
            profile,
            rng,
            allow_c_states=allow_c_states,
            allow_p_states=allow_p_states,
        )
        with stage("dither"), _stage_span("dither", k_dither, rng):
            return vrm_dithering.apply(bursts, rng, time_scale=profile.time_scale)

    return _compute_through_lock(cache, k_dither, "dither", rng, compute_dither)


def _cached_bursts(
    cache,
    k_power: str,
    k_burst: str,
    machine: Machine,
    activity: ActivityTrace,
    profile: SimProfile,
    rng: np.random.Generator,
    *,
    allow_c_states: bool,
    allow_p_states: bool,
) -> BurstTrain:
    """Raw (pre-dithering) burst train via the layered cache."""
    hit = cache.get(k_burst)
    if hit is not None:
        bursts, state_after = hit
        rng.bit_generator.state = state_after
        _stage_hit("vrm", k_burst, rng)
        return bursts

    def compute_bursts() -> BurstTrain:
        hit = cache.get(k_power)
        if hit is not None:
            power_trace, state_after = hit
            rng.bit_generator.state = state_after
            _stage_hit("pmu", k_power, rng)
        else:

            def compute_power() -> PowerStateTrace:
                with stage("pmu"), _stage_span("pmu", k_power, rng):
                    table = machine.power_table(
                        allow_c=allow_c_states, allow_p=allow_p_states
                    )
                    pmu = PMU(
                        table, governor=machine.governor(table, profile), rng=rng
                    )
                    return pmu.run(activity)

            power_trace = _compute_through_lock(
                cache, k_power, "pmu", rng, compute_power
            )
        return _simulate_bursts(
            machine,
            profile,
            power_trace,
            rng,
            allow_c_states=allow_c_states,
            allow_p_states=allow_p_states,
            key=k_burst,
        )

    return _compute_through_lock(cache, k_burst, "vrm", rng, compute_bursts)


def replay_capture_hit(
    key: str,
    capture: IQCapture,
    state_after: dict,
    activity: ActivityTrace,
    rng: np.random.Generator,
) -> None:
    """Everything a capture cache hit does besides returning the value.

    Restores the RNG exit state and emits the ``sdr`` hit event; as the
    skipped chain would have tapped the activity and capture metrics,
    those endpoints are tapped here.  A sweep's capture group calls this
    directly for members that share a capture it already holds, which
    keeps their events, metrics and RNG digests those of a solo run.
    """
    rng.bit_generator.state = state_after
    _stage_hit("sdr", key, rng)
    tap_activity(activity)
    tap_capture(capture, adc_bits=8)


def render_capture(
    machine: Machine,
    activity: ActivityTrace,
    scenario: Scenario,
    profile: SimProfile,
    rng: np.random.Generator,
    *,
    allow_c_states: bool = True,
    allow_p_states: bool = True,
    vrm_dithering=None,
) -> IQCapture:
    """Full chain: activity -> complex baseband IQ capture.

    The finished capture is itself cached, keyed by the emission key
    plus the scenario, so a sweep that varies only the *receiver*
    (decoder/detector configuration) pays for the analog chain once.
    """
    cache = get_chain_cache()
    k_capture = None
    if cache is not None:
        keys = capture_chain_keys(
            machine,
            activity,
            scenario,
            profile,
            rng,
            allow_c_states=allow_c_states,
            allow_p_states=allow_p_states,
            vrm_dithering=vrm_dithering,
        )
        k_capture = keys.capture
        hit = cache.get(k_capture)
        if hit is not None:
            capture, state_after = hit
            replay_capture_hit(k_capture, capture, state_after, activity, rng)
            return capture

    def compute_capture() -> IQCapture:
        wave = render_emission(
            machine,
            activity,
            profile,
            rng,
            allow_c_states=allow_c_states,
            allow_p_states=allow_p_states,
            vrm_dithering=vrm_dithering,
        )
        with stage("propagation"), _stage_span("propagation", k_capture, rng):
            antenna_v = scenario.apply(wave, profile.rf_sample_rate_hz, rng)
            tap_propagation(wave, antenna_v, scenario)
        with stage("sdr"), _stage_span("sdr", k_capture, rng):
            sdr = RtlSdrV3(sample_rate=profile.sdr_sample_rate_hz)
            capture = sdr.capture(
                antenna_v,
                profile.rf_sample_rate_hz,
                tuned_frequency_hz(machine, profile),
                rng,
            )
            tap_capture(capture, sdr.bits)
        return capture

    if cache is None:
        return compute_capture()

    def replay_taps(capture: IQCapture) -> None:
        tap_activity(activity)
        tap_capture(capture, adc_bits=8)

    return _compute_through_lock(
        cache, k_capture, "sdr", rng, compute_capture, on_hit=replay_taps
    )
