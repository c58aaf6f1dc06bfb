"""The scenario conformance contract, as reusable check functions.

Every registered scenario must pass every applicable check; the pytest
harness (``tests/scenario/test_conformance.py``) is a thin parametrized
shim over ``list_scenarios() x CONFORMANCE_CHECKS``, so registering a
scenario is all it takes to put it under test.

To bound runtime the checks share a small set of runs per scenario
(:func:`execute_runs`): a *reference* run instrumented with tracing and
metrics, a *repeat* run (same seed) and a run over a *permuted*
component list.  All runs execute serially under a scenario-private chain
cache, so the analog stages compute once and the later runs certify
cache transparency for free.

Checks raise :class:`ConformanceError` with a scenario-prefixed message
on violation and return ``None`` on success.
"""

from __future__ import annotations

import json
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from ..exec.context import execution_scope
from ..obs.metrics import flatten, metrics_scope
from ..obs.trace import REGISTERED_SPANS, collect_events
from .component import SLOTS, check_component
from .engine import ScenarioOutcome, run_components
from .registry import build_components, get_scenario, scenario_id

#: Stage names a published chain-key path may use, in chain order.
STAGE_ORDER = ("pmu", "vrm", "dither", "emission", "capture")

#: Chain stages whose key is a pure function of the previous stage's
#: key (no extra inputs), so the parent -> child mapping must be
#: functional across every path a scenario publishes.
FUNCTIONAL_EDGES = (("pmu", "vrm"), ("dither", "emission"))


class ConformanceError(AssertionError):
    """A scenario violated the conformance contract."""


@dataclass
class ScenarioRuns:
    """The shared run set the checks operate on."""

    name: str
    seed: int
    ref: ScenarioOutcome
    repeat: ScenarioOutcome
    permuted: ScenarioOutcome
    events: List[dict] = field(default_factory=list)
    registry_metrics: Dict[str, float] = field(default_factory=dict)

    @property
    def spec(self):
        return get_scenario(self.name).spec


def execute_runs(name: str) -> ScenarioRuns:
    """Run one scenario the handful of ways the checks need.

    Everything runs serially under a temporary scenario-private chain
    cache: the reference run warms it, the repeat / permuted runs
    certify that cached replays stay bit-identical.
    """
    info = get_scenario(name)
    seed = info.spec.default_seed
    with tempfile.TemporaryDirectory(prefix=f"conformance-{name}-") as tmp:
        with execution_scope(jobs=1, cache_enabled=True, cache_dir=tmp):
            with metrics_scope() as registry:
                with collect_events() as events:
                    ref = _run(name, seed)
                registry_metrics = flatten(registry.snapshot())
            repeat = _run(name, seed)
            components = build_components(name, seed, quick=True)
            permuted = run_components(
                name, list(reversed(components)), seed=seed, quick=True
            )
    return ScenarioRuns(
        name=name,
        seed=seed,
        ref=ref,
        repeat=repeat,
        permuted=permuted,
        events=list(events),
        registry_metrics=registry_metrics,
    )


def _run(name: str, seed: int) -> ScenarioOutcome:
    components = build_components(name, seed, quick=True)
    return run_components(name, components, seed=seed, quick=True)


def _fail(name: str, message: str) -> None:
    raise ConformanceError(f"scenario {name!r}: {message}")


# ---------------------------------------------------------------------------
# Checks


def check_static_contract(runs: ScenarioRuns) -> None:
    """Spec and component declarations are well-formed and agree."""
    spec = runs.spec
    if not spec.title:
        _fail(runs.name, "spec has an empty title")
    sid = scenario_id(spec)
    if len(sid) != 64 or set(sid) - set("0123456789abcdef"):
        _fail(runs.name, f"scenario_id is not a sha256 hex digest: {sid!r}")
    components = build_components(runs.name, runs.seed, quick=True)
    filled = [slot for slot, _ in spec.slots]
    if sorted(set(filled)) != sorted(filled):
        _fail(runs.name, f"spec fills a slot twice: {filled}")
    for slot in filled:
        if slot not in SLOTS:
            _fail(runs.name, f"spec names unknown slot {slot!r}")
    for component in components:
        problem = check_component(component)
        if problem is not None:
            _fail(runs.name, problem)


def check_determinism(runs: ScenarioRuns) -> None:
    """Same seed, same everything: records, rows, metrics, chain keys."""
    if runs.ref.comparable() != runs.repeat.comparable():
        diff = _first_difference(
            runs.ref.comparable(), runs.repeat.comparable()
        )
        _fail(runs.name, f"seed replay diverged: {diff}")


def check_order_invariance(runs: ScenarioRuns) -> None:
    """Permuting component registration order changes nothing: the
    resolver's canonical order (and per-component RNG streams keyed by
    name, not position) make construction order irrelevant."""
    if runs.ref.comparable() != runs.permuted.comparable():
        diff = _first_difference(
            runs.ref.comparable(), runs.permuted.comparable()
        )
        _fail(runs.name, f"component order leaked into the outcome: {diff}")


def check_records_contract(runs: ScenarioRuns) -> None:
    """Every record carries a label and a digest and is plain JSON -
    no numpy scalars, no timings, nothing non-deterministic."""
    if not runs.ref.records:
        _fail(runs.name, "scenario produced no records")
    for i, record in enumerate(runs.ref.records):
        for key in ("label", "digest"):
            if not isinstance(record.get(key), str) or not record[key]:
                _fail(
                    runs.name,
                    f"record {i} has no usable {key!r}: {record.get(key)!r}",
                )
        try:
            json.dumps(record, allow_nan=False, sort_keys=True)
        except (TypeError, ValueError) as exc:
            _fail(runs.name, f"record {i} is not plain JSON: {exc}")


def check_metrics_contract(runs: ScenarioRuns) -> None:
    """Outcome metrics are floats and mirror into an active metrics
    registry as same-named gauges with equal values."""
    if not runs.ref.metrics:
        _fail(runs.name, "scenario produced no metrics")
    for name, value in runs.ref.metrics.items():
        if not isinstance(value, float):
            _fail(runs.name, f"metric {name!r} is not a float: {value!r}")
        mirrored = runs.registry_metrics.get(name)
        if mirrored is None:
            _fail(runs.name, f"metric {name!r} missing from the registry")
        if mirrored != value:
            _fail(
                runs.name,
                f"metric {name!r} registry mirror {mirrored!r} != "
                f"outcome value {value!r}",
            )


def check_trace_contract(runs: ScenarioRuns) -> None:
    """The run emits the scenario span family, every span name is
    registered (TRACE001's runtime face), and each component appears in
    a setup, run, and teardown component span."""
    spans = [e for e in runs.events if e.get("event") == "span"]
    names = {e["name"] for e in spans}
    for required in (
        "scenario",
        "scenario.setup",
        "scenario.run",
        "scenario.teardown",
    ):
        if required not in names:
            _fail(runs.name, f"missing span {required!r}")
    unregistered = sorted(names - REGISTERED_SPANS)
    if unregistered:
        _fail(runs.name, f"unregistered span names: {unregistered}")
    for phase in ("setup", "run", "teardown"):
        seen = {
            e["component"]
            for e in spans
            if e["name"] == "scenario.component" and e.get("phase") == phase
        }
        missing = sorted(set(runs.ref.order) - seen)
        if missing:
            _fail(
                runs.name,
                f"components missing a {phase} span: {missing}",
            )


def check_chain_key_coherence(runs: ScenarioRuns) -> None:
    """Chain-tagged scenarios publish their trials' key paths, each
    path walks the k_power -> k_capture DAG in stage order, and the
    derivation-only edges stay functional across paths."""
    if "chain" not in runs.spec.tags:
        return
    paths = runs.ref.chain_keys
    if not paths:
        _fail(runs.name, "chain-tagged scenario published no chain keys")
    edge_map: Dict[Tuple[str, str], str] = {}
    for path in paths:
        positions = []
        for stage, key in path:
            if stage not in STAGE_ORDER:
                _fail(runs.name, f"unknown chain stage {stage!r}")
            if len(key) != 64 or set(key) - set("0123456789abcdef"):
                _fail(
                    runs.name,
                    f"stage {stage!r} key is not a sha256 digest: {key!r}",
                )
            positions.append(STAGE_ORDER.index(stage))
        if positions != sorted(positions) or len(set(positions)) != len(
            positions
        ):
            _fail(
                runs.name,
                f"chain path out of stage order: {[s for s, _ in path]}",
            )
        stages = dict(path)
        for parent, child in FUNCTIONAL_EDGES:
            if parent in stages and child in stages:
                seen = edge_map.setdefault(
                    (parent, stages[parent]), stages[child]
                )
                if seen != stages[child]:
                    _fail(
                        runs.name,
                        f"incoherent DAG: {parent} key "
                        f"{stages[parent][:12]} maps to two different "
                        f"{child} keys",
                    )


def check_rng_stream_isolation(runs: ScenarioRuns) -> None:
    """Each component's stream is derived from (seed, component name)
    alone: rebuilding any single stream standalone reproduces the draws
    it would see inside the full scenario, so no component can perturb
    another's randomness."""
    from .randomness import RandomnessStreams

    solo = RandomnessStreams(runs.seed)
    joint = RandomnessStreams(runs.seed)
    for component in runs.ref.order:
        joint.stream(component)
    for component in runs.ref.order:
        a = solo.stream(component).integers(0, 2**32, size=4)
        b = joint.stream(component).integers(0, 2**32, size=4)
        if list(a) != list(b):
            _fail(
                runs.name,
                f"stream {component!r} depends on which other streams "
                "exist",
            )


def _first_difference(a: dict, b: dict) -> str:
    """Human-oriented pointer at the first differing comparable field."""
    for key in a:
        if a[key] != b.get(key):
            return (
                f"field {key!r} differs: {_clip(a[key])} vs "
                f"{_clip(b.get(key))}"
            )
    return "dicts differ"


def _clip(value, limit: int = 200) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."


#: The conformance contract, name -> check.  The pytest harness
#: parametrizes over this mapping crossed with ``list_scenarios()``.
CONFORMANCE_CHECKS: Dict[str, Callable[[ScenarioRuns], None]] = {
    "static_contract": check_static_contract,
    "determinism": check_determinism,
    "order_invariance": check_order_invariance,
    "records_contract": check_records_contract,
    "metrics_contract": check_metrics_contract,
    "trace_contract": check_trace_contract,
    "chain_key_coherence": check_chain_key_coherence,
    "rng_stream_isolation": check_rng_stream_isolation,
}
