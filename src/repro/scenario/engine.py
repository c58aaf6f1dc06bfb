"""The scenario engine: resolve, then drive the lifecycle.

``run_components`` is the one execution path every scenario takes -
the CLI, the baseline gate, the ported experiments and the conformance
suite all funnel through it - so its guarantees hold everywhere:
canonical component order (:mod:`.dependency`), strict phase order
(:mod:`.lifecycle`), per-component randomness streams
(:mod:`.randomness`), and an outcome whose ``records`` / ``metrics`` /
``chain_keys`` are deterministic functions of ``(components, seed,
quick)``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..obs.trace import span
from .component import Component, ScenarioContext
from .dependency import resolve_order
from .lifecycle import Lifecycle


@dataclass
class ScenarioOutcome:
    """Everything one scenario run produced.

    ``records`` / ``rows`` / ``metrics`` / ``chain_keys`` are
    deterministic under a fixed seed; ``elapsed_s`` is the only
    wall-clock field and is excluded from :meth:`comparable`.
    """

    name: str
    seed: int
    quick: bool
    records: List[Dict[str, Any]]
    rows: List[Dict[str, Any]]
    metrics: Dict[str, float]
    chain_keys: List[Tuple[Tuple[str, str], ...]]
    order: List[str] = field(default_factory=list)
    elapsed_s: float = 0.0

    def comparable(self) -> Dict[str, Any]:
        """The deterministic projection two equal-seed runs must share
        exactly (the conformance suite's equality surface)."""
        return {
            "name": self.name,
            "seed": self.seed,
            "quick": self.quick,
            "records": self.records,
            "rows": self.rows,
            "metrics": self.metrics,
            "chain_keys": self.chain_keys,
            "order": self.order,
        }

    def record_for(self, label: str) -> Optional[Dict[str, Any]]:
        for record in self.records:
            if record["label"] == label:
                return record
        return None


def run_components(
    name: str,
    components: Sequence[Component],
    *,
    seed: int = 0,
    quick: bool = True,
) -> ScenarioOutcome:
    """Execute one scenario: resolve the order, then setup -> run ->
    teardown every component under the scenario spans.

    ``teardown`` runs in reverse dependency order, and runs even when a
    ``run`` hook raises (components that ran their ``setup`` get their
    ``teardown``), so a failing scenario never leaks held state into
    the next one.
    """
    started = time.perf_counter()
    order = resolve_order(components)
    ctx = ScenarioContext(name, seed=seed, quick=quick)
    lifecycle = Lifecycle()
    info = {
        "scenario": name,
        "seed": int(seed),
        "components": len(order),
    }
    with span("scenario", info):
        lifecycle.advance("setup")
        entered: List[Component] = []
        try:
            with span("scenario.setup", {"scenario": name}):
                for component in order:
                    with span(
                        "scenario.component",
                        {"phase": "setup", "component": component.name},
                    ):
                        component.setup(ctx)
                    entered.append(component)
            lifecycle.advance("run")
            with span("scenario.run", {"scenario": name}):
                for component in order:
                    with span(
                        "scenario.component",
                        {"phase": "run", "component": component.name},
                    ):
                        component.run(ctx)
        finally:
            _teardown(name, ctx, lifecycle, entered)
    ctx.gauge("scenario.components", len(order))
    ctx.gauge("scenario.records", len(ctx.records))
    return ScenarioOutcome(
        name=name,
        seed=int(seed),
        quick=bool(quick),
        records=ctx.records,
        rows=ctx.rows,
        metrics=ctx.metrics,
        chain_keys=ctx.chain_keys,
        order=[c.name for c in order],
        elapsed_s=time.perf_counter() - started,
    )


def _teardown(
    name: str,
    ctx: ScenarioContext,
    lifecycle: Lifecycle,
    entered: List[Component],
) -> None:
    """Advance through teardown for every component whose setup ran."""
    while lifecycle.phase not in ("teardown", "complete"):
        lifecycle.advance(
            "run" if lifecycle.phase == "setup" else "teardown"
        )
    with span("scenario.teardown", {"scenario": name}):
        for component in reversed(entered):
            with span(
                "scenario.component",
                {"phase": "teardown", "component": component.name},
            ):
                component.teardown(ctx)
    lifecycle.advance("complete")
