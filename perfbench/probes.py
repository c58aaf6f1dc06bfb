"""Span tracing around each layer's public callables, from outside ``src/``.

A :class:`Tracer` wraps every callable in :data:`PROBES` and rebinds the
wrapper wherever the program holds a reference to the original: on the
owning class for methods, and in every loaded module that imported a
function by name (``tick_group`` in ``repro.mux.scheduler``,
``align_bits`` in ``repro.covert.link`` ...).  Spans are recorded only
inside a root span opened by the benchmark (an op or a replay phase);
outside one the wrappers call straight through, so output checks made
between ops are not attributed to any layer.

Spans stay in memory as tuples and are written out as JSONL at exit.
Self time is a span's duration minus the time its child spans cover;
:func:`summarize` turns the spans into per-layer totals whose self times
sum to the traced root wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

Counts = Dict[str, float]


def _rows(n: int) -> Counts:
    return {"batch.rows": n, "batch.calls": 1}


@dataclass(frozen=True)
class Probe:
    """One wrapped callable: ``module:qualname`` billed to ``layer``.

    ``metric`` names the layer's self-time metric; ``on`` lists the
    workloads that must call it at least once; ``count`` derives work
    counters from ``(args, kwargs, result)``.
    """

    layer: str
    metric: str
    module: str
    qualname: str
    on: Tuple[str, ...]
    count: Optional[Callable[[tuple, dict, Any], Counts]] = None

    @property
    def target(self) -> str:
        return f"{self.module}:{self.qualname}"


def _cache_get(args, kwargs, result) -> Counts:
    hit = result is not None
    return {"cache.hits": int(hit), "cache.misses": int(not hit)}


PROBES: Tuple[Probe, ...] = (
    Probe("osmodel", "osmodel.self_s", "repro.covert.link",
          "CovertLink.prepare", ("link",)),
    Probe("power", "power.self_s", "repro.power.pmu", "PMU.run", ("link",)),
    Probe("vrm", "vrm.self_s", "repro.vrm.buck", "BuckConverter.simulate",
          ("link",), lambda a, k, r: {"vrm.bursts": r.times.size}),
    Probe("emission", "emission.self_s", "repro.vrm.emission",
          "EmissionModel.synthesize", ("link",),
          lambda a, k, r: {"emission.samples": r.size}),
    Probe("em", "em.self_s", "repro.em.environment", "Scenario.apply",
          ("link",)),
    Probe("sdr", "sdr.self_s", "repro.sdr.rtlsdr", "RtlSdrV3.capture",
          ("link",),
          lambda a, k, r: {"sdr.samples_in": a[1].size,
                           "sdr.samples_out": r.samples.size}),
    Probe("batch.mix", "batch.mix_s", "repro.batch.kernels", "batched_mix",
          ("grid",), lambda a, k, r: _rows(a[0].shape[0])),
    Probe("batch.decimate", "batch.decimate_s", "repro.batch.kernels",
          "batched_decimate", ("grid",),
          lambda a, k, r: _rows(a[0].shape[0])),
    Probe("batch.convolve", "batch.convolve_s", "repro.batch.kernels",
          "batched_convolve_full", ("grid",),
          lambda a, k, r: _rows(a[0].shape[0])),
    Probe("batch.bincount", "batch.bincount_s", "repro.batch.kernels",
          "batched_bincount", ("grid",), lambda a, k, r: _rows(len(a[0]))),
    Probe("batch.band_energy", "batch.band_energy_s", "repro.batch.kernels",
          "batched_band_energy", ("grid",),
          lambda a, k, r: _rows(len(a[3]))),
    Probe("acquisition", "acquisition.self_s", "repro.core.acquisition",
          "acquire", ("link",),
          lambda a, k, r: {"acquisition.fft_rows": r.samples.size}),
    # The batched sweep path decodes pre-acquired envelopes, so the
    # decoder layer is both of its entry points.
    Probe("decoder", "decoder.self_s", "repro.core.decoder",
          "BatchDecoder.decode", ("link",)),
    Probe("decoder", "decoder.self_s", "repro.core.decoder",
          "BatchDecoder.decode_envelope", ("link", "grid")),
    Probe("align", "align.self_s", "repro.core.align", "align_bits",
          ("link", "grid")),
    Probe("cache.get", "cache.get_s", "repro.exec.cache", "ChainCache.get",
          ("link", "grid"), _cache_get),
    Probe("cache.put", "cache.put_s", "repro.exec.cache", "ChainCache.put",
          ("link", "grid")),
    Probe("sweep.plan", "sweep.plan_s", "repro.sweep.plan", "plan_sweep",
          ("grid",), lambda a, k, r: {"sweep.stages_saved": r.stages_saved}),
    Probe("sweep", "sweep.self_s", "repro.sweep.engine", "run_sweep",
          ("grid",)),
    Probe("mux.build", "mux.build_s", "repro.mux.fleet", "build_multiplexer",
          ("fleet",)),
    Probe("mux.tick", "mux.tick_self_s", "repro.mux.scheduler",
          "StreamMultiplexer.tick", ("fleet",)),
    Probe("mux.dsp", "mux.dsp_s", "repro.mux.dsp", "tick_group", ("fleet",)),
    # Each envelope frame a receiver is handed is one FFT row of the
    # group kernel, so the pushes count the mux's FFT rows exactly.
    Probe("stream.push", "stream.push_s", "repro.stream.receiver",
          "StreamingReceiver.push_envelope", ("fleet",),
          lambda a, k, r: {"mux.fft_rows": a[1].size}),
    Probe("stream.push", "stream.push_s", "repro.stream.receiver",
          "StreamingKeystrokeDetector.push_envelope", ("fleet",),
          lambda a, k, r: {"mux.fft_rows": a[1].size}),
    Probe("stream.finalize", "stream.finalize_s", "repro.stream.receiver",
          "StreamingReceiver.finalize", ("fleet",)),
    Probe("stream.finalize", "stream.finalize_s", "repro.stream.receiver",
          "StreamingKeystrokeDetector.finalize", ("fleet",)),
)


def _resolve(probe: Probe):
    """``(owner, attribute, original)``, or None when the callable is gone."""
    try:
        owner: Any = importlib.import_module(probe.module)
    except ImportError:
        return None
    *path, attr = probe.qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = vars(owner).get(attr) if isinstance(owner, type) else getattr(
        owner, attr, None
    )
    if original is None:
        return None
    return owner, attr, original


class Tracer:
    """In-memory span recorder plus the installed probe wrappers."""

    def __init__(self) -> None:
        # (name, layer, start, end, span_id, parent_id, op_id, counts)
        self.spans: List[tuple] = []
        self.extra: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.absent: List[str] = []
        self._stack: List[int] = []
        self._next_id = 1
        self._op_id: Optional[int] = None
        # ((owner, attribute, original), probe, wrapper) per present probe
        self._wrappers: List[Tuple[tuple, Probe, Any]] = []
        for probe in PROBES:
            resolved = _resolve(probe)
            if resolved is None:
                self.absent.append(probe.target)
                continue
            self._wrappers.append(
                (resolved, probe, self._wrap(probe, resolved[2])))

    # -- recording ----------------------------------------------------------

    def _new_id(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        return span_id

    def _wrap(self, probe: Probe, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._op_id is None:
                return fn(*args, **kwargs)
            span_id = tracer._new_id()
            parent = tracer._stack[-1]
            tracer._stack.append(span_id)
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.calls[probe.target] += 1
                counts = (
                    probe.count(args, kwargs, result)
                    if ok and probe.count else None
                )
                tracer.spans.append((probe.qualname, probe.layer, start, end,
                                     span_id, parent, tracer._op_id, counts))
            return result

        return traced

    @contextmanager
    def root(self, name: str, op_id: int):
        """A root span: everything the probes record nests under it."""
        span_id = self._new_id()
        self._op_id = op_id
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._op_id = None
            self.spans.append((name, None, start, end, span_id, None, op_id,
                               None))

    def count(self, name: str, value: float) -> None:
        """Add a work counter the benchmark reads itself (mux ledger)."""
        self.extra[name] += value

    def peak(self, name: str, value: float) -> None:
        """Keep the largest value seen of a gauge (pool high watermark)."""
        self.extra[name] = max(self.extra[name], value)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Rebind every wrapper on each binding its callers use."""
        self._swap({id(orig): (orig, wrapper)
                    for (_, _, orig), _, wrapper in self._wrappers})

    def uninstall(self) -> None:
        """Put the originals back, also where a module imported a
        wrapper by name while it was installed."""
        self._swap({id(wrapper): (wrapper, orig)
                    for (_, _, orig), _, wrapper in self._wrappers})

    def _swap(self, swaps: Dict[int, Tuple[Any, Any]]) -> None:
        for (owner, attr, _), _, _ in self._wrappers:
            if isinstance(owner, type):
                setattr(owner, attr, swaps[id(vars(owner)[attr])][1])
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for attr, value in list(namespace.items()):
                swap = swaps.get(id(value))
                if swap is not None and swap[0] is value:
                    setattr(module, attr, swap[1])

    def uncovered(self, workload: str) -> List[str]:
        """Present callables expected on ``workload`` that were never called."""
        return [
            probe.target
            for _, probe, _ in self._wrappers
            if workload in probe.on and self.calls[probe.target] == 0
        ]

    def write_jsonl(self, path) -> None:
        keys = ("name", "layer", "start", "end", "span_id", "parent_id",
                "op_id", "counts")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def summarize(tracer: Tracer, n_ops: int) -> Dict[str, Any]:
    """Per-layer calls, total, self time and counts, per op.

    ``other.self_s`` is the root spans' own self time, so the layer self
    times plus it sum to the traced root wall time per op.
    """
    child_time: Dict[int, float] = defaultdict(float)
    for _, _, start, end, _, parent, _, _ in tracer.spans:
        if parent is not None:
            child_time[parent] += end - start
    layers: Dict[str, Dict[str, Any]] = {}
    for probe in PROBES:
        layers.setdefault(probe.layer, {
            "metric": probe.metric, "calls": 0, "total_s": 0.0,
            "self_s": 0.0, "counts": defaultdict(float),
        })
    wall = other = 0.0
    counts: Dict[str, float] = defaultdict(float, tracer.extra)
    for _, layer, start, end, span_id, parent, _, span_counts in tracer.spans:
        duration = end - start
        own = duration - child_time[span_id]
        if layer is None:
            wall += duration
            other += own
            continue
        entry = layers[layer]
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += own
        for name, value in (span_counts or {}).items():
            entry["counts"][name] += value
            counts[name] += value
    metrics = {entry["metric"]: entry["self_s"] / n_ops
               for entry in layers.values()}
    metrics["other.self_s"] = other / n_ops
    for name in ("vrm.bursts", "emission.samples", "sdr.samples_in",
                 "sdr.samples_out", "acquisition.fft_rows", "cache.hits",
                 "cache.misses", "sweep.stages_saved", "mux.fft_rows",
                 "mux.delivered", "mux.dropped", "mux.shed"):
        metrics[name] = counts[name] / n_ops
    lookups = counts["cache.hits"] + counts["cache.misses"]
    metrics["cache.hit_ratio"] = counts["cache.hits"] / lookups if lookups else 0.0
    calls = counts["batch.calls"]
    metrics["batch.rows_per_call"] = counts["batch.rows"] / calls if calls else 0.0
    metrics["mux.pool_high_watermark"] = tracer.extra.get(
        "mux.pool_high_watermark", 0.0)
    table = {
        layer: {
            "calls": entry["calls"],
            "total_s": entry["total_s"] / n_ops,
            "self_s": entry["self_s"] / n_ops,
            "counts": {k: v / n_ops for k, v in entry["counts"].items()},
        }
        for layer, entry in layers.items()
    }
    table["other"] = {"calls": 0, "total_s": other / n_ops,
                      "self_s": other / n_ops, "counts": {}}
    return {"metrics": metrics, "layers": table, "wall_per_op_s": wall / n_ops}
