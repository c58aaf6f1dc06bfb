"""The stream driver: source -> ring buffer -> receiver, with backpressure.

The runner replays a chunk source against an online receiver under a
*simulated* service clock, so a streaming run is deterministic and
reproducible (baselines, regression) while still exercising everything a
live run would:

* **Backpressure.**  The receiver drains the ring buffer at
  ``service_rate_sps`` samples per second of simulated compute.  When
  chunks arrive faster than they are serviced the buffer fills; under
  the ``block`` policy the producer then stalls (the lossless file-replay
  behaviour), under ``drop-oldest`` the oldest queued chunk is evicted
  and accounted (the live-SDR behaviour).
* **Graceful degradation.**  When the buffer occupancy crosses
  ``degrade_threshold`` the runner starts shedding every other incoming
  chunk at ingest (a crude but predictable decimation), emitting one
  ``RuntimeWarning`` plus a trace event on entry - the same pattern the
  process pool uses for its serial fallback - so a degraded run is never
  silent.
* **Gap alignment.**  Dropped or shed chunks are replayed into the
  receiver as zero-sample gaps (:meth:`push_gap`) keyed off each chunk's
  ``start_sample``, so loss degrades the decode instead of shifting
  every later bit.
* **Accounting.**  Per-chunk lag and buffer occupancy go to
  ``obs.metrics`` (``stream.*``) and per-chunk spans to ``obs.trace``;
  the run returns a :class:`StreamStats` summary suitable for manifests.

``service_rate_sps=None`` models an infinitely fast receiver: the buffer
never backs up, nothing drops, and the finalised decode is bit-exact
with the batch decoder.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import List, Optional

from ..obs.metrics import (
    tap_stream_chunk,
    tap_stream_degraded,
    tap_stream_drop,
    tap_stream_event,
    tap_stream_summary,
)
from ..obs.trace import span, trace_event
from .ring import RingBuffer
from .source import Chunk, ChunkSource


@dataclass
class StreamStats:
    """End-of-run accounting, flat enough to drop into a manifest."""

    chunks_total: int = 0
    chunks_processed: int = 0
    chunks_dropped: int = 0
    chunks_shed: int = 0
    samples_processed: int = 0
    samples_dropped: int = 0
    samples_shed: int = 0
    gap_samples: int = 0
    n_events: int = 0
    max_lag_s: float = 0.0
    mean_lag_s: float = 0.0
    high_watermark: int = 0
    buffer_capacity: int = 0
    policy: str = "block"
    degraded: bool = False
    stream_duration_s: float = 0.0
    finished_at_s: float = 0.0
    events_per_s: float = 0.0

    @property
    def lossless(self) -> bool:
        """True when every source sample reached the receiver."""
        return self.samples_dropped == 0 and self.samples_shed == 0

    def as_dict(self) -> dict:
        out = dict(self.__dict__)
        out["lossless"] = self.lossless
        return out


@dataclass
class StreamRunResult:
    """Everything a streaming run produced, short of finalisation."""

    stats: StreamStats
    events: List = field(default_factory=list)

    @property
    def n_events(self) -> int:
        return len(self.events)


class StreamRunner:
    """Drive one chunk source through one online receiver.

    Parameters
    ----------
    source:
        The chunk producer (:class:`~repro.stream.source.ChunkSource`).
    receiver:
        Any object with ``push_samples(samples, now_s)`` /
        ``push_gap(n, now_s)`` returning lists of events carrying a
        ``latency_s`` attribute (both stream receivers qualify).
    buffer_capacity / policy:
        Ring-buffer size and overflow behaviour
        (:class:`~repro.stream.ring.RingBuffer`).
    service_rate_sps:
        Simulated receiver throughput in samples per second; ``None``
        means infinitely fast (no backpressure, lossless).
    degrade_threshold:
        Buffer occupancy (fraction) at which ingest decimation starts;
        ``None`` disables degradation.
    """

    def __init__(
        self,
        source: ChunkSource,
        receiver,
        buffer_capacity: int = 64,
        policy: str = "block",
        service_rate_sps: Optional[float] = None,
        degrade_threshold: Optional[float] = 0.85,
    ):
        if service_rate_sps is not None and service_rate_sps <= 0:
            raise ValueError("service_rate_sps must be positive (or None)")
        if degrade_threshold is not None and not 0 < degrade_threshold <= 1:
            raise ValueError("degrade_threshold must be in (0, 1] or None")
        self.source = source
        self.receiver = receiver
        self.ring = RingBuffer(buffer_capacity, policy)
        self.service_rate_sps = service_rate_sps
        self.degrade_threshold = degrade_threshold
        self._busy_until = 0.0
        self._expected_next = 0
        self._degraded = False
        self._shed_parity = 0
        self._lag_total = 0.0
        self._events: List = []
        self.stats = StreamStats(
            buffer_capacity=self.ring.capacity, policy=policy
        )

    # -- public -------------------------------------------------------------

    def run(self) -> StreamRunResult:
        """Replay the whole source; returns events plus accounting."""
        sample_rate = self.source.meta.sample_rate
        self._prepare_service()
        last_end = 0
        for chunk in self.source:
            self.stats.chunks_total += 1
            last_end = max(last_end, chunk.end_sample)
            self._drain_until(chunk.arrival_s)
            if self._should_shed(chunk):
                continue
            self._ingest(chunk)
        self._drain_all()
        flush = getattr(self.receiver, "flush_events", None)
        if flush is not None:
            self._record_events(flush(self._busy_until))
        self._summarise(last_end / sample_rate)
        return StreamRunResult(stats=self.stats, events=list(self._events))

    # -- clock / buffer mechanics -------------------------------------------

    def _prepare_service(self) -> None:
        """Size the receiver's STFT buffer for in-place chunk reuse, so
        steady-state pushes reallocate nothing."""
        chunk_size = int(getattr(self.source, "chunk_size", 0) or 0)
        reserve = getattr(self.receiver, "reserve", None)
        if reserve is not None and chunk_size > 0:
            # One chunk plus the carried window tail fits in place.
            reserve(2 * chunk_size)

    def _service_time(self, chunk: Chunk) -> float:
        if self.service_rate_sps is None:
            return 0.0
        return chunk.size / self.service_rate_sps

    def _drain_until(self, now_s: float) -> None:
        """Service queued chunks whose processing completes by ``now_s``."""
        while True:
            head = self.ring.peek()
            if head is None:
                return
            start = max(self._busy_until, head.arrival_s)
            finish = start + self._service_time(head)
            if finish > now_s:
                return
            self.ring.pop()
            self._process(head, finish)

    def _drain_all(self) -> None:
        """End of stream: service everything still queued."""
        while True:
            head = self.ring.pop()
            if head is None:
                return
            start = max(self._busy_until, head.arrival_s)
            self._process(head, start + self._service_time(head))

    def _ingest(self, chunk: Chunk) -> None:
        """Push one chunk, modelling the policy's overflow behaviour."""
        if self.ring.full and self.ring.policy == "block":
            # The producer stalls until the receiver frees a slot.
            head = self.ring.pop()
            start = max(self._busy_until, head.arrival_s)
            self._process(head, start + self._service_time(head))
        evicted = self.ring.push(chunk)
        for victim in evicted:
            self.stats.chunks_dropped += 1
            self.stats.samples_dropped += victim.size
            tap_stream_drop(1, victim.size)
            trace_event(
                "stream.drop",
                index=victim.index,
                samples=victim.size,
                arrival_s=victim.arrival_s,
            )

    def _should_shed(self, chunk: Chunk) -> bool:
        """Graceful degradation: decimate ingest while overloaded."""
        if self.degrade_threshold is None:
            return False
        if self.ring.occupancy < self.degrade_threshold:
            return False
        if not self._degraded:
            self._degraded = True
            self.stats.degraded = True
            warnings.warn(
                "stream runner falling behind (buffer occupancy "
                f"{self.ring.occupancy:.0%} >= "
                f"{self.degrade_threshold:.0%}); shedding every other "
                "chunk until the backlog clears",
                RuntimeWarning,
                stacklevel=3,
            )
            trace_event(
                "warning",
                kind="stream-degraded",
                occupancy=self.ring.occupancy,
                chunk=chunk.index,
            )
        self._shed_parity ^= 1
        if self._shed_parity == 1:
            self.stats.chunks_shed += 1
            self.stats.samples_shed += chunk.size
            tap_stream_degraded(1, chunk.size)
            return True
        return False

    # -- receiver side ------------------------------------------------------

    def _process(self, chunk: Chunk, finish_s: float) -> None:
        """Feed one chunk (and any preceding gap) to the receiver."""
        self._busy_until = finish_s
        lag = finish_s - chunk.arrival_s
        with span(
            "stream.chunk",
            {
                "index": chunk.index,
                "samples": chunk.size,
                "lag_s": round(lag, 6),
                "occupancy": round(self.ring.occupancy, 4),
            },
        ):
            if chunk.start_sample > self._expected_next:
                gap = chunk.start_sample - self._expected_next
                self.stats.gap_samples += gap
                self._record_events(self.receiver.push_gap(gap, finish_s))
            self._record_events(
                self.receiver.push_samples(chunk.samples, finish_s)
            )
        self._expected_next = max(self._expected_next, chunk.end_sample)
        self.stats.chunks_processed += 1
        self.stats.samples_processed += chunk.size
        self._lag_total += lag
        if lag > self.stats.max_lag_s:
            self.stats.max_lag_s = lag
        tap_stream_chunk(lag, self.ring.occupancy)

    def _record_events(self, events) -> None:
        for event in events:
            self._events.append(event)
            tap_stream_event(event.latency_s)

    def _summarise(self, stream_duration_s: float) -> None:
        s = self.stats
        s.n_events = len(self._events)
        s.high_watermark = self.ring.high_watermark
        s.stream_duration_s = stream_duration_s
        s.finished_at_s = self._busy_until
        if s.chunks_processed:
            s.mean_lag_s = self._lag_total / s.chunks_processed
        horizon = max(s.finished_at_s, stream_duration_s)
        s.events_per_s = s.n_events / horizon if horizon > 0 else 0.0
        tap_stream_summary(s.events_per_s, s.high_watermark)
