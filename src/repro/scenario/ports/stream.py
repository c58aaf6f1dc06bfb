"""The streaming covert receiver as a scenario.

Bit-identical port of the ``stream-covert-tiny`` baseline path: the
reference near-field link (Dell Inspiron, TINY profile, seed 5, the
conftest 100-bit payload) replayed chunk-by-chunk through the
streaming receiver under a deliberately slow drop-oldest service, so
the scenario pins chunk/lag/drop accounting and the lossy finalised
decode alongside the clean batch bits.
"""

from __future__ import annotations

import warnings
from typing import List

import numpy as np

from ...chain import capture_chain_keys
from ...core.align import align_bits
from ...obs.trace import bits_digest
from ...covert.link import CovertLink
from ...params import TINY
from ...systems.laptops import DELL_INSPIRON
from ..component import Component, ScenarioContext
from ..registry import ScenarioSpec, register_scenario

PAYLOAD_SEED = 99
PAYLOAD_BITS = 100
CHUNK_SIZE = 4096
JITTER_REL = 0.05
BUFFER_CAPACITY = 8
SERVICE_RATE_FACTOR = 0.4


class StreamLinkSource(Component):
    """The reference covert link's digital half: framing + activity."""

    slot = "transmitter"
    name = "stream-link-source"
    provides = ("stream.link", "stream.payload", "stream.prepared")

    def __init__(self, link: CovertLink):
        self.link = link

    def run(self, ctx: ScenarioContext) -> None:
        payload = np.random.default_rng(PAYLOAD_SEED).integers(
            0, 2, size=PAYLOAD_BITS
        )
        prepared = self.link.prepare(payload)
        ctx.publish(self, "stream.link", self.link)
        ctx.publish(self, "stream.payload", payload)
        ctx.publish(self, "stream.prepared", prepared)
        ctx.gauge("transmitter.bits", len(prepared.tx_bits))


class StreamChainRenderer(Component):
    """The analog chain plus the clean batch decode for reference."""

    slot = "power"
    name = "stream-chain"
    provides = ("stream.batch",)
    requires = ("stream.link", "stream.prepared")

    def run(self, ctx: ScenarioContext) -> None:
        link = ctx.get("stream.link")
        prepared = ctx.get("stream.prepared")
        keys = capture_chain_keys(
            link.machine,
            prepared.activity,
            link.scenario,
            link.profile,
            prepared.rng,
            allow_c_states=link.allow_c_states,
            allow_p_states=link.allow_p_states,
            vrm_dithering=link.vrm_dithering,
        )
        ctx.add_chain_keys(keys)
        batch = link.run_prepared(prepared)
        ctx.publish(self, "stream.batch", batch)
        ctx.gauge("scenario.capture.samples", batch.capture.samples.size)
        ctx.gauge("channel.batch_ber", batch.metrics.ber)


class StreamChunkChannel(Component):
    """The air-to-receiver transport: jittered chunked replay."""

    slot = "channel"
    name = "stream-chunk-transport"
    provides = ("stream.source",)
    requires = ("stream.batch",)

    def run(self, ctx: ScenarioContext) -> None:
        from ...stream import CaptureChunkSource

        source = CaptureChunkSource(
            ctx.get("stream.batch").capture,
            chunk_size=CHUNK_SIZE,
            jitter_rel=JITTER_REL,
        )
        ctx.publish(self, "stream.source", source)
        ctx.gauge("channel.chunk_size", CHUNK_SIZE)


class StreamReceiverRunner(Component):
    """The streaming receiver under a slow drop-oldest service."""

    slot = "receiver"
    name = "streaming-receiver"
    provides = ("stream.outcome",)
    requires = ("stream.link", "stream.batch", "stream.source")

    def run(self, ctx: ScenarioContext) -> None:
        from ...stream import StreamingReceiver, StreamRunner

        link = ctx.get("stream.link")
        batch = ctx.get("stream.batch")
        source = ctx.get("stream.source")
        bit_period = link.transmitter(
            np.random.default_rng(link.seed)
        ).nominal_bit_duration_s()
        receiver = StreamingReceiver(
            source.meta,
            link.vrm_frequency_hz,
            expected_bit_period_s=bit_period,
            config=link.decoder_config,
            frame_format=link.frame_format,
        )
        runner = StreamRunner(
            source,
            receiver,
            buffer_capacity=BUFFER_CAPACITY,
            policy="drop-oldest",
            service_rate_sps=batch.capture.sample_rate * SERVICE_RATE_FACTOR,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            run = runner.run()
        final = receiver.finalize()
        lossy = align_bits(batch.tx_bits, final.bits)
        stats = run.stats
        ctx.publish(
            self,
            "stream.outcome",
            {"run": run, "final": final, "lossy": lossy},
        )
        ctx.gauge("stream.run.chunks_dropped", stats.chunks_dropped)
        ctx.gauge("stream.run.chunks_shed", stats.chunks_shed)
        ctx.gauge("stream.run.gap_samples", stats.gap_samples)
        ctx.gauge("stream.run.max_lag_s", stats.max_lag_s)
        ctx.gauge("stream.run.synchronized", float(receiver.synchronized))
        ctx.gauge("stream.run.lossy_ber", lossy.ber)
        ctx.add_record(
            {
                "label": "stream-covert",
                "digest": bits_digest(final.bits),
                "tx_digest": bits_digest(batch.tx_bits),
                "lossy_ber": lossy.ber,
                "chunks_dropped": stats.chunks_dropped,
                "chunks_shed": stats.chunks_shed,
                "gap_samples": stats.gap_samples,
            }
        )
        ctx.add_row(
            {
                "label": "stream-covert",
                "lossy_BER": lossy.ber,
                "dropped": stats.chunks_dropped,
            }
        )


class StreamNoCountermeasure(Component):
    """Explicit empty countermeasure slot."""

    slot = "countermeasure"
    name = "no-countermeasure"
    provides = ("stream.countermeasure",)

    def setup(self, ctx: ScenarioContext) -> None:
        ctx.publish(self, "stream.countermeasure", None)


def stream_components(link: CovertLink) -> List[Component]:
    return [
        StreamLinkSource(link),
        StreamChainRenderer(),
        StreamChunkChannel(),
        StreamReceiverRunner(),
        StreamNoCountermeasure(),
    ]


@register_scenario(
    ScenarioSpec(
        name="stream-covert",
        title="Streaming receiver over the reference covert link",
        slots=(
            ("transmitter", "stream-link-source"),
            ("power", "stream-chain"),
            ("channel", "stream-chunk-transport"),
            ("receiver", "streaming-receiver"),
            ("countermeasure", "no-countermeasure"),
        ),
        tags=("chain", "port"),
        default_seed=5,
    )
)
def build_stream(seed: int, quick: bool) -> List[Component]:
    link = CovertLink(machine=DELL_INSPIRON, profile=TINY, seed=seed)
    return stream_components(link)
