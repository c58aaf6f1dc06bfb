"""Stream driver: backpressure, drop injection, degradation, accounting."""

import warnings

import numpy as np
import pytest

from repro.core.align import align_bits
from repro.obs.metrics import flatten, metrics_scope
from repro.obs.trace import tracing_scope
from repro.params import TINY
from repro.stream import CaptureChunkSource, StreamingReceiver, StreamRunner
from repro.systems.laptops import DELL_INSPIRON


@pytest.fixture(scope="module")
def link():
    from repro.covert.link import CovertLink

    return CovertLink(machine=DELL_INSPIRON, profile=TINY, seed=5)


@pytest.fixture(scope="module")
def bit_period(link):
    return link.transmitter(
        np.random.default_rng(link.seed)
    ).nominal_bit_duration_s()


def _receiver(link, source, bit_period):
    return StreamingReceiver(
        source.meta,
        link.vrm_frequency_hz,
        expected_bit_period_s=bit_period,
        config=link.decoder_config,
        frame_format=link.frame_format,
    )


def _overloaded_runner(link, capture, bit_period, policy, **kwargs):
    """A runner whose simulated receiver is far too slow to keep up."""
    source = CaptureChunkSource(capture, 4096, jitter_rel=0.05)
    receiver = _receiver(link, source, bit_period)
    runner = StreamRunner(
        source,
        receiver,
        buffer_capacity=8,
        policy=policy,
        service_rate_sps=capture.sample_rate * 0.4,
        **kwargs,
    )
    return runner, receiver


class TestLosslessPath:
    def test_infinite_service_rate_is_lossless(
        self, link, link_result, bit_period
    ):
        source = CaptureChunkSource(link_result.capture, 4096, jitter_rel=0.2)
        receiver = _receiver(link, source, bit_period)
        run = StreamRunner(source, receiver, buffer_capacity=4).run()
        s = run.stats
        assert s.lossless
        assert s.chunks_processed == s.chunks_total
        assert s.chunks_dropped == 0 and s.chunks_shed == 0
        assert s.gap_samples == 0
        assert s.samples_processed == link_result.capture.samples.size
        np.testing.assert_array_equal(
            receiver.finalize().bits, link_result.decode.bits
        )

    def test_block_policy_never_drops_even_overloaded(
        self, link, link_result, bit_period
    ):
        runner, receiver = _overloaded_runner(
            link, link_result.capture, bit_period, "block",
            degrade_threshold=None,
        )
        run = runner.run()
        assert run.stats.chunks_dropped == 0
        assert run.stats.chunks_shed == 0
        assert run.stats.lossless
        # Backpressure is visible as lag instead of loss.
        assert run.stats.max_lag_s > 0
        np.testing.assert_array_equal(
            receiver.finalize().bits, link_result.decode.bits
        )


class TestDropInjection:
    def test_drops_counted_and_decode_survives(
        self, link, link_result, bit_period
    ):
        clean_ber = link_result.metrics.ber
        runner, receiver = _overloaded_runner(
            link, link_result.capture, bit_period, "drop-oldest"
        )
        with metrics_scope() as registry, warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            run = runner.run()
        s = run.stats
        assert not s.lossless
        assert s.chunks_dropped + s.chunks_shed > 0
        # Every lost sample that sits *before* later-processed data was
        # replayed into the receiver as a gap (loss at the very end of
        # the stream has nothing after it to trigger back-filling).
        assert 0 < s.gap_samples <= s.samples_dropped + s.samples_shed
        assert (
            s.samples_processed + s.samples_dropped + s.samples_shed
            == link_result.capture.samples.size
        )
        # The lossy stream still finalises without crashing, with a BER
        # no better than the clean run.
        final = receiver.finalize()
        lossy_ber = align_bits(link_result.tx_bits, final.bits).ber
        assert lossy_ber >= clean_ber
        # Loss is visible in the metrics registry.
        flat = flatten(registry.snapshot())
        assert (
            flat.get("stream.dropped.chunks", 0)
            + flat.get("stream.degraded.chunks", 0)
            > 0
        )
        assert flat["stream.chunks"] == s.chunks_processed
        assert flat["stream.lag_s.max"] == pytest.approx(s.max_lag_s)

    def test_degradation_warns_once_and_traces(
        self, link, link_result, bit_period
    ):
        runner, _ = _overloaded_runner(
            link, link_result.capture, bit_period, "drop-oldest"
        )
        events = []
        with tracing_scope(events):
            with pytest.warns(RuntimeWarning, match="falling behind"):
                run = runner.run()
        assert run.stats.degraded
        warnings_seen = [
            e for e in events
            if e.get("event") == "warning"
            and e.get("kind") == "stream-degraded"
        ]
        assert len(warnings_seen) == 1
        spans = [e for e in events if e.get("name") == "stream.chunk"]
        assert len(spans) == run.stats.chunks_processed
        assert all("lag_s" in e and "occupancy" in e for e in spans)

    def test_degradation_disabled(self, link, link_result, bit_period):
        runner, _ = _overloaded_runner(
            link, link_result.capture, bit_period, "drop-oldest",
            degrade_threshold=None,
        )
        run = runner.run()
        assert run.stats.chunks_shed == 0
        assert run.stats.chunks_dropped > 0  # all loss is eviction


class TestValidation:
    def test_rejects_bad_service_rate(self, link, link_result, bit_period):
        source = CaptureChunkSource(link_result.capture, 4096)
        receiver = _receiver(link, source, bit_period)
        with pytest.raises(ValueError):
            StreamRunner(source, receiver, service_rate_sps=0)

    def test_rejects_bad_degrade_threshold(
        self, link, link_result, bit_period
    ):
        source = CaptureChunkSource(link_result.capture, 4096)
        receiver = _receiver(link, source, bit_period)
        with pytest.raises(ValueError):
            StreamRunner(source, receiver, degrade_threshold=1.5)


class TestAdaptiveService:
    def test_buffers_reserved(self, link, link_result, bit_period):
        source = CaptureChunkSource(link_result.capture, 4096)
        receiver = _receiver(link, source, bit_period)
        StreamRunner(source, receiver).run()
        # The receiver's STFT buffer was sized for chunk reuse.
        assert receiver._band.sstft.buffer_capacity >= 2 * 4096

    def test_reserved_run_is_still_bit_exact(
        self, link, link_result, bit_period
    ):
        source = CaptureChunkSource(link_result.capture, 4096)
        receiver = _receiver(link, source, bit_period)
        StreamRunner(source, receiver).run()
        final = receiver.finalize()
        assert np.array_equal(final.bits, link_result.decode.bits)
