"""Receiver components for the related-attack scenarios.

Both receivers work on the Eq. 1 band-energy envelope of the capture
(:func:`repro.core.acquisition.acquire`) and assume a synchronised
transmitter (the scenario publishes the bit timing), which matches the
threat models of the source papers: the receiver knows the symbol
clock and decides per bit window.

* :class:`BitEnergyReceiver` - amplitude decision: per-bit mean band
  energy against the midpoint of the two dominant histogram modes
  (the paper's Figure 7 threshold rule).  Decodes the IChannels-style
  throttling transmitter, whose bits differ in average current draw.
* :class:`EnvelopeFskReceiver` - rate decision: per-bit Goertzel power
  of the *envelope* at two candidate modulation frequencies.  Decodes
  the clock-modulation transmitter, whose bits differ in the gating
  frequency of the activity, not its average level.
"""

from __future__ import annotations

import numpy as np

from ...core.acquisition import AcquisitionConfig, acquire
from ...core.align import align_bits
from ...dsp.detection import histogram_modes
from ...obs.trace import bits_digest
from ..component import Component, ScenarioContext


def _bit_windows(envelope, timing, guard_fraction: float):
    """Yield ``(index, samples)`` of the envelope inside each bit's
    guarded window."""
    start = float(timing["start_s"])
    period = float(timing["bit_period_s"])
    guard = guard_fraction * period
    times = envelope.times
    for i in range(int(timing["n_bits"])):
        lo = start + i * period + guard
        hi = start + (i + 1) * period - guard
        mask = (times >= lo) & (times < hi)
        yield i, envelope.samples[mask]


def _tap_channel(ctx: ScenarioContext, label: str, tx_bits, decoded) -> None:
    """Score a decode and record the scenario's channel figures."""
    metrics = align_bits(np.asarray(tx_bits), np.asarray(decoded))
    ctx.gauge("channel.ber", metrics.ber)
    ctx.gauge("channel.bit_errors", metrics.bit_errors)
    ctx.gauge("channel.transmitted", metrics.transmitted)
    ctx.add_record(
        {
            "label": label,
            "digest": bits_digest(decoded),
            "tx_digest": bits_digest(tx_bits),
            "ber": float(metrics.ber),
            "bit_errors": int(metrics.bit_errors),
            "n_bits": int(np.asarray(decoded).size),
        }
    )
    ctx.add_row(
        {
            "label": label,
            "BER": float(metrics.ber),
            "bits": int(metrics.transmitted),
        }
    )


class BitEnergyReceiver(Component):
    """Per-bit mean band energy against a bimodal-histogram threshold."""

    slot = "receiver"
    name = "bit-energy-receiver"
    provides = ("attack.decoded",)
    requires = ("attack.capture", "attack.band", "attack.bits", "attack.timing")

    def __init__(
        self,
        guard_fraction: float = 0.15,
        acquisition: AcquisitionConfig = AcquisitionConfig(
            fft_size=256, hop=32
        ),
    ):
        self.guard_fraction = guard_fraction
        self.acquisition = acquisition

    def run(self, ctx: ScenarioContext) -> None:
        capture = ctx.get("attack.capture")
        band = ctx.get("attack.band")
        timing = ctx.get("attack.timing")
        tx_bits = ctx.get("attack.bits")
        envelope = acquire(
            capture, band["vrm_frequency_hz"], self.acquisition
        )
        means = np.array(
            [
                float(np.mean(samples)) if samples.size else 0.0
                for _, samples in _bit_windows(
                    envelope, timing, self.guard_fraction
                )
            ]
        )
        _, _, modes = histogram_modes(means)
        if modes.size >= 2:
            lo, hi = sorted(modes[:2])
            threshold = 0.5 * (lo + hi)
        else:
            threshold = float(np.mean(means))
        decoded = (means > threshold).astype(np.uint8)
        ctx.publish(self, "attack.decoded", decoded)
        ctx.gauge("receiver.threshold", threshold)
        _tap_channel(ctx, ctx.scenario, tx_bits, decoded)


class EnvelopeFskReceiver(Component):
    """Per-bit binary FSK decision on the envelope's modulation tone.

    For each bit window the detrended envelope is correlated against
    the two candidate gating frequencies (a two-point Goertzel bank);
    the stronger tone is the bit.  The decision is amplitude-blind by
    construction, so it survives level countermeasures that defeat the
    energy receiver.
    """

    slot = "receiver"
    name = "envelope-fsk-receiver"
    provides = ("attack.decoded",)
    requires = ("attack.capture", "attack.band", "attack.bits", "attack.timing")

    def __init__(
        self,
        guard_fraction: float = 0.1,
        acquisition: AcquisitionConfig = AcquisitionConfig(
            fft_size=128, hop=16
        ),
    ):
        self.guard_fraction = guard_fraction
        self.acquisition = acquisition

    @staticmethod
    def _tone_power(samples: np.ndarray, frame_rate: float, freq: float):
        if samples.size == 0:
            return 0.0
        detrended = samples - np.mean(samples)
        t = np.arange(samples.size) / frame_rate
        phasor = np.exp(-2j * np.pi * freq * t)
        return float(np.abs(np.dot(detrended, phasor)) ** 2) / samples.size

    def run(self, ctx: ScenarioContext) -> None:
        capture = ctx.get("attack.capture")
        band = ctx.get("attack.band")
        timing = ctx.get("attack.timing")
        tx_bits = ctx.get("attack.bits")
        f_zero = float(timing["mod_zero_hz"])
        f_one = float(timing["mod_one_hz"])
        envelope = acquire(
            capture, band["vrm_frequency_hz"], self.acquisition
        )
        decoded = np.zeros(int(timing["n_bits"]), dtype=np.uint8)
        contrasts = []
        for i, samples in _bit_windows(envelope, timing, self.guard_fraction):
            p_zero = self._tone_power(samples, envelope.frame_rate, f_zero)
            p_one = self._tone_power(samples, envelope.frame_rate, f_one)
            decoded[i] = 1 if p_one > p_zero else 0
            contrasts.append(
                np.log10(max(p_one, 1e-30) / max(p_zero, 1e-30))
            )
        ctx.publish(self, "attack.decoded", decoded)
        ctx.gauge(
            "receiver.fsk_contrast_db",
            10.0 * float(np.mean(np.abs(np.array(contrasts))))
            if contrasts
            else 0.0,
        )
        _tap_channel(ctx, ctx.scenario, tx_bits, decoded)
