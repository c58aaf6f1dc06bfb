"""Noise and interference sources.

Three populations model the paper's office environment:

* broadband thermal/ambient noise (AWGN),
* narrowband interferers - other switching supplies (the printer and
  refrigerator visible in the paper's Figure 10 setup) emit their own
  harmonic combs that can land near the target's band, and
* impulsive noise - sporadic broadband clicks (relay switching, motors).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np


@dataclass(frozen=True)
class ToneInterferer:
    """A narrowband interferer: another switcher's spectral line.

    ``drift_rel`` applies a slow random walk to the tone frequency,
    matching the frequency wobble of uncontrolled thermal oscillators.
    """

    frequency_hz: float
    amplitude: float
    drift_rel: float = 1e-4

    def render(
        self, n_samples: int, sample_rate: float, rng: np.random.Generator
    ) -> np.ndarray:
        if self.drift_rel > 0:
            # Integrated random-walk frequency drift.
            steps = rng.normal(0.0, self.drift_rel, size=n_samples)
            freq = self.frequency_hz * (1.0 + np.cumsum(steps) / np.sqrt(n_samples))
        else:
            freq = np.full(n_samples, self.frequency_hz)
        phase = 2 * np.pi * np.cumsum(freq) / sample_rate
        phase0 = rng.uniform(0, 2 * np.pi)
        return self.amplitude * np.sin(phase + phase0)


@dataclass(frozen=True)
class ImpulsiveNoise:
    """Sporadic broadband clicks with Poisson arrivals."""

    rate_hz: float
    amplitude: float
    duration_s: float = 50e-6

    def render(
        self, n_samples: int, sample_rate: float, rng: np.random.Generator
    ) -> np.ndarray:
        out = np.zeros(n_samples)
        duration = n_samples / sample_rate
        n_events = int(rng.poisson(self.rate_hz * duration))
        width = max(int(self.duration_s * sample_rate), 1)
        for _ in range(n_events):
            start = int(rng.uniform(0, max(n_samples - width, 1)))
            burst = self.amplitude * rng.standard_normal(width)
            burst *= np.hanning(width) if width > 2 else 1.0
            out[start : start + width] += burst[: n_samples - start]
        return out


@dataclass
class NoiseEnvironment:
    """Everything added to the received waveform besides the target signal.

    Attributes
    ----------
    awgn_amplitude:
        Standard deviation of the broadband noise floor at the antenna
        output (same arbitrary units as the signal chain).
    tones / impulses:
        Optional structured interferers.
    """

    awgn_amplitude: float = 1e-3
    tones: List[ToneInterferer] = field(default_factory=list)
    impulses: List[ImpulsiveNoise] = field(default_factory=list)

    def render(
        self, n_samples: int, sample_rate: float, rng: np.random.Generator
    ) -> np.ndarray:
        """Render the total additive noise waveform."""
        if n_samples <= 0:
            return np.zeros(0)
        out = self.awgn_amplitude * rng.standard_normal(n_samples)
        for tone in self.tones:
            out += tone.render(n_samples, sample_rate, rng)
        for imp in self.impulses:
            out += imp.render(n_samples, sample_rate, rng)
        return out


def quiet_lab(awgn_amplitude: float = 1e-3) -> NoiseEnvironment:
    """A quiet near-field measurement environment."""
    return NoiseEnvironment(awgn_amplitude=awgn_amplitude)


def office_with_appliances(
    awgn_amplitude: float,
    interferer_amplitude: float,
    band_center_hz: float,
) -> NoiseEnvironment:
    """The paper's NLoS office: printer + refrigerator interferers.

    Interfering combs are placed off the target's exact line frequency
    (other switchers run at their own frequencies) but inside the SDR's
    capture bandwidth, making the spectrum busier without sitting
    directly on the Eq. 1 bins - matching the paper's observation that
    communication stays reliable amid other emitters.
    """
    return NoiseEnvironment(
        awgn_amplitude=awgn_amplitude,
        tones=[
            ToneInterferer(band_center_hz * 0.87, interferer_amplitude),
            ToneInterferer(band_center_hz * 1.13, interferer_amplitude * 0.7),
            ToneInterferer(band_center_hz * 0.55, interferer_amplitude * 0.5),
        ],
        impulses=[
            ImpulsiveNoise(rate_hz=2.0, amplitude=interferer_amplitude * 2.0)
        ],
    )
