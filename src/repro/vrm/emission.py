"""EM emission synthesis: burst train -> real-valued RF waveform.

Each replenishment burst is a short, high-current pulse through the
buck's inductor loop; by Faraday's law the magnetic field near the VRM
tracks this current.  Because the bursts are square-ish rather than
sinusoidal, the emitted spectrum has strong lines at ``f0 = 1/T`` *and*
its harmonics (paper Section II), which is why the receiver can sum the
fundamental and first harmonic in Eq. 1.

Synthesis places each burst on the RF sample grid as a fractionally
delayed impulse scaled by the burst's peak current, then convolves with
the burst's pulse shape.  The pulse is a few samples long (8 taps for
every Table I machine at every profile), so the convolution is direct
rather than FFT-based.  This keeps the cost linear in burst count and
reproduces the harmonic comb exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..types import BurstTrain


@dataclass(frozen=True)
class EmissionModel:
    """Converts a burst train to a sampled emission waveform.

    Attributes
    ----------
    pulse_width_fraction:
        Burst on-time as a fraction of the switching period.
    field_gain:
        Overall scale from peak burst current (amps) to emitted field
        amplitude (arbitrary units; absolute calibration is folded into
        the propagation model).
    """

    pulse_width_fraction: float = 0.2
    field_gain: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.pulse_width_fraction < 1.0:
            raise ValueError("pulse width fraction must be in (0, 1)")

    def pulse_kernel(self, sample_rate: float, switching_period: float) -> np.ndarray:
        """The burst current shape, sampled at ``sample_rate``.

        A fast-attack / exponential-decay pulse: the inductor current
        ramps quickly when the high-side switch closes and decays as the
        capacitor recharges.  Normalised to unit area so an impulse of
        weight ``q/width`` yields peak current ~``q/width``.
        """
        width_s = self.pulse_width_fraction * switching_period
        n = max(int(round(width_s * sample_rate)), 1)
        t = np.arange(4 * n, dtype=float)
        attack = 1.0 - np.exp(-t / max(n / 4.0, 0.5))
        decay = np.exp(-t / n)
        kernel = attack * decay
        area = kernel.sum()
        if area <= 0:
            return np.ones(1)
        return kernel / area

    def synthesize(self, bursts: BurstTrain, sample_rate: float) -> np.ndarray:
        """Render the burst train as a real waveform at ``sample_rate``.

        The output length covers ``bursts.duration``; burst times are
        placed with linear fractional-delay interpolation to avoid
        timing quantisation artifacts in the harmonic lines.
        """
        if sample_rate <= 0:
            raise ValueError("sample rate must be positive")
        n_samples = int(round(bursts.duration * sample_rate))
        wave = np.zeros(max(n_samples, 1))
        if bursts.count == 0:
            return wave
        width_s = self.pulse_width_fraction * bursts.switching_period
        # Impulse weight: peak current * field gain, modulated by the
        # output voltage (higher P-state voltage -> larger input charge).
        nominal_v = max(np.median(bursts.voltages), 1e-9)
        weights = (
            self.field_gain
            * (bursts.charges / width_s)
            * (bursts.voltages / nominal_v)
        )
        positions = bursts.times * sample_rate
        base = np.floor(positions).astype(np.int64)
        frac = positions - base
        interior = (base >= 0) & (base < n_samples - 1)
        # A burst landing on the final sample has no right-hand neighbour
        # for its fractional weight; deposit its full weight there rather
        # than dropping it.
        last = base == n_samples - 1
        # One bincount pass over (left, right, final-sample) deposits in
        # that order: np.add.at is notoriously slow on large scatter
        # sets, and bincount performs the identical in-order per-bin
        # accumulation (so the float sums are bit-identical) in one
        # C-level sweep.
        indices = np.concatenate(
            (base[interior], base[interior] + 1, base[last])
        )
        deposits = np.concatenate(
            (
                weights[interior] * (1.0 - frac[interior]),
                weights[interior] * frac[interior],
                weights[last],
            )
        )
        if indices.size:
            wave = np.bincount(indices, weights=deposits, minlength=wave.size)
        kernel = self.pulse_kernel(sample_rate, bursts.switching_period)
        if kernel.size > 1:
            wave = np.convolve(wave, kernel)[: wave.size]
        return wave
