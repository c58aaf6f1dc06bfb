"""Signal acquisition: Eq. 1 of the paper.

The received IQ stream behaves like on-off keying in the frequency
domain, so the receiver reduces it to a single envelope

    Y[n] = sum_{k in S} abs(F_n[k])

where ``F_n`` is a sliding FFT of size M and S is the set of bins
carrying the VRM's spectral lines - by default the fundamental and its
first harmonic, the combination the paper uses for Figure 4.  Summing
several components raises the 0/1 magnitude separation, which is the
point of Eq. 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import gcd
from typing import Dict, List, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..dsp.band import band_energy
from ..dsp.stft import (
    Spectrogram,
    check_frames,
    frame_times,
    spectrogram_axes,
)
from ..dsp.windows import get_window
from ..types import IQCapture


@dataclass
class Envelope:
    """The acquired envelope ``Y[n]`` and its time axis."""

    samples: np.ndarray
    frame_rate: float
    times: np.ndarray

    @property
    def duration(self) -> float:
        return self.samples.size / self.frame_rate

    def slice_seconds(self, start_s: float, end_s: float) -> "Envelope":
        """Extract a time slice (used for batch processing)."""
        i0 = int(max(start_s, 0.0) * self.frame_rate)
        i1 = int(min(end_s, self.duration) * self.frame_rate)
        return Envelope(
            samples=self.samples[i0:i1],
            frame_rate=self.frame_rate,
            times=self.times[i0:i1],
        )


@dataclass(frozen=True)
class AcquisitionConfig:
    """Parameters of the Eq. 1 acquisition step.

    Attributes
    ----------
    fft_size:
        Sliding-FFT length M (paper: 1024).
    hop:
        Frame hop in samples.  The paper uses "maximum overlapping"
        (hop 1), which is quadratically expensive; the default of 32
        keeps the frame period far below a bit period (see DESIGN.md).
    harmonics:
        Which multiples of the VRM frequency to include in S (paper
        Figure 4 uses the fundamental and first harmonic: ``(1, 2)``).
    bin_halfwidth:
        Bins to include either side of each line, tolerating frequency
        drift and ppm offset.
    window:
        Analysis window name.
    """

    fft_size: int = 1024
    hop: int = 32
    harmonics: Tuple[int, ...] = (1, 2)
    bin_halfwidth: int = 1
    window: str = "hann"

    def __post_init__(self) -> None:
        if not self.harmonics:
            raise ValueError("need at least one harmonic in S")
        if any(h < 1 for h in self.harmonics):
            raise ValueError("harmonics are 1-based multiples of f0")
        if self.bin_halfwidth < 0:
            raise ValueError("bin_halfwidth cannot be negative")


def harmonic_bins(
    spectrogram: Spectrogram,
    capture: IQCapture,
    vrm_frequency_hz: float,
    config: AcquisitionConfig,
) -> np.ndarray:
    """Bin indices of the considered frequency components S.

    Harmonics that fall outside the capture bandwidth are skipped; at
    least one must remain.
    """
    nyquist = capture.sample_rate / 2
    bins = []
    for h in config.harmonics:
        offset = capture.baseband_offset(h * vrm_frequency_hz)
        if abs(offset) >= nyquist:
            continue
        center = spectrogram.nearest_bin(offset)
        lo = max(center - config.bin_halfwidth, 0)
        hi = min(center + config.bin_halfwidth, spectrogram.frequencies.size - 1)
        bins.extend(range(lo, hi + 1))
    if not bins:
        raise ValueError(
            "no requested harmonic falls inside the capture bandwidth"
        )
    return np.unique(np.array(bins, dtype=int))


def acquire(
    capture: IQCapture,
    vrm_frequency_hz: float,
    config: AcquisitionConfig = AcquisitionConfig(),
) -> Envelope:
    """Compute the Eq. 1 envelope from an IQ capture."""
    return acquire_many(capture, [(vrm_frequency_hz, config)])[0]


def acquire_many(
    capture: IQCapture,
    receivers: Sequence[Tuple[float, AcquisitionConfig]],
) -> List[Envelope]:
    """Eq. 1 envelopes for several receivers of one capture.

    ``receivers`` are ``(vrm_frequency_hz, config)`` pairs.  Receivers
    sharing an FFT size and window share one
    :func:`~repro.dsp.band.band_energy` call over the union of their
    frame positions, so each distinct frame is transformed once; every
    envelope is bit-identical to a lone :func:`acquire`.

    Raises ``ValueError`` for a capture holding NaN or inf samples (the
    envelope would be silently non-finite) or too short for one frame.
    """
    samples = np.asarray(capture.samples)
    if not np.isfinite(samples).all():
        raise ValueError("capture holds non-finite (NaN or inf) samples")
    complex_input = np.iscomplexobj(samples)
    groups: Dict[Tuple[int, str], List[int]] = {}
    for i, (vrm_frequency_hz, config) in enumerate(receivers):
        if vrm_frequency_hz <= 0:
            raise ValueError("VRM frequency must be positive")
        groups.setdefault((config.fft_size, config.window), []).append(i)
    envelopes: Dict[int, Envelope] = {}
    for (fft_size, window), members in groups.items():
        # Frame every member on the coarsest grid containing all their
        # frame starts; a lone receiver's rows are then contiguous.
        step = reduce(gcd, (receivers[i][1].hop for i in members))
        requests = []
        for i in members:
            vrm_frequency_hz, config = receivers[i]
            axes = spectrogram_axes(
                fft_size, config.hop, capture.sample_rate, complex_input
            )
            n_frames = check_frames(samples.size, fft_size, config.hop)
            rows = np.arange(n_frames) * (config.hop // step)
            bins = harmonic_bins(axes, capture, vrm_frequency_hz, config)
            requests.append((rows, bins))
        frames = sliding_window_view(samples, fft_size)[::step]
        ys = band_energy(
            [frames], get_window(window, fft_size), requests, complex_input
        )
        for i, y in zip(members, ys):
            hop = receivers[i][1].hop
            envelopes[i] = Envelope(
                samples=y,
                frame_rate=capture.sample_rate / hop,
                times=frame_times(0, y.size, fft_size, hop, capture.sample_rate),
            )
    return [envelopes[i] for i in range(len(receivers))]
