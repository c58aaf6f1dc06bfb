"""Short-time Fourier transform utilities.

:func:`stft` computes full magnitude spectrograms (the Figure 2
render); frames are materialised with stride tricks, so hop << M is
memory-cheap until the FFT output itself.  Receivers that only need the
band energy of a few bins (paper Eq. 1, the keylogging detector) pick
their bins from :func:`spectrogram_axes` and go through
:func:`repro.dsp.band.band_energy` instead.

Framing is defined once, by :func:`frame_count` / :func:`frame_times`:
frame ``i`` covers samples ``[i * hop, i * hop + fft_size)`` and a
trailing partial window (fewer than ``fft_size`` samples past the last
complete frame) is dropped.  The batch path here, the band-energy kernel
in :mod:`repro.dsp.band` and the chunked path in
:mod:`repro.stream.demod` all build on these helpers, so a capture
split at any chunk boundary frames identically to the monolithic call -
including the awkward tail lengths the regression tests pin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .windows import get_window


@dataclass
class Spectrogram:
    """STFT magnitudes and their axes.

    Attributes
    ----------
    magnitudes:
        Array of shape ``(n_frames, n_bins)`` of spectral magnitudes.
    times:
        Centre time of each frame, in seconds.
    frequencies:
        Frequency of each bin, in Hz.  For complex input these span
        ``[-fs/2, fs/2)`` (fftshifted); for real input ``[0, fs/2]``.
    hop:
        Hop size in samples.
    fft_size:
        FFT length M.
    sample_rate:
        Input sample rate.
    """

    magnitudes: np.ndarray
    times: np.ndarray
    frequencies: np.ndarray
    hop: int
    fft_size: int
    sample_rate: float

    @property
    def frame_rate(self) -> float:
        """Frames per second of the time axis."""
        return self.sample_rate / self.hop

    def band_indices(self, low_hz: float, high_hz: float) -> np.ndarray:
        """Bin indices whose frequency lies in ``[low_hz, high_hz]``."""
        return np.nonzero(
            (self.frequencies >= low_hz) & (self.frequencies <= high_hz)
        )[0]

    def nearest_bin(self, frequency_hz: float) -> int:
        """Index of the bin closest to ``frequency_hz``."""
        return int(np.argmin(np.abs(self.frequencies - frequency_hz)))

    def band_energy(self, bins: np.ndarray) -> np.ndarray:
        """Sum of magnitudes over the given bins, per frame (Eq. 1 form)."""
        return self.magnitudes[:, bins].sum(axis=1)


def frame_count(n_samples: int, fft_size: int, hop: int) -> int:
    """Number of complete STFT frames in ``n_samples``.

    Frame ``i`` starts at ``i * hop`` and needs ``fft_size`` samples, so
    the count is ``floor((n - fft_size) / hop) + 1`` (zero when the
    input is shorter than one window).  This is the single definition of
    the capture-tail behaviour: samples past the last complete frame are
    dropped, never padded into a partial frame.
    """
    if fft_size < 2:
        raise ValueError("fft_size must be >= 2")
    if hop < 1:
        raise ValueError("hop must be >= 1")
    if n_samples < fft_size:
        return 0
    return (n_samples - fft_size) // hop + 1


def frame_times(
    first_frame: int, n_frames: int, fft_size: int, hop: int, sample_rate: float
) -> np.ndarray:
    """Centre times of frames ``first_frame .. first_frame + n_frames``.

    Kept as one function so the chunked path stamps exactly the same
    float values as the batch path for the same global frame index.
    """
    indices = np.arange(first_frame, first_frame + n_frames)
    return (indices * hop + fft_size / 2) / sample_rate


def frequency_axis(
    fft_size: int, sample_rate: float, complex_input: bool = True
) -> np.ndarray:
    """Bin frequencies: two-sided and fftshifted for complex input,
    one-sided for real input."""
    if complex_input:
        return np.fft.fftshift(np.fft.fftfreq(fft_size, d=1.0 / sample_rate))
    return np.fft.rfftfreq(fft_size, d=1.0 / sample_rate)


def spectrogram_axes(
    fft_size: int, hop: int, sample_rate: float, complex_input: bool = True
) -> Spectrogram:
    """A frame-less spectrogram carrying only the axes.

    Bin selection (``nearest_bin`` / ``band_indices``) needs the
    frequency axis but never the magnitudes, so band-energy callers
    choose their bins from this stub and hand them to
    :func:`repro.dsp.band.band_energy` without materialising a spectrum.
    """
    frequencies = frequency_axis(fft_size, sample_rate, complex_input)
    return Spectrogram(
        magnitudes=np.empty((0, frequencies.size)),
        times=np.empty(0),
        frequencies=frequencies,
        hop=hop,
        fft_size=fft_size,
        sample_rate=sample_rate,
    )


def frame_magnitudes(
    frames: np.ndarray, window: np.ndarray, complex_input: bool
) -> np.ndarray:
    """``|FFT(frame * window)|`` per row, fftshifted for complex input."""
    if complex_input:
        spectra = np.fft.fft(frames * window, axis=1)
        spectra = np.fft.fftshift(spectra, axes=1)
    else:
        spectra = np.fft.rfft(frames * window, axis=1)
    return np.abs(spectra)


def check_frames(n_samples: int, fft_size: int, hop: int) -> int:
    """:func:`frame_count`, raising when not even one frame fits."""
    n_frames = frame_count(n_samples, fft_size, hop)
    if n_frames == 0:
        raise ValueError(
            f"need at least fft_size={fft_size} samples, got {n_samples}"
        )
    return n_frames


def stft(
    samples: np.ndarray,
    sample_rate: float,
    fft_size: int = 1024,
    hop: int = 32,
    window: str = "hann",
) -> Spectrogram:
    """Compute an STFT magnitude spectrogram.

    Complex input produces a two-sided (fftshifted) frequency axis, which
    is what the SDR IQ path needs; real input produces a one-sided axis.
    Callers that only need the band energy of a few bins use
    :func:`repro.dsp.band.band_energy` instead.
    """
    samples = np.asarray(samples)
    n_frames = check_frames(samples.size, fft_size, hop)
    frames = sliding_window_view(samples, fft_size)[::hop][:n_frames]
    complex_input = np.iscomplexobj(samples)
    spec = spectrogram_axes(fft_size, hop, sample_rate, complex_input)
    spec.magnitudes = frame_magnitudes(
        frames, get_window(window, fft_size), complex_input
    )
    spec.times = frame_times(0, n_frames, fft_size, hop, sample_rate)
    return spec
