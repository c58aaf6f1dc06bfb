"""SDR front-end signal path: polyphase downconversion.

A direct-conversion receiver model: the real antenna voltage is mixed
with a complex local oscillator, low-pass filtered and decimated to the
output sample rate.  Like the RTL2832U, which mixes and decimates in
hardware, the model computes only the output samples it keeps: the mix
is folded into LO-pre-rotated filter taps, and each kept output is a
polyphase sum of real convolutions over the input, followed by one LO
multiply at the output rate.  No full-rate complex array is built.
Kept separate from the RTL-SDR device model so alternative receivers
can reuse it.
"""

from __future__ import annotations

import numpy as np
from scipy import signal as sps

#: Anti-alias FIR length; odd, so the filter delay is a whole sample.
NUMTAPS = 129


def downconvert(
    waveform: np.ndarray, sample_rate: float, lo_freq: float, factor: int
) -> np.ndarray:
    """Mix a real waveform to complex baseband and decimate by ``factor``.

    Equivalent to multiplying by ``exp(-2j*pi*lo_freq*n/sample_rate)``,
    filtering with a linear-phase FIR (``NUMTAPS`` taps, cutoff at 80%
    of the output Nyquist, so adjacent-band energy such as the image of
    the VRM's second harmonic is suppressed before downsampling) aligned
    as ``mode="same"``, and keeping every ``factor``-th sample.  With
    ``H = (NUMTAPS - 1) // 2`` output ``m`` is

        y[m] = e^{-iw(Dm+H)} * sum_k h[k] e^{iwk} x[Dm+H-k],

    evaluated per input phase ``x[p::D]`` with real ``np.convolve``
    passes against the real and imaginary parts of the rotated taps.
    The output has ``ceil(N / factor)`` samples; ``factor == 1`` mixes
    only.

    Parameters
    ----------
    waveform:
        Real-valued antenna voltage samples.
    sample_rate:
        Input sample rate in Hz.
    lo_freq:
        Local-oscillator frequency translated to DC, including any LO
        error (e.g. crystal ppm offset), which shifts the whole spectrum.
    factor:
        Integer decimation factor.
    """
    if sample_rate <= 0:
        raise ValueError("sample rate must be positive")
    if factor < 1:
        raise ValueError("decimation factor must be >= 1")
    x = np.asarray(waveform, dtype=np.float64)
    if factor == 1:
        n = np.arange(x.size)
        return x * np.exp(-2j * np.pi * lo_freq * n / sample_rate)
    half = (NUMTAPS - 1) // 2
    taps = sps.firwin(NUMTAPS, 0.8 / factor)
    rotated = taps * np.exp(
        2j * np.pi * lo_freq * np.arange(NUMTAPS) / sample_rate
    )
    n_out = -(-x.size // factor)
    real = np.zeros(n_out)
    imag = np.zeros(n_out)
    for p in range(factor):
        # Contiguous, the phase convolves about twice as fast as a view.
        phase = np.ascontiguousarray(x[p::factor])
        # Taps k with (H - k) = p (mod D) read input phase p; output m
        # is their full convolution with that phase at index m + shift.
        first = (half - p) % factor
        sub = rotated[first::factor]
        if phase.size == 0 or sub.size == 0:
            continue
        shift = (half - first - p) // factor
        start = max(shift, 0)
        stop = min(shift + n_out, phase.size + sub.size - 1)
        if stop <= start:
            continue
        kept = slice(start - shift, stop - shift)
        real[kept] += np.convolve(phase, sub.real)[start:stop]
        imag[kept] += np.convolve(phase, sub.imag)[start:stop]
    n = factor * np.arange(n_out) + half
    return (real + 1j * imag) * np.exp(-2j * np.pi * lo_freq * n / sample_rate)
