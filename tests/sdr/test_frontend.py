"""Tests for the SDR front end (polyphase downconversion)."""

import numpy as np
import pytest
from scipy import signal as sps

from repro.sdr.frontend import NUMTAPS, downconvert


def two_step_reference(waveform, sample_rate, lo_freq, factor):
    """The pre-polyphase front end, verbatim: full-rate mix, then
    ``fftconvolve(..., "same")`` and keep every ``factor``-th sample."""
    n = np.arange(waveform.size)
    lo = np.exp(-2j * np.pi * lo_freq * n / sample_rate)
    baseband = waveform.astype(np.float64) * lo
    if factor == 1:
        return baseband
    taps = sps.firwin(NUMTAPS, 0.8 / factor)
    return sps.fftconvolve(baseband, taps, mode="same")[::factor]


def peak_frequency(baseband, fs):
    spectrum = np.abs(np.fft.fft(baseband))
    freqs = np.fft.fftfreq(baseband.size, 1 / fs)
    # Ignore the double-frequency mixing image; with factor 1 nothing
    # low-pass filters it out.
    in_band = np.abs(freqs) < 1e5
    return freqs[np.flatnonzero(in_band)[np.argmax(spectrum[in_band])]]


class TestMixing:
    def test_tone_at_center_lands_at_dc(self):
        fs = 1e6
        t = np.arange(10000) / fs
        tone = np.cos(2 * np.pi * 1e5 * t)
        baseband = downconvert(tone, fs, 1e5, 1)
        assert abs(peak_frequency(baseband, fs)) < 200

    def test_offset_tone_lands_at_offset(self):
        fs = 1e6
        t = np.arange(10000) / fs
        tone = np.cos(2 * np.pi * 1.2e5 * t)
        baseband = downconvert(tone, fs, 1e5, 1)
        assert peak_frequency(baseband, fs) == pytest.approx(2e4, abs=200)

    def test_oscillator_offset_shifts_spectrum(self):
        fs = 1e6
        t = np.arange(10000) / fs
        tone = np.cos(2 * np.pi * 1e5 * t)
        baseband = downconvert(tone, fs, 1e5 + 5e3, 1)
        assert peak_frequency(baseband, fs) == pytest.approx(-5e3, abs=200)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            downconvert(np.zeros(8), 0.0, 1e5, 4)


class TestDecimation:
    def test_factor_one_is_identity(self):
        # Factor 1 mixes only; a 0 Hz LO leaves the samples unchanged.
        x = np.arange(10, dtype=float)
        assert np.array_equal(downconvert(x, 1e6, 0.0, 1), x)

    def test_output_length(self):
        for n in (1000, 1001, 1002, 1003):
            assert downconvert(np.zeros(n), 1e6, 1e5, 4).size == -(-n // 4)

    def test_in_band_tone_survives(self):
        # A real tone 20 kHz above the LO: its unit-amplitude baseband
        # line sits inside the passband, its mixing image far outside.
        fs = 1e6
        t = np.arange(40000) / fs
        tone = 2 * np.cos(2 * np.pi * 1.2e5 * t)
        out = downconvert(tone, fs, 1e5, 4)
        assert np.abs(out[1000:-1000]).mean() == pytest.approx(1.0, rel=0.05)

    def test_out_of_band_tone_suppressed(self):
        fs = 1e6
        t = np.arange(40000) / fs
        tone = 2 * np.cos(2 * np.pi * 3.4e5 * t)  # 240 kHz > new Nyquist*0.8
        out = downconvert(tone, fs, 1e5, 4)
        assert np.abs(out[1000:-1000]).mean() < 0.1

    def test_rejects_bad_factor(self):
        with pytest.raises(ValueError):
            downconvert(np.zeros(8), 1e6, 1e5, 0)


class TestTwoStepReference:
    """The polyphase pass against the full-rate mix-filter-keep chain."""

    FS = 9.6e6
    LO = 2.4e6 * (1 + 15e-6) + 1234.5  # nonzero LO offset

    def assert_close(self, x, factor):
        got = downconvert(x, self.FS, self.LO, factor)
        want = two_step_reference(x, self.FS, self.LO, factor)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))

    def test_every_length_mod_factor(self):
        rng = np.random.default_rng(0)
        for n in (40000, 40001, 40002, 40003):
            self.assert_close(rng.standard_normal(n), 4)

    def test_shorter_than_filter(self):
        rng = np.random.default_rng(1)
        for n in (1, 2, 3, 5, 64, 100, NUMTAPS - 1):
            self.assert_close(rng.standard_normal(n), 4)

    def test_other_factors(self):
        rng = np.random.default_rng(2)
        for factor in (1, 2, 3, 5):
            self.assert_close(rng.standard_normal(10007), factor)
