"""Tests for the RTL-SDR device model."""

import numpy as np
import pytest

from repro.sdr.rtlsdr import RtlSdrV3


def tone_input(freq, fs, n=40000, amplitude=1.0):
    t = np.arange(n) / fs
    return amplitude * np.cos(2 * np.pi * freq * t)


class TestCapture:
    def test_output_rate_and_length(self):
        sdr = RtlSdrV3(sample_rate=2.4e5)
        wave = tone_input(1.5e5, 9.6e5)
        cap = sdr.capture(wave, 9.6e5, 1.5e5, np.random.default_rng(0))
        assert cap.sample_rate == 2.4e5
        assert cap.samples.size == wave.size // 4

    def test_rejects_noninteger_decimation(self):
        sdr = RtlSdrV3(sample_rate=2.4e5)
        with pytest.raises(ValueError, match="integer multiple"):
            sdr.capture(np.zeros(100), 5e5, 1e5)

    @pytest.mark.parametrize(
        "wave",
        [
            np.full(1000, np.nan),
            np.zeros(0),
            np.concatenate([np.zeros(999), [np.inf]]),
        ],
        ids=["all-nan", "empty", "one-inf"],
    )
    def test_rejects_degenerate_input(self, wave):
        sdr = RtlSdrV3(sample_rate=2.4e5)
        with pytest.raises(ValueError, match="antenna voltage"):
            sdr.capture(wave, 9.6e5, 1.5e5, np.random.default_rng(0))

    def test_tone_recovered_at_expected_offset(self):
        sdr = RtlSdrV3(sample_rate=2.4e5, ppm_error=0.0, noise_floor=1e-6)
        wave = tone_input(1.7e5, 9.6e5)
        cap = sdr.capture(wave, 9.6e5, 1.5e5, np.random.default_rng(0))
        spectrum = np.abs(np.fft.fft(cap.samples))
        freqs = np.fft.fftfreq(cap.samples.size, 1 / cap.sample_rate)
        assert freqs[np.argmax(spectrum)] == pytest.approx(2e4, abs=100)

    def test_ppm_error_shifts_tone(self):
        sdr = RtlSdrV3(sample_rate=2.4e5, ppm_error=1e4, noise_floor=1e-6)
        wave = tone_input(1.5e5, 9.6e5)
        cap = sdr.capture(wave, 9.6e5, 1.5e5, np.random.default_rng(0))
        spectrum = np.abs(np.fft.fft(cap.samples))
        freqs = np.fft.fftfreq(cap.samples.size, 1 / cap.sample_rate)
        expected_offset = -1.5e5 * 1e4 * 1e-6
        assert freqs[np.argmax(spectrum)] == pytest.approx(
            expected_offset, abs=100
        )


class TestQuantisation:
    def test_output_on_code_grid(self):
        sdr = RtlSdrV3(sample_rate=2.4e5, bits=8)
        wave = tone_input(1.5e5, 9.6e5)
        cap = sdr.capture(wave, 9.6e5, 1.5e5, np.random.default_rng(0))
        codes_i = cap.samples.real * 128
        assert np.allclose(codes_i, np.round(codes_i), atol=1e-3)

    def test_agc_normalises_weak_and_strong_inputs(self):
        sdr = RtlSdrV3(sample_rate=2.4e5, noise_floor=0.0)
        weak = tone_input(1.5e5, 9.6e5, amplitude=1e-5)
        strong = tone_input(1.5e5, 9.6e5, amplitude=10.0)
        rng = np.random.default_rng(0)
        rms_weak = np.sqrt(
            np.mean(np.abs(sdr.capture(weak, 9.6e5, 1.5e5, rng).samples) ** 2)
        )
        rms_strong = np.sqrt(
            np.mean(np.abs(sdr.capture(strong, 9.6e5, 1.5e5, rng).samples) ** 2)
        )
        assert rms_weak == pytest.approx(rms_strong, rel=0.1)

    def test_fewer_bits_raise_quantisation_noise(self):
        wave = tone_input(1.5e5, 9.6e5) + 0.3 * tone_input(1.8e5, 9.6e5)

        def residual(bits):
            sdr = RtlSdrV3(sample_rate=2.4e5, bits=bits, noise_floor=0.0,
                           ppm_error=0.0)
            cap = sdr.capture(wave, 9.6e5, 1.5e5, np.random.default_rng(0))
            ref = RtlSdrV3(sample_rate=2.4e5, bits=16, noise_floor=0.0,
                           ppm_error=0.0).capture(
                wave, 9.6e5, 1.5e5, np.random.default_rng(0)
            )
            return np.abs(cap.samples - ref.samples).mean()

        assert residual(4) > residual(8)

    def test_validation(self):
        with pytest.raises(ValueError):
            RtlSdrV3(sample_rate=0.0)
        with pytest.raises(ValueError):
            RtlSdrV3(sample_rate=1e6, bits=1)
