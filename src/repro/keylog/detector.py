"""Keystroke detection from the PMU emission (paper Section V-C).

The detector follows the paper's recipe exactly:

1. normalise the capture and compute an STFT with *non-overlapping*
   5 ms windows,
2. select the frequency band containing the PMU's spectral spikes
   (known per device, or found with peak detection),
3. threshold each window's band energy (the same bimodal threshold the
   covert receiver uses, cf. Section IV-B3),
4. filter out detections shorter than 30 ms - a real keystroke's burst
   of processing is longer than that, while browser housekeeping
   bursts are "typically much shorter".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..dsp.band import band_energy
from ..dsp.detection import bimodal_threshold
from ..dsp.stft import check_frames, frame_times, spectrogram_axes
from ..dsp.windows import get_window
from ..types import IQCapture, Keystroke


@dataclass(frozen=True)
class KeylogDetectorConfig:
    """Detector parameters, mirroring Section V-C.

    Attributes
    ----------
    window_s:
        STFT window length (paper: 5 ms, non-overlapping).
    min_event_s:
        Minimum duration of a valid keystroke (paper: 30 ms).
    band_halfwidth_hz:
        Half-width of the band taken around each PMU spectral line.
    merge_gap_s:
        Detections separated by gaps shorter than this are merged (a
        key press and its release burst belong to one keystroke).
    """

    window_s: float = 5e-3
    min_event_s: float = 30e-3
    band_halfwidth_hz_rel: float = 0.02
    merge_gap_s: float = 15e-3

    def __post_init__(self) -> None:
        if self.window_s <= 0 or self.min_event_s <= 0:
            raise ValueError("durations must be positive")


@dataclass
class DetectedEvent:
    """One detected keystroke event ``[start, end)`` in seconds."""

    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class KeylogDetection:
    """Full detector output: events plus the diagnostics Figure 11 shows."""

    events: List[DetectedEvent]
    band_energy: np.ndarray
    window_times: np.ndarray
    threshold: float

    @property
    def count(self) -> int:
        return len(self.events)


class KeystrokeDetector:
    """STFT + threshold keystroke detector."""

    def __init__(
        self,
        vrm_frequency_hz: float,
        config: KeylogDetectorConfig = KeylogDetectorConfig(),
    ):
        if vrm_frequency_hz <= 0:
            raise ValueError("VRM frequency must be positive")
        self.vrm_frequency_hz = vrm_frequency_hz
        self.config = config

    def detect(self, capture: IQCapture) -> KeylogDetection:
        """Run the Section V-C pipeline on a capture."""
        cfg = self.config
        window = max(int(cfg.window_s * capture.sample_rate), 8)
        # Normalise (paper: "we first normalized ... the signal").
        samples = capture.samples / max(
            float(np.sqrt(np.mean(np.abs(capture.samples) ** 2))), 1e-12
        )
        # Non-overlapping rectangular windows.
        n_windows = check_frames(samples.size, window, window)
        complex_input = np.iscomplexobj(samples)
        spec = spectrogram_axes(
            window, window, capture.sample_rate, complex_input
        )
        bins = self._pmu_bins(spec, capture)
        frames = sliding_window_view(samples, window)[::window][:n_windows]
        (energy,) = band_energy(
            [frames],
            get_window("rect", window),
            [(np.arange(n_windows), bins)],
            complex_input,
        )
        times = frame_times(0, n_windows, window, window, capture.sample_rate)
        threshold = bimodal_threshold(energy)
        active = energy > threshold
        events = self._group_events(active, times, cfg)
        return KeylogDetection(
            events=events,
            band_energy=energy,
            window_times=times,
            threshold=threshold,
        )

    def _pmu_bins(self, spec, capture: IQCapture) -> np.ndarray:
        """Bins of the PMU's fundamental and first harmonic."""
        bins: List[int] = []
        halfwidth_hz = self.config.band_halfwidth_hz_rel * self.vrm_frequency_hz
        for harmonic in (1, 2):
            offset = capture.baseband_offset(harmonic * self.vrm_frequency_hz)
            if abs(offset) >= capture.sample_rate / 2:
                continue
            band = spec.band_indices(offset - halfwidth_hz, offset + halfwidth_hz)
            if band.size == 0:
                band = np.array([spec.nearest_bin(offset)])
            bins.extend(band.tolist())
        if not bins:
            raise ValueError("PMU band outside the capture bandwidth")
        return np.unique(np.array(bins, dtype=int))

    def _group_events(
        self, active: np.ndarray, times: np.ndarray, cfg: KeylogDetectorConfig
    ) -> List[DetectedEvent]:
        return group_events(active, times, cfg)


def group_events(
    active: np.ndarray, times: np.ndarray, cfg: KeylogDetectorConfig
) -> List[DetectedEvent]:
    """Runs of active windows -> events; merge near, drop short.

    Module-level so the streaming detector's finalisation pass
    (:class:`repro.stream.receiver.StreamingKeystrokeDetector`) applies
    the identical grouping to its accumulated band energy.
    """
    window_s = times[1] - times[0] if times.size > 1 else cfg.window_s
    raw: List[DetectedEvent] = []
    start = None
    for i, a in enumerate(active):
        if a and start is None:
            start = times[i] - window_s / 2
        elif not a and start is not None:
            raw.append(DetectedEvent(start, times[i] - window_s / 2))
            start = None
    if start is not None:
        raw.append(DetectedEvent(start, times[-1] + window_s / 2))
    merged: List[DetectedEvent] = []
    for ev in raw:
        if merged and ev.start - merged[-1].end <= cfg.merge_gap_s:
            merged[-1] = DetectedEvent(merged[-1].start, ev.end)
        else:
            merged.append(ev)
    return [ev for ev in merged if ev.duration >= cfg.min_event_s]


def match_events(
    detected: Sequence[DetectedEvent],
    truth: Sequence[Keystroke],
    tolerance_s: float = 0.06,
) -> Tuple[int, int, int]:
    """Greedy one-to-one matching of detections to true keystrokes.

    Returns ``(true_positives, false_positives, false_negatives)``.  A
    detection matches a keystroke when the press time falls within
    ``tolerance_s`` of the event (or inside it).
    """
    used = [False] * len(detected)
    tp = 0
    for ks in truth:
        best = None
        for i, ev in enumerate(detected):
            if used[i]:
                continue
            if ev.start - tolerance_s <= ks.press_time <= ev.end + tolerance_s:
                if best is None or abs(ev.start - ks.press_time) < abs(
                    detected[best].start - ks.press_time
                ):
                    best = i
        if best is not None:
            used[best] = True
            tp += 1
    fp = used.count(False)
    fn = len(truth) - tp
    return tp, fp, fn
