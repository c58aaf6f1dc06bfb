"""Signal-processing substrate: STFT, band energy, filters, detection,
resampling."""

from .band import CHUNK_BYTES, band_energy
from .detection import bimodal_threshold, histogram_modes, local_maxima
from .filters import edge_kernel, lowpass, moving_average
from .render import ascii_lane, ascii_spectrogram, sparkline
from .resample import block_reduce, linear_resample
from .stft import (
    Spectrogram,
    frame_count,
    frame_times,
    spectrogram_axes,
    stft,
)
from .windows import get_window, hann, rectangular

__all__ = [
    "CHUNK_BYTES",
    "Spectrogram",
    "ascii_lane",
    "ascii_spectrogram",
    "band_energy",
    "bimodal_threshold",
    "block_reduce",
    "edge_kernel",
    "frame_count",
    "frame_times",
    "get_window",
    "hann",
    "histogram_modes",
    "linear_resample",
    "local_maxima",
    "lowpass",
    "moving_average",
    "rectangular",
    "sparkline",
    "spectrogram_axes",
    "stft",
]
