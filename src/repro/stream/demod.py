"""Stateful, chunk-incremental DSP: the streaming half of the receiver.

The batch receiver computes one STFT over the whole capture
(:func:`repro.dsp.stft.stft`) and one envelope from it (paper Eq. 1).
Here the same quantities are produced chunk by chunk with explicit
carry-over state:

* :class:`StreamingSTFT` buffers the window tail between chunks and
  emits exactly the frames the batch call would, in the same global
  positions (the framing contract lives in
  :func:`repro.dsp.stft.frame_count`).  Feeding the same samples in any
  chunking - including one sample at a time - yields bit-identical
  magnitudes, because each frame is the same float vector through the
  same FFT.
* :class:`StreamingBandEnergy` reduces those frames to the Eq. 1
  envelope ``Y[n]`` over a fixed bin set through the shared kernel
  (:func:`repro.dsp.band.band_energy`), reusing the batch bin
  selection (:func:`repro.core.acquisition.harmonic_bins`) via a
  metadata stub so streaming and batch can never disagree about S.
* :class:`StreamingConvolver` carries FIR state across chunk
  boundaries, matching ``np.convolve(x, k, mode="same")`` over the
  concatenated stream; the receiver uses it with the edge kernel from
  :mod:`repro.dsp.filters` for online bit-start detection.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..dsp.band import band_energy
from ..dsp.stft import (
    Spectrogram,
    frame_count,
    frame_magnitudes,
    frame_times,
    frequency_axis,
    spectrogram_axes,
)
from ..dsp.windows import get_window
from .source import StreamMeta


class StreamingSTFT:
    """Chunk-incremental STFT, frame-identical to the batch :func:`stft`.

    Parameters mirror the batch call; ``complex_input`` fixes the
    frequency axis up front (the batch path infers it from the array
    dtype, which a stream cannot do before the first chunk).
    """

    def __init__(
        self,
        sample_rate: float,
        fft_size: int,
        hop: int,
        window: str = "hann",
        complex_input: bool = True,
    ):
        if fft_size < 2:
            raise ValueError("fft_size must be >= 2")
        if hop < 1:
            raise ValueError("hop must be >= 1")
        self.sample_rate = float(sample_rate)
        self.fft_size = int(fft_size)
        self.hop = int(hop)
        self.window = window
        self.complex_input = bool(complex_input)
        self._win = get_window(window, fft_size)
        self.frequencies = frequency_axis(fft_size, sample_rate, complex_input)
        dtype = np.complex128 if complex_input else np.float64
        # Preallocated growable window buffer: valid samples live at
        # ``_storage[_off : _off + _len]``.  Appends write in place,
        # consumption advances ``_off``, and the array is compacted /
        # doubled only when an append would not fit - so steady-state
        # chunk pushes reallocate nothing (see :meth:`reserve`).
        self._storage = np.empty(max(fft_size, 1), dtype=dtype)
        self._off = 0  # storage index of the first valid sample
        self._len = 0  # valid sample count
        self._buf_start = 0  # global index of the first valid sample
        self._received = 0  # total samples pushed
        self._emitted = 0  # complete frames emitted

    @property
    def frame_rate(self) -> float:
        return self.sample_rate / self.hop

    @property
    def n_frames(self) -> int:
        """Frames emitted so far."""
        return self._emitted

    @property
    def n_samples(self) -> int:
        """Samples consumed so far."""
        return self._received

    @property
    def buffer_capacity(self) -> int:
        """Current window-buffer capacity in samples."""
        return int(self._storage.size)

    def reserve(self, n_samples: int) -> None:
        """Grow the window buffer to hold ``n_samples`` without realloc.

        The stream runner calls this with twice the source's chunk size
        (one chunk plus the window tail), so per-chunk pushes reuse one
        buffer instead of reallocating - same floats, fewer copies.
        """
        need = int(n_samples)
        if need <= self._storage.size:
            return
        grown = np.empty(max(need, 2 * self._storage.size), self._storage.dtype)
        grown[: self._len] = self._storage[self._off : self._off + self._len]
        self._storage = grown
        self._off = 0

    def _append(self, samples: np.ndarray) -> None:
        """Stage a chunk into the window buffer, compacting/growing once."""
        need = self._len + samples.size
        if self._off + need > self._storage.size:
            if need <= self._storage.size:
                # Shift the live tail to the front; no allocation.
                self._storage[: self._len] = self._storage[
                    self._off : self._off + self._len
                ]
            else:
                self.reserve(need)
            self._off = 0
        lo = self._off + self._len
        self._storage[lo : lo + samples.size] = samples.astype(
            self._storage.dtype
        )
        self._len = need

    def spectrogram_stub(self) -> Spectrogram:
        """A frame-less spectrogram carrying the axes.

        Lets streaming code reuse batch bin-selection helpers
        (``nearest_bin`` / ``band_indices``) before any frame exists.
        """
        return spectrogram_axes(
            self.fft_size, self.hop, self.sample_rate, self.complex_input
        )

    @property
    def window_values(self) -> np.ndarray:
        """The window coefficients applied to each frame."""
        return self._win

    def stage(self, samples: np.ndarray) -> Tuple[np.ndarray, int]:
        """Append a chunk and expose the newly completed *raw* frames.

        Returns ``(frames, first_frame_index)`` where ``frames`` is a
        strided view of shape ``(n_new, fft_size)`` over the internal
        buffer - no window applied, no FFT taken.  The view is valid
        until the next :meth:`stage`/:meth:`push` on this instance
        (:meth:`complete` only advances offsets, it never moves data).

        The split exists for the fleet multiplexer: many streams with
        the same STFT configuration stage their frames, the caller hands
        all the views to one :func:`repro.dsp.band.band_energy` call,
        then calls :meth:`complete` per stream.
        """
        samples = np.asarray(samples)
        if samples.size:
            self._append(samples)
            self._received += samples.size
        # The next frame starts at the global sample index hop * emitted;
        # count how many complete frames the buffer now covers past it.
        next_start = self._emitted * self.hop
        available = self._received - next_start
        n_new = frame_count(available, self.fft_size, self.hop) if available > 0 else 0
        if n_new == 0:
            return (
                np.empty((0, self.fft_size), dtype=self._storage.dtype),
                self._emitted,
            )
        local = self._off + (next_start - self._buf_start)
        frames = sliding_window_view(
            self._storage[local : self._off + self._len], self.fft_size
        )[:: self.hop][:n_new]
        return frames, self._emitted

    def complete(self, n_new: int) -> None:
        """Mark ``n_new`` staged frames emitted and release their samples."""
        if n_new <= 0:
            return
        self._emitted += n_new
        keep_from = min(self._emitted * self.hop, self._received)
        if keep_from > self._buf_start:
            # Consume in place: advance the offset, never reallocate.
            delta = keep_from - self._buf_start
            self._off += delta
            self._len -= delta
            self._buf_start = keep_from

    def push(self, samples: np.ndarray) -> Tuple[np.ndarray, int]:
        """Feed one chunk; returns ``(new_magnitudes, first_frame_index)``.

        ``new_magnitudes`` has shape ``(n_new, n_bins)`` (possibly zero
        rows when the chunk does not complete a frame);
        ``first_frame_index`` is the global index of its first row.
        """
        frames, first = self.stage(samples)
        n_new = frames.shape[0]
        if n_new == 0:
            return np.empty((0, self.frequencies.size)), first
        # The batch stft()'s arithmetic on identical float rows, so the
        # outputs match bit for bit however the stream was chunked.
        mags = frame_magnitudes(frames, self._win, self.complex_input)
        self.complete(n_new)
        return mags, first

    def times(self, first_frame: int, n_frames: int) -> np.ndarray:
        """Centre times for a run of frames (same floats as the batch)."""
        return frame_times(
            first_frame, n_frames, self.fft_size, self.hop, self.sample_rate
        )


class StreamingBandEnergy:
    """Eq. 1 envelope ``Y[n]`` over a fixed bin set, chunk by chunk."""

    def __init__(self, sstft: StreamingSTFT, bins: np.ndarray):
        bins = np.asarray(bins, dtype=int)
        if bins.size == 0:
            raise ValueError("need at least one bin in S")
        self.sstft = sstft
        self.bins = bins

    @property
    def frame_rate(self) -> float:
        return self.sstft.frame_rate

    @property
    def n_frames(self) -> int:
        return self.sstft.n_frames

    def reserve(self, n_samples: int) -> None:
        """Pre-size the underlying STFT buffer (see :meth:`StreamingSTFT.reserve`)."""
        self.sstft.reserve(n_samples)

    def push(self, samples: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Feed one chunk; returns ``(y_new, times_new)``."""
        sstft = self.sstft
        frames, first = sstft.stage(samples)
        n_new = frames.shape[0]
        if n_new == 0:
            return np.empty(0), np.empty(0)
        (y,) = band_energy(
            [frames],
            sstft.window_values,
            [(np.arange(n_new), self.bins)],
            sstft.complex_input,
        )
        sstft.complete(n_new)
        return y, sstft.times(first, n_new)


def streaming_envelope(
    meta: StreamMeta, vrm_frequency_hz: float, config
) -> StreamingBandEnergy:
    """Build the covert receiver's incremental Eq. 1 envelope.

    ``config`` is a :class:`repro.core.acquisition.AcquisitionConfig`;
    bin selection goes through the *batch* :func:`harmonic_bins` so the
    streaming receiver can never pick a different S than the batch one.
    """
    from ..core.acquisition import harmonic_bins

    if vrm_frequency_hz <= 0:
        raise ValueError("VRM frequency must be positive")
    sstft = StreamingSTFT(
        meta.sample_rate,
        fft_size=config.fft_size,
        hop=config.hop,
        window=config.window,
        complex_input=True,
    )
    bins = harmonic_bins(
        sstft.spectrogram_stub(),
        meta.as_capture_stub(),
        vrm_frequency_hz,
        config,
    )
    return StreamingBandEnergy(sstft, bins)


class StreamingConvolver:
    """Incremental ``np.convolve(x, kernel, mode="same")``.

    Carries the kernel-length input tail across pushes; outputs that
    still depend on future samples stay pending until :meth:`push`
    receives them or :meth:`finalize` zero-pads the right edge, exactly
    like the batch call's implicit edge handling.

    Emits exactly one output per input.  This matches the batch call
    whenever the stream is at least as long as the kernel; for shorter
    streams ``np.convolve(..., "same")`` pads its output out to the
    *kernel* length, a degenerate case the receiver never hits (the
    edge kernel is a fraction of one symbol period).
    """

    def __init__(self, kernel: np.ndarray):
        self.kernel = np.asarray(kernel, dtype=float)
        if self.kernel.size < 1:
            raise ValueError("kernel cannot be empty")
        self._shift = (self.kernel.size - 1) // 2
        self._tail = np.empty(0)
        self._fbuf = np.empty(0)  # pending full-conv values
        self._fstart = 0  # global full-conv index of _fbuf[0]
        self._n = 0  # inputs consumed
        self._emitted = 0  # same-mode outputs emitted
        self._finalized = False

    def push(self, x: np.ndarray) -> np.ndarray:
        """Feed inputs; returns the newly finalised same-mode outputs."""
        if self._finalized:
            raise RuntimeError("convolver already finalised")
        x = np.asarray(x, dtype=float)
        if x.size == 0:
            return np.empty(0)
        work = np.concatenate([self._tail, x])
        full = np.convolve(work, self.kernel, mode="full")
        # Full-conv outputs for the new inputs: local indices
        # [len(tail), len(tail) + len(x)) map to global [n, n + len(x)).
        t = self._tail.size
        self._fbuf = np.concatenate([self._fbuf, full[t : t + x.size]])
        self._n += x.size
        keep = self.kernel.size - 1
        # Clamp at zero: during startup the whole history is shorter
        # than the kernel, and a negative start would silently slice
        # from the wrong end.
        self._tail = work[max(work.size - keep, 0) :] if keep else np.empty(0)
        return self._drain(self._n - self._shift)

    def finalize(self) -> np.ndarray:
        """Zero-pad the right edge and return the trailing outputs."""
        if self._finalized:
            return np.empty(0)
        self._finalized = True
        if self._n == 0:
            return np.empty(0)
        if self._shift:
            # The last `shift` full-conv values involve only the tail
            # (future samples are zeros, as in the batch edge).
            full = np.convolve(self._tail, self.kernel, mode="full")
            self._fbuf = np.concatenate([self._fbuf, full[self._tail.size :]])
        return self._drain(self._n)

    def _drain(self, emit_until: int) -> np.ndarray:
        """Emit same-mode outputs ``[_emitted, emit_until)``."""
        if emit_until <= self._emitted:
            return np.empty(0)
        lo = self._emitted + self._shift - self._fstart
        hi = emit_until + self._shift - self._fstart
        out = self._fbuf[lo:hi]
        self._emitted = emit_until
        self._fbuf = self._fbuf[hi:]
        self._fstart = self._emitted + self._shift
        return out
