"""Cross-stream batched DSP: one kernel call per config group per tick.

A fleet of 1k receivers pushing their chunks individually pays the
per-call numpy dispatch price (window multiply, FFT plan lookup, bin
gather - each a separate small-array call) a thousand times per tick.
The multiplexer instead stacks every stream's new frames into one
:func:`repro.dsp.band.band_energy` call per group per tick:

1. every stream **stages** its pending samples
   (:meth:`StreamingSTFT.stage` - raw frame views, no window/FFT);
2. the kernel windows and transforms the staged rows of all streams in
   cache-sized row blocks and serves each stream's Eq. 1 envelope from
   its own rows and bins;
3. each stream **completes** its staged frames and feeds the envelope
   to its receiver via ``push_envelope``.

The kernel's result is independent of its block layout, so the envelope
each receiver sees is the one its own
:meth:`StreamingBandEnergy.push` would compute, bit for bit, in any
chunking.  Streams may only share a kernel call when every parameter
that shapes a frame matches; :attr:`MuxStream.group_key` captures
exactly that set (fft size, hop, window, complex/real input, sample
rate).  Receivers with different *bins* still batch together - bin
selection is per request, after the shared FFT.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..dsp.band import band_energy
from ..obs.metrics import tap_mux_group
from ..obs.trace import span


class MuxStream:
    """Adapter binding one receiver into the batched-DSP tick.

    Wraps any receiver exposing the mux hooks grown in
    :mod:`repro.stream.receiver`: a ``band`` property (the
    :class:`~repro.stream.demod.StreamingBandEnergy` it consumes) and
    ``push_envelope``; receivers that keep per-sample statistics
    outside the STFT (the keystroke detector's RMS accumulator) also
    expose ``account_samples``, which the tick routes every sample
    through - including gap zeros - before staging.
    """

    def __init__(self, stream_id: str, receiver):
        self.stream_id = stream_id
        self.receiver = receiver
        band = receiver.band
        self.sstft = band.sstft
        self.bins = np.asarray(band.bins, dtype=int)
        self.account: Optional[Callable[[np.ndarray], None]] = getattr(
            receiver, "account_samples", None
        )
        self._pending: List[np.ndarray] = []
        self.pending_samples = 0

    @property
    def group_key(self) -> Tuple[int, int, str, bool, float]:
        """Everything that must match for two streams to share an FFT."""
        s = self.sstft
        return (s.fft_size, s.hop, s.window, s.complex_input, s.sample_rate)

    def buffer(self, samples: np.ndarray) -> None:
        """Queue delivered samples for this stream's next tick."""
        if samples.size:
            self._pending.append(samples)
            self.pending_samples += samples.size

    def take_pending(self) -> Optional[np.ndarray]:
        """Drain the tick's deliveries as one contiguous chunk."""
        if not self._pending:
            return None
        if len(self._pending) == 1:
            out = self._pending[0]
        else:
            out = np.concatenate(self._pending)
        self._pending = []
        self.pending_samples = 0
        return out


def group_streams(streams: Sequence[MuxStream]) -> Dict[tuple, List[MuxStream]]:
    """Partition streams into batched-kernel groups (insertion-ordered)."""
    groups: Dict[tuple, List[MuxStream]] = {}
    for ms in streams:
        groups.setdefault(ms.group_key, []).append(ms)
    return groups


def tick_group(
    streams: Sequence[MuxStream], now_s: float
) -> List[Tuple[MuxStream, list]]:
    """Run one batched DSP tick over a compatible group.

    Drains every stream's pending deliveries, stages them, computes
    all their envelopes in one band-energy kernel call, and hands each
    stream its envelope through ``push_envelope``.  Returns
    ``(stream, events)`` pairs for streams that produced envelope
    frames or events this tick.
    """
    staged: List[Tuple[MuxStream, np.ndarray, int]] = []
    for ms in streams:
        samples = ms.take_pending()
        if samples is None:
            continue
        if ms.account is not None:
            ms.account(samples)
        frames, first = ms.sstft.stage(samples)
        staged.append((ms, frames, first))
    if not staged:
        return []
    fft_size, hop, _, complex_input, sample_rate = streams[0].group_key
    total_rows = sum(frames.shape[0] for _, frames, _ in staged)
    out: List[Tuple[MuxStream, list]] = []
    with span(
        "mux.group",
        attrs={
            "streams": len(staged),
            "frames": total_rows,
            "fft_size": fft_size,
            "hop": hop,
        },
    ):
        requests, row = [], 0
        for ms, frames, _ in staged:
            requests.append((np.arange(row, row + frames.shape[0]), ms.bins))
            row += frames.shape[0]
        envelopes = band_energy(
            [frames for _, frames, _ in staged],
            streams[0].sstft.window_values,
            requests,
            complex_input,
        )
        for (ms, frames, first), y in zip(staged, envelopes):
            n_new = frames.shape[0]
            times = ms.sstft.times(first, n_new)
            ms.sstft.complete(n_new)
            events = ms.receiver.push_envelope(y, times, now_s)
            if n_new or events:
                out.append((ms, events))
    tap_mux_group(len(staged), total_rows, total_rows * hop / sample_rate)
    return out
