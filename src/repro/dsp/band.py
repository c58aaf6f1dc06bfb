"""The one band-energy kernel: paper Eq. 1 over a set of frame rows.

Every receiver in the package reduces IQ to the same envelope

    Y[n] = sum_{k in S} abs(F_n[k])

(:mod:`repro.core.acquisition`).  :func:`band_energy` is the only place
that computes it: the batch acquisition, the streaming receivers, the
fleet multiplexer's per-tick group call and the sweep's capture-group
tail all hand it frame rows and ``(rows, bins)`` requests.  Each
requested row is windowed and transformed exactly once, however many
requests name it, so receivers that share a capture but differ in hop
(16 / 32 / 64 sample the same frame starts) pay for the union of their
frame positions rather than for each grid separately.

Bit-identity with the full-magnitude path
(``stft(...).band_energy(bins)``) holds row for row, for any block
layout:

* pocketfft transforms each row of a 2-D FFT independently with the
  same plan, so which rows share a block is unobservable;
* the window multiply writes into one reused scratch block
  (``np.multiply(rows, win, out=...)``) - the same elementwise product
  as ``frames * win``;
* ``fftshift`` is a column permutation and ``abs`` is elementwise, so
  gathering the requested columns at their unshifted positions and
  taking ``abs`` of just those yields the same magnitudes;
* bins are summed strictly left to right, the order
  ``X[:, bins].sum(axis=1)`` uses on any multi-row ``X``.  numpy
  pairwise-sums a single row instead, so a request that a block hands
  one row is summed with ``cumsum``; otherwise results would depend on
  the block layout.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import List, Sequence, Tuple

import numpy as np

#: Upper bound on one FFT block's complex spectra.  Sized so the
#: scratch block, its spectra and the window stay resident in last-level
#: cache across the multiply -> FFT -> |.|-gather pipeline: measured on
#: the 1 kHz-stream multiplexer benchmark, 64 MiB blocks (DRAM
#: round-trips between stages) ran the kernel 2.2x slower than 4 MiB
#: blocks, while blocks below ~1 MiB start paying per-block dispatch
#: instead.  Still >= 1 row at FFT sizes up to 256k.
CHUNK_BYTES = 4 * 1024 * 1024

#: One envelope request: sorted global row indices and the bins of S
#: (in the frequency order of :func:`repro.dsp.stft.stft`'s axis).
Request = Tuple[np.ndarray, np.ndarray]


def block_rows(fft_size: int) -> int:
    """Rows per FFT block so the spectra stay under :data:`CHUNK_BYTES`."""
    return max(1, CHUNK_BYTES // (fft_size * np.dtype(np.complex128).itemsize))


def band_energy(
    sources: Sequence[np.ndarray],
    window: np.ndarray,
    requests: Sequence[Request],
    complex_input: bool = True,
) -> List[np.ndarray]:
    """Eq. 1 envelopes for any number of requests over shared frame rows.

    Parameters
    ----------
    sources:
        2-D frame arrays of shape ``(n_i, fft_size)`` (strided views are
        fine).  Their rows are numbered globally in order: source 0's
        rows first, then source 1's, and so on.
    window:
        The ``fft_size`` analysis-window coefficients.
    requests:
        ``(rows, bins)`` pairs.  ``rows`` are strictly increasing global
        row indices; ``bins`` index the fftshifted spectrum for complex
        input and the one-sided ``rfft`` spectrum for real input.
    complex_input:
        Two-sided FFT (IQ) or one-sided ``rfft`` (real samples).

    Returns one envelope per request: ``out[i][j]`` is the band energy
    of global row ``rows_i[j]``.
    """
    fft_size = window.size
    rows = [np.asarray(r, dtype=np.int64) for r, _ in requests]
    outs = [np.empty(r.size) for r in rows]
    # The distinct requested rows, in order (a sort and a mask: several
    # times faster than ``np.unique`` on these sizes).
    needed = np.sort(np.concatenate(rows or [np.empty(0, np.int64)]))
    if needed.size == 0:
        return outs
    needed = needed[np.concatenate(([True], needed[1:] != needed[:-1]))]
    starts = [0]
    for source in sources:
        starts.append(starts[-1] + source.shape[0])
    # Bins as columns of the unshifted spectrum.
    cols = [
        (np.asarray(b, dtype=np.int64) - fft_size // 2) % fft_size
        if complex_input
        else np.asarray(b, dtype=np.int64)
        for _, b in requests
    ]
    # Each request's positions in ``needed`` (the transformed rows, in
    # order).  When ``needed`` is a run of consecutive rows - a lone
    # hop grid, or the multiplexer's streams - positions are offsets.
    base = int(needed[0])
    consecutive = int(needed[-1]) - base + 1 == needed.size
    if consecutive:
        gathers = [r - base if base else r for r in rows]
    else:
        gathers = [np.searchsorted(needed, r) for r in rows]
    first = [int(g[0]) if g.size else 0 for g in gathers]
    stop = [int(g[-1]) + 1 if g.size else 0 for g in gathers]
    runs = [b - a == g.size for a, b, g in zip(first, stop, gathers)]
    # Requests in order of their first row; ``active`` holds those that
    # overlap the current block.
    order = sorted((i for i, g in enumerate(gathers) if g.size), key=first.__getitem__)
    active: List[int] = []
    nxt = 0
    limit = min(block_rows(fft_size), needed.size)
    scratch = np.empty(
        (limit, fft_size), dtype=np.complex128 if complex_input else np.float64
    )
    fft = np.fft.fft if complex_input else np.fft.rfft
    for lo in range(0, needed.size, limit):
        hi = min(lo + limit, needed.size)
        block = needed[lo:hi]
        b0, b1 = int(block[0]), int(block[-1]) + 1
        # Window the block's rows into the scratch block, source by
        # source (a block may span sources, a source may span blocks).
        for s in range(bisect_right(starts, b0) - 1, bisect_left(starts, b1)):
            if consecutive:
                g0, g1 = max(starts[s], b0), min(starts[s + 1], b1)
                if g0 >= g1:
                    continue
                rows_in = sources[s][g0 - starts[s] : g1 - starts[s]]
                a, b = g0 - b0, g1 - b0
            else:
                a, b = np.searchsorted(block, starts[s : s + 2]).tolist()
                if a == b:
                    continue
                rows_in = sources[s][block[a:b] - starts[s]]
            np.multiply(rows_in, window, out=scratch[a:b])
        spectra = fft(scratch[: hi - lo], axis=1)
        while nxt < len(order) and first[order[nxt]] < hi:
            active.append(order[nxt])
            nxt += 1
        for i in active:
            if runs[i]:
                a, b = max(first[i], lo) - first[i], min(stop[i], hi) - first[i]
                picked = spectra[first[i] + a - lo : first[i] + b - lo]
            else:
                a, b = np.searchsorted(gathers[i], (lo, hi)).tolist()
                picked = spectra[gathers[i][a:b] - lo]
            mags = np.abs(picked[:, cols[i]])
            # numpy sums a multi-row ``X[:, bins]`` left to right but a
            # single row pairwise; sum that one left to right explicitly.
            outs[i][a:b] = (
                mags.sum(axis=1) if b - a > 1 else mags.cumsum(axis=1)[:, -1]
            )
        active = [i for i in active if stop[i] > hi]
    return outs
