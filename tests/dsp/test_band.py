"""The band-energy kernel against the full-magnitude STFT reference."""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import repro.dsp.band as band
from repro.dsp.band import band_energy
from repro.dsp.stft import stft
from repro.dsp.windows import get_window


def _signal(n, complex_input, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    if complex_input:
        x = (x + 1j * rng.normal(size=n)).astype(np.complex64)
    return x


#: Contiguous, scattered, many (>= 8, where numpy's pairwise summation
#: would kick in) and single bins.
BIN_SETS = [
    np.array([3, 4, 5]),
    np.array([0, 7, 20, 31]),
    np.arange(2, 30),
    np.array([11]),
]


@pytest.fixture(params=[None, 3], ids=["default-blocks", "3-row-blocks"])
def chunk_bytes(request, monkeypatch):
    """Run each test with the shipped block size and with blocks so
    small that every request is split across several of them."""
    if request.param is not None:
        monkeypatch.setattr(band, "CHUNK_BYTES", request.param * 64 * 16)


@pytest.mark.usefixtures("chunk_bytes")
class TestAgainstStft:
    @pytest.mark.parametrize("complex_input", [True, False])
    @pytest.mark.parametrize("hop", [1, 7, 16, 64, 100])
    def test_one_request_per_bin_set(self, complex_input, hop):
        x = _signal(3000, complex_input)
        spec = stft(x, 1e4, fft_size=64, hop=hop)
        n = spec.magnitudes.shape[0]
        frames = sliding_window_view(x, 64)[::hop][:n]
        ys = band_energy(
            [frames],
            get_window("hann", 64),
            [(np.arange(n), bins) for bins in BIN_SETS],
            complex_input,
        )
        for bins, y in zip(BIN_SETS, ys):
            np.testing.assert_array_equal(y, spec.band_energy(bins))

    @pytest.mark.parametrize("complex_input", [True, False])
    def test_union_of_hop_grids(self, complex_input):
        # Nesting (16/32/64) and non-nesting (24) hops over one set of
        # hop-1 frame starts: every envelope equals its own stft().
        x = _signal(4000, complex_input, seed=1)
        frames = sliding_window_view(x, 64)
        hops = [16, 24, 32, 64]
        specs = [stft(x, 1e4, fft_size=64, hop=h) for h in hops]
        requests = [
            (np.arange(s.magnitudes.shape[0]) * h, bins)
            for s, h, bins in zip(specs, hops, BIN_SETS)
        ]
        ys = band_energy([frames], get_window("hann", 64), requests, complex_input)
        for s, bins, y in zip(specs, BIN_SETS, ys):
            np.testing.assert_array_equal(y, s.band_energy(bins))

    def test_rows_split_across_sources(self):
        # The multiplexer's layout: one source per stream, blocks that
        # cross stream boundaries, streams with no new rows.
        x = _signal(3000, True, seed=2)
        spec = stft(x, 1e4, fft_size=64, hop=32)
        frames = sliding_window_view(x, 64)[::32][: spec.magnitudes.shape[0]]
        cuts = [0, 5, 5, 17, 40, frames.shape[0]]
        sources = [frames[a:b] for a, b in zip(cuts, cuts[1:])]
        requests = [
            (np.arange(a, b), BIN_SETS[i % len(BIN_SETS)])
            for i, (a, b) in enumerate(zip(cuts, cuts[1:]))
        ]
        ys = band_energy(sources, get_window("hann", 64), requests)
        for (rows, bins), y in zip(requests, ys):
            np.testing.assert_array_equal(y, spec.band_energy(bins)[rows])


class TestShapes:
    def test_no_requests(self):
        assert band_energy([], get_window("hann", 16), []) == []

    def test_empty_request(self):
        frames = np.zeros((4, 16), dtype=complex)
        (y,) = band_energy(
            [frames], get_window("hann", 16), [(np.empty(0, int), [1, 2])]
        )
        assert y.shape == (0,)
