"""Pin the bincount scatter-deposit against the np.add.at reference.

``EmissionModel.synthesize`` accumulates fractional-delay deposits with
one ``np.bincount`` pass; the original implementation used two
``np.add.at`` scatters plus a final-sample deposit.  Both perform the
same per-bin, in-order float additions, so the outputs must be
*bit-identical* - this test keeps the slow reference around and asserts
exact equality, including on trains engineered to pile many bursts into
the same output sample.  The reference ends in the model's direct pulse
convolve; a separate test pins that convolve against ``fftconvolve``.
"""

import numpy as np
from scipy.signal import fftconvolve

from repro.types import BurstTrain
from repro.vrm.emission import EmissionModel


def add_at_reference(model: EmissionModel, bursts: BurstTrain, sample_rate: float):
    """The pre-bincount synthesize, verbatim up to the pulse convolve
    (ground truth for the deposit)."""
    n_samples = int(round(bursts.duration * sample_rate))
    wave = np.zeros(max(n_samples, 1))
    if bursts.count == 0:
        return wave
    width_s = model.pulse_width_fraction * bursts.switching_period
    nominal_v = max(np.median(bursts.voltages), 1e-9)
    weights = (
        model.field_gain
        * (bursts.charges / width_s)
        * (bursts.voltages / nominal_v)
    )
    positions = bursts.times * sample_rate
    base = np.floor(positions).astype(np.int64)
    frac = positions - base
    interior = (base >= 0) & (base < n_samples - 1)
    np.add.at(wave, base[interior], weights[interior] * (1.0 - frac[interior]))
    np.add.at(wave, base[interior] + 1, weights[interior] * frac[interior])
    last = base == n_samples - 1
    np.add.at(wave, base[last], weights[last])
    kernel = model.pulse_kernel(sample_rate, bursts.switching_period)
    if kernel.size > 1:
        wave = np.convolve(wave, kernel)[: wave.size]
    return wave


def random_train(seed: int, n: int = 400, duration: float = 1e-3) -> BurstTrain:
    rng = np.random.default_rng(seed)
    times = np.sort(rng.uniform(0.0, duration, size=n))
    return BurstTrain(
        times=times,
        charges=rng.uniform(5e-6, 30e-6, size=n),
        voltages=rng.uniform(0.8, 1.2, size=n),
        duration=duration,
        switching_period=1e-6,
    )


class TestBincountEquivalence:
    def test_bit_identical_on_random_trains(self):
        model = EmissionModel()
        for seed in range(5):
            bursts = random_train(seed)
            got = model.synthesize(bursts, 8e6)
            want = add_at_reference(model, bursts, 8e6)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)  # exact, not allclose

    def test_bit_identical_with_heavy_bin_collisions(self):
        # A sample rate low enough that ~40 bursts land in every output
        # sample: per-bin accumulation *order* is where bincount and
        # add.at could diverge, so force many collisions per bin.
        model = EmissionModel(field_gain=2.5)
        bursts = random_train(7, n=2000)
        sample_rate = 5e4  # 50 output samples for 2000 bursts
        got = model.synthesize(bursts, sample_rate)
        want = add_at_reference(model, bursts, sample_rate)
        assert np.array_equal(got, want)

    def test_bit_identical_with_final_sample_deposits(self):
        # Bursts at the very end of the train exercise the last-sample
        # branch (full weight, no right-hand neighbour).
        model = EmissionModel()
        duration = 1e-4
        times = np.array([duration * 0.5, duration - 1e-9, duration - 5e-10])
        bursts = BurstTrain(
            times=times,
            charges=np.full(3, 1e-5),
            voltages=np.full(3, 1.0),
            duration=duration,
            switching_period=1e-6,
        )
        got = model.synthesize(bursts, 1e6)
        want = add_at_reference(model, bursts, 1e6)
        assert np.array_equal(got, want)


class ImpulsesOnly(EmissionModel):
    """The model with its pulse convolve skipped: the bare deposit."""

    def pulse_kernel(self, sample_rate, switching_period):
        return np.ones(1)


class TestPulseConvolve:
    def test_direct_convolve_matches_fftconvolve(self):
        model = EmissionModel()
        sample_rate = 8e6
        bursts = random_train(3)
        got = model.synthesize(bursts, sample_rate)
        impulses = ImpulsesOnly().synthesize(bursts, sample_rate)
        kernel = model.pulse_kernel(sample_rate, bursts.switching_period)
        assert kernel.size == 8
        want = fftconvolve(impulses, kernel)[: impulses.size]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
