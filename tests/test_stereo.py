from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from earmetrics import AudioBuffer, StftConfig, merge_mslr, split_mslr, stft
from helpers import noise_stereo


class TestSplit:
    def test_basic_identities(self, rng):
        buf = noise_stereo(seconds=0.5, seed=1)
        mid, side = split_mslr(buf)
        left, right = buf.samples
        np.testing.assert_array_equal(mid, (left + right) / 2)
        np.testing.assert_array_equal(side, (left - right) / 2)

    def test_identical_channels_have_zero_side(self, rng):
        x = rng.standard_normal(1000)
        mid, side = split_mslr(AudioBuffer(np.stack([x, x]), 44100))
        np.testing.assert_array_equal(mid, x)
        assert np.all(side == 0)

    def test_channel_swap_negates_side_only(self):
        buf = noise_stereo(seconds=0.2, seed=2)
        swapped = AudioBuffer(buf.samples[::-1], buf.sample_rate)
        (mid_a, side_a), (mid_b, side_b) = split_mslr(buf), split_mslr(swapped)
        np.testing.assert_array_equal(mid_a, mid_b)
        np.testing.assert_array_equal(side_a, -side_b)

    def test_mono_rejected(self):
        with pytest.raises(ValueError):
            split_mslr(AudioBuffer(np.zeros(100), 44100))


class TestMerge:
    def test_roundtrip_exact(self):
        buf = noise_stereo(seconds=0.3, seed=4)
        back = merge_mslr(*split_mslr(buf), buf.sample_rate)
        # one rounding step in (l + r) / 2 limits this to ulp accuracy
        assert np.max(np.abs(back.samples - buf.samples)) < 1e-14

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            merge_mslr(np.zeros(10), np.zeros(11), 44100)

    def test_energy_identity(self, rng):
        buf = noise_stereo(seconds=0.5, seed=5)
        mid, side = split_mslr(buf)
        lr = np.sum(buf.samples[0] ** 2) + np.sum(buf.samples[1] ** 2)
        ms = 2 * (np.sum(mid**2) + np.sum(side**2))
        assert abs(lr - ms) / lr < 1e-12

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, seed):
        x = np.random.default_rng(seed).standard_normal((2, 256))
        back = merge_mslr(*split_mslr(AudioBuffer(x, 44100)), 44100)
        assert np.max(np.abs(back.samples - x)) < 1e-12


class TestSpectra:
    def test_shapes_and_consistency(self):
        buf = noise_stereo(seconds=0.5, seed=6)
        channels = dict(zip(("mid", "side", "left", "right"), (*split_mslr(buf), *buf.samples)))
        spectra = {c: stft(x, StftConfig(512)) for c, x in channels.items()}
        assert len({s.shape for s in spectra.values()}) == 1
        # mid and side formed in time equal (L +- R) / 2 bin-wise (STFT is linear)
        mid_direct = (spectra["left"] + spectra["right"]) / 2
        side_direct = (spectra["left"] - spectra["right"]) / 2
        np.testing.assert_allclose(spectra["mid"], mid_direct, atol=1e-12)
        np.testing.assert_allclose(spectra["side"], side_direct, atol=1e-12)
