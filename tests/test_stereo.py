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
        sig = split_mslr(buf)
        left, right = buf.samples
        np.testing.assert_array_equal(sig.mid, (left + right) / 2)
        np.testing.assert_array_equal(sig.side, (left - right) / 2)
        np.testing.assert_array_equal(sig.left, left)
        np.testing.assert_array_equal(sig.right, right)

    def test_identical_channels_have_zero_side(self, rng):
        x = rng.standard_normal(1000)
        sig = split_mslr(AudioBuffer(np.stack([x, x]), 44100))
        np.testing.assert_array_equal(sig.mid, x)
        assert np.all(sig.side == 0)

    def test_channel_swap_negates_side_only(self):
        buf = noise_stereo(seconds=0.2, seed=2)
        swapped = AudioBuffer(buf.samples[::-1], buf.sample_rate)
        a, b = split_mslr(buf), split_mslr(swapped)
        np.testing.assert_array_equal(a.mid, b.mid)
        np.testing.assert_array_equal(a.side, -b.side)

    def test_mono_rejected(self):
        with pytest.raises(ValueError):
            split_mslr(AudioBuffer(np.zeros(100), 44100))

    def test_component_accessor(self):
        sig = split_mslr(noise_stereo(seconds=0.1, seed=3))
        for name in ("left", "right", "mid", "side"):
            np.testing.assert_array_equal(sig.component(name), getattr(sig, name))
        with pytest.raises(ValueError):
            sig.component("center")


class TestMerge:
    def test_roundtrip_exact(self):
        buf = noise_stereo(seconds=0.3, seed=4)
        sig = split_mslr(buf)
        back = merge_mslr(sig.mid, sig.side, buf.sample_rate)
        # one rounding step in (l + r) / 2 limits this to ulp accuracy
        assert np.max(np.abs(back.samples - buf.samples)) < 1e-14

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            merge_mslr(np.zeros(10), np.zeros(11), 44100)

    def test_energy_identity(self, rng):
        buf = noise_stereo(seconds=0.5, seed=5)
        sig = split_mslr(buf)
        lr = np.sum(sig.left**2) + np.sum(sig.right**2)
        ms = 2 * (np.sum(sig.mid**2) + np.sum(sig.side**2))
        assert abs(lr - ms) / lr < 1e-12

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, seed):
        x = np.random.default_rng(seed).standard_normal((2, 256))
        sig = split_mslr(AudioBuffer(x, 44100))
        back = merge_mslr(sig.mid, sig.side, 44100)
        assert np.max(np.abs(back.samples - x)) < 1e-12


class TestSpectra:
    def test_shapes_and_consistency(self):
        buf = noise_stereo(seconds=0.5, seed=6)
        sig = split_mslr(buf)
        spectra = {
            c: stft(sig.component(c), StftConfig(512), buf.sample_rate).bins
            for c in ("left", "right", "mid", "side")
        }
        assert len({s.shape for s in spectra.values()}) == 1
        # mid and side formed in time equal (L +- R) / 2 bin-wise (STFT is linear)
        mid_direct = (spectra["left"] + spectra["right"]) / 2
        side_direct = (spectra["left"] - spectra["right"]) / 2
        np.testing.assert_allclose(spectra["mid"], mid_direct, atol=1e-12)
        np.testing.assert_allclose(spectra["side"], side_direct, atol=1e-12)
