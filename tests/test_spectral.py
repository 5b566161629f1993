from __future__ import annotations

import numpy as np
import pytest

from earmetrics import (
    AudioBuffer,
    MultiScaleConfig,
    apply_cascade,
    composite_objective,
    correlation_loss,
    design_k_weighting,
    log_magnitude_distance,
    mel_distance,
    mel_filterbank,
    phase_loss,
    split_mslr,
    stft,
)
from helpers import noise_stereo

COMPACT = MultiScaleConfig.compact()


class TestMultiScaleConfig:
    def test_defaults(self):
        cfg = MultiScaleConfig()
        assert cfg.fft_sizes == (4096, 2048, 1024, 512, 256, 128)
        assert cfg.hop_ratio == 0.25
        assert cfg.log_epsilon == 1e-5

    def test_presets(self):
        assert MultiScaleConfig.compact().fft_sizes == (2048, 1024, 512, 256, 128)

    def test_hop_for(self):
        assert MultiScaleConfig().hop_for(1024) == 256
        assert MultiScaleConfig(hop_ratio=1.0).hop_for(128) == 128

    def test_default_mel_bins_cap(self):
        cfg = MultiScaleConfig()
        assert [cfg.mel_bins_for(i) for i in range(6)] == [128, 128, 128, 64, 32, 16]

    def test_explicit_mel_bins_length_checked(self):
        with pytest.raises(ValueError):
            MultiScaleConfig(fft_sizes=(512, 256), mel_bins=(32,))

    @pytest.mark.parametrize("ratio", [0.0, 1.5, -0.1])
    def test_hop_ratio_bounds(self, ratio):
        with pytest.raises(ValueError):
            MultiScaleConfig(hop_ratio=ratio)

    def test_log_epsilon_positive(self):
        with pytest.raises(ValueError):
            MultiScaleConfig(log_epsilon=0.0)


class TestMelFilterbank:
    def test_shape_and_range(self):
        fb = mel_filterbank(64, 1024, 44100)
        assert fb.shape == (64, 513)
        assert np.all(fb >= 0.0) and np.all(fb <= 1.0)

    def test_bands_bounded_by_unit_gain_and_nonempty(self):
        # triangles peak at 1 in continuous frequency; the sampled maximum
        # sits within one bin of the apex
        fb = mel_filterbank(40, 2048, 44100)
        peaks = fb.max(axis=1)
        assert np.all(peaks <= 1.0)
        assert np.all(peaks > 0.5)

    def test_band_centers_increase(self):
        fb = mel_filterbank(32, 1024, 44100)
        centers = np.argmax(fb, axis=1)
        assert np.all(np.diff(centers) >= 1)

    def test_cached_and_frozen(self):
        a = mel_filterbank(16, 512, 44100)
        b = mel_filterbank(16, 512, 44100)
        assert a is b
        with pytest.raises(ValueError):
            a[0, 0] = 1.0


class TestDistances:
    def test_identity_is_exact_zero(self, rng):
        x = rng.standard_normal(44100)
        assert log_magnitude_distance(x, x, 44100, COMPACT) == 0.0
        assert mel_distance(x, x, 44100, COMPACT) == 0.0

    def test_doubling_with_tiny_epsilon_is_log_two(self, rng):
        # 2x is an exponent shift, exact through window and FFT, so with a
        # negligible epsilon every bin differs by exactly log(2)
        cfg = MultiScaleConfig(fft_sizes=(1024, 256), log_epsilon=1e-300)
        x = 0.4 * rng.standard_normal(22050)
        assert log_magnitude_distance(x, 2 * x, 44100, cfg) == pytest.approx(np.log(2), abs=1e-12)

    def test_doubling_broadband_at_default_epsilon(self, rng):
        x = 0.5 * rng.standard_normal(44100)
        got = log_magnitude_distance(x, 2 * x, 44100, COMPACT)
        assert got == pytest.approx(np.log(2), abs=0.01)

    def test_scale_average_matches_singletons(self, rng):
        x = rng.standard_normal(22050)
        y = x + 0.01 * rng.standard_normal(22050)
        cfg = MultiScaleConfig(fft_sizes=(1024, 256), mel_bins=(64, 32))
        singles = [
            mel_distance(x, y, 44100, MultiScaleConfig(fft_sizes=(n,), mel_bins=(m,)))
            for n, m in ((1024, 64), (256, 32))
        ]
        assert mel_distance(x, y, 44100, cfg) == pytest.approx(np.mean(singles), abs=1e-12)

    def test_length_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            log_magnitude_distance(np.zeros(5000), np.zeros(5001), 44100, COMPACT)
        nan_ch = np.zeros(5000)
        nan_ch[100] = np.nan
        for distance in (log_magnitude_distance, mel_distance):
            with pytest.raises(ValueError, match="non-finite"):
                distance(np.zeros(5000), nan_ch, 44100, COMPACT)

    def test_too_short_signal_rejected(self):
        with pytest.raises(ValueError, match="analysis window"):
            log_magnitude_distance(np.zeros(1000), np.zeros(1000), 44100, COMPACT)

    def test_mel_distance_smaller_than_linear_for_hf_noise(self, rng):
        # a small high-frequency-only perturbation lands in few mel bands
        rate = 44100
        x = rng.standard_normal(rate)
        t = np.arange(rate) / rate
        y = x + 0.05 * np.sin(2 * np.pi * 18000 * t)
        assert mel_distance(x, y, rate, COMPACT) < log_magnitude_distance(x, y, rate, COMPACT)


class TestCompositeObjective:
    def test_identity_on_broadband_pair(self):
        buf = noise_stereo(rate=44100, seconds=0.6, amp=0.9, seed=20)
        out = composite_objective(buf, buf, COMPACT)
        assert out.stft_mag == 0.0
        assert out.phase == 0.0
        assert out.corr <= 2e-6
        assert out.weighted_total <= 1e-4

    def test_total_is_weighted_sum_of_components(self):
        ref = noise_stereo(rate=44100, seconds=0.6, amp=0.5, seed=21)
        rec = AudioBuffer(
            ref.samples + 0.02 * np.random.default_rng(22).standard_normal(ref.samples.shape),
            44100,
        )
        out = composite_objective(ref, rec, COMPACT)
        want = 50.0 * out.stft_mag + 10.0 * out.corr + 10.0 * out.phase
        assert out.weighted_total == pytest.approx(want, rel=1e-15)
        assert (out.lambda_stft_mag, out.lambda_corr, out.lambda_phase) == (50.0, 10.0, 10.0)

    def test_component_averaging_sets(self):
        # magnitude over {mid, side, left, right}; correlation and phase
        # over {left, right} across every scale
        rate = 44100
        ref = noise_stereo(rate=rate, seconds=0.6, amp=0.5, seed=23)
        rec = AudioBuffer(
            ref.samples + 0.05 * np.random.default_rng(24).standard_normal(ref.samples.shape),
            rate,
        )
        out = composite_objective(ref, rec, COMPACT)

        sig_ref, sig_rec = split_mslr(ref), split_mslr(rec)
        mags = [
            log_magnitude_distance(sig_ref.component(c), sig_rec.component(c), rate, COMPACT)
            for c in ("mid", "side", "left", "right")
        ]
        corrs, phases = [], []
        for c in ("left", "right"):
            for n in COMPACT.fft_sizes:
                sc = COMPACT.stft_config(n)
                a = stft(sig_ref.component(c), sc, rate)
                b = stft(sig_rec.component(c), sc, rate)
                corrs.append(correlation_loss(a, b))
                phases.append(phase_loss(a, b))
        assert out.stft_mag == pytest.approx(np.mean(mags), rel=1e-12)
        assert out.corr == pytest.approx(np.mean(corrs), rel=1e-12)
        assert out.phase == pytest.approx(np.mean(phases), rel=1e-12)

    def test_channel_swap_halves_magnitude_term(self):
        # swapping L and R leaves mid identical and only negates side, so
        # exactly two of the four magnitude distances are nonzero
        rate = 44100
        ref = noise_stereo(rate=rate, seconds=0.6, amp=0.5, seed=25)
        rec = AudioBuffer(ref.samples[::-1], rate)
        out = composite_objective(ref, rec, COMPACT)
        d_lr = log_magnitude_distance(ref.samples[0], ref.samples[1], rate, COMPACT)
        assert out.stft_mag == pytest.approx(d_lr / 2, rel=1e-9)

    def test_prefilter_matches_manual_filtering(self):
        rate = 44100
        ref = noise_stereo(rate=rate, seconds=0.6, amp=0.5, seed=26)
        rec = noise_stereo(rate=rate, seconds=0.6, amp=0.5, seed=27)
        cascade = design_k_weighting(rate)
        manual = composite_objective(apply_cascade(cascade, ref), apply_cascade(cascade, rec), COMPACT)
        internal = composite_objective(ref, rec, COMPACT, prefilter="k")
        assert internal.weighted_total == pytest.approx(manual.weighted_total, rel=1e-12)
        assert internal.prefilter == "k"
        assert manual.prefilter == "none"

    def test_custom_lambdas(self):
        buf = noise_stereo(rate=44100, seconds=0.6, amp=0.5, seed=28)
        rec = AudioBuffer(buf.samples[::-1], 44100)
        out = composite_objective(buf, rec, COMPACT, lambdas=(1.0, 0.0, 0.0))
        assert out.weighted_total == pytest.approx(out.stft_mag, rel=1e-15)

    def test_as_dict_keys(self):
        buf = noise_stereo(rate=44100, seconds=0.6, amp=0.5, seed=29)
        d = composite_objective(buf, buf, COMPACT).as_dict()
        assert set(d) == {
            "stft_mag",
            "corr",
            "phase",
            "weighted_total",
            "lambda_stft_mag",
            "lambda_corr",
            "lambda_phase",
            "prefilter",
        }

    def test_input_validation(self):
        mono = AudioBuffer(np.zeros(30000), 44100)
        stereo = noise_stereo(seconds=0.6, seed=30)
        other_rate = noise_stereo(rate=48000, seconds=0.6, seed=30)
        with pytest.raises(ValueError, match="stereo"):
            composite_objective(mono, mono, COMPACT)
        with pytest.raises(ValueError, match="rates"):
            composite_objective(stereo, other_rate, COMPACT)
        with pytest.raises(ValueError, match="prefilter"):
            composite_objective(stereo, stereo, COMPACT, prefilter="b")
        samples = np.array(stereo.samples)
        samples[1, 5] = np.inf
        with pytest.raises(ValueError, match="reconstruction holds non-finite"):
            composite_objective(stereo, AudioBuffer(samples, 44100), COMPACT)
