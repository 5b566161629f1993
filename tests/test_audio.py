from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from earmetrics import (
    AudioBuffer,
    ComplexSpectrogram,
    StftConfig,
    istft,
    load_wav,
    resample,
    save_wav,
    stft,
)


class TestAudioBuffer:
    def test_mono_vector_is_promoted_to_one_channel(self):
        buf = AudioBuffer(np.zeros(100), 44100)
        assert buf.samples.shape == (1, 100)
        assert buf.channels == 1

    def test_samples_are_float64_copies(self):
        src = np.zeros((2, 10), dtype=np.float32)
        buf = AudioBuffer(src, 44100)
        assert buf.samples.dtype == np.float64
        src[0, 0] = 1.0
        assert buf.samples[0, 0] == 0.0

    def test_samples_are_read_only(self):
        buf = AudioBuffer(np.zeros((2, 10)), 44100)
        with pytest.raises(ValueError):
            buf.samples[0, 0] = 1.0

    def test_rejects_more_than_two_channels(self):
        with pytest.raises(ValueError, match="channel count"):
            AudioBuffer(np.zeros((3, 10)), 44100)

    @pytest.mark.parametrize("rate", [0, -1])
    def test_rejects_non_positive_rate(self, rate):
        with pytest.raises(ValueError):
            AudioBuffer(np.zeros((1, 10)), rate)

    def test_duration_and_counts(self):
        buf = AudioBuffer(np.zeros((2, 22050)), 44100)
        assert buf.num_samples == 22050
        assert buf.duration == pytest.approx(0.5)


class TestStftConfig:
    def test_default_hop_is_quarter_window(self):
        assert StftConfig(1024).hop == 256

    def test_num_bins(self):
        assert StftConfig(512).num_bins == 257

    @pytest.mark.parametrize("n", [0, 100, 1000, -512])
    def test_rejects_non_power_of_two(self, n):
        with pytest.raises(ValueError):
            StftConfig(n)

    @pytest.mark.parametrize("hop", [0, 2048])
    def test_rejects_hop_out_of_range(self, hop):
        with pytest.raises(ValueError):
            StftConfig(1024, hop=hop)


class TestWavIo:
    def test_float32_roundtrip_is_exact(self, tmp_path, rng):
        x = np.asarray(
            0.5 * rng.standard_normal((2, 4000)), dtype=np.float32
        ).astype(np.float64)
        path = tmp_path / "f32.wav"
        save_wav(path, AudioBuffer(x, 48000), sample_format="float32")
        loaded = load_wav(path)
        assert loaded.sample_rate == 48000
        np.testing.assert_array_equal(loaded.samples, x)

    @pytest.mark.parametrize(
        "fmt,step",
        [("pcm16", 2.0**-15), ("pcm24", 2.0**-23), ("pcm32", 2.0**-31)],
    )
    def test_pcm_roundtrip_within_quantization_step(self, tmp_path, rng, fmt, step):
        x = 0.8 * rng.standard_normal((2, 4000))
        np.clip(x, -0.99, 0.99, out=x)
        path = tmp_path / f"{fmt}.wav"
        save_wav(path, AudioBuffer(x, 44100), sample_format=fmt)
        loaded = load_wav(path)
        assert np.max(np.abs(loaded.samples - x)) <= step

    def test_pcm16_write_clips_out_of_range(self, tmp_path):
        x = np.array([[0.0, 2.0, -2.0, 0.5]])
        path = tmp_path / "clip.wav"
        save_wav(path, AudioBuffer(x, 44100), sample_format="pcm16")
        loaded = load_wav(path)
        assert loaded.samples[0, 1] == pytest.approx(1.0, abs=1e-4)
        assert loaded.samples[0, 2] == pytest.approx(-1.0, abs=1e-4)

    def test_mono_file_loads_as_one_channel(self, tmp_path):
        path = tmp_path / "mono.wav"
        save_wav(path, AudioBuffer(np.zeros(100), 44100), sample_format="pcm16")
        assert load_wav(path).channels == 1

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_wav(tmp_path / "nope.wav")

    def test_corrupt_file_raises_value_error(self, tmp_path):
        path = tmp_path / "garbage.wav"
        path.write_bytes(b"RIFFnot really a wav file")
        with pytest.raises(ValueError, match="cannot decode"):
            load_wav(path)

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_wav(tmp_path / "x.wav", AudioBuffer(np.zeros(10), 44100), sample_format="pcm8")


class TestStft:
    def test_frame_count_with_center_pad(self, rng):
        x = rng.standard_normal(44100)
        spec = stft(x, StftConfig(1024), 44100)
        assert spec.num_frames == 44100 // 256 + 1
        assert spec.num_bins == 513

    def test_frame_count_without_center_pad(self, rng):
        x = rng.standard_normal(10000)
        spec = stft(x, StftConfig(1024, center_pad=False), 44100)
        assert spec.num_frames == (10000 - 1024) // 256 + 1

    def test_short_signal_raises(self):
        with pytest.raises(ValueError, match="short"):
            stft(np.zeros(100), StftConfig(1024, center_pad=False), 44100)

    def test_bin_centered_tone_peaks_at_its_bin(self):
        n, k, rate = 1024, 32, 44100
        t = np.arange(8 * n)
        x = np.sin(2 * np.pi * k * t / n)
        spec = stft(x, StftConfig(n, center_pad=False), rate)
        frame = np.abs(spec.bins[8])
        assert np.argmax(frame) == k
        # Hann mainlobe: peak bin carries amplitude * N/4, and the three
        # mainlobe bins hold nearly all of the frame energy.
        assert frame[k] == pytest.approx(n / 4, rel=1e-3)
        energy = np.sum(frame**2)
        assert np.sum(frame[k - 1 : k + 2] ** 2) >= 0.99 * energy

    def test_windowed_energy_conservation(self, rng):
        # Zero-embed so that every analysis frame sees full window overlap,
        # then the summed spectrogram power equals the signal power times
        # the window overlap constant (3/8 * N / hop = 1.5 for hop = N/4).
        n = 1024
        x = rng.standard_normal(8 * n)
        padded = np.concatenate([np.zeros(n), x, np.zeros(2 * n)])
        spec = stft(padded, StftConfig(n, center_pad=False), 44100)
        mags = np.abs(spec.bins) ** 2
        # one-sided spectrum: interior bins count twice
        spec_energy = (mags[:, 0] + mags[:, -1] + 2 * np.sum(mags[:, 1:-1], axis=1)).sum() / n
        ratio = spec_energy / (1.5 * np.sum(x**2))
        assert ratio == pytest.approx(1.0, abs=1e-4)

    def test_bins_are_read_only(self, rng):
        spec = stft(rng.standard_normal(4096), StftConfig(1024), 44100)
        with pytest.raises(ValueError):
            spec.bins[0, 0] = 0.0

    def test_writeable_caller_bins_are_copied(self):
        bins = np.ones((3, 5), dtype=complex)
        spec = ComplexSpectrogram(bins, StftConfig(8), 44100, 16)
        bins[0, 0] = 2.0
        assert spec.bins[0, 0] == 1.0
        assert not spec.bins.flags.writeable


class TestIstft:
    @pytest.mark.parametrize(
        "n,hop,center",
        [(1024, 256, True), (1024, 512, True), (512, 128, False), (256, 64, True)],
    )
    def test_roundtrip_identity(self, rng, n, hop, center):
        x = 0.7 * rng.standard_normal(8192)
        spec = stft(x, StftConfig(n, hop=hop, center_pad=center), 44100)
        y = istft(spec)
        assert y.shape == x.shape
        # edge frames lack full overlap without center padding
        sl = slice(None) if center else slice(n, -n)
        assert np.max(np.abs(y[sl] - x[sl])) < 1e-10

    @pytest.mark.parametrize("n,hop", [(1024, 768), (1024, 384)])
    def test_non_cola_hop_rejected(self, rng, n, hop):
        spec = stft(rng.standard_normal(4096), StftConfig(n, hop=hop), 44100)
        with pytest.raises(ValueError, match="hop"):
            istft(spec)

    @given(st.integers(min_value=600, max_value=3000), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_property(self, length, seed):
        x = np.random.default_rng(seed).standard_normal(length)
        spec = stft(x, StftConfig(256), 44100)
        assert np.max(np.abs(istft(spec) - x)) < 1e-10


class TestResample:
    def test_same_rate_returns_same_buffer(self, rng):
        buf = AudioBuffer(rng.standard_normal((2, 1000)), 44100)
        assert resample(buf, 44100) is buf

    def test_output_length_rounds_half_to_even(self):
        buf_49 = AudioBuffer(np.zeros((1, 49)), 44100)
        buf_51 = AudioBuffer(np.zeros((1, 51)), 44100)
        # 24.5 -> 24, 25.5 -> 26
        assert resample(buf_49, 22050).num_samples == 24
        assert resample(buf_51, 22050).num_samples == 26

    def test_tone_amplitude_preserved(self):
        rate, target = 44100, 48000
        t = np.arange(2 * rate) / rate
        buf = AudioBuffer(np.sin(2 * np.pi * 1000 * t), rate)
        out = resample(buf, target)
        assert out.sample_rate == target
        assert out.num_samples == 2 * target
        mid = out.samples[0, target // 2 : -target // 2]
        amp_db = 20 * np.log10(np.max(np.abs(mid)))
        assert abs(amp_db) < 1e-3

    def test_downsample_removes_out_of_band_tone(self):
        rate = 48000
        t = np.arange(rate) / rate
        # 21 kHz is above the 16 kHz target Nyquist and must vanish
        buf = AudioBuffer(np.sin(2 * np.pi * 21000 * t), rate)
        out = resample(buf, 32000)
        rms_db = 10 * np.log10(np.mean(out.samples[0, 4000:-4000] ** 2) + 1e-30)
        assert rms_db < -80.0

    def test_rejects_bad_target(self, rng):
        buf = AudioBuffer(rng.standard_normal((1, 100)), 44100)
        with pytest.raises(ValueError):
            resample(buf, 0)
