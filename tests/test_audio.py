from __future__ import annotations

import re
import struct
import tempfile
import tracemalloc
from pathlib import Path

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
from earmetrics.audio import _BLOCK_SAMPLES, _as_stereo, _hann_window
from helpers import noise_stereo
from oracles import load_wav_direct

WAV_FORMATS = ["pcm16", "pcm24", "pcm32", "float32"]


class TestAudioBuffer:
    def test_mono_vector_is_promoted_to_one_channel(self):
        buf = AudioBuffer(np.zeros(100), 44100)
        assert buf.samples.shape == (1, 100)
        assert buf.channels == 1

    def test_mono_to_stereo_is_a_read_only_view_of_the_one_channel(self):
        mono = AudioBuffer(np.random.default_rng(4).uniform(-1.0, 1.0, 1000), 44100)
        stereo = _as_stereo(mono)
        assert stereo.samples.shape == (2, 1000)
        assert np.shares_memory(stereo.samples, mono.samples)
        assert not stereo.samples.flags.writeable
        np.testing.assert_array_equal(stereo.samples, np.vstack([mono.samples[0]] * 2), strict=True)

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

    def test_writeable_caller_array_is_copied(self):
        src = np.zeros((2, 10))
        buf = AudioBuffer(src, 44100)
        src[0, 0] = 1.0
        assert buf.samples[0, 0] == 0.0
        assert not np.shares_memory(buf.samples, src)
        assert src.flags.writeable

    def test_read_only_float64_array_is_kept(self):
        src = np.arange(20.0).reshape(2, 10)
        src.flags.writeable = False
        buf = AudioBuffer(src, 44100)
        assert np.shares_memory(buf.samples, src)
        mono = np.arange(10.0)
        mono.flags.writeable = False
        assert np.shares_memory(AudioBuffer(mono, 44100).samples, mono)

    def test_read_only_float32_array_is_converted(self):
        src = np.linspace(-1.0, 1.0, 20, dtype=np.float32).reshape(2, 10)
        src.flags.writeable = False
        buf = AudioBuffer(src, 44100)
        assert buf.samples.dtype == np.float64
        assert not np.shares_memory(buf.samples, src)
        np.testing.assert_array_equal(buf.samples, src.astype(np.float64))

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

    @pytest.mark.parametrize("fmt", WAV_FORMATS)
    @pytest.mark.parametrize("channels", [1, 2])
    @pytest.mark.parametrize("length", [0, 1, 4000])
    def test_load_equals_whole_decode(self, tmp_path, fmt, channels, length):
        # one decode straight into the buffer gives the bits of astype(float64) / scale
        x = 0.9 * np.random.default_rng(length).uniform(-1.0, 1.0, (channels, length))
        path = tmp_path / f"{fmt}.wav"
        save_wav(path, AudioBuffer(x, 48000), sample_format=fmt)
        buf = load_wav(path)
        rate, expected = load_wav_direct(path)
        assert (buf.sample_rate, buf.samples.shape) == (rate, (channels, length))
        assert buf.samples.dtype == np.float64
        assert buf.samples.flags.c_contiguous and not buf.samples.flags.writeable
        np.testing.assert_array_equal(buf.samples, expected, strict=True)

    def test_load_peak_memory_is_one_buffer_and_the_decoded_file(self, tmp_path):
        # scipy's float32 frames (half the buffer) and the float64 buffer: 1.5x;
        # one more float64 copy of the file would make it 2.5x
        path = tmp_path / "ten.wav"
        x = 0.5 * np.random.default_rng(3).standard_normal((2, 10 * 44100))
        save_wav(path, AudioBuffer(x, 44100), sample_format="float32")
        tracemalloc.start()
        try:
            buf = load_wav(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * buf.samples.nbytes, f"peak {peak / buf.samples.nbytes:.2f}x the buffer"

    @settings(max_examples=30, deadline=None)
    @given(
        length=st.integers(0, 3 * _BLOCK_SAMPLES),
        channels=st.integers(1, 2),
        fmt=st.sampled_from(WAV_FORMATS),
        rate=st.sampled_from([8000, 22050, 44100, 48000, 96000]),
        cut=st.one_of(st.none(), st.floats(0.0, 1.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_truncated_files_decode_or_fail_by_name(self, length, channels, fmt, rate, cut, seed):
        # save_wav writes the data chunk last, so every strict cut of the file
        # cuts the header or the data chunk short; an uncut file decodes whole
        x = np.random.default_rng(seed).uniform(-1.0, 1.0, (channels, length))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x.wav"
            save_wav(path, AudioBuffer(x, rate), sample_format=fmt)
            raw = path.read_bytes()
            kept = len(raw) if cut is None else int(cut * len(raw))
            path.write_bytes(raw[:kept])
            if kept < len(raw):
                with pytest.raises(ValueError, match=f"^cannot decode {re.escape(str(path))}: "):
                    load_wav(path)
                return
            buf = load_wav(path)
            expected = load_wav_direct(path)
        assert buf.sample_rate == expected[0]
        assert buf.samples.flags.c_contiguous and not buf.samples.flags.writeable
        np.testing.assert_array_equal(buf.samples, expected[1], strict=True)

    @pytest.mark.parametrize("fmt", WAV_FORMATS)
    @pytest.mark.parametrize("channels", [1, 2])
    def test_every_cut_of_a_short_file_fails_by_name(self, tmp_path, fmt, channels):
        # cuts inside the RIFF, fmt and data headers and on every frame boundary
        path = tmp_path / "x.wav"
        save_wav(path, AudioBuffer(np.full((channels, 3), 0.25), 8000), sample_format=fmt)
        raw = path.read_bytes()
        for kept in range(len(raw)):
            path.write_bytes(raw[:kept])
            with pytest.raises(ValueError, match=f"^cannot decode {re.escape(str(path))}: "):
                load_wav(path)

    def test_data_chunk_cut_on_a_frame_boundary_is_named(self, tmp_path):
        # scipy returns the 20,000 frames it finds, with only a warning
        path = tmp_path / "cut.wav"
        save_wav(path, noise_stereo(seconds=1.0, amp=0.05, seed=87), sample_format="pcm16")
        path.write_bytes(path.read_bytes()[:80044])
        with pytest.raises(ValueError, match="data chunk declares 176400 bytes, the file holds 80000"):
            load_wav(path)

    @pytest.mark.filterwarnings("ignore::scipy.io.wavfile.WavFileWarning")
    @pytest.mark.parametrize("fmt", WAV_FORMATS)
    def test_unknown_chunks_are_skipped(self, tmp_path, fmt):
        # an odd-length chunk (with its pad byte) before the data chunk and one after it
        path = tmp_path / "x.wav"
        save_wav(path, AudioBuffer(np.random.default_rng(5).uniform(-1, 1, (2, 1000)), 44100), sample_format=fmt)
        raw = path.read_bytes()
        data_at = raw.index(b"data")
        extra = b"abcd" + struct.pack("<I", 3) + b"xyz\0"
        body = raw[12:data_at] + extra + raw[data_at:] + extra
        path.with_name("y.wav").write_bytes(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)
        np.testing.assert_array_equal(load_wav(path.with_name("y.wav")).samples, load_wav(path).samples, strict=True)

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

    def test_hann_window_equals_scipy_get_window_exactly(self):
        from scipy.signal import get_window

        for n in range(2, 8193):
            assert np.array_equal(_hann_window(n), get_window("hann", n)), n

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
