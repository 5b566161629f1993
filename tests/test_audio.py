from __future__ import annotations

import re
import struct
import tempfile
import tracemalloc
import warnings
from fractions import Fraction
from math import gcd
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from earmetrics import (
    AudioBuffer,
    MultiScaleConfig,
    StftConfig,
    curate_batch,
    evaluate_pair,
    istft,
    load_wav,
    resample,
    save_wav,
    stft,
    true_peak_dbtp,
)
from earmetrics import audio
from earmetrics.audio import (
    _BLOCK_SAMPLES,
    _as_stereo,
    _frame_bins,
    _hann_window,
    _resample_plan,
    _resample_taps,
    _wav_header,
)
from earmetrics.loudness import _true_peak_plan, _true_peak_taps
from earmetrics.spectral import mel_filterbank
from helpers import exact_bits, noise_stereo, overflowing_96k, traced_peak
from oracles import load_wav_direct, resample_poly_direct

WAV_FORMATS = ["pcm16", "pcm24", "pcm32", "float32"]
# the dtype each format decodes into: float32 holds up to 24 significant bits exactly
STORED_PRECISION = {"pcm16": np.float32, "pcm24": np.float32, "pcm32": np.float64, "float32": np.float32}


@pytest.mark.parametrize(
    "make",
    [
        lambda: _resample_taps(160, 147),
        lambda: _hann_window(512),
        lambda: stft(np.ones(2048), StftConfig(512)),
        _true_peak_taps,
        lambda: mel_filterbank(16, 512, 44100),
        lambda: _resample_plan(160, 147)[2][0][2],
        lambda: _true_peak_plan()[2][0][2],
    ],
    ids=[
        "resample_taps",
        "hann_window",
        "stft_bins",
        "true_peak_taps",
        "mel_filterbank",
        "resample_plan",
        "true_peak_plan",
    ],
)
def test_cached_and_returned_arrays_are_read_only(make):
    arr = make()
    with pytest.raises(ValueError, match="read-only"):
        arr.flat[0] = 1.0

# the header of each format for 2 channels, 44.1 kHz and 3 frames, as the
# files curation keeps have always been written: RIFF, fmt, (fact,) data
WAV_HEADERS = {
    "float32": "524946464a00000057415645"
    "666d7420120000000300020044ac000020620500080020000000"  # tag 3, cbSize 0
    "666163740400000003000000"  # 3 frames
    "6461746118000000",
    "pcm16": "524946463000000057415645" "666d7420100000000100020044ac000010b1020004001000" "646174610c000000",
    "pcm24": "524946463600000057415645" "666d7420100000000100020044ac00009809040006001800" "6461746112000000",
    "pcm32": "524946463c00000057415645" "666d7420100000000100020044ac00002062050008002000" "6461746118000000",
}


def wav_bytes(
    form: str,
    tag: int,
    channels: int,
    width: int,
    payload: bytes,
    *,
    bits: int | None = None,
    block_align: int | None = None,
    subformat: int | None = None,
    data: bool = True,
) -> bytes:
    """A WAV file built field by field: ``form`` is RIFF, RIFX or RF64; a
    ``subformat`` makes the fmt chunk WAVE_FORMAT_EXTENSIBLE (``tag`` 0xFFFE)."""
    order = ">" if form == "RIFX" else "<"
    block = channels * width if block_align is None else block_align
    bits = 8 * width if bits is None else bits
    fmt = struct.pack(order + "HHIIHH", tag, channels, 8000, 8000 * block, block, bits)
    if subformat is not None:
        guid_tail = "000000108000" if order == ">" else "000010008000"
        fmt += struct.pack(order + "HHII", 22, bits, 3, subformat) + bytes.fromhex(guid_tail + "00aa00389b71")
    chunks = b"fmt " + struct.pack(order + "I", len(fmt)) + fmt
    if data:
        size = 0xFFFFFFFF if form == "RF64" else len(payload)
        chunks += b"data" + struct.pack(order + "I", size) + payload
    if form != "RF64":
        return form.encode() + struct.pack(order + "I", 4 + len(chunks)) + b"WAVE" + chunks
    ds64 = b"ds64" + struct.pack("<IQQQI", 28, 40 + len(chunks), len(payload), len(payload) // block, 0)
    return b"RF64" + b"\xff" * 4 + b"WAVE" + ds64 + chunks


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
        # every dtype but float32 is widened to float64
        for dtype in (np.float16, np.int16, np.float64):
            src = np.zeros((2, 10), dtype=dtype)
            buf = AudioBuffer(src, 44100)
            assert buf.samples.dtype == np.float64
            src[0, 0] = 1
            assert buf.samples[0, 0] == 0.0

    def test_writeable_float32_array_is_a_float32_copy(self):
        src = np.linspace(-1.0, 1.0, 20, dtype=np.float32).reshape(2, 10)
        buf = AudioBuffer(src, 44100)
        assert buf.samples.dtype == np.float32
        assert not np.shares_memory(buf.samples, src)
        np.testing.assert_array_equal(buf.samples, src, strict=True)

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

    def test_read_only_float32_array_is_kept(self):
        src = np.linspace(-1.0, 1.0, 20, dtype=np.float32).reshape(2, 10)
        src.flags.writeable = False
        buf = AudioBuffer(src, 44100)
        assert buf.samples is src
        mono = AudioBuffer(src[0], 44100)
        assert mono.samples.dtype == np.float32 and np.shares_memory(mono.samples, src)

    @pytest.mark.parametrize("offset", [0, 2], ids=["aligned", "unaligned"])
    @pytest.mark.parametrize("dtype", ["<f4", "<f8"])
    def test_read_only_interleaved_view_computes_as_its_contiguous_copy(self, dtype, offset):
        # the transposed view of read-only (frames, 2) bytes is kept uncopied: its rows
        # step over the other channel, as a view of an interleaved WAV data chunk does
        rng = np.random.default_rng(6)
        frames = [rng.standard_normal((30000, 2)) * amp for amp in (0.3, 0.2)]
        views = [np.frombuffer(b"\0" * offset + x.astype(dtype).tobytes(), dtype, offset=offset) for x in frames]
        views = [AudioBuffer(v.reshape(-1, 2).T, rate) for v, rate in zip(views, (44100, 48000))]
        copies = [AudioBuffer(np.ascontiguousarray(v.samples), v.sample_rate) for v in views]
        assert views[0].samples.strides[1] == 2 * np.dtype(dtype).itemsize
        assert views[0].samples.flags.aligned == (offset == 0)

        def results(ref, rec):
            return (
                true_peak_dbtp(ref),
                resample(ref, 48000),
                evaluate_pair(ref, rec, MultiScaleConfig((1024, 256))),
                evaluate_pair(ref, rec, MultiScaleConfig((1024, 256)), prefilter="k", chunk_seconds=0.3),
            )

        assert exact_bits(results(*views)) == exact_bits(results(*copies))

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
        # one decode straight into the buffer gives the bits of astype(float64) / scale,
        # in float32 where that holds them exactly
        x = 0.9 * np.random.default_rng(length).uniform(-1.0, 1.0, (channels, length))
        path = tmp_path / f"{fmt}.wav"
        save_wav(path, AudioBuffer(x, 48000), sample_format=fmt)
        buf = load_wav(path)
        rate, expected = load_wav_direct(path)
        assert (buf.sample_rate, buf.samples.shape) == (rate, (channels, length))
        assert buf.samples.dtype == STORED_PRECISION[fmt]
        assert buf.samples.flags.c_contiguous and not buf.samples.flags.writeable
        np.testing.assert_array_equal(buf.samples.astype(np.float64), expected, strict=True)

    def test_load_peak_memory_is_one_buffer_and_the_decoded_file(self, tmp_path):
        # the float32 samples read from the file and the float32 buffer: 2x;
        # a float64 buffer would make it 3x, and one more float32 copy 3x too
        path = tmp_path / "ten.wav"
        x = 0.5 * np.random.default_rng(3).standard_normal((2, 10 * 44100))
        save_wav(path, AudioBuffer(x, 44100), sample_format="float32")
        peak = traced_peak(load_wav, path)
        buf = load_wav(path)
        assert buf.samples.dtype == np.float32
        assert peak < 2.1 * buf.samples.nbytes, f"peak {peak / buf.samples.nbytes:.2f}x the buffer"

    def test_float32_save_peak_memory_is_one_float32_copy(self, tmp_path):
        # one interleaved float32 copy is half the buffer; a float64 copy before it makes 1.5x
        buf = AudioBuffer(0.5 * np.random.default_rng(4).standard_normal((2, 10 * 44100)), 44100)
        peak = traced_peak(save_wav, tmp_path / "ten.wav", buf, "float32")
        assert peak < 0.6 * buf.samples.nbytes, f"peak {peak / buf.samples.nbytes:.2f}x the buffer"

    @pytest.mark.parametrize("sample_format", ["pcm16", "pcm24", "pcm32"])
    def test_nan_in_pcm_raises_before_the_file_is_made(self, tmp_path, sample_format):
        # it used to be written as 0 (16, 24 bit) or -1.0 (32 bit), with a RuntimeWarning
        x = np.zeros((2, 2 * _BLOCK_SAMPLES + 5))
        x[1, -1] = np.nan  # in the last block
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"cannot write a NaN sample as {sample_format}"):
                save_wav(tmp_path / "x.wav", AudioBuffer(x, 44100), sample_format)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("sample_format", ["pcm16", "pcm24", "pcm32"])
    def test_infinite_samples_clip_to_full_scale_in_pcm(self, tmp_path, sample_format):
        full = 2.0 ** (int(sample_format[3:]) - 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            save_wav(tmp_path / "x.wav", AudioBuffer(np.array([np.inf, -np.inf, 0.5]), 44100), sample_format)
        assert load_wav(tmp_path / "x.wav").samples.tolist() == [[(full - 1) / full, -1.0, 0.5]]

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
        assert buf.samples.dtype == STORED_PRECISION[fmt]
        assert buf.samples.flags.c_contiguous and not buf.samples.flags.writeable
        np.testing.assert_array_equal(buf.samples.astype(np.float64), expected[1], strict=True)

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

    @pytest.mark.parametrize("fmt", WAV_FORMATS)
    def test_header_bytes_are_pinned(self, tmp_path, fmt):
        path = tmp_path / "x.wav"
        save_wav(path, AudioBuffer(np.full((2, 3), 0.25), 44100), sample_format=fmt)
        header = bytes.fromhex(WAV_HEADERS[fmt])
        raw = path.read_bytes()
        assert raw[: len(header)] == header
        assert len(raw) == len(header) + struct.unpack("<I", header[-4:])[0]

    def test_large_files_get_an_rf64_header_the_reader_walks(self, tmp_path):
        # 2**29 stereo float32 frames are 4 GiB of samples, past 32-bit sizes
        path = tmp_path / "big.wav"
        path.write_bytes(_wav_header(3, 2, 44100, 4, 2**29))
        assert path.read_bytes()[:4] == b"RF64"
        with pytest.raises(ValueError, match="data chunk declares 4294967296 bytes, the file holds 0"):
            load_wav(path)

    @pytest.mark.parametrize("channels", [1, 2])
    @pytest.mark.parametrize(
        "form,tag,width,kwargs",
        [
            ("RIFX", 1, 2, {}),
            ("RIFX", 1, 3, {}),
            ("RIFX", 1, 4, {}),
            ("RIFX", 3, 4, {}),
            ("RIFX", 3, 8, {}),
            ("RIFF", 3, 8, {}),
            ("RIFF", 1, 3, {"bits": 20}),
            ("RIFF", 0xFFFE, 3, {"subformat": 1}),
            ("RIFF", 0xFFFE, 4, {"subformat": 3}),
            ("RIFX", 0xFFFE, 2, {"subformat": 1}),
            ("RF64", 3, 4, {}),
            ("RF64", 1, 3, {}),
        ],
    )
    def test_decodes_as_scipy_does(self, tmp_path, form, tag, width, kwargs, channels):
        order = ">" if form == "RIFX" else "<"
        rng = np.random.default_rng(width)
        if tag == 3 or kwargs.get("subformat") == 3:
            payload = rng.uniform(-1.0, 1.0, 2 * 1001).astype(f"{order}f{width}").tobytes()
        else:
            payload = rng.integers(0, 256, 2 * 1001 * width, dtype=np.uint8).tobytes()
        path = tmp_path / "x.wav"
        path.write_bytes(wav_bytes(form, tag, channels, width, payload[: 1001 * channels * width], **kwargs))
        buf = load_wav(path)
        rate, expected = load_wav_direct(path)
        assert (buf.sample_rate, buf.samples.shape) == (rate, (channels, 1001))
        # at most 24 significant bits (pcm16, pcm24 and float32) decode into float32
        is_float = 3 in (tag, kwargs.get("subformat"))
        assert buf.samples.dtype == (np.float32 if width < 4 or (is_float and width == 4) else np.float64)
        np.testing.assert_array_equal(buf.samples.astype(np.float64), expected, strict=True)

    def test_rf64_truncation_uses_the_64_bit_data_size(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(wav_bytes("RF64", 1, 2, 2, bytes(400))[:-4])
        with pytest.raises(ValueError, match="data chunk declares 400 bytes, the file holds 396"):
            load_wav(path)

    UNREAD_FILES = {
        "pcm8": (1, 1, 1, {}),
        "alaw": (6, 1, 1, {"bits": 8}),
        "extensible_alaw": (0xFFFE, 2, 1, {"bits": 8, "subformat": 6}),
        "three_channels": (1, 3, 2, {}),
        "zero_channels": (1, 0, 2, {"block_align": 4}),
        "split_block_align": (1, 2, 2, {"block_align": 5}),
        "no_data_chunk": (1, 2, 2, {"data": False}),
    }

    @pytest.mark.parametrize("name", UNREAD_FILES)
    def test_unread_formats_fail_by_name(self, tmp_path, name):
        tag, channels, width, kwargs = self.UNREAD_FILES[name]
        path = tmp_path / f"{name}.wav"
        path.write_bytes(wav_bytes("RIFF", tag, channels, width, bytes(60), **kwargs))
        with pytest.raises(ValueError, match=f"^cannot decode {re.escape(str(path))}: "):
            load_wav(path)

    def test_unread_formats_are_curated_as_decode_errors(self, tmp_path):
        src, out = tmp_path / "in", tmp_path / "out"
        src.mkdir()
        for name, (tag, channels, width, kwargs) in self.UNREAD_FILES.items():
            (src / f"{name}.wav").write_bytes(wav_bytes("RIFF", tag, channels, width, bytes(60), **kwargs))
        decisions, _ = curate_batch(src, out, stage="all")
        assert len(decisions) == len(self.UNREAD_FILES)
        assert {(d.verdict, d.reason) for d in decisions} == {("reject", "decode_error")}

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
        bins = stft(x, StftConfig(1024))
        assert bins.shape == (44100 // 256 + 1, 513)

    def test_short_signal_raises(self):
        with pytest.raises(ValueError, match="short"):
            stft(np.zeros(100), StftConfig(1024))

    def test_bin_centered_tone_peaks_at_its_bin(self):
        n, k, rate = 1024, 32, 44100
        t = np.arange(8 * n)
        x = np.sin(2 * np.pi * k * t / n)
        bins = stft(x, StftConfig(n))
        # frame 8 is centred on sample 8 * hop = 2n, far from either end
        frame = np.abs(bins[8])
        assert np.argmax(frame) == k
        # Hann mainlobe: peak bin carries amplitude * N/4, and the three
        # mainlobe bins hold nearly all of the frame energy.
        assert frame[k] == pytest.approx(n / 4, rel=1e-3)
        energy = np.sum(frame**2)
        assert np.sum(frame[k - 1 : k + 2] ** 2) >= 0.99 * energy

    def test_windowed_energy_conservation(self, rng):
        # Zero-embed so that every sample of x sees full window overlap and
        # the reflected edges hold only zeros; then the summed spectrogram
        # power equals the signal power times the window overlap constant
        # (3/8 * N / hop = 1.5 for hop = N/4).
        n = 1024
        x = rng.standard_normal(8 * n)
        padded = np.concatenate([np.zeros(n), x, np.zeros(2 * n)])
        mags = np.abs(stft(padded, StftConfig(n))) ** 2
        # one-sided spectrum: interior bins count twice
        spec_energy = (mags[:, 0] + mags[:, -1] + 2 * np.sum(mags[:, 1:-1], axis=1)).sum() / n
        ratio = spec_energy / (1.5 * np.sum(x**2))
        assert ratio == pytest.approx(1.0, abs=1e-4)

    def test_bins_are_read_only(self, rng):
        bins = stft(rng.standard_normal(4096), StftConfig(1024))
        with pytest.raises(ValueError):
            bins[0, 0] = 0.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n,hop", [(2, 1), (256, 64), (1024, 256), (1024, 1000), (4096, 1024), (4096, 4096)])
    def test_bins_are_the_frame_bins_of_every_frame(self, rng, dtype, n, hop):
        # stft is every frame of the signal as one block of _frame_bins, bit for bit
        x = rng.standard_normal(3 * 4096 + 17).astype(dtype)
        cfg = StftConfig(n, hop=hop)
        bins = stft(x, cfg)
        expected = _frame_bins(x, cfg, 0, 1 + x.shape[0] // hop)
        assert type(bins) is np.ndarray and bins.dtype == np.complex128
        assert bins.shape == expected.shape
        assert bins.tobytes() == expected.tobytes()
        # float32 samples widen exactly, so their bins are those of the float64 values
        assert bins.tobytes() == _frame_bins(x.astype(np.float64), cfg, 0, bins.shape[0]).tobytes()

    def test_hann_window_equals_scipy_get_window_exactly(self):
        from scipy.signal import get_window

        for n in range(2, 8193):
            assert np.array_equal(_hann_window(n), get_window("hann", n)), n


class TestIstft:
    @pytest.mark.parametrize("n,hop", [(1024, 256), (1024, 512), (256, 64)])
    def test_roundtrip_identity(self, rng, n, hop):
        x = 0.7 * rng.standard_normal(8192)
        cfg = StftConfig(n, hop=hop)
        y = istft(stft(x, cfg), cfg, x.shape[0])
        assert y.shape == x.shape
        assert np.max(np.abs(y - x)) < 1e-10

    @pytest.mark.parametrize("n,hop", [(1024, 768), (1024, 384), (512, 512)])
    def test_non_cola_hop_rejected(self, rng, n, hop):
        cfg = StftConfig(n, hop=hop)
        message = f"hop {hop} violates constant overlap-add for fft_size {n}"
        with pytest.raises(ValueError, match=re.escape(message)):
            istft(stft(rng.standard_normal(4096), cfg), cfg, 4096)

    @pytest.mark.parametrize("width", [256, 1024])
    def test_bins_of_another_width_named(self, rng, width):
        bins = stft(rng.standard_normal(4096), StftConfig(width))
        message = f"bin count {width // 2 + 1} does not match fft_size 512 (expected 257)"
        with pytest.raises(ValueError, match=re.escape(message)):
            istft(bins, StftConfig(512), 4096)

    @pytest.mark.parametrize("shape", [(257,), (2, 3, 257)])
    def test_bins_that_are_not_2d_named(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"bins must be 2-D, got {len(shape)}-D")):
            istft(np.zeros(shape, complex), StftConfig(512), 4096)

    @pytest.mark.parametrize("num_samples", [4095, 4224, 8192])
    def test_frame_count_that_does_not_cover_the_length_named(self, rng, num_samples):
        # 4096 samples at hop 128 give 33 frames; 4095 give 32, 4224 give 34
        cfg = StftConfig(512)
        bins = stft(rng.standard_normal(4096), cfg)
        message = f"33 frames do not cover {num_samples} samples at hop 128"
        with pytest.raises(ValueError, match=re.escape(message)):
            istft(bins, cfg, num_samples)

    @pytest.mark.parametrize("num_samples", [4096.0, "4096", True, None, np.float64(4096)])
    def test_num_samples_that_is_not_an_integer_named(self, rng, num_samples):
        bins = stft(rng.standard_normal(4096), StftConfig(512))
        message = f"num_samples must be an integer, got {num_samples!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            istft(bins, StftConfig(512), num_samples)

    def test_numpy_integer_num_samples_accepted(self, rng):
        x = rng.standard_normal(4096)
        cfg = StftConfig(512)
        assert np.array_equal(istft(stft(x, cfg), cfg, np.int64(4096)), istft(stft(x, cfg), cfg, 4096))

    def test_callers_bins_are_left_as_they_are(self, rng):
        cfg = StftConfig(256)
        bins = np.array(stft(rng.standard_normal(2048), cfg))
        before = bins.copy()
        istft(bins, cfg, 2048)
        assert bins.flags.writeable and bins.tobytes() == before.tobytes()

    @given(st.integers(min_value=600, max_value=3000), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_property(self, length, seed):
        x = np.random.default_rng(seed).standard_normal(length)
        cfg = StftConfig(256)
        assert np.max(np.abs(istft(stft(x, cfg), cfg, length) - x)) < 1e-10


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

    @pytest.mark.parametrize(
        "source,target",
        [(48000, 44100), (96000, 44100), (88200, 44100), (192000, 44100), (44100, 48000), (22050, 44100), (44100, 22050)],
    )
    def test_matches_resample_poly(self, source, target):
        up, down = target // gcd(source, target), source // gcd(source, target)
        half = len(_resample_taps(up, down)) // (2 * up)  # input samples under half the filter
        _, inputs, groups = _resample_plan(up, down)
        step = max(1, _BLOCK_SAMPLES // max(w.shape[0] for _, _, w in groups))
        # the length at which the rows read wholly inside the signal fill one block
        block = (step - 1 - groups[0][0] // inputs) * inputs + groups[-1][0] + groups[-1][2].shape[0]
        rng = np.random.default_rng(source + target)
        for n in (1, 2, half - 1, half + 1, block - 1, block, block + inputs):
            mono = AudioBuffer(rng.standard_normal(n), source)
            for buf in (mono, AudioBuffer(rng.standard_normal((2, n)), source), _as_stereo(mono)):
                out = resample(buf, target)
                want = resample_poly_direct(buf.samples, up, down, round(Fraction(n * target, source)))
                assert out.sample_rate == target and out.samples.shape == want.shape
                peak = np.max(np.abs(want), initial=0.0)
                np.testing.assert_allclose(out.samples, want, rtol=0, atol=1e-12 * peak)

    def test_plan_for_nearly_equal_rates_stays_small(self, monkeypatch):
        # one (window, up) matrix for 44101 -> 44100 Hz would hold up * down + taps values, about 15 GB
        taps = _resample_taps(44100, 44101)
        monkeypatch.setattr(audio, "_resample_taps", lambda up, down: taps)  # the filter is not cached
        buf = AudioBuffer(np.random.default_rng(7).standard_normal(3000), 44101)
        peak = traced_peak(resample, buf, 44100)
        out = resample(buf, 44100)
        assert peak < 2 * taps.nbytes
        want = resample_poly_direct(buf.samples, 44100, 44101, 3000, taps)
        np.testing.assert_allclose(out.samples, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))

    def test_large_plans_are_not_kept(self):
        # nearly equal co-prime rates need a filter of about 160 * rate taps;
        # kept in the caches, each plan and its taps stayed for the process's life
        buf = AudioBuffer(np.random.default_rng(8).standard_normal(2000), 8000)
        plan_bytes = sum(w.nbytes for _, _, w in _resample_plan.__wrapped__(8000, 8001)[2])
        assert plan_bytes > 100 * buf.samples.nbytes
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for rate in (8001, 8003):
                resample(AudioBuffer(buf.samples, rate), 8000)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < plan_bytes

    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    @pytest.mark.parametrize("where", [0, 100_000, -1], ids=["first", "middle", "last"])
    def test_non_finite_input_named(self, value, where):
        # one NaN at 48 kHz used to give 162 NaN outputs, with no error
        samples = np.random.default_rng(5).standard_normal((2, 200_001))
        samples[1, where] = value
        with pytest.raises(ValueError, match=re.escape("buffer holds non-finite samples (NaN or inf)")):
            resample(AudioBuffer(samples, 48000), 44100)

    def test_overflow_of_finite_samples_named(self):
        # used to return 4,845 inf samples of 176,400, with no error
        with pytest.raises(ValueError, match="samples are too large for the metrics to stay finite in float64"):
            resample(overflowing_96k(), 44100)
