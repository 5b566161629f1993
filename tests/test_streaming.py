"""Curation streams each file in blocks: slices of the WAV data are read,
resampled, K-weighted, summed per gating step, rounded to float32, written to
a temporary file and measured for their true peak, so a worker holds a few
blocks and never a whole file. These tests hold the streamed results to the
whole-buffer ones, to any block size, to the reason order, and to a peak
memory that does not grow with the file."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from earmetrics import (
    AudioBuffer,
    apply_cascade,
    curate_all,
    curate_batch,
    curate_stage1,
    curate_stage2,
    design_k_weighting,
    integrated_lufs,
    resample,
    save_wav,
    true_peak_dbtp,
)
from earmetrics import audio
from earmetrics.audio import _FLOAT, _PCM, _BLOCK_SAMPLES, _WavWriter, _as_stereo, _wav_header
from earmetrics.loudness import _gating_block, _Loudness
from helpers import calibrated_burst_buffer, exact_bits, noise_stereo, traced_peak
from oracles import integrated_lufs_direct

BLOCK_SIZES = [2**13, 2**16, 2**17]


def _whole_payload(samples: np.ndarray, sample_format: str) -> bytes:
    """The sample bytes ``save_wav`` made from the whole buffer at once
    before it wrote in blocks."""
    if sample_format == "float32":
        return samples.T.astype("<f4", order="C").tobytes()
    width = int(sample_format[3:]) // 8
    full = 2 ** (8 * width - 1)
    interleaved = np.ascontiguousarray(samples.T, dtype=np.float64)
    q = np.clip(np.rint(interleaved * full), -full, full - 1).astype(f"<i{4 if width == 3 else width}")
    return (q.view(np.uint8).reshape(-1, 4)[:, :3] if width == 3 else q).tobytes()


def _write_wav_in_blocks(path: Path, make_block, channels: int, rate: int, frames: int, sample_format: str) -> None:
    """A WAV file of ``frames`` frames whose samples ``make_block(start, k)``
    gives a block at a time, so no whole signal is held."""
    with open(path, "wb") as fh:
        writer = _WavWriter(fh, channels, rate, frames, sample_format)
        for start in range(0, frames, _BLOCK_SAMPLES):
            writer.write(make_block(start, min(_BLOCK_SAMPLES, frames - start)))


def _noise_blocks(channels: int, amp: float, seed: int):
    def make_block(start: int, k: int) -> np.ndarray:
        return amp * np.random.default_rng([seed, start]).standard_normal((channels, k))

    return make_block


def _float64_wav(path: Path, samples: np.ndarray, rate: int) -> None:
    path.write_bytes(_wav_header(_FLOAT, samples.shape[0], rate, 8, samples.shape[1]) + samples.T.astype("<f8").tobytes())


class TestSaveWav:
    @pytest.mark.parametrize("sample_format", ["float32", "pcm16", "pcm24", "pcm32"])
    @pytest.mark.parametrize("layout", ["stereo", "mono_view"])
    def test_bytes_equal_the_whole_buffer_encoding(self, tmp_path, sample_format, layout):
        n = 2 * _BLOCK_SAMPLES + 123  # two whole blocks and a part one
        x = 0.7 * np.random.default_rng(5).uniform(-1.0, 1.0, (2, n))
        x[:, :4] = [[1.0, -1.0, 1.2, -1.2]] * 2  # the clip bounds, +-1.0 in pcm32 included
        buf = AudioBuffer(x, 48000)
        if layout == "mono_view":
            buf = _as_stereo(AudioBuffer(x[0], 48000))
            assert buf.samples.strides[0] == 0
        save_wav(tmp_path / "x.wav", buf, sample_format=sample_format)
        tag, width = (_FLOAT, 4) if sample_format == "float32" else (_PCM, int(sample_format[3:]) // 8)
        want = _wav_header(tag, 2, 48000, width, n) + _whole_payload(buf.samples, sample_format)
        assert (tmp_path / "x.wav").read_bytes() == want

    @pytest.mark.parametrize("sample_format", ["float32", "pcm16", "pcm24", "pcm32"])
    def test_holds_about_one_block_above_the_buffer(self, tmp_path, sample_format):
        # the whole interleaved payload of a 30 s stereo buffer is 5.3-21.2 MB;
        # one block of float64 frames is 2.1 MB
        buf = noise_stereo(seconds=30.0, amp=0.3, seed=6)
        peak = traced_peak(save_wav, tmp_path / "x.wav", buf, sample_format)
        block = _BLOCK_SAMPLES * buf.channels * 8
        assert peak < 2 * block < buf.samples.nbytes / 5, f"peak {peak / 1e6:.2f} MB"


class TestLoudnessSums:
    def test_quiet_block_late_in_a_long_signal_matches_exact_sums(self):
        # a difference of running sums cancels against the total so far; a
        # quiet block near the end of 60 s read 1e-6 relative off that way
        rate = 44100
        rng = np.random.default_rng(11)
        x = 0.3 * rng.standard_normal((2, 60 * rate))
        block = _gating_block(rate)
        quiet = 58 * rate
        x[:, quiet - rate : quiet + 2 * block] *= 1e-4
        buf = AudioBuffer(x, rate)
        meter = _Loudness(rate, 2)
        meter.add(x)
        powers = meter.powers()
        weighted = apply_cascade(design_k_weighting(rate), buf).samples
        step = block // 4
        i = quiet // step + 1  # a block wholly inside the quiet stretch
        start = i * step
        exact = sum(math.fsum(row[start : start + block] ** 2) / block for row in weighted)
        assert powers[i] == pytest.approx(exact, rel=1e-12, abs=0)
        # the control: running sums are off by far more than the tolerance here
        csum = np.concatenate([[0.0], np.cumsum(weighted[0] ** 2)]), np.concatenate([[0.0], np.cumsum(weighted[1] ** 2)])
        running = sum((c[start + block] - c[start]) / block for c in csum)
        assert abs(running - exact) > 1e-9 * exact

    def test_every_block_matches_exact_sums(self):
        rate = 44100
        x = 0.2 * np.random.default_rng(12).standard_normal((2, 3 * rate + 17))
        meter = _Loudness(rate, 2)
        for start in range(0, x.shape[1], 5000):  # blocks that cut the gating steps anywhere
            meter.add(x[:, start : start + 5000])
        weighted = apply_cascade(design_k_weighting(rate), AudioBuffer(x, rate)).samples
        block = _gating_block(rate)
        step = block // 4
        powers = meter.powers()
        assert powers.shape == (1 + (x.shape[1] - block) // step,)
        for i, power in enumerate(powers):
            exact = sum(math.fsum(row[i * step : i * step + block] ** 2) / block for row in weighted)
            assert power == pytest.approx(exact, rel=1e-12, abs=0)

    def test_11025_hz_block_of_four_steps_and_two_samples(self, rng):
        rate = 11025
        assert _gating_block(rate) == 4 * (_gating_block(rate) // 4) + 2
        x = 0.2 * rng.standard_normal((2, 6 * rate + 5))
        x[1] += 0.3 * np.sin(2 * np.pi * 300 * np.arange(x.shape[1]) / rate)
        buf = AudioBuffer(x, rate)
        weighted = apply_cascade(design_k_weighting(rate), buf)
        want = integrated_lufs_direct(weighted.samples, rate)
        assert integrated_lufs(buf).lufs_i == pytest.approx(want, abs=1e-9)


class TestBlockSizeInvariance:
    """No value depends on where the blocks are cut."""

    @staticmethod
    def _each_block_size(monkeypatch, measure):
        results = []
        for size in BLOCK_SIZES:
            monkeypatch.setattr(audio, "_BLOCK_SAMPLES", size)
            results.append(exact_bits(measure()))
        return results

    def test_integrated_lufs(self, monkeypatch):
        bufs = [noise_stereo(seconds=7.3, amp=0.1, seed=21), AudioBuffer(noise_stereo(seconds=7.3, seed=22).samples, 11025)]
        results = self._each_block_size(monkeypatch, lambda: [integrated_lufs(buf) for buf in bufs])
        assert results[0] == results[1] == results[2]

    def test_true_peak_overall_and_per_channel(self, monkeypatch):
        buf = calibrated_burst_buffer(44100, 0.5, seed=23)
        results = self._each_block_size(monkeypatch, lambda: true_peak_dbtp(buf))
        assert results[0] == results[1] == results[2]

    @pytest.mark.parametrize("rate", [48000, 96000])
    def test_resample(self, monkeypatch, rate):
        x = np.random.default_rng(24).standard_normal((2, 6 * rate + 777)).astype(np.float32)
        results = self._each_block_size(monkeypatch, lambda: resample(AudioBuffer(x, rate), 44100).samples)
        assert results[0] == results[1] == results[2]

    def test_curate_all_keep(self, monkeypatch, tmp_path):
        src = tmp_path / "x.wav"
        _write_wav_in_blocks(src, _noise_blocks(2, 0.1, 25), 2, 96000, 5 * 96000 + 333, "pcm24")
        outputs = []
        for size in BLOCK_SIZES:
            monkeypatch.setattr(audio, "_BLOCK_SAMPLES", size)
            out = tmp_path / f"out{size}"
            out.mkdir()
            decision = curate_all(src, out)
            assert decision.reason == "none"
            outputs.append((json.loads(decision.to_json())["measured"], Path(decision.output_path).read_bytes()))
        assert outputs[0] == outputs[1] == outputs[2]


class TestStreamedReasonOrder:
    def test_overflow_early_and_nan_later_is_non_finite(self, tmp_path):
        # the first slice overflows when resampled, and a later one holds a NaN
        rate = 96000
        x = 0.05 * np.random.default_rng(31).standard_normal((2, 4 * rate))
        x[:, : rate // 2] = np.clip(x[:, : rate // 2] * 20, -1, 1) * 1.7e308
        x[1, 3 * rate] = np.nan
        src = tmp_path / "x.wav"
        _float64_wav(src, x, rate)
        for curate in (curate_stage1, curate_all):
            out = tmp_path / curate.__name__
            out.mkdir()
            decision = curate(src, out)
            assert (decision.reason, decision.measured["native_rate"]) == ("non_finite", rate)
            assert list(out.iterdir()) == []
        x[1, 3 * rate] = 0.0  # the control: without the NaN the overflow reads +inf LUFS
        _float64_wav(src, x, rate)
        assert curate_all(src, tmp_path / "curate_all").measured["lufs_i"] == np.inf

    def test_nan_below_the_rate_gate_is_non_finite(self, tmp_path):
        x = 0.05 * np.random.default_rng(32).standard_normal((2, 3 * 22050))
        x[0, 2 * 22050] = np.nan
        src = tmp_path / "x.wav"
        save_wav(src, AudioBuffer(x, 22050), sample_format="float32")
        decision = curate_all(src, tmp_path)
        assert (decision.reason, decision.measured["native_rate"]) == ("non_finite", 22050)

    def test_reject_to_an_unwritable_path_is_the_gate_reason(self, tmp_path):
        quiet, loud = tmp_path / "quiet.wav", tmp_path / "ok.wav"
        save_wav(quiet, noise_stereo(seconds=2.0, amp=0.001, seed=33), sample_format="float32")
        save_wav(loud, noise_stereo(seconds=2.0, amp=0.05, seed=34), sample_format="float32")
        missing = tmp_path / "no" / "such" / "dir"
        clean = tmp_path / "clean"
        clean.mkdir()
        for curate in (curate_stage1, curate_all):
            assert curate(quiet, missing).reason == "lufs_low"
            with pytest.raises(OSError, match="^cannot write ") as failed:
                curate(loud, missing)
            # measured in full though nothing could be written: the true peak from the input again
            assert failed.value.decision.measured == curate(loud, clean).measured
        assert sorted(p.name for p in tmp_path.iterdir()) == ["clean", "ok.wav", "quiet.wav"]
        assert sorted(p.name for p in clean.iterdir()) == ["ok.wav"]

    def test_true_peak_reject_leaves_no_temporary_file(self, tmp_path):
        src = tmp_path / "in" / "tp.wav"
        src.parent.mkdir()
        save_wav(src, calibrated_burst_buffer(44100, 1.5, seed=35), sample_format="float32")
        out = tmp_path / "out"
        out.mkdir()
        decision = curate_all(src, out)
        assert decision.reason == "true_peak_exceeded"
        assert list(out.iterdir()) == []

    def test_log_is_the_same_at_one_and_two_jobs(self, tmp_path):
        src = tmp_path / "in"
        src.mkdir()
        save_wav(src / "a_ok.wav", noise_stereo(seconds=2.0, amp=0.05, seed=36), sample_format="pcm24")
        save_wav(src / "b_quiet.wav", noise_stereo(seconds=2.0, amp=0.001, seed=37), sample_format="pcm16")
        save_wav(src / "c_tp.wav", calibrated_burst_buffer(44100, 1.5, seed=38), sample_format="float32")
        save_wav(src / "d_low.wav", AudioBuffer(noise_stereo(seconds=2.0, seed=39).samples * 0.05, 22050))
        save_wav(src / "e_short.wav", noise_stereo(seconds=0.2, amp=0.05, seed=40))
        nan = noise_stereo(seconds=2.0, amp=0.05, seed=41).samples.copy()
        nan[0, -5] = np.nan
        save_wav(src / "f_nan.wav", AudioBuffer(nan, 48000))
        save_wav(src / "g_mono.wav", AudioBuffer(2 * nan[1], 96000), sample_format="pcm16")
        logs = []
        for jobs in (1, 2):
            decisions, _ = curate_batch(src, tmp_path / f"out{jobs}", stage="all", jobs=jobs)
            logs.append((tmp_path / f"out{jobs}" / "decisions.jsonl").read_text().replace(f"out{jobs}", "out"))
        assert [d.reason for d in decisions] == [
            "none", "lufs_low", "true_peak_exceeded", "below_rate", "too_short", "non_finite", "none",
        ]
        assert logs[0] == logs[1]


class TestBoundedMemory:
    """The peak of curating a file does not grow with its length."""

    @staticmethod
    def _peaks(tmp_path, curate, channels: int, rate: int, sample_format: str, seconds=(20, 80)) -> list[float]:
        peaks = []
        for s in (1, *seconds):  # the first, short file fills the plan caches
            src = tmp_path / f"in{channels}_{s}.wav"
            _write_wav_in_blocks(src, _noise_blocks(channels, 0.05, s), channels, rate, s * rate, sample_format)
            out = tmp_path / f"out{channels}_{s}"
            out.mkdir()
            decision = []
            peaks.append(traced_peak(lambda: decision.append(curate(src, out))) / 1e6)
            assert decision[0].reason == "none"
            src.unlink()
        return peaks[1:]

    @pytest.mark.parametrize("channels", [2, 1], ids=["stereo", "mono"])
    def test_curate_all_peak_within_2_mb_from_20_to_80_s(self, tmp_path, channels):
        short, long = self._peaks(tmp_path, curate_all, channels, 48000, "pcm24")
        # a whole 80 s stereo file held as float32 would be 30.7 MB
        assert abs(long - short) < 2.0, f"{short:.2f} MB at 20 s, {long:.2f} MB at 80 s"

    def test_curate_stage2_peak_within_2_mb_from_20_to_80_s(self, tmp_path):
        short, long = self._peaks(tmp_path, curate_stage2, 2, 44100, "float32")
        assert abs(long - short) < 2.0, f"{short:.2f} MB at 20 s, {long:.2f} MB at 80 s"
