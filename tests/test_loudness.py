from __future__ import annotations

from math import log10

import numpy as np
import pytest

from earmetrics import (
    SILENCE_FLOOR_DBTP,
    AudioBuffer,
    apply_cascade,
    dbtp_distance,
    design_k_weighting,
    integrated_lufs,
    true_peak_dbtp,
)
from earmetrics.audio import _BLOCK_SAMPLES
from earmetrics.loudness import _true_peak_taps
from helpers import faded, noise_stereo, quarter_rate_sine_45
from oracles import integrated_lufs_direct, true_peak_direct, true_peak_whole

BLOCK = _BLOCK_SAMPLES


def _sine_buf(freq: float, rate: int, seconds: float, amp: float, channel: str = "left"):
    t = np.arange(int(seconds * rate)) / rate
    x = amp * np.sin(2 * np.pi * freq * t)
    silent = np.zeros_like(x)
    if channel == "left":
        return AudioBuffer(np.stack([x, silent]), rate)
    if channel == "both":
        return AudioBuffer(np.stack([x, x]), rate)
    return AudioBuffer(x, rate)


class TestIntegratedLufs:
    def test_full_scale_997_sine_single_channel(self):
        # BS.1770 calibration point: 0 dBFS 997 Hz on one channel
        buf = _sine_buf(997.0, 48000, 5.0, 1.0)
        out = integrated_lufs(buf)
        assert out.lufs_i == pytest.approx(-3.01, abs=0.02)
        assert out.gated_block_count == out.ungated_block_count > 0

    def test_rate_independence(self):
        for rate in (44100, 48000, 96000):
            got = integrated_lufs(_sine_buf(997.0, rate, 3.0, 1.0)).lufs_i
            assert got == pytest.approx(-3.01, abs=0.02)

    def test_gain_linearity(self):
        base = _sine_buf(997.0, 44100, 3.0, 1.0)
        ref = integrated_lufs(base).lufs_i
        for gain_db in (-10.0, -20.0, -30.0, -40.0):
            scaled = AudioBuffer(base.samples * 10 ** (gain_db / 20), 44100)
            got = integrated_lufs(scaled).lufs_i
            assert got == pytest.approx(ref + gain_db, abs=0.001)

    def test_matches_direct_gating_oracle(self, rng):
        rate = 44100
        x = 0.2 * rng.standard_normal((2, 4 * rate))
        x[0] += 0.3 * np.sin(2 * np.pi * 120 * np.arange(4 * rate) / rate)
        buf = AudioBuffer(x, rate)
        weighted = apply_cascade(design_k_weighting(rate), buf)
        want = integrated_lufs_direct(weighted.samples, rate)
        assert integrated_lufs(buf).lufs_i == pytest.approx(want, abs=1e-9)

    def test_relative_gate_excludes_quiet_tail(self, rng):
        # loud head, then a tail 25 LU down: above the absolute gate but
        # below the relative gate, so it must not drag the result down
        rate = 44100
        head = 0.5 * rng.standard_normal((2, 3 * rate))
        tail = head * 10 ** (-25 / 20)
        buf = AudioBuffer(np.concatenate([head, tail], axis=1), rate)
        head_only = integrated_lufs(AudioBuffer(head, rate)).lufs_i
        out = integrated_lufs(buf)
        assert out.lufs_i == pytest.approx(head_only, abs=0.3)
        assert out.gated_block_count < out.ungated_block_count

    def test_silence_returns_negative_infinity(self):
        out = integrated_lufs(AudioBuffer(np.zeros((2, 44100)), 44100))
        assert out.lufs_i == -np.inf
        assert out.gated_block_count == 0

    def test_too_short_signal_rejected(self):
        with pytest.raises(ValueError):
            integrated_lufs(AudioBuffer(np.zeros((2, 1000)), 44100))

    def test_low_rate_rejected(self):
        with pytest.raises(ValueError, match="design rate must be an integer >= 8000 Hz, got 4000"):
            integrated_lufs(AudioBuffer(np.zeros((2, 4000)), 4000))
        # a buffer both too slow and too short reports the length first
        with pytest.raises(ValueError, match="too short"):
            integrated_lufs(AudioBuffer(np.zeros((2, 1000)), 4000))

    @pytest.mark.parametrize("amp", [1e300, 1.5e308])
    def test_overflowing_power_of_finite_samples_is_plus_infinity(self, amp):
        # 1e300 squared overflows; at 1.5e308 the K filter's output does too
        out = integrated_lufs(_sine_buf(1000.0, 44100, 2.0, amp, channel="both"))
        assert out.lufs_i == np.inf
        assert out.gated_block_count == out.ungated_block_count == 17
        assert integrated_lufs(_sine_buf(1000.0, 44100, 2.0, 1e150, channel="both")).lufs_i < np.inf

    @pytest.mark.parametrize("value,at", [(np.nan, 0), (np.nan, -1), (np.inf, 0), (-np.inf, -1)])
    def test_non_finite_sample_rejected(self, value, at):
        # one NaN used to read as digital silence (-inf LUFS, no gated block)
        x = noise_stereo(seconds=1.0, seed=81).samples.copy()
        x[1, at] = value
        with pytest.raises(ValueError, match="non-finite samples"):
            integrated_lufs(AudioBuffer(x, 44100))


class TestTruePeak:
    def test_intersample_peak_of_quarter_rate_sine(self):
        rate = 48000
        x = faded(quarter_rate_sine_45(rate, 1.0), rate)
        out = true_peak_dbtp(AudioBuffer(x, rate))
        sample_peak_db = 20 * np.log10(np.max(np.abs(x)))
        assert sample_peak_db == pytest.approx(-3.01, abs=0.02)
        assert out.dbtp == pytest.approx(0.0, abs=0.1)

    def test_plain_tone_true_peak_matches_amplitude(self):
        rate = 44100
        t = np.arange(rate) / rate
        x = faded(0.5 * np.sin(2 * np.pi * 997 * t), rate)
        out = true_peak_dbtp(AudioBuffer(x, rate))
        assert out.dbtp == pytest.approx(20 * np.log10(0.5), abs=0.05)

    def test_stereo_takes_channel_maximum(self):
        rate = 44100
        t = np.arange(rate) / rate
        quiet = faded(0.1 * np.sin(2 * np.pi * 500 * t), rate)
        loud = faded(0.7 * np.sin(2 * np.pi * 500 * t), rate)
        out = true_peak_dbtp(AudioBuffer(np.stack([quiet, loud]), rate))
        assert out.per_channel[1] > out.per_channel[0]
        assert out.dbtp == max(out.per_channel)
        assert out.dbtp == pytest.approx(20 * np.log10(0.7), abs=0.05)

    def test_silence_hits_floor(self):
        out = true_peak_dbtp(AudioBuffer(np.zeros((2, 1000)), 44100))
        assert out.dbtp == SILENCE_FLOOR_DBTP

    def test_nan_sample_rejected(self):
        # max(peak, nan) keeps peak, so one NaN used to read as silence (-200 dBTP)
        x = np.full((2, 1000), 0.5)
        x[0, 500] = np.nan
        with pytest.raises(ValueError, match="non-finite samples"):
            true_peak_dbtp(AudioBuffer(x, 44100))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            true_peak_dbtp(AudioBuffer(np.zeros((2, 0)), 44100))

    @pytest.mark.parametrize("n", [1, 48, 49, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK])
    def test_blocks_equal_whole_branch_convolutions(self, n):
        # lengths shorter than a branch, one sample past a block (a last block
        # of one sample and its 48-sample lead), and several whole blocks
        x = 0.5 * np.random.default_rng(n).standard_normal((2, n))
        taps = _true_peak_taps()
        expected = tuple(20.0 * log10(true_peak_whole(ch, taps)) for ch in x)
        assert true_peak_dbtp(AudioBuffer(x, 44100)).per_channel == expected

    def test_peak_across_a_block_edge(self):
        # the largest output any input within +/-1 can give, sum |h|, is the
        # first output of the second block: it sums the 47 samples before it
        taps = _true_peak_taps()
        h = max((taps[j::4] for j in range(4)), key=lambda b: np.abs(b).sum())
        x = np.zeros(2 * BLOCK)
        x[BLOCK - np.arange(h.size)] = np.sign(h)
        assert true_peak_whole(x, taps) == pytest.approx(np.abs(h).sum(), rel=1e-12)
        assert true_peak_dbtp(AudioBuffer(x, 44100)).dbtp == 20.0 * log10(true_peak_whole(x, taps))

    def test_nan_in_last_block_rejected(self):
        x = np.full((2, 2 * BLOCK + 10), 0.5)
        x[1, -1] = np.nan
        with pytest.raises(ValueError, match="buffer holds non-finite samples"):
            true_peak_dbtp(AudioBuffer(x, 44100))

    @pytest.mark.parametrize("length", [1, 2, 10, 97, 400])
    def test_matches_direct_polyphase_oracle(self, length):
        rng = np.random.default_rng(length)
        x = rng.standard_normal((2, length)) * np.array([[0.3], [0.8]])
        out = true_peak_dbtp(AudioBuffer(x, 44100))
        for ch, dbtp in zip(x, out.per_channel):
            assert 10 ** (dbtp / 20) == pytest.approx(true_peak_direct(ch), rel=1e-12, abs=0)


class TestDbtpDistance:
    def test_absolute_difference(self):
        a = noise_stereo(seconds=0.5, amp=0.2, seed=40)
        b = AudioBuffer(a.samples * 0.5, 44100)
        want = abs(true_peak_dbtp(a).dbtp - true_peak_dbtp(b).dbtp)
        assert dbtp_distance(a, b) == pytest.approx(want, abs=1e-12)
        assert dbtp_distance(b, a) == dbtp_distance(a, b)

    def test_identical_is_zero(self):
        a = noise_stereo(seconds=0.5, amp=0.2, seed=41)
        assert dbtp_distance(a, a) == 0.0
