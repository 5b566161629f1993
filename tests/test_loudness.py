from __future__ import annotations

from math import log10

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from earmetrics import (
    SILENCE_FLOOR_DBTP,
    AudioBuffer,
    apply_cascade,
    dbtp_distance,
    design_k_weighting,
    integrated_lufs,
    true_peak_dbtp,
)
from earmetrics import audio, curate_all
from earmetrics.audio import _BLOCK_SAMPLES, _as_stereo, load_wav, save_wav
from earmetrics.loudness import _gating_block, _Loudness, _true_peak_plan, _true_peak_taps
from helpers import count_sosfilt_rows, exact_bits, faded, noise_stereo, quarter_rate_sine_45, traced_peak
from oracles import integrated_lufs_direct, true_peak_direct, true_peak_whole

BLOCK = _BLOCK_SAMPLES
# The product sums each output in another order than np.convolve: over the
# benchmark's seed-3 corpus the per-channel dBTP of the two differed by at
# most 7.1e-15 dB, a few ulps of the dB value, and this leaves 14x that.
DB_TOL = 1e-13


def _oversampled(x: np.ndarray) -> np.ndarray:
    """Every output of the 4x interpolator: the zero-stuffed channel convolved
    with the taps, ``4 * (n - 1) + 193`` outputs."""
    stuffed = np.zeros(4 * x.size)
    stuffed[::4] = x
    return np.convolve(stuffed, _true_peak_taps())[: 4 * (x.size - 1) + 193]


def _matched(n: int, k: int) -> np.ndarray:
    """A signal of ``n`` samples of +/-1 or 0 that drives output ``k`` of the
    interpolator to the sum of the magnitudes of the taps it reads."""
    taps = _true_peak_taps()
    x = np.zeros(n)
    i = np.arange(max(0, -(-(k - 192) // 4)), min(n - 1, k // 4) + 1)
    x[i] = np.sign(taps[k - 4 * i])
    return x


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

    def test_peak_memory_does_not_grow_with_length(self):
        # a whole-row comparison of the channels made it 4.11 MB at 30 s and 5.29 MB at 120 s
        integrated_lufs(noise_stereo(seconds=1.0))  # filter design and imports done
        peaks = []
        for seconds in (30, 120):
            x = np.random.default_rng(seconds).standard_normal((2, seconds * 44100), dtype=np.float32)
            x *= 0.1
            x.flags.writeable = False  # kept by the buffer without a copy
            peaks.append(traced_peak(integrated_lufs, AudioBuffer(x, 44100)) / 1e6)
        assert abs(peaks[1] - peaks[0]) < 0.5, f"{peaks[0]:.2f} MB at 30 s, {peaks[1]:.2f} MB at 120 s"


class TestPromotedMono:
    """Two equal channels, such as a mono signal promoted to stereo, are one
    row measured once."""

    def _count_calls(self, monkeypatch) -> tuple[list[int], list[None]]:
        """Rows given to each ``sosfilt`` call, and one entry a call of the polyphase product."""
        products: list[None] = []

        def counted(*args, _f=audio._polyphase_rows):
            products.append(None)
            return _f(*args)

        monkeypatch.setattr(audio, "_polyphase_rows", counted)
        return count_sosfilt_rows(monkeypatch), products

    def test_view_measured_once_equals_its_copy(self, monkeypatch, tmp_path):
        view = _as_stereo(AudioBuffer(noise_stereo(seconds=3.0, seed=12).samples[0], 44100))
        copy = AudioBuffer(np.array(view.samples), 44100)
        assert view.samples.strides[0] == 0 and copy.samples.strides[0] != 0
        save_wav(tmp_path / "mono.wav", copy)  # what curation stores and stage 2 reads back
        read_back = load_wav(tmp_path / "mono.wav")
        rows, products = self._count_calls(monkeypatch)
        results, counts = [], []
        for buf in (view, copy, read_back):
            results.append((integrated_lufs(buf), true_peak_dbtp(buf)))
            counts.append((list(rows), len(products)))
            rows.clear()
            products.clear()
        assert counts[0][1] > 0
        assert counts[0][0] == [1, 1]  # two chunks, each filtered as one row
        assert counts[0] == counts[1] == counts[2]
        assert results[0] == results[1]
        assert results[0][1].per_channel[0] == results[0][1].per_channel[1]
        assert results[2][1].per_channel[0] == results[2][1].per_channel[1]

    def test_rows_differing_in_one_sample_measured_apart(self, monkeypatch):
        x = np.array(_as_stereo(AudioBuffer(noise_stereo(seconds=1.0, seed=13).samples[0], 44100)).samples)
        x[1, -1] += 5.0
        buf = AudioBuffer(x, 44100)
        rows, _ = self._count_calls(monkeypatch)
        integrated_lufs(buf)
        peak = true_peak_dbtp(buf)
        assert rows == [2]
        assert peak.per_channel == tuple(true_peak_dbtp(AudioBuffer(row, 44100)).dbtp for row in x)
        assert peak.per_channel[0] != peak.per_channel[1]

    def test_curate_all_of_a_mono_tone_equals_it_tiled_to_stereo(self, monkeypatch, tmp_path):
        # curation K-weighted both rows of the stereo file, where it filtered the mono file once
        tone = (0.2 * np.sin(2 * np.pi * 997 * np.arange(3 * 44100) / 44100)).astype(np.float32)
        (tmp_path / "in").mkdir()
        rows = count_sosfilt_rows(monkeypatch)
        lufs, counts = [], []
        for name, samples in (("mono", tone), ("tiled", np.stack([tone, tone]))):
            save_wav(tmp_path / "in" / f"{name}.wav", AudioBuffer(samples, 44100))
            decision = curate_all(tmp_path / "in" / f"{name}.wav", tmp_path)
            assert decision.reason == "none"
            lufs.append(decision.measured["lufs_i"].hex())
            counts.append(list(rows))
            rows.clear()
        assert lufs[0] == lufs[1]
        assert counts[0] == counts[1] == [1, 1]  # two chunks, each filtered as one row


def _equal_in_part(n: int, cut: int, equal_first: bool) -> np.ndarray:
    """Two rows of noise whose samples are equal before sample ``cut`` and
    differ after it, or differ before it and are equal after it."""
    x = 0.3 * np.random.default_rng(21).standard_normal((2, n))
    part = np.s_[:cut] if equal_first else np.s_[cut:]
    x[1, part] = x[0, part]
    return x


# the samples _Loudness K-weights in one call at 44.1 kHz: whole gating steps, about BLOCK
CHUNK = BLOCK // (_gating_block(44100) // 4) * (_gating_block(44100) // 4)


class TestRowsEqualInPart:
    """Rows equal in only part of a signal are filtered as one row in a block
    where their samples and filter states are equal, and apart elsewhere:
    from rows that become different the state goes on in both, and rows that
    become equal still differ in their states. Every bit is as if each row
    were filtered alone."""

    @pytest.mark.parametrize(
        "equal_first, n, want", [(True, 2 * BLOCK + 1000, [1, 2, 2]), (False, BLOCK + 1000, [2, 2])]
    )
    def test_apply_cascade_equals_each_row_filtered_alone(self, monkeypatch, equal_first, n, want):
        x = _equal_in_part(n, BLOCK, equal_first)
        cascade = design_k_weighting(44100)
        rows = count_sosfilt_rows(monkeypatch)
        both = apply_cascade(cascade, AudioBuffer(x, 44100)).samples
        assert rows == want
        alone = np.concatenate([apply_cascade(cascade, AudioBuffer(row, 44100)).samples for row in x])
        assert exact_bits(both) == exact_bits(alone)

    @pytest.mark.parametrize(
        "equal_first, n, want", [(True, 2 * CHUNK + 1000, [1, 2, 2]), (False, CHUNK + 1000, [2, 2])]
    )
    def test_loudness_powers_equal_each_row_measured_alone(self, monkeypatch, equal_first, n, want):
        x = _equal_in_part(n, CHUNK, equal_first)

        def powers(rows: np.ndarray) -> np.ndarray:
            meter = _Loudness(44100, rows.shape[0])
            meter.add(rows)
            return meter.powers()

        rows = count_sosfilt_rows(monkeypatch)
        both = powers(x)
        assert rows == want
        assert exact_bits(both) == exact_bits(powers(x[:1]) + powers(x[1:]))


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
        # lengths shorter than a branch, one sample past a block, and several
        # whole blocks; the product's sums round differently, by ulps
        x = 0.5 * np.random.default_rng(n).standard_normal((2, n))
        taps = _true_peak_taps()
        expected = [20.0 * log10(true_peak_whole(ch, taps)) for ch in x]
        got = true_peak_dbtp(AudioBuffer(x, 44100)).per_channel
        np.testing.assert_allclose(got, expected, rtol=0, atol=DB_TOL)

    def test_peak_across_a_block_edge(self):
        # the largest output any input within +/-1 can give, sum |h|, is the
        # first output of the second block: it sums the 47 samples before it
        taps = _true_peak_taps()
        h = max((taps[j::4] for j in range(4)), key=lambda b: np.abs(b).sum())
        x = np.zeros(2 * BLOCK)
        x[BLOCK - np.arange(h.size)] = np.sign(h)
        assert true_peak_whole(x, taps) == pytest.approx(np.abs(h).sum(), rel=1e-12)
        want = 20.0 * log10(true_peak_whole(x, taps))
        assert true_peak_dbtp(AudioBuffer(x, 44100)).dbtp == pytest.approx(want, rel=0, abs=DB_TOL)

    # rows of the product hold 96 outputs; the first block of rows read wholly
    # inside the signal starts at row 2 and holds _BLOCK_SAMPLES // 72 rows
    ROW = 96
    BLOCK_EDGE = 96 * (2 + BLOCK // 72)

    @pytest.mark.parametrize(
        "n,k",
        [
            (1000, 98),  # sums reach before the first sample
            (1000, 4090),  # sums reach past the last sample
            (1000, 10 * ROW - 2),  # last output of a row
            (1000, 10 * ROW + 2),  # first branch-2 output of the next row
            (50_000, BLOCK_EDGE - 2),  # last output of a block
            (50_000, BLOCK_EDGE + 2),  # in the first row of the next block
        ],
        ids=["head", "tail", "row_end", "row_start", "block_end", "block_start"],
    )
    def test_peak_where_the_rows_are_cut(self, n, k):
        x = _matched(n, k)
        y = np.abs(_oversampled(x))
        assert y.argmax() == k and y[k] > np.delete(y, k).max()
        nz = np.flatnonzero(x)
        # the oracle sums every term; zeros outside the span add nothing to any sum
        want = true_peak_direct(x[nz[0] : nz[-1] + 1])
        got = true_peak_dbtp(AudioBuffer(x, 44100)).dbtp
        assert 10 ** (got / 20) == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("k", [ROW, 10 * ROW, BLOCK_EDGE - ROW, BLOCK_EDGE])
    def test_impulse_peak_at_the_first_output_of_a_row(self, k):
        # an impulse peaks under the centre tap, 96 outputs after its own
        x = np.zeros(k // 4 + 100)
        x[(k - 96) // 4] = -0.7
        assert np.abs(_oversampled(x)).argmax() == k
        got = true_peak_dbtp(AudioBuffer(x, 44100)).dbtp
        assert got == pytest.approx(20.0 * log10(0.7 * _true_peak_taps()[96]), rel=0, abs=DB_TOL)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("n", [30, 3 * BLOCK])
    @pytest.mark.parametrize("at", [0, 23, -24, -1])
    def test_non_finite_in_padded_end_rows_rejected(self, value, n, at):
        # samples 0-23 and the last 24 are read by the rows cut from zero-padded copies
        x = np.full((2, n), 0.25)
        x[1, at] = value
        with pytest.raises(ValueError, match="buffer holds non-finite samples"):
            true_peak_dbtp(AudioBuffer(x, 44100))

    @pytest.mark.parametrize("n", [2000, 3 * BLOCK])
    def test_overflow_of_finite_samples_is_plus_infinity(self, n):
        # used to raise "buffer holds non-finite samples", which is false of the buffer
        x = np.zeros((2, n))
        x[0, n // 2 : n // 2 + 49] = 1.7e308
        out = true_peak_dbtp(AudioBuffer(x, 44100))
        assert (out.dbtp, out.per_channel) == (np.inf, (np.inf, SILENCE_FLOOR_DBTP))
        x[0, n // 2 : n // 2 + 49] = 1e308  # the control: its oversampled peak stays finite
        assert np.isfinite(true_peak_dbtp(AudioBuffer(x, 44100)).dbtp)
        x[1, -1] = np.nan  # a NaN beside an overflow is still named
        with pytest.raises(ValueError, match="buffer holds non-finite samples"):
            true_peak_dbtp(AudioBuffer(x, 44100))

    @given(
        n=st.integers(min_value=1, max_value=2 * BLOCK + 200),
        where=st.floats(min_value=0.0, max_value=1.0),
        width=st.integers(min_value=1, max_value=60),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_lengths_past_two_blocks_match_direct_oracle(self, n, where, width, seed):
        # a burst of random samples anywhere in a silent signal of any length
        width = min(width, n)
        start = int(where * (n - width))
        x = np.zeros(n)
        x[start : start + width] = np.random.default_rng(seed).uniform(-1.0, 1.0, width)
        want = true_peak_direct(x[start : start + width])
        got = true_peak_dbtp(AudioBuffer(x, 44100)).dbtp
        assert 10 ** (got / 20) == pytest.approx(want, rel=1e-12, abs=0)

    def test_memory_is_one_block_not_the_signal(self):
        # a 30 s stereo buffer holds 21.2 MB; a block cuts _BLOCK_SAMPLES
        # values of rows and sums 4/3 as many outputs, about 2.4 MB
        buf = noise_stereo(seconds=30.0, seed=3)
        true_peak_dbtp(buf)  # plan made and cached
        peak = traced_peak(true_peak_dbtp, buf)
        block = _BLOCK_SAMPLES * 8 * (1 + 4 / 3)
        assert peak < 1.5 * block < buf.samples.nbytes / 5

    def test_plan_folds_24_inputs_per_row(self):
        outputs, inputs, groups = _true_peak_plan()
        assert (outputs, inputs) == (96, 24)
        assert [(offset, phase, w.shape) for offset, phase, w in groups] == [(-48, 0, (72, 96))]

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
