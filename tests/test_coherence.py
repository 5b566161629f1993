from __future__ import annotations

import csv
import io
import json
import re

import numpy as np
import pytest

from earmetrics import (
    AudioBuffer,
    coherence,
    MetricReport,
    MultiScaleConfig,
    StftConfig,
    align_pair,
    ccpc,
    ccpc_from_spectra,
    evaluate_pair,
    icpc,
    icpc_from_spectra,
    si_sdr,
    resample,
    stft,
)
from earmetrics.audio import _BLOCK_SAMPLES
from helpers import (
    HUGE_AMPLITUDES,
    huge_noise_pair,
    noise_stereo,
    overflowing_96k,
    overflowing_pair,
    toy_pair,
    toy_with_silent_bins,
)
from oracles import ccpc_direct, icpc_direct, si_sdr_direct


class TestIcpc:
    def test_matches_direct_oracle(self):
        for a, b in (toy_pair(), toy_with_silent_bins()):
            assert icpc_from_spectra(a, b) == pytest.approx(icpc_direct(a, b), abs=1e-9)

    def test_identical_signals_score_100(self, rng):
        x = 0.4 * rng.standard_normal(44100)
        assert icpc(x, x) == pytest.approx(100.0, abs=1e-6)

    def test_random_phases_score_low(self, rng):
        ref = stft(0.5 * rng.standard_normal(3 * 44100), StftConfig(2048, hop=512))
        rec = np.abs(ref) * np.exp(1j * rng.uniform(-np.pi, np.pi, ref.shape))
        assert ref.size >= 1e5
        assert icpc_from_spectra(ref, rec) <= 5.0

    def test_constant_offset_scores_100(self, rng):
        # a global phase rotation leaves every per-bin error identical, and
        # the resultant length of identical angles is 1
        a = stft(0.5 * rng.standard_normal(44100), StftConfig(1024))
        assert icpc_from_spectra(a, a * np.exp(0.8j)) == pytest.approx(100.0, abs=1e-6)

    def test_silent_input_is_degenerate_100(self):
        z = np.zeros((4, 8), dtype=complex)
        assert icpc_from_spectra(z, z) == 100.0

    def test_length_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            icpc(np.zeros(100), np.zeros(101))
        with pytest.raises(ValueError, match="non-finite"):
            icpc(np.zeros(4096), np.where(np.arange(4096) == 100, np.nan, 0.0))


class TestCcpc:
    def test_matches_direct_oracle(self):
        for a, b in (toy_pair(), toy_with_silent_bins()):
            al, ar = a, 0.8 * b * np.exp(0.31j)
            bl, br = 1.1 * b, 0.9 * a * np.exp(-0.22j)
            want = ccpc_direct(al, ar, bl, br)
            assert ccpc_from_spectra(al, ar, bl, br) == pytest.approx(want, abs=1e-9)

    def test_identical_pair_scores_100(self):
        buf = noise_stereo(seconds=1.0, seed=50)
        assert ccpc(buf, buf) == pytest.approx(100.0, abs=1e-6)

    def test_common_rotation_invariance(self, rng):
        # rotating both reconstruction channels by one phasor preserves the
        # inter-channel phase difference
        buf = noise_stereo(seconds=1.0, seed=51)
        rec = AudioBuffer(
            buf.samples + 0.1 * rng.standard_normal(buf.samples.shape), 44100
        )
        specs = [
            stft(b.samples[c], StftConfig(2048, hop=512)) for b in (buf, rec) for c in (0, 1)
        ]
        al, ar, bl, br = specs
        base = ccpc_from_spectra(al, ar, bl, br)
        rotated = ccpc_from_spectra(al, ar, bl * np.exp(1.3j), br * np.exp(1.3j))
        assert abs(base - rotated) < 0.01

    def test_side_inversion_is_penalized(self):
        buf = noise_stereo(seconds=1.0, seed=52)
        swapped = AudioBuffer(buf.samples[::-1], 44100)
        assert ccpc(buf, swapped) < 60.0

    def test_mono_rejected(self):
        mono = AudioBuffer(np.zeros(44100), 44100)
        with pytest.raises(ValueError):
            ccpc(mono, mono)

    @pytest.mark.parametrize("kind", ["float", "int", "bool"])
    @pytest.mark.parametrize("positions", [(0,), (1,), (2,), (3,), (0, 1, 2, 3)], ids=["1", "2", "3", "4", "all"])
    def test_real_integer_and_bool_bins_give_the_value_of_complex_bins(self, kind, positions):
        # real bins at positions 2 and 4, and four integer ones, raised numpy's UFuncTypeError
        rng = np.random.default_rng(31)
        bins = [rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5)) for _ in range(4)]
        real = {"float": np.real, "int": lambda x: np.rint(4 * x.real).astype(np.int64), "bool": lambda x: x.real > 0}
        given = [real[kind](b) if i in positions else b for i, b in enumerate(bins)]
        want = ccpc_from_spectra(*[np.asarray(g, np.complex128) for g in given])
        assert ccpc_from_spectra(*given) == want


class TestSiSdr:
    def test_matches_direct_oracle(self, rng):
        x = rng.standard_normal(8192)
        y = x + 0.2 * rng.standard_normal(8192)
        assert si_sdr(x, y) == pytest.approx(si_sdr_direct(x, y), abs=1e-9)

    def test_scale_invariance_hits_cap(self, rng):
        x = rng.standard_normal(4096)
        assert si_sdr(x, 0.25 * x) == 100.0
        assert si_sdr(x, x) == 100.0

    def test_known_snr(self, rng):
        # orthogonal noise at -20 dB relative to the reference
        x = np.sin(2 * np.pi * 100 * np.arange(44100) / 44100)
        noise = rng.standard_normal(44100)
        noise -= np.dot(noise, x) / np.dot(x, x) * x
        noise *= np.sqrt(np.dot(x, x) / np.dot(noise, noise)) * 0.1
        assert si_sdr(x, x + noise) == pytest.approx(20.0, abs=0.01)

    def test_stereo_averages_channels(self, rng):
        x = rng.standard_normal((2, 4096))
        y = x + 0.1 * rng.standard_normal((2, 4096))
        per_channel = [si_sdr(x[c], y[c]) for c in range(2)]
        assert si_sdr(x, y) == pytest.approx(np.mean(per_channel), abs=1e-12)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            si_sdr(np.zeros(100), np.ones(100))

    def test_empty_channel_set_rejected(self):
        # a mean over no channels used to give nan
        with pytest.raises(ValueError, match=re.escape("at least one channel, got shape (0, 10)")):
            si_sdr(np.zeros((0, 10)), np.zeros((0, 10)))

    def test_zero_reconstruction_floors(self, rng):
        x = rng.standard_normal(1000)
        assert si_sdr(x, np.zeros(1000)) == -100.0

    def test_blocked_sums_match_direct_oracle(self, rng):
        n = 3 * _BLOCK_SAMPLES + 17
        x = rng.standard_normal(n)
        y = 0.7 * x + 0.2 * rng.standard_normal(n)
        assert si_sdr(x, y) == pytest.approx(si_sdr_direct(x, y), rel=1e-12, abs=0.0)
        assert si_sdr(x, 0.25 * x) == 100.0
        assert si_sdr(x, np.zeros(n)) == -100.0

    def test_orthogonal_reconstruction_floors(self):
        # projection is exactly zero, so the target vanishes
        x = np.array([1.0, 0.0, -1.0, 0.0])
        y = np.array([0.0, 1.0, 0.0, -1.0])
        assert si_sdr(x, y) == -100.0

    def test_clipped_to_caps(self, rng):
        x = rng.standard_normal(4096)
        y = x + 1e-30 * rng.standard_normal(4096)
        assert si_sdr(x, y) == 100.0

    @pytest.mark.parametrize(
        "ref_shape,rec_shape", [((2, 10), (2, 11)), ((2, 10), (10,)), ((2, 2, 5), (2, 2, 5))]
    )
    def test_shape_error_names_both_shapes(self, ref_shape, rec_shape):
        with pytest.raises(ValueError, match=re.escape(f"got {ref_shape} and {rec_shape}")):
            si_sdr(np.ones(ref_shape), np.ones(rec_shape))

    @pytest.mark.parametrize("shape", [(4096,), (2, 4096)], ids=["1d", "2d"])
    @pytest.mark.parametrize("which", ["reference", "reconstruction"])
    def test_non_finite_input_named(self, rng, shape, which):
        # one NaN used to give nan
        x = rng.standard_normal(shape)
        bad = x.copy()
        bad.flat[-1] = np.nan
        pair = (bad, x) if which == "reference" else (x, bad)
        with pytest.raises(ValueError, match=f"{which} holds non-finite samples"):
            si_sdr(*pair)


class TestMetricReport:
    def _report(self, **overrides):
        base = dict(
            mel_dist=0.1234,
            stft_dist=0.2345,
            icpc_percent=99.99999,
            ccpc_percent=88.5,
            si_sdr_db=12.345,
            dbtp_dist=0.05,
            config={"sample_rate": 44100},
            reference="ref.wav",
            reconstruction="rec.wav",
            flags=("truncated_to_common_length",),
        )
        base.update(overrides)
        return MetricReport(**base)

    def test_json_rounds_metrics_to_two_decimals(self):
        doc = json.loads(self._report().to_json())
        assert doc["mel_dist"] == 0.12
        assert doc["icpc_percent"] == 100.0
        assert doc["reference"] == "ref.wav"
        assert doc["flags"] == ["truncated_to_common_length"]
        assert doc["config"]["sample_rate"] == 44100

    def test_csv_row_matches_header(self):
        header = MetricReport.csv_header().split(",")
        row = next(csv.reader(io.StringIO(self._report().to_csv_row())))
        assert len(row) == len(header)
        assert header[:6] == list(MetricReport.METRIC_FIELDS)
        assert row[header.index("si_sdr_db")] == "12.35"
        assert row[header.index("flags")] == "truncated_to_common_length"

    def test_csv_quotes_embedded_commas(self):
        report = self._report(reference="a,b.wav")
        row = next(csv.reader(io.StringIO(report.to_csv_row())))
        assert row[MetricReport.csv_header().split(",").index("reference")] == "a,b.wav"

    def test_percent_range_validated(self):
        with pytest.raises(ValueError):
            self._report(icpc_percent=101.0)
        with pytest.raises(ValueError):
            self._report(ccpc_percent=-0.1)


class TestAlignPair:
    def test_mono_inputs_duplicated(self):
        mono = AudioBuffer(np.ones(44100), 44100)
        stereo = noise_stereo(seconds=1.0, seed=60)
        ref, rec, flags = align_pair(mono, stereo)
        assert ref.channels == rec.channels == 2
        assert "mono_reference_duplicated" in flags

    def test_rate_mismatch_resamples_reconstruction(self):
        ref = noise_stereo(rate=44100, seconds=1.0, seed=61)
        rec = noise_stereo(rate=48000, seconds=1.0, seed=62)
        a, b, flags = align_pair(ref, rec)
        assert b.sample_rate == 44100
        assert "reconstruction_resampled" in flags
        # the reference is never altered
        np.testing.assert_array_equal(a.samples, ref.samples)

    def test_mono_reconstruction_resampled_before_promotion(self, monkeypatch):
        # resampling the promoted view filtered both identical rows into a stereo copy
        seen = []

        def recording(buf, rate):
            seen.append(buf.samples.shape)
            return resample(buf, rate)

        monkeypatch.setattr(coherence, "resample", recording)
        ref = noise_stereo(rate=44100, seconds=1.0, seed=65)
        rec = AudioBuffer(noise_stereo(rate=48000, seconds=1.0, seed=66).samples[0], 48000)
        _, b, flags = align_pair(ref, rec)
        assert seen == [(1, 48000)]
        assert flags == ["mono_reconstruction_duplicated", "reconstruction_resampled"]
        assert b.samples.strides[0] == 0
        np.testing.assert_array_equal(b.samples, np.repeat(resample(rec, 44100).samples, 2, axis=0))

    def test_length_mismatch_truncates(self):
        ref = noise_stereo(seconds=1.0, seed=63)
        rec = AudioBuffer(ref.samples[:, :30000], 44100)
        a, b, flags = align_pair(ref, rec)
        assert a.num_samples == b.num_samples == 30000
        assert "truncated_to_common_length" in flags

    def test_no_flags_when_already_aligned(self):
        buf = noise_stereo(seconds=1.0, seed=64)
        _, _, flags = align_pair(buf, buf)
        assert flags == []


class TestEvaluatePair:
    def test_identical_pair_full_report(self):
        buf = noise_stereo(seconds=1.0, amp=0.4, seed=70)
        report = evaluate_pair(buf, buf, reference_id="a", reconstruction_id="b")
        assert report.mel_dist == 0.0
        assert report.stft_dist == 0.0
        assert round(report.icpc_percent, 2) == 100.0
        assert round(report.ccpc_percent, 2) == 100.0
        assert report.si_sdr_db == 100.0
        assert report.dbtp_dist == 0.0
        assert report.reference == "a" and report.reconstruction == "b"
        assert report.flags == ()

    def test_config_snapshot(self):
        # every key and value of the default report's config, fixed rules included
        buf = noise_stereo(seconds=1.0, seed=71)
        assert evaluate_pair(buf, buf).config == {
            "sample_rate": 44100,
            "fft_sizes": [4096, 2048, 1024, 512, 256, 128],
            "hop_ratio": 0.25,
            "log_epsilon": 1e-05,
            "mel_bins": [128, 128, 128, 64, 32, 16],
            "coherence_fft_size": 2048,
            "coherence_hop": 512,
            "coherence_epsilon": 1e-08,
            "weight_mode": "product",
            "si_sdr_cap_db": 100.0,
            "prefilter": "none",
            "chunk_seconds": None,
        }

    def test_prefilter_changes_weighting(self):
        rate = 44100
        t = np.arange(2 * rate) / rate
        rumble = 0.3 * np.sin(2 * np.pi * 30 * t)
        base = noise_stereo(rate=rate, seconds=2.0, amp=0.1, seed=72)
        rec = AudioBuffer(base.samples + rumble, rate)
        plain = evaluate_pair(base, rec)
        k_weighted = evaluate_pair(base, rec, prefilter="k")
        # the 30 Hz error sits far down the K-weighting high-pass slope
        assert k_weighted.stft_dist < plain.stft_dist
        assert k_weighted.config["prefilter"] == "k"

    def test_degenerate_coherence_flag_on_near_silent_pair(self):
        tiny = AudioBuffer(1e-20 * np.ones((2, 44100)), 44100)
        report = evaluate_pair(tiny, tiny)
        assert "degenerate_coherence_input" in report.flags
        assert report.icpc_percent == 100.0

    def test_chunked_metrics_average_chunk_reports(self):
        rate = 44100
        ref = noise_stereo(rate=rate, seconds=5.0, amp=0.4, seed=73)
        rec = AudioBuffer(
            ref.samples + 0.05 * np.random.default_rng(74).standard_normal(ref.samples.shape),
            rate,
        )
        chunked = evaluate_pair(ref, rec, chunk_seconds=2.0)
        assert "chunked" in chunked.flags
        n = 2 * rate
        manual = [
            evaluate_pair(
                AudioBuffer(ref.samples[:, i * n : (i + 1) * n], rate),
                AudioBuffer(rec.samples[:, i * n : (i + 1) * n], rate),
            )
            for i in range(2)  # the trailing second is dropped
        ]
        for name in MetricReport.METRIC_FIELDS:
            want = np.mean([getattr(r, name) for r in manual])
            assert getattr(chunked, name) == pytest.approx(want, rel=1e-12), name

    def test_signal_shorter_than_chunk_evaluates_whole(self):
        buf = noise_stereo(seconds=1.0, seed=75)
        report = evaluate_pair(buf, buf, chunk_seconds=10.0)
        assert "shorter_than_one_chunk" in report.flags
        assert report.stft_dist == 0.0

    def test_one_chunk_obeys_the_whole_pair_length_rule(self):
        # the 2048-point coherence window, longer than the pair, is fine for
        # the whole pair, so it is for a chunk of the same length
        ms_cfg = MultiScaleConfig(fft_sizes=(1024,))
        x = 0.3 * np.random.default_rng(79).standard_normal((2, 1500))
        ref, rec = AudioBuffer(x, 44100), AudioBuffer(x + 0.05 * np.roll(x, 7, axis=1), 44100)
        whole = evaluate_pair(ref, rec, ms_cfg)
        chunked = evaluate_pair(ref, rec, ms_cfg, chunk_seconds=1500 / 44100)
        assert "chunked" in chunked.flags
        for name in MetricReport.METRIC_FIELDS:
            assert getattr(chunked, name) == getattr(whole, name), name

    def test_chunk_below_analysis_window_rejected(self):
        buf = noise_stereo(seconds=1.0, seed=76)
        for chunk_seconds in (0.01, np.inf, np.nan):
            with pytest.raises(ValueError, match="chunk"):
                evaluate_pair(buf, buf, chunk_seconds=chunk_seconds)

    def test_invalid_prefilter_rejected(self):
        buf = noise_stereo(seconds=1.0, seed=77)
        with pytest.raises(ValueError, match=re.escape("prefilter must be one of ('none', 'k', 'a')")):
            evaluate_pair(buf, buf, prefilter="z")

    def test_huge_finite_chunk_evaluates_whole(self):
        # 1e308 s of samples overflows to inf before any int conversion
        buf = noise_stereo(seconds=1.0, seed=75)
        for chunk_seconds in (1e300, 1e308):
            report = evaluate_pair(buf, buf, chunk_seconds=chunk_seconds)
            assert "shorter_than_one_chunk" in report.flags
            assert report.stft_dist == 0.0

    def test_silent_reference_channel_is_left_out_of_si_sdr(self):
        ref = noise_stereo(seconds=1.0, amp=0.4, seed=95).samples.copy()
        ref[1] = 0.0
        rec = ref + 0.05 * np.random.default_rng(96).standard_normal(ref.shape)
        report = evaluate_pair(AudioBuffer(ref, 44100), AudioBuffer(rec, 44100))
        assert report.si_sdr_db == si_sdr(ref[0], rec[0])
        assert "silent_reference_channel" in report.flags
        assert "silent_reference_channel" not in evaluate_pair(AudioBuffer(rec, 44100), AudioBuffer(ref, 44100)).flags

    def test_silent_reference_chunk_is_left_out_of_si_sdr(self):
        rate, n = 44100, 2 * 44100
        ref = noise_stereo(seconds=5.0, amp=0.4, seed=97).samples.copy()
        ref[:, :n] = 0.0  # a silent intro of exactly one chunk
        rec = ref + 0.05 * np.random.default_rng(98).standard_normal(ref.shape)
        ref_buf, rec_buf = AudioBuffer(ref, rate), AudioBuffer(rec, rate)
        whole = evaluate_pair(ref_buf, rec_buf)
        assert "silent_reference_channel" not in whole.flags
        chunked = evaluate_pair(ref_buf, rec_buf, chunk_seconds=2.0)
        assert chunked.si_sdr_db == si_sdr(ref[:, n : 2 * n], rec[:, n : 2 * n])
        assert "silent_reference_channel" in chunked.flags

    @pytest.mark.parametrize("chunk_seconds", [None, 0.5])
    def test_all_silent_reference_rejected(self, chunk_seconds):
        rec = noise_stereo(seconds=1.0, amp=0.4, seed=99)
        silent = AudioBuffer(np.zeros((2, rec.num_samples)), 44100)
        with pytest.raises(ValueError, match="reference signal is all zeros"):
            evaluate_pair(silent, rec, chunk_seconds=chunk_seconds)

    @pytest.mark.parametrize("ref_amp,rec_amp", HUGE_AMPLITUDES)
    def test_huge_finite_samples_named(self, ref_amp, rec_amp):
        # used to warn of overflow and fail on "ccpc_percent must be within [0, 100], got nan"
        ref, rec = huge_noise_pair(ref_amp, rec_amp)
        with pytest.raises(ValueError, match="samples are too large for the metrics to stay finite in float64"):
            evaluate_pair(ref, rec, ms_cfg=MultiScaleConfig((512,)))

    def test_large_finite_samples_still_evaluate(self):
        report = evaluate_pair(*huge_noise_pair(1e70, 1e70), ms_cfg=MultiScaleConfig((512,)))
        assert all(np.isfinite(getattr(report, k)) for k in report.METRIC_FIELDS)

    @pytest.mark.parametrize("which", ["reference", "reconstruction"])
    def test_non_finite_input_named(self, which):
        buf = noise_stereo(seconds=1.0, seed=78)
        samples = np.array(buf.samples)
        samples[1, 1000] = np.nan
        bad = AudioBuffer(samples, 44100)
        pair = (bad, buf) if which == "reference" else (buf, bad)
        with pytest.raises(ValueError, match=f"{which} holds non-finite samples"):
            evaluate_pair(*pair)
        for prefilter in ("k", "a"):
            with pytest.raises(ValueError, match=f"{which} holds non-finite samples"):
                evaluate_pair(*pair, prefilter=prefilter)

    @pytest.mark.parametrize("prefilter", ["none", "k", "a"])
    def test_overflow_named_with_any_prefilter(self, prefilter):
        # a prefilter's overflow used to read "reference holds non-finite samples"
        with pytest.raises(ValueError, match="samples are too large for the metrics to stay finite in float64"):
            evaluate_pair(*overflowing_pair(), ms_cfg=MultiScaleConfig((512,)), prefilter=prefilter)


class TestPerMetricOverflow:
    """Finite samples whose metric overflows float64 raise the error that
    evaluate_pair raises, with no numpy warning."""

    @pytest.mark.parametrize(
        "metric",
        [
            lambda ref, rec: icpc(ref.samples[0], rec.samples[0]),
            lambda ref, rec: ccpc(ref, rec),
            lambda ref, rec: si_sdr(ref.samples, rec.samples),
        ],
        ids=["icpc", "ccpc", "si_sdr"],
    )
    def test_overflow_named(self, metric):
        # used to return NaN with 12 (icpc), 22 (ccpc) and 4 (si_sdr) warnings
        with pytest.raises(ValueError, match="samples are too large for the metrics to stay finite in float64"):
            metric(*overflowing_pair())

    def test_overflowed_reference_power_is_not_minus_100_db(self):
        # a reference power of inf gave alpha 0, which read as the -100 dB cap
        ref, rec = huge_noise_pair(1e300, 1.0)
        with pytest.raises(ValueError, match="samples are too large for the metrics to stay finite in float64"):
            si_sdr(ref.samples[0], rec.samples[0])

    def test_resampler_overflow_named_by_evaluate_pair(self):
        # used to read "reconstruction holds non-finite samples", false of a finite input
        ref = noise_stereo(seconds=2.0, amp=0.3, seed=77)
        with pytest.raises(ValueError, match="samples are too large for the metrics to stay finite in float64"):
            evaluate_pair(ref, overflowing_96k())
