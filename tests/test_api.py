"""The public spectral edge: plain arrays in and out, no unread arguments,
no option that gives a quantity a second definition or sets a fixed rule."""
from __future__ import annotations

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import earmetrics
from earmetrics import (
    AudioBuffer,
    MultiScaleConfig,
    StftConfig,
    ccpc,
    ccpc_from_spectra,
    composite_objective,
    correlation_loss,
    evaluate_pair,
    icpc,
    icpc_from_spectra,
    log_magnitude_distance,
    merge_mslr,
    phase_loss,
    phase_matrix,
    split_mslr,
    stft,
)
from helpers import noise_stereo


def _bins() -> np.ndarray:
    return stft(np.random.default_rng(7).standard_normal(4096), StftConfig(512))


class _Spectrogram:
    """A wrapper object that holds bins, as spectrograms once were; not an array."""

    def __init__(self, bins: np.ndarray) -> None:
        self.bins = bins


# each spectrum-level function of a reference and a reconstruction spectrogram
SPECTRUM_METRICS = {
    "phase_matrix": lambda a, b: phase_matrix(b),
    "correlation_loss": correlation_loss,
    "phase_loss": phase_loss,
    "icpc_from_spectra": icpc_from_spectra,
    "ccpc_from_spectra": lambda a, b: ccpc_from_spectra(a, b, b, a),
}


def _bins_of_noise(peak: float) -> np.ndarray:
    """Finite STFT bins of noise whose samples peak at ``peak``."""
    x = np.random.default_rng(11).standard_normal(8192)
    bins = stft(peak * x / np.abs(x).max(), StftConfig(512))
    assert np.isfinite(bins).all()
    return bins


class TestSpectrumFunctionsTakeArrays:
    @pytest.mark.parametrize(
        "call",
        [
            lambda s, b: phase_matrix(s),
            lambda s, b: correlation_loss(s, b),
            lambda s, b: phase_loss(b, s),
            lambda s, b: icpc_from_spectra(s, s),
            lambda s, b: ccpc_from_spectra(b, b, s, b),
        ],
        ids=["phase_matrix", "correlation_loss", "phase_loss", "icpc_from_spectra", "ccpc_from_spectra"],
    )
    def test_spectrogram_object_rejected_by_name(self, call):
        bins = _bins()
        with pytest.raises(ValueError, match=r"2-D arrays of one shape, got .*_Spectrogram"):
            call(_Spectrogram(bins), bins)

    def test_bins_of_the_object_accepted(self):
        bins = _bins()
        assert phase_loss(bins, _Spectrogram(bins).bins) == 0.0
        assert icpc_from_spectra(bins, bins) == pytest.approx(100.0, abs=1e-6)

    @pytest.mark.parametrize("name", SPECTRUM_METRICS)
    def test_stft_array_feeds_each_function(self, name):
        # the read-only array stft returns goes in as it is, with no unwrapping
        a = _bins()
        b = stft(np.random.default_rng(8).standard_normal(4096), StftConfig(512))
        assert not a.flags.writeable and not b.flags.writeable
        assert np.isfinite(SPECTRUM_METRICS[name](a, b)).all()

    @pytest.mark.parametrize("name", SPECTRUM_METRICS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_bins_named(self, name, bad):
        # NaN bins used to give a NaN metric with no error
        a = _bins()
        b = 0.9 * a
        b[3, 4] = bad
        with pytest.raises(ValueError, match="spectrograms must hold finite bins"):
            SPECTRUM_METRICS[name](a, b)

    @pytest.mark.parametrize("name", SPECTRUM_METRICS)
    @pytest.mark.parametrize("kind", ["object", "string"])
    def test_non_numeric_bins_named(self, name, kind):
        # object and string arrays used to fail with numpy's TypeError from isfinite
        a = _bins()
        b = a.astype(object) if kind == "object" else np.full(a.shape, "a")
        positions = {"phase_matrix": [1], "ccpc_from_spectra": [2, 3]}.get(name, [2])
        message = f"spectrograms must hold numeric bins; those at positions {positions} do not"
        with pytest.raises(ValueError, match=re.escape(message)):
            SPECTRUM_METRICS[name](a, b)

    @pytest.mark.parametrize(
        "name,peak",
        [(n, 1e300) for n in ("correlation_loss", "icpc_from_spectra", "ccpc_from_spectra")]
        + [(n, 1e307) for n in ("correlation_loss", "phase_loss", "icpc_from_spectra", "ccpc_from_spectra")],
    )
    def test_overflowing_bins_named(self, name, peak):
        # finite bins whose products overflow float64: correlation_loss,
        # icpc_from_spectra and ccpc_from_spectra returned NaN with warnings
        # from a peak of 1e300 up, phase_loss from 1e307
        a = _bins_of_noise(peak)
        with pytest.raises(ValueError, match="spectra are too large for the metrics to stay finite in float64"):
            SPECTRUM_METRICS[name](a, 0.9 * a)

    def test_large_finite_result_is_kept(self):
        a = _bins_of_noise(1e300)
        assert phase_loss(a, 0.9 * a) < 1e-15

    def test_phase_module_imports_nothing_from_audio(self):
        tree = ast.parse(Path(earmetrics.phase.__file__).read_text())
        modules = [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
        assert not [m for m in modules if m and m.endswith("audio")], modules


class TestSplitMerge:
    def test_split_returns_mid_and_side(self):
        x = np.random.default_rng(8).standard_normal((2, 512))
        mid, side = split_mslr(AudioBuffer(x, 44100))
        np.testing.assert_array_equal(mid, (x[0] + x[1]) / 2)
        np.testing.assert_array_equal(side, (x[0] - x[1]) / 2)

    def test_pcm16_samples_round_trip_exactly(self):
        # sums and halves of 16-bit PCM values are exact in float64, so
        # merge(split(buf)) gives every sample back bit for bit
        codes = np.random.default_rng(9).integers(-(2**15), 2**15, (2, 4096))
        buf = AudioBuffer(codes / 2.0**15, 48000)
        back = merge_mslr(*split_mslr(buf), buf.sample_rate)
        np.testing.assert_array_equal(back.samples, buf.samples)
        assert back.sample_rate == 48000


class TestNoRateArguments:
    def test_stft_takes_no_rate(self):
        with pytest.raises(TypeError):
            stft(np.zeros(2048), StftConfig(512), 44100)

    def test_spectrogram_has_no_source_rate(self):
        # stft returns its bins, a plain array that carries no rate or length
        bins = _bins()
        assert type(bins) is np.ndarray and not hasattr(bins, "source_rate")
        assert bins.shape == (1 + 4096 // 128, 257)

    def test_old_positional_rate_calls_fail(self):
        x = np.random.default_rng(10).standard_normal(8192)
        cfg = MultiScaleConfig(fft_sizes=(1024,))
        with pytest.raises(TypeError):
            icpc(x, x, 44100)
        with pytest.raises(TypeError):
            log_magnitude_distance(x, x, 44100)
        with pytest.raises(TypeError):
            log_magnitude_distance(x, x, 44100, cfg)
        with pytest.raises(TypeError):
            log_magnitude_distance(x, x, cfg)
        assert log_magnitude_distance(x, x, cfg=cfg) == 0.0
        assert icpc(x, x) == pytest.approx(100.0, abs=1e-6)


def _pair():
    ref = noise_stereo(seconds=0.1, seed=12)
    return ref, AudioBuffer(0.9 * ref.samples, ref.sample_rate)


def _bins_pair():
    a = _bins()
    return a, 0.9 * a


class TestFixedChoices:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: StftConfig(1024, center_pad=False),
            lambda: icpc(*(buf.samples[0] for buf in _pair()), weight_mode="reference_energy"),
            lambda: phase_loss(*_bins_pair(), magnitude_weighting=False),
            lambda: MultiScaleConfig(fft_sizes=(512, 256), mel_bins=(64, 32)),
            lambda: MultiScaleConfig(hop_ratio=0.25),
            lambda: MultiScaleConfig(log_epsilon=1e-5),
            lambda: composite_objective(*_pair(), MultiScaleConfig((512,)), phase_cfg=None),
            lambda: evaluate_pair(*_pair(), MultiScaleConfig((512,)), coh_cfg=None),
            lambda: correlation_loss(*_bins_pair(), cfg=None),
            lambda: phase_loss(*_bins_pair(), cfg=None),
            lambda: icpc(*(buf.samples[0] for buf in _pair()), cfg=None),
            lambda: ccpc(*_pair(), cfg=None),
            lambda: icpc_from_spectra(*_bins_pair(), cfg=None),
            lambda: ccpc_from_spectra(*_bins_pair(), *_bins_pair(), cfg=None),
        ],
        ids=[
            "center_pad",
            "weight_mode",
            "magnitude_weighting",
            "mel_bins",
            "hop_ratio",
            "log_epsilon",
            "phase_cfg",
            "coh_cfg",
            "correlation_loss_cfg",
            "phase_loss_cfg",
            "icpc_cfg",
            "ccpc_cfg",
            "icpc_from_spectra_cfg",
            "ccpc_from_spectra_cfg",
        ],
    )
    def test_removed_keyword_raises_type_error(self, make):
        # frames are always centred, ICPC always weights by |S_ref| * |S_rec|, the
        # phase loss is always magnitude-weighted, mel bands always min(128, n // 8);
        # hops are a quarter window, and the log, phase and coherence epsilons and
        # the 2048-point, hop-512 coherence STFT are constants
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            make()

    def test_fourth_positional_argument_of_evaluate_pair_raises(self):
        # an old positional coh_cfg must not shift into reference_id
        with pytest.raises(TypeError, match="positional argument"):
            evaluate_pair(*_pair(), MultiScaleConfig((512,)), None)
