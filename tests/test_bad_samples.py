"""Bad samples at the public building blocks: a NaN or inf sample raises a
ValueError that names the input, wherever it lies; finite samples near the
float64 limit give each function's documented overflow outcome; samples that
are not bool, integer or float raise a ValueError that names their dtype; and
no case emits a warning."""
from __future__ import annotations

import re

import numpy as np
import pytest

from earmetrics import (
    AudioBuffer,
    StftConfig,
    apply_cascade,
    design_a_weighting,
    design_k_weighting,
    frequency_response,
    icpc,
    integrated_lufs,
    log_magnitude_distance,
    mel_distance,
    mel_filterbank,
    merge_mslr,
    resample,
    si_sdr,
    split_mslr,
    stft,
    true_peak_dbtp,
)
from earmetrics.audio import _BLOCK_SAMPLES
from earmetrics.phase import group_delay, instantaneous_frequency, wrap_phase

pytestmark = pytest.mark.filterwarnings("error")

RATE = 44100
# three blocks of _BLOCK_SAMPLES: the first, middle and last sample lie in different ones
N = 2 * _BLOCK_SAMPLES + 1001
TOO_LARGE = "samples are too large for the metrics to stay finite in float64"


def _raises_too_large(call):
    def check(buf):
        with pytest.raises(ValueError, match=re.escape(TOO_LARGE)):
            call(buf)

    return check


def _reads_inf(call, field):
    def check(buf):
        assert getattr(call(buf), field) == np.inf

    return check


def _k(buf):
    return apply_cascade(design_k_weighting(buf.sample_rate), buf)


def _a(buf):
    return apply_cascade(design_a_weighting(buf.sample_rate), buf)


def _resample(buf):
    return resample(buf, 48000)


def _stft(buf):
    return stft(buf.samples[1], StftConfig(512))


# name: (call on a stereo buffer, the input its error names, the check of its overflow outcome)
ROWS = {
    "resample": (_resample, "buffer", _raises_too_large(_resample)),
    "true_peak_dbtp": (true_peak_dbtp, "buffer", _reads_inf(true_peak_dbtp, "dbtp")),
    "integrated_lufs": (integrated_lufs, "buffer", _reads_inf(integrated_lufs, "lufs_i")),
    "apply_cascade_k": (_k, "buffer", _raises_too_large(_k)),
    "apply_cascade_a": (_a, "buffer", _raises_too_large(_a)),
    "stft": (_stft, "channel", _raises_too_large(_stft)),
    "split_mslr": (split_mslr, "buffer", _raises_too_large(split_mslr)),
}


def _noise() -> np.ndarray:
    return 0.1 * np.random.default_rng(11).standard_normal((2, N))


@pytest.mark.parametrize("row", ROWS)
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("at", [0, N // 2, N - 1], ids=["first", "middle", "last"])
def test_non_finite_sample_named(row, value, at):
    call, name, _ = ROWS[row]
    samples = _noise()
    samples[1, at] = value
    with pytest.raises(ValueError, match=re.escape(f"{name} holds non-finite samples (NaN or inf)")):
        call(AudioBuffer(samples, RATE))


@pytest.mark.parametrize("row", ROWS)
def test_overflow_outcome(row):
    # every sample at 1.05e308 to 1.5e308 with a random sign: each sum of two overflows
    rng = np.random.default_rng(12)
    samples = 1.5e308 * rng.uniform(0.7, 1.0, (2, N)) * rng.choice([-1.0, 1.0], (2, N))
    ROWS[row][2](AudioBuffer(samples, RATE))


class TestMergeMslr:
    @pytest.mark.parametrize("which", ["mid", "side"])
    def test_non_finite_sample_named(self, which):
        parts = {"mid": np.zeros(8), "side": np.zeros(8)}
        parts[which][3] = np.nan
        with pytest.raises(ValueError, match=re.escape(f"{which} holds non-finite samples (NaN or inf)")):
            merge_mslr(parts["mid"], parts["side"], RATE)

    def test_overflow_named(self):
        with pytest.raises(ValueError, match=re.escape(TOO_LARGE)):
            merge_mslr(np.full(8, 1e308), np.full(8, 1e308), RATE)


class TestNonFiniteAnglesAndFrequencies:
    """Angles and frequencies are not samples: a NaN or inf one maps to NaN, as ``wrap_phase(nan)`` does."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_wrap_phase(self, value):
        assert np.isnan(wrap_phase(value))
        assert np.isnan(wrap_phase(np.array([0.5, value]))).tolist() == [False, True]

    @pytest.mark.parametrize("derivative", [instantaneous_frequency, group_delay])
    def test_phase_derivatives(self, derivative):
        phase = np.array([[0.1, 0.2, 0.3], [0.4, np.inf, 0.6], [0.7, 0.8, np.nan], [1.0, -np.inf, 1.2]])
        out = derivative(phase)
        assert np.isnan(out).any() and np.isfinite(out).any()
        assert (np.abs(out[np.isfinite(out)]) <= np.pi).all()

    def test_frequency_response(self):
        h = frequency_response(design_k_weighting(48000), np.array([np.nan, np.inf, -np.inf, 1000.0]))
        assert np.isnan(h[:3]).all() and np.isfinite(h[3])


class TestMelFilterbankArguments:
    @pytest.mark.parametrize("fft_size", [-8, 0, 6, 8.0])
    def test_fft_size_named(self, fft_size):
        with pytest.raises(ValueError, match=re.escape(f"fft sizes must be powers of two >= 2, got {fft_size!r}")):
            mel_filterbank(4, fft_size, RATE)

    @pytest.mark.parametrize("rate", [0, -8000, 44100.0])
    def test_rate_named(self, rate):
        with pytest.raises(ValueError, match=re.escape(f"rate must be a positive integer, got {rate!r}")):
            mel_filterbank(4, 8, rate)


def _with_none(x: np.ndarray) -> np.ndarray:
    out = x.astype(object)
    out[3] = None
    return out


# samples of a kind that is not bool, integer or float: complex ones lost their
# imaginary part with a ComplexWarning, strings were parsed as numbers (si_sdr of
# two arrays of "0.5" read 100.0), and None became a NaN sample in AudioBuffer
BAD_KINDS = {
    "complex": lambda x: x + 0.5j * x,
    "string": lambda x: x.astype(str),
    "object": _with_none,
}

# name: call on (the bad samples, good samples of the same length)
DTYPE_ROWS = {
    "AudioBuffer": lambda bad, good: AudioBuffer(bad, RATE),
    "stft": lambda bad, good: stft(bad, StftConfig(512)),
    "icpc_reference": lambda bad, good: icpc(bad, good),
    "icpc_reconstruction": lambda bad, good: icpc(good, bad),
    "log_magnitude_distance": lambda bad, good: log_magnitude_distance(good, bad),
    "mel_distance": lambda bad, good: mel_distance(bad, good, RATE),
    "si_sdr": lambda bad, good: si_sdr(bad, good),
    "si_sdr_stereo": lambda bad, good: si_sdr(np.stack([good, good]), np.stack([good, bad])),
    "merge_mslr_mid": lambda bad, good: merge_mslr(bad, good, RATE),
    "merge_mslr_side": lambda bad, good: merge_mslr(good, bad, RATE),
}


@pytest.mark.parametrize("row", DTYPE_ROWS)
@pytest.mark.parametrize("kind", BAD_KINDS)
def test_samples_of_another_dtype_named(row, kind):
    good = 0.1 * np.random.default_rng(13).standard_normal(8192)
    bad = BAD_KINDS[kind](good)
    with pytest.raises(ValueError, match=re.escape(f"samples must be bool, integer or float, got dtype {bad.dtype}")):
        DTYPE_ROWS[row](bad, good)


@pytest.mark.parametrize("rate", [44100.5, 44100.0, np.float64(48000.0), None])
def test_mel_distance_rate_named(rate):
    # the rate was truncated by int(): 44100.5 gave the distance at 44100 Hz
    x = 0.1 * np.random.default_rng(14).standard_normal(8192)
    with pytest.raises(ValueError, match=re.escape(f"rate must be a positive integer, got {rate!r}")):
        mel_distance(x, 0.5 * x, rate)


@pytest.mark.parametrize("shape", [(0,), (2, 0)])
def test_si_sdr_of_channels_without_samples_named(shape):
    # these raised "reference signal is all zeros"
    with pytest.raises(ValueError, match="si_sdr channels hold no samples"):
        si_sdr(np.zeros(shape), np.zeros(shape))
