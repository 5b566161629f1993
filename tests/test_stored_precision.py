"""float32 samples kept at rest give exactly the results of the same samples
widened to float64, for every public consumer of a buffer."""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from earmetrics import (
    AudioBuffer,
    ccpc,
    composite_objective,
    curate_all,
    evaluate_pair,
    icpc,
    integrated_lufs,
    log_magnitude_distance,
    mel_distance,
    resample,
    save_wav,
    si_sdr,
    split_mslr,
    true_peak_dbtp,
)
from earmetrics.audio import _BLOCK_SAMPLES, _FLOAT, _as_stereo, _wav_header
from helpers import assert_float32_equals_widened, float32_pair

SEEDS = st.integers(0, 2**32 - 1)
CHANNELS = st.integers(1, 2)
AMPLITUDES = st.floats(1e-3, 2.0)
# past one SI-SDR block and several STFT blocks of frames (2**14 samples at every scale)
LENGTHS = st.integers(4096, _BLOCK_SAMPLES + 9000)
# from one 400 ms gating block at 48 kHz, past two polyphase blocks
LONG_LENGTHS = st.integers(19200, 2 * _BLOCK_SAMPLES + 9000)


@pytest.mark.parametrize(
    "kwargs",
    [{}, {"chunk_seconds": 0.5}, {"prefilter": "k"}, {"prefilter": "a"}],
    ids=["plain", "chunked", "k", "a"],
)
@settings(max_examples=4, deadline=None)
@given(seed=SEEDS, channels=CHANNELS, length=LENGTHS, amp=AMPLITUDES)
def test_evaluate_pair(kwargs, seed, channels, length, amp):
    pair = float32_pair(seed, channels, length, amp)
    assert_float32_equals_widened(lambda ref, rec: evaluate_pair(ref, rec, **kwargs), *pair)


@settings(max_examples=4, deadline=None)
@given(seed=SEEDS, channels=CHANNELS, length=LENGTHS, amp=AMPLITUDES, prefilter=st.sampled_from(["none", "k"]))
def test_composite_objective(seed, channels, length, amp, prefilter):
    pair = [_as_stereo(buf) for buf in float32_pair(seed, channels, length, amp)]
    assert_float32_equals_widened(lambda ref, rec: composite_objective(ref, rec, prefilter=prefilter), *pair)


@settings(max_examples=6, deadline=None)
@given(seed=SEEDS, channels=CHANNELS, length=LENGTHS, amp=AMPLITUDES)
def test_coherence_distances_and_split_mslr(seed, channels, length, amp):
    pair = [_as_stereo(buf) for buf in float32_pair(seed, channels, length, amp)]
    assert_float32_equals_widened(ccpc, *pair)
    assert_float32_equals_widened(split_mslr, pair[0])
    for fn in (icpc, log_magnitude_distance, lambda a, b: mel_distance(a, b, 44100)):
        assert_float32_equals_widened(lambda ref, rec: fn(ref.samples[1], rec.samples[1]), *pair)


@settings(max_examples=10, deadline=None)
@given(seed=SEEDS, channels=CHANNELS, length=LONG_LENGTHS, amp=AMPLITUDES)
def test_si_sdr_loudness_and_true_peak(seed, channels, length, amp):
    pair = float32_pair(seed, channels, length, amp)
    assert_float32_equals_widened(lambda ref, rec: si_sdr(ref.samples, rec.samples), *pair)
    for ch in range(channels):
        assert_float32_equals_widened(lambda ref, rec: si_sdr(ref.samples[ch], rec.samples[ch]), *pair)
    assert_float32_equals_widened(integrated_lufs, pair[0])
    assert_float32_equals_widened(true_peak_dbtp, pair[1])


@settings(max_examples=6, deadline=None)
@given(
    seed=SEEDS,
    channels=CHANNELS,
    length=LONG_LENGTHS,
    amp=AMPLITUDES,
    rates=st.sampled_from([(44100, 48000), (48000, 44100), (96000, 44100)]),
)
def test_resample(seed, channels, length, amp, rates):
    buf = float32_pair(seed, channels, length, amp, rate=rates[0])[0]
    assert_float32_equals_widened(lambda x: resample(x, rates[1]), buf)


def _saved_bytes(buf: AudioBuffer, sample_format: str) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.wav"
        save_wav(path, buf, sample_format=sample_format)
        return path.read_bytes()


@pytest.mark.parametrize("sample_format", ["float32", "pcm16", "pcm24", "pcm32"])
@settings(max_examples=6, deadline=None)
@given(seed=SEEDS, channels=CHANNELS, length=st.integers(2, 5000), amp=AMPLITUDES)
def test_save_wav(sample_format, seed, channels, length, amp):
    # full scale both ways: 1.0 * 2**31 must clip to 2**31 - 1, which float32 cannot hold
    samples = float32_pair(seed, channels, length, amp)[0].samples.copy()
    samples[:, :2] = [1.0, -1.0]
    buf = AudioBuffer(samples, 44100)
    assert_float32_equals_widened(lambda x: _saved_bytes(x, sample_format), buf)


@settings(max_examples=8, deadline=None)
@given(
    seed=SEEDS,
    channels=CHANNELS,
    length=st.integers(19200, 4 * 48000),
    amp=st.floats(0.02, 0.8),
    rate=st.sampled_from([44100, 48000, 96000]),
)
def test_curate_all(seed, channels, length, amp, rate):
    # the file holds the given samples at their precision, a float32 or a float64
    # file; the decision and the kept file's bytes are compared
    buf = float32_pair(seed, channels, length, amp, rate=rate)[0]

    def curate(x: AudioBuffer):
        with tempfile.TemporaryDirectory() as out:
            src = Path(out) / "x.wav"
            (Path(out) / "kept").mkdir()
            width = x.samples.dtype.itemsize
            src.write_bytes(
                _wav_header(_FLOAT, x.channels, rate, width, x.num_samples)
                + x.samples.T.astype(f"<f{width}").tobytes()
            )
            decision = curate_all(src, Path(out) / "kept")
            kept = Path(decision.output_path).read_bytes() if decision.verdict == "keep" else None
            return decision.verdict, decision.reason, decision.measured, kept

    assert_float32_equals_widened(curate, buf)
