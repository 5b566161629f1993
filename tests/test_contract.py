"""The input contract of every public name, as one table.

Rows are the names in each module's ``__all__``: a public name without
a row fails :func:`test_every_public_name_has_a_row`, so each new name states
its contract here. Columns are the classes of bad input:

- ``nan``, ``inf``: a NaN or an infinite sample, bin or value;
- ``overflow``: finite values so large that a sum or product overflows float64;
- ``empty``: no samples, bins or items;
- ``ndim``: an array of the wrong number of dimensions;
- ``dtype``: an array of the wrong kind (complex samples, string bins);
- ``type``: an argument of the wrong type (an ndarray for an AudioBuffer);
- ``length``: two inputs of different lengths or shapes;
- ``mono``: one channel where two are needed;
- ``short``: a signal too short for the largest analysis window;
- ``silent``: a reference that is all zeros.

A cell holds the outcome: :class:`Named`, a ValueError whose message names
the input, or :class:`Gives`, a defined value. A row may hold more than one
cell of a column: the key of each further cell is the column's name followed
by a label, such as ``"type fft_size"``. A column a row leaves out does
not apply to that name: a constant takes no input, a mono signal is a valid
input of a function that promotes it. Every cell runs with warnings turned
into errors. The input rules live in ``earmetrics._inputs``.
"""
from __future__ import annotations

import ast
import importlib
import math
import re
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

import earmetrics._inputs
from earmetrics import (
    AudioBuffer,
    BatchSummary,
    BiquadCascade,
    CurateDecision,
    MetricReport,
    MultiScaleConfig,
    SILENCE_FLOOR_DBTP,
    StftConfig,
    TruePeakResult,
    align_pair,
    apply_cascade,
    ccpc,
    ccpc_from_spectra,
    collect_inputs,
    composite_objective,
    correlation_loss,
    curate_all,
    curate_batch,
    curate_stage1,
    curate_stage2,
    dbtp_distance,
    design_a_weighting,
    design_k_weighting,
    evaluate_pair,
    frequency_response,
    group_delay,
    icpc,
    icpc_from_spectra,
    instantaneous_frequency,
    integrated_lufs,
    istft,
    load_wav,
    log_magnitude_distance,
    mel_distance,
    mel_filterbank,
    merge_mslr,
    phase_loss,
    phase_matrix,
    resample,
    resolve_jobs,
    run_batch,
    save_wav,
    si_sdr,
    split_mslr,
    stft,
    true_peak_dbtp,
    wrap_phase,
)
from earmetrics.audio import _FLOAT, _PCM, _wav_header
from earmetrics.cli import main

pytestmark = pytest.mark.filterwarnings("error")

MODULES = ("audio", "cli", "coherence", "loudness", "phase", "pipeline", "spectral", "stereo", "weighting")
COLUMNS = ("nan", "inf", "overflow", "empty", "ndim", "dtype", "type", "length", "mono", "short", "silent")


class Named:
    """The call raises a ValueError whose message holds ``text``."""

    def __init__(self, text: str) -> None:
        self.text = text

    def check(self, call: Callable[[], object]) -> None:
        with pytest.raises(ValueError, match=re.escape(self.text)):
            call()


class Gives:
    """The call returns a value for which ``accept`` holds."""

    def __init__(self, accept: Callable[[object], bool]) -> None:
        self.accept = accept

    def check(self, call: Callable[[], object]) -> None:
        value = call()
        assert self.accept(value), value


RATE = 44100
N = 18000  # over one 400 ms gating block and four times the largest window (4096)
SHORT = 1000  # under the coherence window (2048), the largest window and one gating block
TOO_LARGE = "samples are too large for the metrics to stay finite in float64"
SPECTRA_TOO_LARGE = "spectra are too large for the metrics to stay finite in float64"
NON_FINITE = "holds non-finite samples (NaN or inf)"
DTYPE = "must be bool, integer or float, got dtype complex128"

_rng = np.random.default_rng(5)
REF = 0.1 * _rng.standard_normal((2, N))
REC = 0.9 * REF + 0.01 * _rng.standard_normal((2, N))
# every sample from 1.05e308 to 1.5e308 with a random sign: each sum of two overflows
HUGE = 1.5e308 * _rng.uniform(0.7, 1.0, (2, N)) * _rng.choice([-1.0, 1.0], (2, N))
CFG = StftConfig(512)
SPEC_A, SPEC_B = stft(REF[0], CFG), stft(REC[0], CFG)
_noise = _rng.standard_normal(8192)
# finite bins whose products overflow float64 in every spectrum metric
HUGE_SPEC = stft(1e307 * _noise / np.abs(_noise).max(), CFG)


def spoiled(x: np.ndarray, value: float) -> np.ndarray:
    """A copy of ``x`` with its middle sample, or bin, set to ``value``."""
    y = np.array(x)
    y[..., y.shape[-1] // 2] = value
    return y


def buf(x: np.ndarray) -> AudioBuffer:
    return AudioBuffer(x, RATE)


BUF, BUF_REC = buf(REF), buf(REC)
EMPTY = buf(np.zeros((2, 0)))
MONO = buf(REF[:1])
SILENT = buf(np.zeros((2, N)))


def wav(path: Path, x: np.ndarray, rate: int = RATE) -> Path:
    """``x`` written as a float32 WAV at ``path``."""
    save_wav(path, AudioBuffer(np.asarray(x, np.float32), rate))
    return path


def pcm8_wav(path: Path) -> Path:
    """A WAV of 8-bit PCM, a format that is not read."""
    path.write_bytes(_wav_header(_PCM, 1, RATE, 1, 100) + bytes(100))
    return path


def three_channel_wav(path: Path) -> Path:
    path.write_bytes(_wav_header(_PCM, 3, RATE, 2, 100) + bytes(600))
    return path


def _curate_rows(curate: Callable[[Path, Path], CurateDecision], silent: str, overflow: str) -> dict:
    """Cells of a curation stage of one file: every bad file is a reject with its reason."""

    def on(make: Callable[[Path], Path], want: str):
        return lambda d: curate(make(d), d / "out"), Gives(lambda decision: decision.reason == want)

    return {
        "nan": on(lambda d: wav(d / "x.wav", spoiled(REF, np.nan)), "non_finite"),
        "inf": on(lambda d: wav(d / "x.wav", spoiled(REF, np.inf)), "non_finite"),
        "overflow": on(lambda d: _float64_wav(d / "x.wav", HUGE), overflow),
        "empty": on(lambda d: wav(d / "x.wav", np.zeros((2, 0))), "too_short"),
        "ndim": on(lambda d: three_channel_wav(d / "x.wav"), "decode_error"),
        "dtype": on(lambda d: pcm8_wav(d / "x.wav"), "decode_error"),
        "type": (lambda d: curate(None, d / "out"), Gives(lambda decision: decision.reason == "decode_error")),
        "short": on(lambda d: wav(d / "x.wav", REF[:, :SHORT]), "too_short"),
        "silent": on(lambda d: wav(d / "x.wav", np.zeros((2, N))), silent),
    }


def _float64_wav(path: Path, x: np.ndarray) -> Path:
    """``x`` as a float64 WAV, which holds values beyond float32's range."""
    frames = np.ascontiguousarray(x.T, "<f8")
    path.write_bytes(_wav_header(_FLOAT, x.shape[0], RATE, 8, x.shape[1]) + frames.tobytes())
    return path


def _eval_files(d: Path, ref: np.ndarray, rec: np.ndarray) -> list[str]:
    return ["eval", str(wav(d / "ref.wav", ref)), str(wav(d / "rec.wav", rec))]


def _finite(value) -> bool:
    return bool(np.isfinite(value).all())


def _report_flags(*flags: str) -> Gives:
    """A report that carries ``flags`` and six finite metrics."""
    return Gives(lambda r: set(flags) <= set(r.flags) and _finite([getattr(r, k) for k in MetricReport.METRIC_FIELDS]))


ROWS: dict[str, dict[str, tuple[Callable[[Path], object], Named | Gives]]] = {
    # ---- audio
    "audio.AudioBuffer": {
        # samples are checked where a computation reads them, not where a buffer holds them
        "nan": (lambda d: buf(spoiled(REF, np.nan)), Gives(lambda b: np.isnan(b.samples).any())),
        "inf": (lambda d: buf(spoiled(REF, np.inf)), Gives(lambda b: np.isinf(b.samples).any())),
        "empty": (lambda d: buf(np.zeros((2, 0))), Gives(lambda b: b.num_samples == 0)),
        "ndim": (lambda d: buf(np.zeros((2, 2, 4))), Named("samples must be 1-D or 2-D, got 3-D")),
        "dtype": (lambda d: buf(REF + 0j), Named(f"samples {DTYPE}")),
        "type": (lambda d: AudioBuffer(REF, "44100"), Named("sample_rate must be a positive integer, got '44100'")),
    },
    "audio.StftConfig": {
        "type": (lambda d: StftConfig("512"), Named("fft sizes must be powers of two >= 2, got '512'")),
        "dtype": (lambda d: StftConfig(512.0), Named("fft sizes must be powers of two >= 2, got 512.0")),
        "length": (lambda d: StftConfig(512, hop=1024), Named("hop must satisfy 0 < hop <= fft_size, got 1024")),
    },
    "audio.load_wav": {
        "nan": (lambda d: load_wav(wav(d / "x.wav", spoiled(REF, np.nan))), Gives(lambda b: np.isnan(b.samples).any())),
        "empty": (lambda d: load_wav(wav(d / "x.wav", np.zeros((2, 0)))), Gives(lambda b: b.samples.shape == (2, 0))),
        "ndim": (lambda d: load_wav(three_channel_wav(d / "x.wav")), Named("unsupported channel count 3")),
        "dtype": (lambda d: load_wav(pcm8_wav(d / "x.wav")), Named("unsupported 8-bit PCM")),
        "type": (lambda d: load_wav(None), Named("cannot decode None")),
    },
    "audio.save_wav": {
        "nan": (
            lambda d: save_wav(d / "x.wav", buf(spoiled(REF, np.nan)), "pcm16"),
            Named("cannot write a NaN sample as pcm16"),
        ),
        # float32 holds a NaN or inf; PCM clips inf to full scale
        "inf": (
            lambda d: (save_wav(d / "x.wav", buf(spoiled(REF, np.inf)), "pcm16"), load_wav(d / "x.wav"))[1],
            Gives(lambda b: b.samples.max() == 1 - 2.0**-15),
        ),
        # a finite sample beyond float32's range is stored as inf, as curation stores it
        "overflow": (
            lambda d: (save_wav(d / "x.wav", buf(HUGE)), load_wav(d / "x.wav"))[1],
            Gives(lambda b: np.isinf(b.samples).all()),
        ),
        "empty": (
            lambda d: (save_wav(d / "x.wav", EMPTY), load_wav(d / "x.wav"))[1],
            Gives(lambda b: b.num_samples == 0),
        ),
        "dtype": (lambda d: save_wav(d / "x.wav", BUF, "pcm8"), Named("unsupported sample format 'pcm8'")),
        "type": (lambda d: save_wav(d / "x.wav", REF), Named("save_wav takes an AudioBuffer, got ndarray")),
    },
    "audio.resample": {
        "nan": (lambda d: resample(buf(spoiled(REF, np.nan)), 48000), Named(f"buffer {NON_FINITE}")),
        "inf": (lambda d: resample(buf(spoiled(REF, np.inf)), 48000), Named(f"buffer {NON_FINITE}")),
        "overflow": (lambda d: resample(buf(HUGE), 48000), Named(TOO_LARGE)),
        "empty": (lambda d: resample(EMPTY, 48000), Gives(lambda b: b.samples.shape == (2, 0))),
        "type": (lambda d: resample(REF, 48000), Named("resample takes an AudioBuffer, got ndarray")),
        "dtype": (lambda d: resample(BUF, 48000.0), Named("target_rate must be a positive integer, got 48000.0")),
    },
    "audio.stft": {
        "nan": (lambda d: stft(spoiled(REF[0], np.nan), CFG), Named(f"channel {NON_FINITE}")),
        "inf": (lambda d: stft(spoiled(REF[0], np.inf), CFG), Named(f"channel {NON_FINITE}")),
        "overflow": (lambda d: stft(HUGE[0], CFG), Named(TOO_LARGE)),
        "empty": (lambda d: stft(np.zeros(0), CFG), Named("signal too short: 0 samples")),
        "ndim": (lambda d: stft(REF, CFG), Named("channel must be 1-D, got 2-D")),
        "dtype": (lambda d: stft(REF[0] + 0j, CFG), Named(f"samples {DTYPE}")),
        "type": (lambda d: stft(REF[0], 512), Named("stft takes a StftConfig, got int")),
        "short": (lambda d: stft(REF[0, :200], CFG), Named("signal too short: 200 samples")),
    },
    "audio.istft": {
        # bins are not samples: NaN bins give NaN samples, as an inverse FFT does
        "nan": (lambda d: istft(spoiled(SPEC_A, np.nan), CFG, N), Gives(lambda y: np.isnan(y).any())),
        "empty": (lambda d: istft(SPEC_A[:0], CFG, N), Named(f"0 frames do not cover {N} samples")),
        "ndim": (lambda d: istft(SPEC_A[0], CFG, N), Named("bins must be 2-D, got 1-D")),
        "dtype": (lambda d: istft(np.full(SPEC_A.shape, "a"), CFG, N), Named("bins must be numeric, got dtype <U1")),
        "type": (lambda d: istft(SPEC_A, 512, N), Named("istft takes a StftConfig, got int")),
        "length": (lambda d: istft(SPEC_A, CFG, N + 512), Named(f"frames do not cover {N + 512} samples")),
    },
    # ---- coherence
    "coherence.MetricReport": {
        "nan": (
            lambda d: MetricReport(0.0, 0.0, math.nan, 100.0, 0.0, 0.0),
            Named("icpc_percent must be within [0, 100], got nan"),
        ),
    },
    "coherence.SI_SDR_CAP_DB": {},
    "coherence.icpc": {
        "nan": (lambda d: icpc(REF[0], spoiled(REC[0], np.nan)), Named(f"reconstruction {NON_FINITE}")),
        "inf": (lambda d: icpc(REF[0], spoiled(REC[0], np.inf)), Named(f"reconstruction {NON_FINITE}")),
        "overflow": (lambda d: icpc(*HUGE), Named(TOO_LARGE)),
        "empty": (lambda d: icpc(np.zeros(0), np.zeros(0)), Named("signal too short: 0 samples")),
        "ndim": (
            lambda d: icpc(REF, REC),
            Named("channels must be equal-length 1-D arrays, got (2, 18000) and (2, 18000)"),
        ),
        "dtype": (lambda d: icpc(REF[0] + 0j, REC[0]), Named(f"samples {DTYPE}")),
        "type": (lambda d: icpc(None, REC[0]), Named("samples must be bool, integer or float, got dtype object")),
        "length": (lambda d: icpc(REF[0], REC[0, :-1]), Named("channels must be equal-length 1-D arrays")),
        "short": (lambda d: icpc(REF[0, :SHORT], REC[0, :SHORT]), Named(f"signal too short: {SHORT} samples")),
        "silent": (lambda d: icpc(np.zeros(N), REC[0]), Gives(lambda v: v == 100.0)),
    },
    "coherence.ccpc": {
        "nan": (lambda d: ccpc(BUF, buf(spoiled(REC, np.nan))), Named(f"reconstruction {NON_FINITE}")),
        "inf": (lambda d: ccpc(BUF, buf(spoiled(REC, np.inf))), Named(f"reconstruction {NON_FINITE}")),
        "overflow": (lambda d: ccpc(buf(HUGE), buf(HUGE)), Named(TOO_LARGE)),
        "empty": (lambda d: ccpc(EMPTY, EMPTY), Named("signal too short: 0 samples")),
        "type": (
            lambda d: ccpc(REF, BUF_REC),
            Named("ccpc takes an AudioBuffer and an AudioBuffer, got ndarray and AudioBuffer"),
        ),
        "length": (lambda d: ccpc(BUF, buf(REC[:, :-1])), Named(f"lengths differ: {N} vs {N - 1}")),
        "mono": (lambda d: ccpc(MONO, BUF_REC), Named("ccpc requires stereo signals")),
        "short": (
            lambda d: ccpc(buf(REF[:, :SHORT]), buf(REC[:, :SHORT])),
            Named(f"signal too short: {SHORT} samples"),
        ),
        "silent": (lambda d: ccpc(SILENT, BUF_REC), Gives(lambda v: v == 100.0)),
    },
    "coherence.icpc_from_spectra": {
        "nan": (
            lambda d: icpc_from_spectra(SPEC_A, spoiled(SPEC_B, np.nan)),
            Named("spectrograms must hold finite bins"),
        ),
        "inf": (
            lambda d: icpc_from_spectra(SPEC_A, spoiled(SPEC_B, np.inf)),
            Named("spectrograms must hold finite bins"),
        ),
        "overflow": (lambda d: icpc_from_spectra(HUGE_SPEC, 0.9 * HUGE_SPEC), Named(SPECTRA_TOO_LARGE)),
        "empty": (lambda d: icpc_from_spectra(SPEC_A[:0], SPEC_B[:0]), Gives(lambda v: v == 100.0)),
        "ndim": (
            lambda d: icpc_from_spectra(SPEC_A[0], SPEC_B[0]),
            Named("spectrograms must be 2-D arrays of one shape"),
        ),
        "dtype": (
            lambda d: icpc_from_spectra(SPEC_A, np.full(SPEC_A.shape, "a")),
            Named("spectrograms must hold numeric bins; those at positions [2] do not"),
        ),
        "type": (
            lambda d: icpc_from_spectra(None, SPEC_B),
            Named("spectrograms must be 2-D arrays of one shape, got ['NoneType'"),
        ),
        "length": (
            lambda d: icpc_from_spectra(SPEC_A, SPEC_B[:-1]),
            Named("spectrograms must be 2-D arrays of one shape"),
        ),
        "silent": (lambda d: icpc_from_spectra(0 * SPEC_A, SPEC_B), Gives(lambda v: v == 100.0)),
    },
    "coherence.ccpc_from_spectra": {
        "nan": (
            lambda d: ccpc_from_spectra(SPEC_A, SPEC_B, SPEC_B, spoiled(SPEC_A, np.nan)),
            Named("spectrograms must hold finite bins"),
        ),
        "inf": (
            lambda d: ccpc_from_spectra(SPEC_A, SPEC_B, SPEC_B, spoiled(SPEC_A, np.inf)),
            Named("spectrograms must hold finite bins"),
        ),
        "overflow": (
            lambda d: ccpc_from_spectra(HUGE_SPEC, 0.9 * HUGE_SPEC, HUGE_SPEC, 0.8 * HUGE_SPEC),
            Named(SPECTRA_TOO_LARGE),
        ),
        "empty": (lambda d: ccpc_from_spectra(*[SPEC_A[:0]] * 4), Gives(lambda v: v == 100.0)),
        "ndim": (
            lambda d: ccpc_from_spectra(SPEC_A, SPEC_B, SPEC_B, SPEC_A[0]),
            Named("spectrograms must be 2-D arrays of one shape"),
        ),
        # real bins are complex bins with zero imaginary parts
        "dtype": (
            lambda d: ccpc_from_spectra(SPEC_A, SPEC_B.real, SPEC_B, SPEC_A.real),
            Gives(lambda v: v == ccpc_from_spectra(SPEC_A, SPEC_B.real + 0j, SPEC_B, SPEC_A.real + 0j)),
        ),
        "type": (
            lambda d: ccpc_from_spectra(SPEC_A, SPEC_B, SPEC_B, None),
            Named("spectrograms must be 2-D arrays of one shape"),
        ),
        "length": (
            lambda d: ccpc_from_spectra(SPEC_A, SPEC_B, SPEC_B, SPEC_A[:-1]),
            Named("spectrograms must be 2-D arrays of one shape"),
        ),
        "silent": (lambda d: ccpc_from_spectra(0 * SPEC_A, 0 * SPEC_B, SPEC_B, SPEC_A), Gives(lambda v: v == 100.0)),
    },
    "coherence.si_sdr": {
        "nan": (lambda d: si_sdr(REF[0], spoiled(REC[0], np.nan)), Named(f"reconstruction {NON_FINITE}")),
        "inf": (lambda d: si_sdr(REF[0], spoiled(REC[0], np.inf)), Named(f"reconstruction {NON_FINITE}")),
        "overflow": (lambda d: si_sdr(*HUGE), Named(TOO_LARGE)),
        "empty": (lambda d: si_sdr(np.zeros(0), np.zeros(0)), Named("si_sdr channels hold no samples")),
        "ndim": (lambda d: si_sdr(REF[np.newaxis], REC[np.newaxis]), Named("channels must be equal-length 1-D arrays")),
        "dtype": (lambda d: si_sdr(REF[0] + 0j, REC[0]), Named(f"samples {DTYPE}")),
        "type": (lambda d: si_sdr(None, REC[0]), Named("samples must be bool, integer or float, got dtype object")),
        "length": (lambda d: si_sdr(REF[0], REC[0, :-1]), Named("channels must be equal-length 1-D arrays")),
        "silent": (lambda d: si_sdr(np.zeros(N), REC[0]), Named("reference signal is all zeros")),
    },
    "coherence.align_pair": {
        "nan": (lambda d: align_pair(buf(spoiled(REF, np.nan)), BUF_REC), Named(f"reference {NON_FINITE}")),
        "inf": (lambda d: align_pair(BUF, buf(spoiled(REC, np.inf))), Named(f"reconstruction {NON_FINITE}")),
        "empty": (lambda d: align_pair(EMPTY, BUF_REC), Named("signals have no overlapping samples")),
        "type": (
            lambda d: align_pair(REF, BUF_REC),
            Named("align_pair takes an AudioBuffer and an AudioBuffer, got ndarray and AudioBuffer"),
        ),
        "length": (
            lambda d: align_pair(BUF, buf(REC[:, :-1]))[2],
            Gives(lambda flags: flags == ["truncated_to_common_length"]),
        ),
        "mono": (lambda d: align_pair(MONO, BUF_REC)[2], Gives(lambda flags: flags == ["mono_reference_duplicated"])),
    },
    "coherence.evaluate_pair": {
        "nan": (lambda d: evaluate_pair(BUF, buf(spoiled(REC, np.nan))), Named(f"reconstruction {NON_FINITE}")),
        "inf": (lambda d: evaluate_pair(BUF, buf(spoiled(REC, np.inf))), Named(f"reconstruction {NON_FINITE}")),
        "overflow": (lambda d: evaluate_pair(buf(HUGE), buf(HUGE)), Named(TOO_LARGE)),
        "empty": (
            lambda d: evaluate_pair(EMPTY, EMPTY),
            Named("signals of 0 samples too short for the largest analysis window (4096)"),
        ),
        "empty bands": (
            lambda d: evaluate_pair(BUF, BUF_REC, MultiScaleConfig((4096, 4))),
            Named("mel bands need fft sizes >= 8, got 4"),
        ),
        "type": (
            lambda d: evaluate_pair(BUF, BUF_REC, (4096,)),
            Named(
                "evaluate_pair takes an AudioBuffer, an AudioBuffer and a MultiScaleConfig, "
                "got AudioBuffer, AudioBuffer and tuple"
            ),
        ),
        "length": (lambda d: evaluate_pair(BUF, buf(REC[:, :-1])), _report_flags("truncated_to_common_length")),
        "mono": (lambda d: evaluate_pair(MONO, BUF_REC), _report_flags("mono_reference_duplicated")),
        "short": (
            lambda d: evaluate_pair(buf(REF[:, :SHORT]), buf(REC[:, :SHORT])),
            Named(f"signals of {SHORT} samples too short"),
        ),
        "silent": (lambda d: evaluate_pair(SILENT, BUF_REC), Named("reference signal is all zeros")),
    },
    # ---- loudness
    "loudness.LoudnessResult": {},
    "loudness.TruePeakResult": {
        "nan": (lambda d: TruePeakResult(math.nan, (math.nan,)), Named("dbtp must equal the per-channel maximum")),
    },
    "loudness.integrated_lufs": {
        "nan": (lambda d: integrated_lufs(buf(spoiled(REF, np.nan))), Named(f"buffer {NON_FINITE}")),
        "inf": (lambda d: integrated_lufs(buf(spoiled(REF, np.inf))), Named(f"buffer {NON_FINITE}")),
        "overflow": (lambda d: integrated_lufs(buf(HUGE)).lufs_i, Gives(lambda v: v == math.inf)),
        "empty": (lambda d: integrated_lufs(EMPTY), Named("audio too short for loudness measurement: 0 samples")),
        "type": (lambda d: integrated_lufs(REF), Named("integrated_lufs takes an AudioBuffer, got ndarray")),
        "short": (
            lambda d: integrated_lufs(buf(REF[:, :SHORT])),
            Named(f"audio too short for loudness measurement: {SHORT} samples"),
        ),
        "silent": (lambda d: integrated_lufs(SILENT).lufs_i, Gives(lambda v: v == -math.inf)),
    },
    "loudness.true_peak_dbtp": {
        "nan": (lambda d: true_peak_dbtp(buf(spoiled(REF, np.nan))), Named(f"buffer {NON_FINITE}")),
        "inf": (lambda d: true_peak_dbtp(buf(spoiled(REF, np.inf))), Named(f"buffer {NON_FINITE}")),
        "overflow": (lambda d: true_peak_dbtp(buf(HUGE)).dbtp, Gives(lambda v: v == math.inf)),
        "empty": (lambda d: true_peak_dbtp(EMPTY), Named("cannot measure true peak of an empty buffer")),
        "type": (lambda d: true_peak_dbtp(REF), Named("true_peak_dbtp takes an AudioBuffer, got ndarray")),
        "silent": (lambda d: true_peak_dbtp(SILENT).dbtp, Gives(lambda v: v == SILENCE_FLOOR_DBTP)),
    },
    "loudness.dbtp_distance": {
        "nan": (lambda d: dbtp_distance(BUF, buf(spoiled(REC, np.nan))), Named(f"buffer {NON_FINITE}")),
        "inf": (lambda d: dbtp_distance(BUF, buf(spoiled(REC, np.inf))), Named(f"buffer {NON_FINITE}")),
        "overflow": (lambda d: dbtp_distance(buf(HUGE), buf(HUGE)), Named(TOO_LARGE)),
        "empty": (lambda d: dbtp_distance(EMPTY, EMPTY), Named("cannot measure true peak of an empty buffer")),
        "type": (
            lambda d: dbtp_distance(BUF, REC),
            Named("dbtp_distance takes an AudioBuffer and an AudioBuffer, got AudioBuffer and ndarray"),
        ),
        # the two peaks are measured apart, so any two lengths or channel counts have a distance
        "length": (lambda d: dbtp_distance(BUF, buf(REC[:, :-1])), Gives(_finite)),
        "mono": (lambda d: dbtp_distance(MONO, BUF_REC), Gives(_finite)),
        "silent": (lambda d: dbtp_distance(SILENT, SILENT), Gives(lambda v: v == 0.0)),
    },
    "loudness.SILENCE_FLOOR_DBTP": {},
    # ---- phase
    "phase.wrap_phase": {
        # angles are not samples: a NaN or inf angle maps to NaN
        "nan": (lambda d: wrap_phase(math.nan), Gives(math.isnan)),
        "inf": (lambda d: wrap_phase(math.inf), Gives(math.isnan)),
        "empty": (lambda d: wrap_phase(np.zeros(0)), Gives(lambda v: v.shape == (0,))),
        "dtype": (lambda d: wrap_phase(np.array([1j])), Named(f"angles {DTYPE}")),
        "type": (lambda d: wrap_phase(None), Named("angles must be bool, integer or float, got dtype object")),
    },
    "phase.phase_matrix": {
        "nan": (lambda d: phase_matrix(spoiled(SPEC_A, np.nan)), Named("spectrograms must hold finite bins")),
        "inf": (lambda d: phase_matrix(spoiled(SPEC_A, np.inf)), Named("spectrograms must hold finite bins")),
        "overflow": (lambda d: phase_matrix(HUGE_SPEC), Gives(_finite)),
        "empty": (lambda d: phase_matrix(SPEC_A[:0]), Gives(lambda v: v.shape == (0, CFG.num_bins))),
        "ndim": (lambda d: phase_matrix(SPEC_A[0]), Named("spectrograms must be 2-D arrays of one shape")),
        "dtype": (lambda d: phase_matrix(np.full(SPEC_A.shape, "a")), Named("spectrograms must hold numeric bins")),
        "type": (lambda d: phase_matrix(None), Named("spectrograms must be 2-D arrays of one shape, got ['NoneType']")),
        "silent": (lambda d: phase_matrix(0 * SPEC_A), Gives(lambda v: not v.any())),
    },
    "phase.instantaneous_frequency": {
        "nan": (
            lambda d: instantaneous_frequency(spoiled(np.angle(SPEC_A), np.nan)),
            Gives(lambda v: np.isnan(v).any()),
        ),
        "empty": (
            lambda d: instantaneous_frequency(np.zeros((0, 4))),
            Named("need a 2-D phase matrix with >= 2 frames, got shape (0, 4)"),
        ),
        "ndim": (
            lambda d: instantaneous_frequency(np.zeros(4)),
            Named("need a 2-D phase matrix with >= 2 frames, got shape (4,)"),
        ),
        "dtype": (lambda d: instantaneous_frequency(SPEC_A), Named(f"phases {DTYPE}")),
        "type": (
            lambda d: instantaneous_frequency(None),
            Named("phases must be bool, integer or float, got dtype object"),
        ),
    },
    "phase.group_delay": {
        "nan": (lambda d: group_delay(spoiled(np.angle(SPEC_A), np.nan)), Gives(lambda v: np.isnan(v).any())),
        "empty": (
            lambda d: group_delay(np.zeros((4, 0))),
            Named("need a 2-D phase matrix with >= 2 bins, got shape (4, 0)"),
        ),
        "ndim": (lambda d: group_delay(np.zeros(4)), Named("need a 2-D phase matrix with >= 2 bins, got shape (4,)")),
        "dtype": (lambda d: group_delay(SPEC_A), Named(f"phases {DTYPE}")),
        "type": (lambda d: group_delay(None), Named("phases must be bool, integer or float, got dtype object")),
    },
    "phase.correlation_loss": {
        "nan": (
            lambda d: correlation_loss(SPEC_A, spoiled(SPEC_B, np.nan)),
            Named("spectrograms must hold finite bins"),
        ),
        "inf": (
            lambda d: correlation_loss(SPEC_A, spoiled(SPEC_B, np.inf)),
            Named("spectrograms must hold finite bins"),
        ),
        "overflow": (lambda d: correlation_loss(HUGE_SPEC, 0.9 * HUGE_SPEC), Named(SPECTRA_TOO_LARGE)),
        "empty": (lambda d: correlation_loss(SPEC_A[:0], SPEC_B[:0]), Named("correlation loss needs at least one bin")),
        "ndim": (
            lambda d: correlation_loss(SPEC_A[0], SPEC_B[0]),
            Named("spectrograms must be 2-D arrays of one shape"),
        ),
        "dtype": (
            lambda d: correlation_loss(SPEC_A, np.full(SPEC_A.shape, "a")),
            Named("spectrograms must hold numeric bins"),
        ),
        "type": (lambda d: correlation_loss(SPEC_A, None), Named("spectrograms must be 2-D arrays of one shape")),
        "length": (
            lambda d: correlation_loss(SPEC_A, SPEC_B[:-1]),
            Named("spectrograms must be 2-D arrays of one shape"),
        ),
        # a silent bin correlates with nothing
        "silent": (lambda d: correlation_loss(0 * SPEC_A, SPEC_B), Gives(lambda v: v == 1.0)),
    },
    "phase.phase_loss": {
        "nan": (lambda d: phase_loss(SPEC_A, spoiled(SPEC_B, np.nan)), Named("spectrograms must hold finite bins")),
        "inf": (lambda d: phase_loss(SPEC_A, spoiled(SPEC_B, np.inf)), Named("spectrograms must hold finite bins")),
        "overflow": (lambda d: phase_loss(HUGE_SPEC, 0.9 * HUGE_SPEC), Named(SPECTRA_TOO_LARGE)),
        "empty": (
            lambda d: phase_loss(SPEC_A[:0], SPEC_B[:0]),
            Named("phase loss needs at least two frames and two bins"),
        ),
        "ndim": (lambda d: phase_loss(SPEC_A[0], SPEC_B[0]), Named("spectrograms must be 2-D arrays of one shape")),
        "dtype": (
            lambda d: phase_loss(SPEC_A, np.full(SPEC_A.shape, "a")),
            Named("spectrograms must hold numeric bins"),
        ),
        "type": (lambda d: phase_loss(SPEC_A, None), Named("spectrograms must be 2-D arrays of one shape")),
        "length": (lambda d: phase_loss(SPEC_A, SPEC_B[:-1]), Named("spectrograms must be 2-D arrays of one shape")),
        "short": (
            lambda d: phase_loss(SPEC_A[:1], SPEC_B[:1]),
            Named("phase loss needs at least two frames and two bins"),
        ),
        # the errors are weighted by the reference magnitudes
        "silent": (lambda d: phase_loss(0 * SPEC_A, SPEC_B), Gives(lambda v: v == 0.0)),
    },
    # ---- pipeline
    "pipeline.CurateDecision": {
        "type": (
            lambda d: CurateDecision("x.wav", "maybe", "none", {}),
            Named("verdict must be keep or reject, got 'maybe'"),
        ),
    },
    "pipeline.BatchSummary": {
        "length": (lambda d: BatchSummary(2, 1, {}, "log"), Named("batch totals are inconsistent")),
    },
    "pipeline.TARGET_RATE": {},
    "pipeline.DEFAULT_LUFS_MIN": {},
    "pipeline.DEFAULT_LUFS_MAX": {},
    "pipeline.DEFAULT_DBTP_MAX": {},
    "pipeline.curate_stage1": _curate_rows(curate_stage1, "lufs_low", "lufs_high"),
    "pipeline.curate_stage2": {
        **_curate_rows(curate_stage2, "none", "true_peak_exceeded"),
        # stage 2 takes a standardized file: no gate reads the length but "has samples"
        "short": (
            lambda d: curate_stage2(wav(d / "x.wav", REF[:, :SHORT])),
            Gives(lambda decision: decision.reason == "none"),
        ),
    },
    "pipeline.curate_all": _curate_rows(curate_all, "lufs_low", "lufs_high"),
    "pipeline.collect_inputs": {
        "empty": (lambda d: collect_inputs(d), Gives(lambda paths: paths == [])),
        "type": (lambda d: collect_inputs(None), Named("collect_inputs takes a str or PathLike, got NoneType")),
    },
    "pipeline.run_batch": {
        "empty": (lambda d: run_batch([], curate_all, d / "log.jsonl"), Gives(lambda decisions: decisions == [])),
        "type": (
            lambda d: run_batch([], curate_all, d / "log.jsonl", jobs="x"),
            Named("jobs must be an integer, got 'x'"),
        ),
    },
    "pipeline.curate_batch": {
        "empty": (lambda d: curate_batch(d, d / "out")[1].total, Gives(lambda total: total == 0)),
        "type": (
            lambda d: curate_batch(d, d / "out", stage="x"),
            Named("stage must be stage1, stage2, or all, got 'x'"),
        ),
    },
    "pipeline.resolve_jobs": {
        "type": (lambda d: resolve_jobs("x"), Named("jobs must be an integer, got 'x'")),
    },
    # ---- spectral
    "spectral.MultiScaleConfig": {
        "empty": (lambda d: MultiScaleConfig(()), Named("fft_sizes must be non-empty")),
        "dtype": (lambda d: MultiScaleConfig((4096.0,)), Named("fft sizes must be powers of two >= 2, got 4096.0")),
        "type": (lambda d: MultiScaleConfig(4096), Named("fft_sizes must be a sequence of fft sizes, got 4096")),
    },
    "spectral.ObjectiveBreakdown": {},
    "spectral.DEFAULT_LAMBDAS": {},
    "spectral.mel_filterbank": {
        "empty": (lambda d: mel_filterbank(0, 512, RATE), Named("n_mels must be >= 1, got 0")),
        "dtype": (lambda d: mel_filterbank(2.5, 512, RATE), Named("n_mels must be an integer, got 2.5")),
        "type": (lambda d: mel_filterbank("8", 512, RATE), Named("n_mels must be an integer, got '8'")),
        # the checks run before the cache, which cannot hash a list
        "type n_mels list": (lambda d: mel_filterbank([8], 512, RATE), Named("n_mels must be an integer, got [8]")),
        "type fft_size list": (
            lambda d: mel_filterbank(8, [512], RATE),
            Named("fft sizes must be powers of two >= 2, got [512]"),
        ),
        "type fft_size str": (
            lambda d: mel_filterbank(8, "512", RATE),
            Named("fft sizes must be powers of two >= 2, got '512'"),
        ),
        "type rate list": (
            lambda d: mel_filterbank(8, 512, [RATE]),
            Named(f"rate must be a positive integer, got [{RATE}]"),
        ),
    },
    "spectral.log_magnitude_distance": {
        "nan": (
            lambda d: log_magnitude_distance(REF[0], spoiled(REC[0], np.nan)),
            Named(f"reconstruction {NON_FINITE}"),
        ),
        "inf": (
            lambda d: log_magnitude_distance(REF[0], spoiled(REC[0], np.inf)),
            Named(f"reconstruction {NON_FINITE}"),
        ),
        "overflow": (lambda d: log_magnitude_distance(*HUGE), Named(TOO_LARGE)),
        "empty": (lambda d: log_magnitude_distance(np.zeros(0), np.zeros(0)), Named("signals of 0 samples too short")),
        "ndim": (lambda d: log_magnitude_distance(REF, REC), Named("channels must be equal-length 1-D arrays")),
        "dtype": (lambda d: log_magnitude_distance(REF[0] + 0j, REC[0]), Named(f"samples {DTYPE}")),
        "type": (
            lambda d: log_magnitude_distance(REF[0], REC[0], cfg=(4096,)),
            Named("log_magnitude_distance takes a MultiScaleConfig, got tuple"),
        ),
        "length": (
            lambda d: log_magnitude_distance(REF[0], REC[0, :-1]),
            Named("channels must be equal-length 1-D arrays"),
        ),
        "short": (
            lambda d: log_magnitude_distance(REF[0, :SHORT], REC[0, :SHORT]),
            Named(f"signals of {SHORT} samples too short"),
        ),
        "silent": (lambda d: log_magnitude_distance(np.zeros(N), REC[0]), Gives(_finite)),
    },
    "spectral.mel_distance": {
        "nan": (lambda d: mel_distance(REF[0], spoiled(REC[0], np.nan), RATE), Named(f"reconstruction {NON_FINITE}")),
        "inf": (lambda d: mel_distance(REF[0], spoiled(REC[0], np.inf), RATE), Named(f"reconstruction {NON_FINITE}")),
        "overflow": (lambda d: mel_distance(*HUGE, RATE), Named(TOO_LARGE)),
        "empty": (lambda d: mel_distance(np.zeros(0), np.zeros(0), RATE), Named("signals of 0 samples too short")),
        "empty bands": (
            lambda d: mel_distance(REF[0], REC[0], RATE, MultiScaleConfig((4,))),
            Named("mel bands need fft sizes >= 8, got 4"),
        ),
        "ndim": (lambda d: mel_distance(REF, REC, RATE), Named("channels must be equal-length 1-D arrays")),
        "dtype": (
            lambda d: mel_distance(REF[0], REC[0], 44100.0),
            Named("rate must be a positive integer, got 44100.0"),
        ),
        "type": (
            lambda d: mel_distance(REF[0], REC[0], RATE, (4096,)),
            Named("mel_distance takes a MultiScaleConfig, got tuple"),
        ),
        "length": (
            lambda d: mel_distance(REF[0], REC[0, :-1], RATE),
            Named("channels must be equal-length 1-D arrays"),
        ),
        "short": (
            lambda d: mel_distance(REF[0, :SHORT], REC[0, :SHORT], RATE),
            Named(f"signals of {SHORT} samples too short"),
        ),
        "silent": (lambda d: mel_distance(np.zeros(N), REC[0], RATE), Gives(_finite)),
    },
    "spectral.composite_objective": {
        "nan": (lambda d: composite_objective(BUF, buf(spoiled(REC, np.nan))), Named(f"reconstruction {NON_FINITE}")),
        "inf": (lambda d: composite_objective(BUF, buf(spoiled(REC, np.inf))), Named(f"reconstruction {NON_FINITE}")),
        "overflow": (lambda d: composite_objective(buf(HUGE), buf(HUGE)), Named(TOO_LARGE)),
        "empty": (lambda d: composite_objective(EMPTY, EMPTY), Named("signals of 0 samples too short")),
        "type": (
            lambda d: composite_objective(REF, BUF_REC),
            Named(
                "composite_objective takes an AudioBuffer, an AudioBuffer and a MultiScaleConfig, "
                "got ndarray, AudioBuffer and MultiScaleConfig"
            ),
        ),
        "dtype": (
            lambda d: composite_objective(BUF, BUF_REC, lambdas=(1, 2)),
            Named("lambdas must be three numbers, got (1, 2)"),
        ),
        "nan lambdas": (
            lambda d: composite_objective(BUF, BUF_REC, lambdas=(math.nan, 1, 2)),
            Named("lambdas must be finite, got (nan, 1, 2)"),
        ),
        "inf lambdas": (
            lambda d: composite_objective(BUF, BUF_REC, lambdas=(math.inf, 1, 2)),
            Named("lambdas must be finite, got (inf, 1, 2)"),
        ),
        "length": (lambda d: composite_objective(BUF, buf(REC[:, :-1])), Named(f"lengths differ: {N} vs {N - 1}")),
        "mono": (lambda d: composite_objective(MONO, BUF_REC), Named("composite objective requires stereo signals")),
        "short": (
            lambda d: composite_objective(buf(REF[:, :SHORT]), buf(REC[:, :SHORT])),
            Named(f"signals of {SHORT} samples too short"),
        ),
        "silent": (lambda d: composite_objective(SILENT, BUF_REC).weighted_total, Gives(math.isfinite)),
    },
    # ---- stereo
    "stereo.split_mslr": {
        "nan": (lambda d: split_mslr(buf(spoiled(REF, np.nan))), Named(f"buffer {NON_FINITE}")),
        "inf": (lambda d: split_mslr(buf(spoiled(REF, np.inf))), Named(f"buffer {NON_FINITE}")),
        "overflow": (lambda d: split_mslr(buf(HUGE)), Named(TOO_LARGE)),
        "empty": (lambda d: split_mslr(EMPTY), Gives(lambda ms: [x.shape for x in ms] == [(0,), (0,)])),
        "type": (lambda d: split_mslr(REF), Named("split_mslr takes an AudioBuffer, got ndarray")),
        "mono": (lambda d: split_mslr(MONO), Named("stereo input required, got 1 channel(s)")),
    },
    "stereo.merge_mslr": {
        "nan": (lambda d: merge_mslr(REF[0], spoiled(REF[1], np.nan), RATE), Named(f"side {NON_FINITE}")),
        "inf": (lambda d: merge_mslr(spoiled(REF[0], np.inf), REF[1], RATE), Named(f"mid {NON_FINITE}")),
        "overflow": (lambda d: merge_mslr(*HUGE, RATE), Named(TOO_LARGE)),
        "empty": (lambda d: merge_mslr(np.zeros(0), np.zeros(0), RATE), Gives(lambda b: b.samples.shape == (2, 0))),
        "ndim": (lambda d: merge_mslr(REF, REF, RATE), Named("mid and side must be equal-length 1-D arrays")),
        "dtype": (lambda d: merge_mslr(REF[0] + 0j, REF[1], RATE), Named(f"samples {DTYPE}")),
        "type": (
            lambda d: merge_mslr(REF[0], REF[1], "44100"),
            Named("sample_rate must be a positive integer, got '44100'"),
        ),
        "length": (
            lambda d: merge_mslr(REF[0], REF[1, :-1], RATE),
            Named("mid and side must be equal-length 1-D arrays"),
        ),
    },
    # ---- weighting
    "weighting.BiquadCascade": {
        "nan": (
            lambda d: BiquadCascade(spoiled(design_k_weighting(RATE).sos, np.nan), RATE),
            Named("sos coefficients must be finite"),
        ),
        "empty": (lambda d: BiquadCascade(np.zeros((0, 6)), RATE), Named("cascade needs at least one section")),
        "ndim": (lambda d: BiquadCascade(np.zeros(6), RATE), Named("sos must have shape (sections, 6), got (6,)")),
        "dtype": (lambda d: BiquadCascade(design_k_weighting(RATE).sos + 0j, RATE), Named(f"sos coefficients {DTYPE}")),
        "type": (
            lambda d: BiquadCascade(design_k_weighting(RATE).sos, "44100"),
            Named("design_rate must be a positive integer, got '44100'"),
        ),
    },
    "weighting.design_k_weighting": {
        "type": (
            lambda d: design_k_weighting("48000"),
            Named("design rate must be an integer >= 8000 Hz, got '48000'"),
        ),
        "short": (lambda d: design_k_weighting(4000), Named("design rate must be an integer >= 8000 Hz, got 4000")),
    },
    "weighting.design_a_weighting": {
        "type": (
            lambda d: design_a_weighting(48000.0),
            Named("design rate must be an integer >= 8000 Hz, got 48000.0"),
        ),
        "short": (lambda d: design_a_weighting(4000), Named("design rate must be an integer >= 8000 Hz, got 4000")),
    },
    "weighting.apply_cascade": {
        "nan": (
            lambda d: apply_cascade(design_k_weighting(RATE), buf(spoiled(REF, np.nan))),
            Named(f"buffer {NON_FINITE}"),
        ),
        "inf": (
            lambda d: apply_cascade(design_k_weighting(RATE), buf(spoiled(REF, np.inf))),
            Named(f"buffer {NON_FINITE}"),
        ),
        "overflow": (lambda d: apply_cascade(design_k_weighting(RATE), buf(HUGE)), Named(TOO_LARGE)),
        "empty": (lambda d: apply_cascade(design_k_weighting(RATE), EMPTY), Gives(lambda b: b.samples.shape == (2, 0))),
        "type": (
            lambda d: apply_cascade(BUF, design_k_weighting(RATE)),
            Named("apply_cascade takes a BiquadCascade and an AudioBuffer, got AudioBuffer and BiquadCascade"),
        ),
        "length": (
            lambda d: apply_cascade(design_k_weighting(48000), BUF),
            Named("sample rate mismatch: buffer at 44100 Hz"),
        ),
    },
    "weighting.frequency_response": {
        # frequencies are not samples: the response at a NaN frequency is NaN
        "nan": (lambda d: frequency_response(design_k_weighting(RATE), [math.nan]), Gives(lambda h: np.isnan(h).all())),
        "empty": (lambda d: frequency_response(design_k_weighting(RATE), []), Gives(lambda h: h.shape == (0,))),
        "dtype": (lambda d: frequency_response(design_k_weighting(RATE), [1j]), Named(f"frequencies {DTYPE}")),
        "type": (
            lambda d: frequency_response(design_k_weighting(RATE).sos, [1000.0]),
            Named("frequency_response takes a BiquadCascade, got ndarray"),
        ),
    },
    "weighting.MIN_DESIGN_RATE": {},
    # ---- cli: a bad input file is an error line and exit code 1
    "cli.build_parser": {},
    "cli.main": {
        "nan": (lambda d: main(_eval_files(d, REF, spoiled(REC, np.nan))), Gives(lambda code: code == 1)),
        "empty": (lambda d: main(_eval_files(d, np.zeros((2, 0)), np.zeros((2, 0)))), Gives(lambda code: code == 1)),
        "dtype": (
            lambda d: main(["eval", str(pcm8_wav(d / "a.wav")), str(pcm8_wav(d / "b.wav"))]),
            Gives(lambda code: code == 1),
        ),
        "mono": (lambda d: main(_eval_files(d, REF[:1], REC)), Gives(lambda code: code == 0)),
        "short": (lambda d: main(_eval_files(d, REF[:, :SHORT], REC[:, :SHORT])), Gives(lambda code: code == 1)),
        "silent": (lambda d: main(_eval_files(d, np.zeros((2, N)), REC)), Gives(lambda code: code == 1)),
    },
    "cli.entry": {},
}


def test_every_public_name_has_a_row():
    names = {
        f"{module}.{name}"
        for module in MODULES
        for name in importlib.import_module(f"earmetrics.{module}").__all__
    }
    assert set(ROWS) == names


def test_every_cell_is_a_column():
    assert not [(row, cell) for row, cells in ROWS.items() for cell in cells if cell.split()[0] not in COLUMNS]


CELLS = [(row, column) for row, cells in ROWS.items() for column in cells]


@pytest.mark.parametrize("row,column", CELLS, ids=[f"{row}-{column}" for row, column in CELLS])
def test_cell(row, column, tmp_path, monkeypatch):
    monkeypatch.delenv("EARMETRICS_THREADS", raising=False)
    (tmp_path / "out").mkdir()
    call, outcome = ROWS[row][column]
    outcome.check(lambda: call(tmp_path))


def test_contract_module_imports_nothing_from_the_package():
    tree = ast.parse(Path(earmetrics._inputs.__file__).read_text())
    relative = [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level]
    absolute = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    absolute += [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and not n.level]
    assert not relative and not [m for m in absolute if m.split(".")[0] == "earmetrics"], (relative, absolute)


# Calls with an argument of the wrong type that used to raise AttributeError or TypeError
WRONG_TYPES = {
    "resample": lambda d: resample(REF, 48000),
    "save_wav": lambda d: save_wav(d / "x.wav", REF),
    "true_peak_dbtp": lambda d: true_peak_dbtp(REF),
    "integrated_lufs": lambda d: integrated_lufs(REF),
    "dbtp_distance": lambda d: dbtp_distance(REF, BUF_REC),
    "split_mslr": lambda d: split_mslr(REF),
    "ccpc": lambda d: ccpc(BUF, REC),
    "align_pair": lambda d: align_pair(BUF, REC),
    "evaluate_pair": lambda d: evaluate_pair(REF, BUF_REC),
    "composite_objective": lambda d: composite_objective(BUF, REC),
    "stft": lambda d: stft(REF[0], 512),
    "composite_objective cfg": lambda d: composite_objective(BUF, BUF_REC, cfg=(4096,)),
    "log_magnitude_distance cfg": lambda d: log_magnitude_distance(REF[0], REC[0], cfg=(4096,)),
    "frequency_response": lambda d: frequency_response(design_k_weighting(RATE).sos, [1000.0]),
}


@pytest.mark.parametrize("name", WRONG_TYPES)
def test_wrong_argument_type_names_the_function_and_the_types(name, tmp_path):
    with pytest.raises(ValueError, match=rf"^{name.split()[0]} takes (an? \w+(, | and )?)+, got "):
        WRONG_TYPES[name](tmp_path)
