"""Deterministic signal builders shared across the test modules."""
from __future__ import annotations

import dataclasses
import tracemalloc
from typing import Callable

import numpy as np

from earmetrics import AudioBuffer, true_peak_dbtp

# verdict lines collected by the acceptance tests, echoed after the run
ACCEPTANCE_LINES: list[str] = []

# Largest phase loss accepted for a spectrogram against its own global
# rotation ``spec * np.exp(1j * c)`` computed in float64. Each IF or GD error
# is a wrapped difference of two per-bin phase errors, so it combines four
# rounded angles (atan2 rounding, up to half an ulp of pi each), and the
# rotated input adds one rounding per bin, so the float64 result is a few
# ulp(pi) rather than 0 (extended precision on the same arrays gives about
# 7e-17, not 0). Measured worst case 1.11 ulp(pi) over 360 cases: STFT sizes
# 256-4096, amplitudes 1e-4, 0.9 and 30 on 2 s of noise, with and without
# magnitude weighting, 12 rotations each. A missing wrap or a raw-phase
# comparison gives 0.1 to 1, and one bin moved by 1e-9 rad already gives
# about 39 ulp(pi).
PHASE_ROTATION_BUDGET = 8 * np.spacing(np.pi)

# Reference/reconstruction amplitudes of unit noise at which evaluate_pair's
# products (CCPC multiplies four spectra, SI-SDR squares samples) overflow
# float64; at 1e70 for both the metrics stay finite.
HUGE_AMPLITUDES = [(1e300, 1.0), (1e300, 1e300), (1e160, 1e160), (1e80, 1e80)]


def noise_stereo(
    rate: int = 44100,
    seconds: float = 2.0,
    amp: float = 0.3,
    seed: int = 0,
) -> AudioBuffer:
    rng = np.random.default_rng(seed)
    return AudioBuffer(amp * rng.standard_normal((2, int(seconds * rate))), rate)


def huge_noise_pair(ref_amp: float, rec_amp: float) -> tuple[AudioBuffer, AudioBuffer]:
    """One second of independent stereo noise at the two amplitudes."""
    return noise_stereo(seconds=1.0, amp=ref_amp, seed=80), noise_stereo(seconds=1.0, amp=rec_amp, seed=81)


def overflowing_pair() -> tuple[AudioBuffer, AudioBuffer]:
    """One second of noise clipped to +-4 and scaled by 4e307, and 0.9 times it:
    finite samples whose K- or A-weighted values and spectra overflow float64."""
    r = np.clip(np.random.default_rng(0).standard_normal((2, 44100)), -4, 4) * 4e307
    return AudioBuffer(r, 44100), AudioBuffer(0.9 * r, 44100)


def overflowing_96k() -> AudioBuffer:
    """Two seconds of 96 kHz stereo noise clipped to +-1 and scaled by 1.7e308:
    finite samples whose values resampled to 44.1 kHz overflow float64."""
    x = np.clip(np.random.default_rng(0).standard_normal((2, 192_000)), -1, 1) * 1.7e308
    return AudioBuffer(x, 96000)


def sine_stereo(
    freq_l: float,
    freq_r: float,
    rate: int = 44100,
    seconds: float = 2.0,
    amp: float = 0.5,
) -> AudioBuffer:
    t = np.arange(int(seconds * rate)) / rate
    return AudioBuffer(
        np.stack([amp * np.sin(2 * np.pi * freq_l * t), amp * np.sin(2 * np.pi * freq_r * t)]),
        rate,
    )


def chirp_stereo(
    f0: float,
    f1: float,
    rate: int = 44100,
    seconds: float = 2.0,
    amp: float = 0.5,
) -> AudioBuffer:
    t = np.arange(int(seconds * rate)) / rate
    phase = 2 * np.pi * (f0 * t + 0.5 * (f1 - f0) * t**2 / seconds)
    return AudioBuffer(np.stack([amp * np.sin(phase), amp * np.cos(phase)]), rate)


def faded(x: np.ndarray, rate: int, fade_seconds: float = 0.05) -> np.ndarray:
    """Apply raised-cosine fade in and out to each channel."""
    n = int(fade_seconds * rate)
    ramp = 0.5 * (1 - np.cos(np.pi * np.arange(n) / n))
    y = np.array(x, dtype=np.float64)
    y[..., :n] *= ramp
    y[..., -n:] *= ramp[::-1]
    return y


def quarter_rate_sine_45(rate: int, seconds: float, amp: float = 1.0) -> np.ndarray:
    """Sine at fs/4 with 45 degree phase: every sample is +-amp/sqrt(2) but
    the continuous waveform peaks at amp between samples."""
    n = int(seconds * rate)
    return amp * np.sin(0.5 * np.pi * np.arange(n) + 0.25 * np.pi)


def calibrated_burst_buffer(rate: int, target_dbtp: float, seed: int) -> AudioBuffer:
    """Stereo noise bed with short loud tone bursts, gain-calibrated so the
    float32-quantized signal measures ``target_dbtp`` to within 5e-4 dB."""
    rng = np.random.default_rng(seed)
    x = 0.035 * rng.standard_normal((2, 5 * rate))
    width = int(0.012 * rate)
    env = np.sin(np.pi * np.arange(width) / width) ** 2
    tone = quarter_rate_sine_45(rate, width / rate, amp=0.8)[:width]
    for k in range(8):
        start = int((0.3 + 0.55 * k) * rate)
        x[k % 2, start : start + width] += env * tone
    for _ in range(12):
        quantized = np.asarray(x, dtype=np.float32).astype(np.float64)
        measured = true_peak_dbtp(AudioBuffer(quantized, rate)).dbtp
        if target_dbtp <= measured < target_dbtp + 5e-4:
            break
        x = x * 10 ** ((target_dbtp - measured) / 20) * (1 + 1e-9)
    return AudioBuffer(np.asarray(x, dtype=np.float32).astype(np.float64), rate)


def toy_pair(n_frames: int = 8, n_bins: int = 4) -> tuple[np.ndarray, np.ndarray]:
    """Two small deterministic complex spectrograms with distinct
    magnitudes and phases in every bin."""
    t = np.arange(n_frames)[:, None]
    f = np.arange(n_bins)[None, :]
    mag_a = 0.2 + 0.13 * t + 0.07 * f
    mag_b = 0.25 + 0.11 * t + 0.05 * f
    ph_a = 0.3 * t - 0.45 * f + 0.1
    ph_b = 0.27 * t + 0.38 * f - 0.6
    return mag_a * np.exp(1j * ph_a), mag_b * np.exp(1j * ph_b)


def toy_with_silent_bins() -> tuple[np.ndarray, np.ndarray]:
    """Toy pair with some bins of exactly zero magnitude in either input,
    which the oracles read as phase 0."""
    a, b = toy_pair()
    a[1, 2] = b[1, 2] = 0.0
    a[3, 0] = 0.0
    b[5, 1] = b[6, 3] = 0.0
    return a, b


def float32_pair(seed: int, channels: int, length: int, amp: float, rate: int = 44100) -> tuple[AudioBuffer, AudioBuffer]:
    """A float32 reference of noise at ``amp`` and a float32 reconstruction of
    0.9 times it plus noise 20 dB down, as a float32, pcm16 or pcm24 file decodes."""
    rng = np.random.default_rng(seed)
    ref = amp * rng.standard_normal((channels, length))
    rec = 0.9 * ref + 0.1 * amp * rng.standard_normal((channels, length))
    return AudioBuffer(ref.astype(np.float32), rate), AudioBuffer(rec.astype(np.float32), rate)


def exact_bits(value):
    """``value`` as nested tuples whose equality is bit-for-bit equality: floats
    by their hex form, arrays by dtype, shape and bytes, dataclasses (buffers,
    reports, decisions) field by field."""
    if dataclasses.is_dataclass(value):
        return (type(value).__name__, *(exact_bits(getattr(value, f.name)) for f in dataclasses.fields(value)))
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, dict):
        return tuple((k, exact_bits(v)) for k, v in sorted(value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(exact_bits(v) for v in value)
    if isinstance(value, float):
        return float(value).hex()
    return value


def assert_float32_equals_widened(consume: Callable, *bufs: AudioBuffer) -> None:
    """``consume`` gives bit for bit the same result on float32 buffers as on
    their samples widened to float64, as every buffer held them before
    float32 was kept at rest."""
    assert all(buf.samples.dtype == np.float32 for buf in bufs)
    wide = [AudioBuffer(buf.samples.astype(np.float64), buf.sample_rate) for buf in bufs]
    assert exact_bits(consume(*bufs)) == exact_bits(consume(*wide))


def count_sosfilt_rows(monkeypatch) -> list[int]:
    """The rows of signal given to each ``scipy.signal.sosfilt`` call (filtering
    along the last axis) for the rest of the test, one entry a call, in order."""
    from scipy import signal

    rows: list[int] = []

    def counted(sos, x, *args, _f=signal.sosfilt, **kwargs):
        rows.append(int(np.prod(np.shape(x)[:-1])))
        return _f(sos, x, *args, **kwargs)

    monkeypatch.setattr(signal, "sosfilt", counted)
    return rows


def traced_peak(fn: Callable, *args) -> int:
    """Peak bytes that tracemalloc sees allocated while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
