"""Deterministic signal builders shared across the test modules."""
from __future__ import annotations

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


def noise_stereo(
    rate: int = 44100,
    seconds: float = 2.0,
    amp: float = 0.3,
    seed: int = 0,
) -> AudioBuffer:
    rng = np.random.default_rng(seed)
    return AudioBuffer(amp * rng.standard_normal((2, int(seconds * rate))), rate)


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
