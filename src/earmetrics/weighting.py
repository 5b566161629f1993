"""Psychoacoustic weighting filters as biquad cascades.

Implements the ITU-R BS.1770 K-weighting pre-filter (high-frequency shelf
boost followed by a low-cut high-pass) and the IEC 61672 A-weighting curve.
Both are designed at the target sample rate by bilinear transform of their
analog prototypes; the K-weighting parametrization reproduces the 48 kHz
coefficient table printed in the standard.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi, tan

import numpy as np

from . import audio
from .audio import AudioBuffer, _check_finite, _frozen, _positive_rate, _same_rows, _too_large

__all__ = [
    "BiquadCascade",
    "design_k_weighting",
    "design_a_weighting",
    "apply_cascade",
    "frequency_response",
    "MIN_DESIGN_RATE",
]

MIN_DESIGN_RATE = 8000
_PREFILTERS = ("none", "k", "a")


@dataclass(frozen=True, eq=False)
class BiquadCascade:
    """Ordered chain of second-order sections tied to one design rate.

    ``sos`` is a read-only float64 ``(sections, 6)`` array of rows
    ``(b0, b1, b2, 1, a1, a2)``, the layout ``scipy.signal.sosfilt`` takes;
    the constructor copies its input. Equality is identity.

    Raises:
        ValueError: on no rows, a row width other than 6, a NaN or inf
            coefficient, ``a0 != 1``, a pole on or outside the unit circle,
            or a design rate that is not a positive integer.
    """

    sos: np.ndarray
    design_rate: int

    def __post_init__(self) -> None:
        sos = np.array(self.sos, dtype=np.float64)
        if sos.ndim != 2 or sos.shape[1] != 6:
            raise ValueError(f"sos must have shape (sections, 6), got {sos.shape}")
        if not sos.shape[0]:
            raise ValueError("cascade needs at least one section")
        if not np.isfinite(sos).all():
            raise ValueError(f"sos coefficients must be finite, got {sos.tolist()}")
        if np.any(sos[:, 3] != 1.0):
            raise ValueError(f"sos rows must have a0 == 1, got {sos[:, 3]}")
        for a1, a2 in sos[:, 4:]:
            poles = np.roots([1.0, a1, a2])
            if poles.size and np.max(np.abs(poles)) >= 1.0:
                raise ValueError(f"unstable biquad section: pole magnitude {np.max(np.abs(poles)):.6f}")
        object.__setattr__(self, "sos", _frozen(sos))
        object.__setattr__(self, "design_rate", _positive_rate(self.design_rate, "design_rate"))


# Analog prototype of the BS.1770 K-weighting stages. The shelf gain is split
# between numerator terms with the fixed exponent below; this choice makes the
# bilinear-transformed 48 kHz design land on the published coefficient table.
_K_SHELF_HZ = 1681.9744509555319
_K_SHELF_GAIN_DB = 3.99984385397
_K_SHELF_Q = 0.7071752369554196
_K_SHELF_SPLIT = 0.499666774155
_K_HIGHPASS_HZ = 38.13547087602444
_K_HIGHPASS_Q = 0.5003270373238773

# IEC 61672 A-weighting pole frequencies in Hz (two poles at the first and
# last entries, four zeros at DC).
_A_POLES_HZ = (20.598997, 107.65265, 737.86223, 12194.217)


def _check_rate(rate: int) -> int:
    if not isinstance(rate, (int, np.integer)) or rate < MIN_DESIGN_RATE:
        raise ValueError(f"design rate must be an integer >= {MIN_DESIGN_RATE} Hz, got {rate!r}")
    return int(rate)


def design_k_weighting(rate: int) -> BiquadCascade:
    """K-weighting cascade at the given rate.

    Stage 1 is a +4 dB high-frequency shelf, stage 2 a high-pass near 38 Hz,
    each mapped from the analog prototype by bilinear transform with
    frequency pre-warping. At 48 kHz the coefficients match the reference
    table to better than 1e-12.
    """
    rate = _check_rate(rate)
    k = tan(pi * _K_SHELF_HZ / rate)
    vh = 10.0 ** (_K_SHELF_GAIN_DB / 20.0)
    vb = vh ** _K_SHELF_SPLIT
    d = 1.0 + k / _K_SHELF_Q + k * k
    shelf = (
        (vh + vb * k / _K_SHELF_Q + k * k) / d,
        2.0 * (k * k - vh) / d,
        (vh - vb * k / _K_SHELF_Q + k * k) / d,
        1.0,
        2.0 * (k * k - 1.0) / d,
        (1.0 - k / _K_SHELF_Q + k * k) / d,
    )
    k = tan(pi * _K_HIGHPASS_HZ / rate)
    d = 1.0 + k / _K_HIGHPASS_Q + k * k
    highpass = (1.0, -2.0, 1.0, 1.0, 2.0 * (k * k - 1.0) / d, (1.0 - k / _K_HIGHPASS_Q + k * k) / d)
    return BiquadCascade((shelf, highpass), rate)


def design_a_weighting(rate: int) -> BiquadCascade:
    """A-weighting cascade at the given rate, unity gain at 1 kHz.

    The analog zeros/poles are mapped by bilinear transform, so the response
    cramps toward Nyquist relative to the analog curve (about -1 dB at
    10 kHz for a 48 kHz design); rates of 96 kHz and above track the analog
    magnitudes closely through 20 kHz.
    """
    from scipy import signal

    rate = _check_rate(rate)
    zeros = [0.0, 0.0, 0.0, 0.0]
    f1, f2, f3, f4 = _A_POLES_HZ
    poles = [-2.0 * pi * f for f in (f1, f1, f2, f3, f4, f4)]
    zd, pd, kd = signal.bilinear_zpk(zeros, poles, 1.0, rate)
    sos = signal.zpk2sos(zd, pd, kd)
    gain = np.abs(frequency_response(BiquadCascade(sos, rate), np.array([1000.0])))[0]
    sos[0, :3] /= gain
    return BiquadCascade(sos, rate)


def frequency_response(cascade: BiquadCascade, freqs_hz: np.ndarray) -> np.ndarray:
    """Complex response of the cascade at the given frequencies in Hz; NaN where one is NaN or huge."""
    f = np.asarray(freqs_hz, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        z1 = np.exp(-2j * pi * f / cascade.design_rate)
        z2 = z1 * z1
        h = np.ones_like(z1)
        for b0, b1, b2, _, a1, a2 in cascade.sos:
            h *= (b0 + b1 * z1 + b2 * z2) / (1.0 + a1 * z1 + a2 * z2)
    return h


class _CascadeFilter:
    """A cascade run over consecutive ``(channels, k)`` blocks of a signal:
    each call filters the next block, carrying every channel's state, so the
    blocks of a signal give exactly the samples one whole ``sosfilt`` gives.
    Where a block's rows and their states are the same (``audio._same_rows``),
    it filters the first row, returns it for all and copies its state."""

    def __init__(self, cascade: BiquadCascade, channels: int) -> None:
        self._sos = cascade.sos.copy()  # sosfilt rejects a read-only sos ("buffer source array is read-only")
        self.state = np.zeros((self._sos.shape[0], channels, 2))

    def __call__(self, block: np.ndarray) -> np.ndarray:
        from scipy import signal

        rows = 1 if _same_rows(block) and _same_rows(self.state.swapaxes(0, 1)) else block.shape[0]
        filtered, self.state[:, :rows] = signal.sosfilt(self._sos, block[:rows], axis=-1, zi=self.state[:, :rows])
        self.state[:, rows:] = self.state[:, :1]
        return filtered


def apply_cascade(cascade: BiquadCascade, buf: AudioBuffer) -> AudioBuffer:
    """Filter every channel through the cascade with zero initial state, a
    block of ``_BLOCK_SAMPLES`` samples at a time (the blocks loudness
    filters); a block whose channels are the same is filtered once.

    Raises:
        ValueError: on arguments that are not a cascade and a buffer, in that
            order, when the buffer rate differs from the design rate, on a NaN
            or inf sample, or on overflow.
    """
    if not isinstance(cascade, BiquadCascade) or not isinstance(buf, AudioBuffer):
        raise ValueError(
            f"apply_cascade takes a BiquadCascade and an AudioBuffer, got "
            f"{type(cascade).__name__} and {type(buf).__name__}"
        )
    if buf.sample_rate != cascade.design_rate:
        raise ValueError(
            f"sample rate mismatch: buffer at {buf.sample_rate} Hz, "
            f"filter designed for {cascade.design_rate} Hz"
        )
    run, block = _CascadeFilter(cascade, buf.channels), audio._BLOCK_SAMPLES
    filtered = np.empty((buf.channels, buf.num_samples))
    for start in range(0, buf.num_samples, block):
        x = buf.samples[:, start : start + block]
        y = run(x)
        # the first block that is not finite reads a NaN or inf sample, or its filter overflowed
        if not np.isfinite(y).all():
            _check_finite(x, "buffer")
            raise _too_large()
        filtered[:, start : start + block] = y
    return AudioBuffer(_frozen(filtered), buf.sample_rate)


def _prefilter_pair(name: str, ref: AudioBuffer, rec: AudioBuffer) -> tuple[AudioBuffer, AudioBuffer]:
    if name not in _PREFILTERS:
        raise ValueError(f"prefilter must be one of {_PREFILTERS}, got {name!r}")
    if name == "none":
        return ref, rec
    cascade = (design_k_weighting if name == "k" else design_a_weighting)(ref.sample_rate)
    return apply_cascade(cascade, ref), apply_cascade(cascade, rec)
