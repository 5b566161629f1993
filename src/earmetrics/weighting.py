"""Psychoacoustic weighting filters as biquad cascades.

Implements the ITU-R BS.1770 K-weighting pre-filter (high-frequency shelf
boost followed by a low-cut high-pass) and the IEC 61672 A-weighting curve.
Both are designed at the target sample rate by bilinear transform of their
analog prototypes; the K-weighting parametrization reproduces the 48 kHz
coefficient table printed in the standard.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import pi, tan

import numpy as np

from .audio import AudioBuffer, _frozen

__all__ = [
    "FilterLabel",
    "BiquadSection",
    "BiquadCascade",
    "design_k_weighting",
    "design_a_weighting",
    "apply_cascade",
    "frequency_response",
    "MIN_DESIGN_RATE",
]

MIN_DESIGN_RATE = 8000
_PREFILTERS = ("none", "k", "a")


class FilterLabel(str, Enum):
    K_WEIGHTING = "k_weighting"
    A_WEIGHTING = "a_weighting"


@dataclass(frozen=True)
class BiquadSection:
    """Second-order section with ``a0`` normalized to 1.

    Raises:
        ValueError: if the poles are not strictly inside the unit circle.
    """

    b0: float
    b1: float
    b2: float
    a1: float
    a2: float

    def __post_init__(self) -> None:
        poles = np.roots([1.0, self.a1, self.a2])
        if poles.size and np.max(np.abs(poles)) >= 1.0:
            raise ValueError(f"unstable biquad section: pole magnitude {np.max(np.abs(poles)):.6f}")

    @property
    def sos_row(self) -> tuple[float, float, float, float, float, float]:
        return (self.b0, self.b1, self.b2, 1.0, self.a1, self.a2)


@dataclass(frozen=True)
class BiquadCascade:
    """Ordered chain of biquad sections tied to one design rate."""

    sections: tuple[BiquadSection, ...]
    design_rate: int
    label: FilterLabel

    def __post_init__(self) -> None:
        object.__setattr__(self, "sections", tuple(self.sections))
        if not self.sections:
            raise ValueError("cascade needs at least one section")

    def sos(self) -> np.ndarray:
        return np.array([s.sos_row for s in self.sections], dtype=np.float64)


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
    shelf = BiquadSection(
        b0=(vh + vb * k / _K_SHELF_Q + k * k) / d,
        b1=2.0 * (k * k - vh) / d,
        b2=(vh - vb * k / _K_SHELF_Q + k * k) / d,
        a1=2.0 * (k * k - 1.0) / d,
        a2=(1.0 - k / _K_SHELF_Q + k * k) / d,
    )
    k = tan(pi * _K_HIGHPASS_HZ / rate)
    d = 1.0 + k / _K_HIGHPASS_Q + k * k
    highpass = BiquadSection(
        b0=1.0,
        b1=-2.0,
        b2=1.0,
        a1=2.0 * (k * k - 1.0) / d,
        a2=(1.0 - k / _K_HIGHPASS_Q + k * k) / d,
    )
    return BiquadCascade((shelf, highpass), rate, FilterLabel.K_WEIGHTING)


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
    rows = signal.zpk2sos(zd, pd, kd)
    sections = [
        BiquadSection(r[0] / r[3], r[1] / r[3], r[2] / r[3], r[4] / r[3], r[5] / r[3])
        for r in rows
    ]
    cascade = BiquadCascade(tuple(sections), rate, FilterLabel.A_WEIGHTING)
    gain = np.abs(frequency_response(cascade, np.array([1000.0])))[0]
    head = sections[0]
    sections[0] = BiquadSection(head.b0 / gain, head.b1 / gain, head.b2 / gain, head.a1, head.a2)
    return BiquadCascade(tuple(sections), rate, FilterLabel.A_WEIGHTING)


def frequency_response(cascade: BiquadCascade, freqs_hz: np.ndarray) -> np.ndarray:
    """Complex response of the cascade at the given frequencies in Hz."""
    f = np.asarray(freqs_hz, dtype=np.float64)
    z1 = np.exp(-2j * pi * f / cascade.design_rate)
    z2 = z1 * z1
    h = np.ones_like(z1)
    for s in cascade.sections:
        h *= (s.b0 + s.b1 * z1 + s.b2 * z2) / (1.0 + s.a1 * z1 + s.a2 * z2)
    return h


def apply_cascade(cascade: BiquadCascade, buf: AudioBuffer) -> AudioBuffer:
    """Filter every channel through the cascade with zero initial state.

    Raises:
        ValueError: when the buffer rate differs from the design rate.
    """
    if buf.sample_rate != cascade.design_rate:
        raise ValueError(
            f"sample rate mismatch: buffer at {buf.sample_rate} Hz, "
            f"filter designed for {cascade.design_rate} Hz"
        )
    from scipy import signal

    filtered = signal.sosfilt(cascade.sos(), buf.samples, axis=-1)
    return AudioBuffer(_frozen(filtered), buf.sample_rate)


def _prefilter_pair(name: str, ref: AudioBuffer, rec: AudioBuffer) -> tuple[AudioBuffer, AudioBuffer]:
    if name not in _PREFILTERS:
        raise ValueError(f"prefilter must be one of {_PREFILTERS}, got {name!r}")
    if name == "none":
        return ref, rec
    cascade = (design_k_weighting if name == "k" else design_a_weighting)(ref.sample_rate)
    return apply_cascade(cascade, ref), apply_cascade(cascade, rec)
