"""Mid/side/left/right decomposition of stereo signals and spectrograms.

Mid and side use the plain averaging convention ``M = (L + R) / 2`` and
``S = (L - R) / 2`` (no energy-preserving sqrt(2) factor), which gives the
energy identity ``||L||^2 + ||R||^2 == 2 * (||M||^2 + ||S||^2)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio import AudioBuffer, ComplexSpectrogram, StftConfig, stft

__all__ = [
    "MslrSignals",
    "MslrSpectra",
    "split_mslr",
    "merge_mslr",
    "mslr_spectra",
]


@dataclass(frozen=True, eq=False)
class MslrSignals:
    """The four time-domain components of one stereo signal."""

    left: np.ndarray
    right: np.ndarray
    mid: np.ndarray
    side: np.ndarray
    rate: int

    def component(self, name: str) -> np.ndarray:
        if name not in ("left", "right", "mid", "side"):
            raise ValueError(f"unknown component {name!r}")
        return getattr(self, name)


@dataclass(frozen=True, eq=False)
class MslrSpectra:
    """STFTs of all four components under one shared configuration."""

    l_spec: ComplexSpectrogram
    r_spec: ComplexSpectrogram
    m_spec: ComplexSpectrogram
    s_spec: ComplexSpectrogram


def _check_finite(ref: np.ndarray, rec: np.ndarray) -> None:
    for name, x in (("reference", ref), ("reconstruction", rec)):
        if not np.isfinite(x).all():
            raise ValueError(f"{name} holds non-finite samples (NaN or inf)")


def _channel_pair(ref_ch: np.ndarray, rec_ch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both channels as float64, checked to be equal-length, 1-D and finite."""
    a = np.asarray(ref_ch, dtype=np.float64)
    b = np.asarray(rec_ch, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"channels must be equal-length 1-D arrays, got {a.shape} and {b.shape}")
    _check_finite(a, b)
    return a, b


def _check_stereo_pair(ref: AudioBuffer, rec: AudioBuffer, what: str) -> None:
    if ref.channels != 2 or rec.channels != 2:
        raise ValueError(f"{what} requires stereo signals")
    if ref.sample_rate != rec.sample_rate:
        raise ValueError(f"sample rates differ: {ref.sample_rate} vs {rec.sample_rate}")
    if ref.num_samples != rec.num_samples:
        raise ValueError(f"lengths differ: {ref.num_samples} vs {rec.num_samples}")
    _check_finite(ref.samples, rec.samples)


def split_mslr(buf: AudioBuffer) -> MslrSignals:
    """Decompose a stereo buffer into left, right, mid, side.

    Raises:
        ValueError: on mono input.
    """
    if buf.channels != 2:
        raise ValueError(f"stereo input required, got {buf.channels} channel(s)")
    left = buf.samples[0]
    right = buf.samples[1]
    mid = (left + right) / 2.0
    side = (left - right) / 2.0
    return MslrSignals(left=left, right=right, mid=mid, side=side, rate=buf.sample_rate)


def merge_mslr(mid: np.ndarray, side: np.ndarray, rate: int) -> AudioBuffer:
    """Inverse of :func:`split_mslr`: left = mid + side, right = mid - side.

    Raises:
        ValueError: on length mismatch.
    """
    mid = np.asarray(mid, dtype=np.float64)
    side = np.asarray(side, dtype=np.float64)
    if mid.shape != side.shape or mid.ndim != 1:
        raise ValueError(f"mid and side must be equal-length 1-D arrays, got {mid.shape} and {side.shape}")
    return AudioBuffer(np.stack([mid + side, mid - side]), rate)


def mslr_spectra(buf: AudioBuffer, config: StftConfig) -> MslrSpectra:
    """STFT all four components of a stereo buffer under one config.

    Mid and side are formed in the time domain before the transform, which
    by linearity matches combining the left/right spectra bin-wise.
    """
    sig = split_mslr(buf)
    rate = buf.sample_rate
    return MslrSpectra(
        l_spec=stft(sig.left, config, rate),
        r_spec=stft(sig.right, config, rate),
        m_spec=stft(sig.mid, config, rate),
        s_spec=stft(sig.side, config, rate),
    )
