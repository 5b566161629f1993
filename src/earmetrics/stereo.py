"""Mid/side/left/right decomposition of stereo signals.

Mid and side use the plain averaging convention ``M = (L + R) / 2`` and
``S = (L - R) / 2`` (no energy-preserving sqrt(2) factor), which gives the
energy identity ``||L||^2 + ||R||^2 == 2 * (||M||^2 + ||S||^2)``.
"""

from __future__ import annotations

import numpy as np

from . import audio
from .audio import AudioBuffer, _frozen, _overflow_named, _sample_array

__all__ = [
    "split_mslr",
    "merge_mslr",
]


def _check_finite(ref: np.ndarray, rec: np.ndarray) -> None:
    for name, x in (("reference", ref), ("reconstruction", rec)):
        audio._check_finite(x, name)


def _channel_pair(ref_ch: np.ndarray, rec_ch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both channels as sample arrays (float32 kept, anything else float64),
    checked to be equal-length, 1-D and finite."""
    a, b = _sample_array(ref_ch), _sample_array(rec_ch)
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


@_overflow_named(lambda mid_side: mid_side)
def split_mslr(buf: AudioBuffer) -> tuple[np.ndarray, np.ndarray]:
    """Mid and side of a stereo buffer, whose left and right are ``buf.samples``.

    Raises:
        ValueError: on mono input, a NaN or inf sample, or an overflow of float64.
    """
    if buf.channels != 2:
        raise ValueError(f"stereo input required, got {buf.channels} channel(s)")
    audio._check_finite(buf.samples, "buffer")
    left, right = buf.samples
    # summed in float64, which float32 samples are widened to first
    return np.add(left, right, dtype=np.float64) / 2.0, np.subtract(left, right, dtype=np.float64) / 2.0


@_overflow_named(lambda buf: (buf.samples,))
def merge_mslr(mid: np.ndarray, side: np.ndarray, rate: int) -> AudioBuffer:
    """Inverse of :func:`split_mslr`: left = mid + side, right = mid - side.

    Raises:
        ValueError: on samples that are not bool, integer or float, length
            mismatch, a NaN or inf sample, or an overflow of float64.
    """
    mid = np.asarray(_sample_array(mid), dtype=np.float64)
    side = np.asarray(_sample_array(side), dtype=np.float64)
    if mid.shape != side.shape or mid.ndim != 1:
        raise ValueError(f"mid and side must be equal-length 1-D arrays, got {mid.shape} and {side.shape}")
    audio._check_finite(mid, "mid")
    audio._check_finite(side, "side")
    return AudioBuffer(_frozen(np.stack([mid + side, mid - side])), rate)
