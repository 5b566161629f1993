"""Mid/side/left/right decomposition of stereo signals.

Mid and side use the plain averaging convention ``M = (L + R) / 2`` and
``S = (L - R) / 2`` (no energy-preserving sqrt(2) factor), which gives the
energy identity ``||L||^2 + ||R||^2 == 2 * (||M||^2 + ||S||^2)``.
"""

from __future__ import annotations

import numpy as np

from ._inputs import _channel_pair, _check_finite, _overflow_named, _takes
from .audio import AudioBuffer, _frozen

__all__ = [
    "split_mslr",
    "merge_mslr",
]


@_overflow_named("samples", lambda mid_side: mid_side)
def split_mslr(buf: AudioBuffer) -> tuple[np.ndarray, np.ndarray]:
    """Mid and side of a stereo buffer, whose left and right are ``buf.samples``.

    Raises:
        ValueError: on a ``buf`` that is not an AudioBuffer, mono input, a
            NaN or inf sample, or an overflow of float64.
    """
    _takes("split_mslr", (buf, AudioBuffer))
    if buf.channels != 2:
        raise ValueError(f"stereo input required, got {buf.channels} channel(s)")
    _check_finite(buffer=buf.samples)
    left, right = buf.samples
    # summed in float64, which float32 samples are widened to first
    return np.add(left, right, dtype=np.float64) / 2.0, np.subtract(left, right, dtype=np.float64) / 2.0


@_overflow_named("samples", lambda buf: (buf.samples,))
def merge_mslr(mid: np.ndarray, side: np.ndarray, rate: int) -> AudioBuffer:
    """Inverse of :func:`split_mslr`: left = mid + side, right = mid - side.

    Raises:
        ValueError: on samples that are not bool, integer or float, length
            mismatch, a NaN or inf sample, or an overflow of float64.
    """
    mid, side = (np.asarray(x, dtype=np.float64) for x in _channel_pair(mid, side, "mid and side", ("mid", "side")))
    return AudioBuffer(_frozen(np.stack([mid + side, mid - side])), rate)
