"""Integrated loudness (LUFS-I) and oversampled true-peak measurement.

Loudness follows the BS.1770/R128 gating recipe: K-weight each channel,
form 400 ms blocks at 75% overlap, drop blocks at or below -70 LUFS, then
drop blocks at or below 10 LU under the ungated mean. True peak upsamples
4x through a 193-tap Kaiser-windowed sinc, run as one polyphase matrix
product per block (the resampler's kernel, ``audio._polyphase_rows``), and
reports the oversampled absolute maximum in dB. Two equal channels, such as
a mono signal promoted to stereo, are one row, and both measures take it once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import inf, isfinite, log10

import numpy as np

from .audio import AudioBuffer, _frozen, _non_finite, _Plan
from .audio import _polyphase_blocks, _polyphase_plan, _polyphase_rows
from .weighting import apply_cascade, design_k_weighting

__all__ = [
    "LoudnessResult",
    "TruePeakResult",
    "integrated_lufs",
    "true_peak_dbtp",
    "dbtp_distance",
    "SILENCE_FLOOR_DBTP",
]

# Offset that calibrates a 997 Hz full-scale sine to -3.01 LUFS.
_LOUDNESS_OFFSET_DB = -0.691
_ABSOLUTE_GATE_LUFS = -70.0
_RELATIVE_GATE_LU = 10.0
_BLOCK_SECONDS = 0.4

SILENCE_FLOOR_DBTP = -200.0

_TP_FACTOR = 4
_TP_TAPS_TOTAL = 193  # polyphase branches of 49/48/48/48 taps
_TP_KAISER_BETA = 12.0


@dataclass(frozen=True)
class LoudnessResult:
    """Integrated loudness and the block counts behind it.

    ``lufs_i`` is ``-inf`` with no gated block when every block falls below
    the absolute gate (digital silence), and ``+inf`` with every block gated
    when the K-weighted power of finite samples overflows float64.
    """

    lufs_i: float
    gated_block_count: int
    ungated_block_count: int


@dataclass(frozen=True)
class TruePeakResult:
    """True peak in dBTP overall and per channel."""

    dbtp: float
    per_channel: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "per_channel", tuple(float(v) for v in self.per_channel))
        if self.per_channel and self.dbtp != max(self.per_channel):
            raise ValueError("dbtp must equal the per-channel maximum")


def _distinct_rows(samples: np.ndarray) -> list[tuple[np.ndarray, int]]:
    """Each distinct row of ``samples`` with the number of channels it stands
    for: two equal rows (a mono signal promoted to stereo, as a stride-0 view
    or a copy of one) are one row, twice."""
    if samples.shape[0] > 1 and (samples.strides[0] == 0 or np.array_equal(samples[0], samples[1])):
        return [(samples[0], samples.shape[0])]
    return [(row, 1) for row in samples]


def _block_mean_squares(channel: np.ndarray, block: int, step: int, count: int) -> np.ndarray:
    csum = np.concatenate([[0.0], np.cumsum(channel * channel)])
    starts = step * np.arange(count)
    return (csum[starts + block] - csum[starts]) / block


def _gating_block(rate: int) -> int:
    """Samples in one 400 ms gating block; a shorter signal has no loudness."""
    return int(round(_BLOCK_SECONDS * rate))


def integrated_lufs(buf: AudioBuffer) -> LoudnessResult:
    """Gated integrated loudness of a mono or stereo buffer.

    Channel weights are 1.0 for both left and right.

    Raises:
        ValueError: duration under one 400 ms block (checked first), a rate
            below ``MIN_DESIGN_RATE``, or a NaN or inf sample.
    """
    rate = buf.sample_rate
    block = _gating_block(rate)
    step = block // 4
    if buf.num_samples < block:
        raise ValueError(
            f"audio too short for loudness measurement: {buf.num_samples} samples "
            f"< one {block}-sample gating block"
        )
    cascade = design_k_weighting(rate)
    count = 1 + (buf.num_samples - block) // step
    power = np.zeros(count)
    with np.errstate(over="ignore", invalid="ignore"):
        for row, copies in _distinct_rows(buf.samples):
            weighted = apply_cascade(cascade, AudioBuffer(row, rate)).samples[0]
            # feedback carries a NaN or inf sample, or an overflow of finite input, to the last output
            if not isfinite(weighted[-1]) and not np.isfinite(row).all():
                raise _non_finite("buffer")
            msq = _block_mean_squares(weighted, block, step, count)
            for _ in range(copies):
                power += msq
        total = power.sum()
    if not isfinite(total):  # finite samples whose power overflows float64: louder than any gate
        return LoudnessResult(float("inf"), count, count)
    with np.errstate(divide="ignore"):
        block_loudness = _LOUDNESS_OFFSET_DB + 10.0 * np.log10(power)
    above_absolute = block_loudness > _ABSOLUTE_GATE_LUFS
    if not above_absolute.any():
        return LoudnessResult(float("-inf"), 0, count)
    relative_gate = (
        _LOUDNESS_OFFSET_DB + 10.0 * log10(power[above_absolute].mean()) - _RELATIVE_GATE_LU
    )
    gated = above_absolute & (block_loudness > relative_gate)
    if not gated.any():
        return LoudnessResult(float("-inf"), 0, count)
    lufs = _LOUDNESS_OFFSET_DB + 10.0 * log10(power[gated].mean())
    return LoudnessResult(float(lufs), int(gated.sum()), count)


@lru_cache(maxsize=1)
def _true_peak_taps() -> np.ndarray:
    """Low-pass at the original Nyquist, scaled to a DC gain of 4 so the
    zero-stuffed signal keeps unity passband gain."""
    m = np.arange(_TP_TAPS_TOTAL) - (_TP_TAPS_TOTAL - 1) / 2
    taps = np.sinc(m / _TP_FACTOR) / _TP_FACTOR * np.kaiser(_TP_TAPS_TOTAL, _TP_KAISER_BETA)
    return _frozen(taps / taps.sum() * _TP_FACTOR)


@lru_cache(maxsize=1)
def _true_peak_plan() -> _Plan:
    """The full convolution as one matrix: a row sums 72 inputs into 96 outputs."""
    return _polyphase_plan(_true_peak_taps(), _TP_FACTOR, 1, 0)


def true_peak_dbtp(buf: AudioBuffer) -> TruePeakResult:
    """True peak via 4x polyphase oversampling.

    Oversampled sample ``k`` is ``sum_n taps[k - 4 * n] * x[n]``, the full
    convolution of the zero-stuffed channel with the filter, so peaks near
    the boundaries are seen. It runs as blocked matrix products (see
    ``audio._polyphase_rows``) into one reused block array, keeping only
    each block's absolute maximum. Digital silence reports the floor value
    ``SILENCE_FLOOR_DBTP``, and finite samples whose oversampled values
    overflow float64 report ``+inf``.

    Raises:
        ValueError: on an empty buffer or one holding NaN or inf samples.
    """
    if buf.num_samples == 0:
        raise ValueError("cannot measure true peak of an empty buffer")
    plan = _true_peak_plan()
    rows = -(-(_TP_FACTOR * (buf.num_samples - 1) + _TP_TAPS_TOTAL) // plan[0])
    blocks = _polyphase_blocks(buf.num_samples, plan, rows)
    y = np.empty((max(r1 - r0 for r0, r1 in blocks), plan[0]))
    per_channel = []
    for row, copies in _distinct_rows(buf.samples):
        peak = 0.0
        for r0, r1 in blocks:
            block = y[: r1 - r0]
            _polyphase_rows(row, plan, r0, block)
            block_peak = float(np.abs(block, out=block).max())
            # the rows read finite samples only, so a NaN or inf is an overflow of their sums
            peak = max(peak, block_peak if isfinite(block_peak) else inf)
        per_channel += [20.0 * log10(peak) if peak > 0.0 else SILENCE_FLOOR_DBTP] * copies
    return TruePeakResult(dbtp=max(per_channel), per_channel=tuple(per_channel))


def dbtp_distance(ref: AudioBuffer, rec: AudioBuffer) -> float:
    """Absolute difference of the two signals' true peaks in dB."""
    return abs(true_peak_dbtp(ref).dbtp - true_peak_dbtp(rec).dbtp)
