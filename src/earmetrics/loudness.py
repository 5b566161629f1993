"""Integrated loudness (LUFS-I) and oversampled true-peak measurement.

Loudness follows the BS.1770/R128 gating recipe: K-weight each channel,
form 400 ms blocks at 75% overlap, drop blocks at or below -70 LUFS, then
drop blocks at or below 10 LU under the ungated mean. True peak upsamples
4x through a 193-tap Kaiser-windowed sinc, run as one polyphase matrix
product per block (the resampler's kernel, ``audio._polyphase_rows``), and
reports the oversampled absolute maximum in dB. A block whose channels are
the same (``audio._same_rows``), as a promoted mono signal's, is measured once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import inf, isfinite, log10

import numpy as np

from . import audio
from ._inputs import _check_finite, _overflow_named, _takes
from .audio import AudioBuffer, _frozen, _Plan, _Polyphase, _polyphase_plan
from .weighting import _CascadeFilter, design_k_weighting

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


def _gating_block(rate: int) -> int:
    """Samples in one 400 ms gating block; a shorter signal has no loudness."""
    return int(round(_BLOCK_SECONDS * rate))


class _Loudness:
    """Integrated loudness of a signal that arrives in ``(channels, k)`` blocks.

    The blocks are gathered into chunks of whole gating steps (a quarter
    block each), about ``_BLOCK_SAMPLES`` samples. Each chunk is K-weighted,
    the filter state carried from chunk to chunk (equal channels as one row),
    and its squares are summed step by step. A 400 ms block's power is then
    four step sums, plus the first ``block - 4 * step`` samples of the step
    after them where that is not 0 (2 at 11025 Hz). Sums over whole steps
    round once per step, not against a running total, and are the same
    however the signal is cut.
    """

    def __init__(self, rate: int, channels: int) -> None:
        self._block = _gating_block(rate)
        self._step = self._block // 4
        self._extra = self._block - 4 * self._step
        self._filter = _CascadeFilter(design_k_weighting(rate), channels)
        self._chunk = np.empty((channels, max(1, audio._BLOCK_SAMPLES // self._step) * self._step))
        self._held = 0
        self._sums: list[np.ndarray] = []  # per step, and of its first _extra samples
        self._heads: list[np.ndarray] = []
        self._samples = 0

    def add(self, x: np.ndarray) -> None:
        self._samples += x.shape[1]
        at = 0
        while at < x.shape[1]:
            take = min(x.shape[1] - at, self._chunk.shape[1] - self._held)
            self._chunk[:, self._held : self._held + take] = x[:, at : at + take]
            self._held += take
            at += take
            if self._held == self._chunk.shape[1]:
                self._measure_chunk()

    def _measure_chunk(self) -> None:
        """Sums of the chunk's whole steps; a last chunk's part step adds only its head."""
        y = self._filter(self._chunk[:, : self._held])
        self._held = 0
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(y, y, out=y)
            y = np.broadcast_to(y, (self._chunk.shape[0], y.shape[1]))  # one filtered row stands for all
            steps = y[:, : y.shape[1] // self._step * self._step].reshape(y.shape[0], -1, self._step)
            self._sums.append(np.add.reduce(steps, axis=2))
            if self._extra:
                self._heads.append(np.add.reduce(steps[:, :, : self._extra], axis=2))
                tail = y[:, steps.shape[1] * self._step :]
                if tail.shape[1] >= self._extra:
                    self._heads.append(np.add.reduce(tail[:, : self._extra], axis=1, keepdims=True))

    def powers(self) -> np.ndarray:
        """The power of every 400 ms block, summed over the channels."""
        if self._held:
            self._measure_chunk()
        count = 1 + (self._samples - self._block) // self._step
        sums = np.concatenate(self._sums, axis=1)
        heads = np.concatenate(self._heads, axis=1) if self._extra else sums
        power = np.zeros(count)
        with np.errstate(over="ignore", invalid="ignore"):
            for s, h in zip(sums, heads):
                total = s[:count] + s[1 : count + 1] + s[2 : count + 2] + s[3 : count + 3]
                if self._extra:
                    total += h[4 : count + 4]
                power += total / self._block
        return power

    def result(self) -> LoudnessResult:
        power = self.powers()
        count = power.shape[0]
        with np.errstate(over="ignore", invalid="ignore"):
            total = power.sum()
        if not isfinite(total):  # checked samples whose power overflows float64: louder than any gate
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


def integrated_lufs(buf: AudioBuffer) -> LoudnessResult:
    """Gated integrated loudness of a mono or stereo buffer.

    Channel weights are 1.0 for both left and right. The buffer is measured
    in chunks of about ``_BLOCK_SAMPLES`` samples, as curation measures a
    file while it streams it, so no temporary grows with the signal, and a
    chunk whose two channels are the same is filtered once.

    Raises:
        ValueError: a ``buf`` that is not an AudioBuffer, duration under
            one 400 ms block (checked first after that), a rate below
            ``MIN_DESIGN_RATE``, or a NaN or inf sample.
    """
    _takes("integrated_lufs", (buf, AudioBuffer))
    rate = buf.sample_rate
    block = _gating_block(rate)
    if buf.num_samples < block:
        raise ValueError(
            f"audio too short for loudness measurement: {buf.num_samples} samples "
            f"< one {block}-sample gating block"
        )
    meter = _Loudness(rate, buf.channels)
    _check_finite(buffer=buf.samples)
    meter.add(buf.samples)
    return meter.result()


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


class _TruePeak:
    """The 4x true peaks of the channels of an ``n``-sample signal that
    arrives in ``(channels, k)`` slices: the blocks of the oversampling
    product go into one reused array, and only each block's absolute maximum
    is kept."""

    def __init__(self, n: int, channels: int) -> None:
        plan = _true_peak_plan()
        rows = -(-(_TP_FACTOR * (n - 1) + _TP_TAPS_TOTAL) // plan[0])
        self._product = _Polyphase(plan, n, rows)
        self._y = np.empty((0, plan[0]))
        self.peaks = [0.0] * channels

    def add(self, x: np.ndarray) -> None:
        self._product.push(x)
        for r0, r1 in self._product.ready():
            if self._y.shape[0] < r1 - r0:
                self._y = np.empty((r1 - r0, self._y.shape[1]))
            block = self._y[: r1 - r0]
            # channels that read the same samples, such as a mono signal promoted to stereo, are one row
            same = self._product.same_inputs(r0, r1)
            for c in range(len(self.peaks)):
                if c == 0 or not same:
                    self._product.rows(c, r0, block)
                    block_peak = float(np.abs(block, out=block).max())
                    # samples are checked where they enter: a NaN or inf is an overflow, or a stored inf
                    block_peak = block_peak if isfinite(block_peak) else inf
                self.peaks[c] = max(self.peaks[c], block_peak)

    def dbtp(self) -> list[float]:
        return [20.0 * log10(peak) if peak > 0.0 else SILENCE_FLOOR_DBTP for peak in self.peaks]


def true_peak_dbtp(buf: AudioBuffer) -> TruePeakResult:
    """True peak via 4x polyphase oversampling.

    Oversampled sample ``k`` is ``sum_n taps[k - 4 * n] * x[n]``, the full
    convolution of the zero-stuffed channel with the filter, so peaks near
    the boundaries are seen. It runs as blocked matrix products (see
    ``audio._polyphase_rows``), the blocks curation streams, into one reused
    block array, keeping only each block's absolute maximum. Digital silence
    reports the floor value ``SILENCE_FLOOR_DBTP``, and finite samples whose
    oversampled values overflow float64 report ``+inf``.

    Raises:
        ValueError: on a ``buf`` that is not an AudioBuffer, an empty buffer
            or one holding NaN or inf samples.
    """
    _takes("true_peak_dbtp", (buf, AudioBuffer))
    if buf.num_samples == 0:
        raise ValueError("cannot measure true peak of an empty buffer")
    _check_finite(buffer=buf.samples)
    meter = _TruePeak(buf.num_samples, buf.channels)
    meter.add(buf.samples)
    per_channel = meter.dbtp()
    return TruePeakResult(dbtp=max(per_channel), per_channel=tuple(per_channel))


@_overflow_named("samples")
def dbtp_distance(ref: AudioBuffer, rec: AudioBuffer) -> float:
    """Absolute difference of the two signals' true peaks in dB.

    Raises:
        ValueError: on arguments that are not AudioBuffers, an empty buffer,
            NaN or inf samples, or finite samples whose oversampled values
            overflow float64 (a true peak of ``+inf``).
    """
    _takes("dbtp_distance", (ref, AudioBuffer), (rec, AudioBuffer))
    return abs(true_peak_dbtp(ref).dbtp - true_peak_dbtp(rec).dbtp)
