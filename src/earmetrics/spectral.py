"""Multi-scale magnitude distances and the composite reconstruction objective.

Distances average an L1 log-magnitude error over a bank of STFT resolutions
(quarter-window hop at every scale). The composite objective combines the
log-magnitude term over mid/side/left/right, whose mid and side spectra are
taken from the left/right ones by linearity, with the correlation and phase
losses over left/right only, under weights defaulting to (50, 10, 10).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache
from math import fsum

import numpy as np

from ._inputs import _channel_pair, _check_stereo_pair, _fft_size, _overflow_named, _positive_rate, _takes
from .audio import AudioBuffer, StftConfig, _frozen, _quarter_hop, _stft_blocks
from .phase import _CorrelationSums, _FrameSums, _PhaseSums
from .weighting import _prefilter_pair

__all__ = [
    "MultiScaleConfig",
    "ObjectiveBreakdown",
    "DEFAULT_LAMBDAS",
    "mel_filterbank",
    "log_magnitude_distance",
    "mel_distance",
    "composite_objective",
]

DEFAULT_LAMBDAS = (50.0, 10.0, 10.0)
_LOG_EPSILON = 1e-5  # keeps the log of a silent bin finite


@dataclass(frozen=True)
class MultiScaleConfig:
    """Resolution bank for the multi-scale distances.

    Every scale hops a quarter of its window and uses
    ``min(128, fft_size // 8)`` mel bands, which keeps the filterbank well
    conditioned at the smallest windows; a size under 8 has no mel band, so
    only the log-magnitude distance and the objective take it. ``fft_sizes``
    that is not a non-empty sequence of powers of two >= 2 raises ValueError.
    """

    fft_sizes: tuple[int, ...] = (4096, 2048, 1024, 512, 256, 128)

    def __post_init__(self) -> None:
        if isinstance(self.fft_sizes, str) or not np.iterable(self.fft_sizes):
            raise ValueError(f"fft_sizes must be a sequence of fft sizes, got {self.fft_sizes!r}")
        sizes = tuple(_fft_size(n) for n in self.fft_sizes)
        if not sizes:
            raise ValueError("fft_sizes must be non-empty")
        object.__setattr__(self, "fft_sizes", sizes)

    @staticmethod
    def hop_for(fft_size: int) -> int:
        return _quarter_hop(fft_size)

    def mel_bins_for(self, scale_index: int) -> int:
        return min(128, self.fft_sizes[scale_index] // 8)

    @staticmethod
    def stft_config(fft_size: int) -> StftConfig:
        return StftConfig(fft_size)


@dataclass(frozen=True)
class ObjectiveBreakdown:
    """Components of the composite objective and their weighted total."""

    stft_mag: float
    corr: float
    phase: float
    weighted_total: float
    lambda_stft_mag: float
    lambda_corr: float
    lambda_phase: float
    prefilter: str

    def as_dict(self) -> dict:
        """The fields in declaration order."""
        return asdict(self)


def _hz_to_mel(f: np.ndarray | float) -> np.ndarray:
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def _mel_to_hz(m: np.ndarray | float) -> np.ndarray:
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(n_mels: int, fft_size: int, rate: int) -> np.ndarray:
    """Triangular mel filterbank on the HTK scale, peak gain 1 per band.

    Band edges run from 0 Hz to Nyquist; returns shape
    ``(n_mels, fft_size // 2 + 1)``. Raises ValueError on an ``n_mels`` that is not an
    integer, fewer than one band, an ``fft_size`` that is not a power of two >= 2, or a
    ``rate`` that is not a positive integer.
    """
    if not isinstance(n_mels, (int, np.integer)):
        raise ValueError(f"n_mels must be an integer, got {n_mels!r}")
    if n_mels < 1:
        raise ValueError(f"n_mels must be >= 1, got {n_mels}")
    # checked before the cache, which keys on the checked ints
    return _filterbank(int(n_mels), _fft_size(fft_size), _positive_rate(rate, "rate"))


@lru_cache(maxsize=64)
def _filterbank(n_mels: int, fft_size: int, rate: int) -> np.ndarray:
    """The read-only :func:`mel_filterbank` of checked arguments."""
    edges = _mel_to_hz(np.linspace(0.0, float(_hz_to_mel(rate / 2.0)), n_mels + 2))
    freqs = np.arange(fft_size // 2 + 1) * (rate / fft_size)
    lower = edges[:-2][:, np.newaxis]
    center = edges[1:-1][:, np.newaxis]
    upper = edges[2:][:, np.newaxis]
    rising = (freqs - lower) / (center - lower)
    falling = (upper - freqs) / (upper - center)
    return _frozen(np.clip(np.minimum(rising, falling), 0.0, 1.0))


_BAND_GROUP = 8  # mel bands multiplied together over the bins they span


class _MelBands:
    """The mel projection of one scale, banded: each group of ``_BAND_GROUP``
    consecutive bands is multiplied only over the bins its weights span.

    A triangle spans a short run of bins (98.5% of the filterbank's entries at
    4096 are zero), so ``mag @ mel_filterbank(...).T`` mostly multiplies
    zeros. ``groups`` holds, per group with a non-zero weight, its first band,
    the indices of its bin span ``[j0, j1)`` and of its bands along the last
    axis, and its ``(j1 - j0, bands)`` weights; a band with no bin, and a
    group with no weight, stays a zero column.
    """

    def __init__(self, fb: np.ndarray) -> None:
        self.n_mels = fb.shape[0]
        groups = []
        for b0 in range(0, self.n_mels, _BAND_GROUP):
            block = fb[b0 : b0 + _BAND_GROUP]
            spanned = np.flatnonzero(block.any(axis=0))
            if spanned.size:
                bins = (..., slice(int(spanned[0]), int(spanned[-1]) + 1))
                bands = (..., slice(b0, b0 + block.shape[0]))
                groups.append((b0, bins, bands, _frozen(block[:, bins[1]].T.copy())))
        self.groups = tuple(groups)

    def project(self, mag: np.ndarray) -> np.ndarray:
        """``mag @ fb.T`` for a ``(..., frames, bins)`` block of magnitudes: each group's
        product runs once over a stack of blocks, with the bits of each block's own."""
        out = np.zeros((*mag.shape[:-1], self.n_mels))
        for _, bins, bands, w in self.groups:
            np.matmul(mag[bins], w, out=out[bands])
        return out


@lru_cache(maxsize=64)
def _banded(n_mels: int, fft_size: int, rate: int) -> _MelBands:
    # the dense bank is built uncached: the plan keeps 7% of its bytes at 44.1 kHz
    return _MelBands(_filterbank.__wrapped__(n_mels, fft_size, rate))


def _mel_bands(cfg: MultiScaleConfig, rate: int) -> list[_MelBands]:
    """The banded mel projection of every scale of ``cfg`` at ``rate``, looked up
    before any STFT runs. Raises a ValueError naming a scale with no mel band."""
    bands = []
    for i, n in enumerate(cfg.fft_sizes):
        if cfg.mel_bins_for(i) < 1:
            raise ValueError(f"mel bands need fft sizes >= 8, got {n}")
        bands.append(_banded(cfg.mel_bins_for(i), n, rate))
    return bands


def _check_length(num_samples: int, cfg: MultiScaleConfig, what: str = "signals") -> None:
    if num_samples < max(cfg.fft_sizes):
        raise ValueError(
            f"{what} of {num_samples} samples too short for the largest analysis window "
            f"({max(cfg.fft_sizes)})"
        )


class _LogL1:
    """Per-frame sums of ``|log(A + eps) - log(B + eps)|`` over the bins of the
    blocks of magnitudes (or of their mel projections) it is given, and the
    count of terms. The consumer adds the rows up with :class:`_FrameSums`."""

    def __init__(self, eps: float) -> None:
        self.eps = eps
        self.count = 0

    def add(self, mag_a: np.ndarray, mag_b: np.ndarray, out: np.ndarray) -> None:
        """Write each frame's sum into the row ``out``."""
        log_a, log_b = mag_a + self.eps, mag_b + self.eps
        np.log(log_a, out=log_a)
        log_a -= np.log(log_b, out=log_b)
        np.add.reduce(np.abs(log_a, out=log_a), axis=-1, out=out)
        self.count += log_a.size

    def mean(self, total: float) -> float:
        """The mean from the total of every row written."""
        return total / self.count


def _magnitudes(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``|a|`` and ``|b|`` of two blocks of bins, stacked, so that a mel
    projection runs once over both."""
    mags = np.empty((2, *a.shape))
    np.abs(a, out=mags[0])
    np.abs(b, out=mags[1])
    return mags


@_overflow_named("samples")
def _multiscale_distance(
    fn: str, ref_ch: np.ndarray, rec_ch: np.ndarray, cfg: MultiScaleConfig | None, mel_rate: int | None
) -> float:
    """Mean over scales of the log-magnitude L1 distance, through mel bands
    designed at ``mel_rate`` unless it is None; ``fn`` names the caller."""
    cfg = MultiScaleConfig() if cfg is None else cfg
    _takes(fn, (cfg, MultiScaleConfig))
    pair = _channel_pair(ref_ch, rec_ch)
    _check_length(pair[0].shape[0], cfg)
    mels = [None] * len(cfg.fft_sizes) if mel_rate is None else _mel_bands(cfg, mel_rate)
    per_scale = []
    for n, mel in zip(cfg.fft_sizes, mels):
        dist, sums = _LogL1(_LOG_EPSILON), _FrameSums(1)

        def add_block(a, b):
            rows = np.empty((1, a.shape[0]))
            mags = _magnitudes(a, b)
            dist.add(*(mags if mel is None else mel.project(mags)), rows[0])
            sums.add(rows)

        _stft_blocks(pair, cfg.stft_config(n), add_block)
        per_scale.append(dist.mean(*sums.totals()))
    return float(np.mean(per_scale))


def log_magnitude_distance(
    ref_ch: np.ndarray, rec_ch: np.ndarray, *, cfg: MultiScaleConfig | None = None
) -> float:
    """Mean over scales of the mean L1 distance between log magnitudes.

    Per scale the error is ``mean |log(|S_ref| + eps) - log(|S_rec| + eps)|``
    over all frames and bins, with ``eps = 1e-5``.

    Raises:
        ValueError: on a ``cfg`` that is not a MultiScaleConfig or None,
            channels that are not equal-length 1-D arrays of finite samples
            or are shorter than the largest window, or finite samples so
            large that the distance overflows float64.
    """
    return _multiscale_distance("log_magnitude_distance", ref_ch, rec_ch, cfg, None)


def mel_distance(
    ref_ch: np.ndarray,
    rec_ch: np.ndarray,
    rate: int,
    cfg: MultiScaleConfig | None = None,
) -> float:
    """Multi-scale log distance with magnitudes projected through the mel bands of a positive integer ``rate``.

    Raises:
        ValueError: on a ``rate`` that is not a positive integer, a ``cfg``
            with an fft size under 8 (no mel band), and as
            :func:`log_magnitude_distance` does.
    """
    return _multiscale_distance("mel_distance", ref_ch, rec_ch, cfg, _positive_rate(rate, "rate"))


def _half_abs(x: np.ndarray) -> np.ndarray:
    """``np.abs(x) / 2``, halved in place."""
    mag = np.abs(x)
    mag /= 2
    return mag


@_overflow_named("samples", lambda b: (b.stft_mag, b.corr, b.phase))
def composite_objective(
    ref: AudioBuffer,
    rec: AudioBuffer,
    cfg: MultiScaleConfig | None = None,
    prefilter: str = "none",
    lambdas: tuple[float, float, float] = DEFAULT_LAMBDAS,
) -> ObjectiveBreakdown:
    """Weighted reconstruction objective over a stereo pair.

    The log-magnitude term averages over the mid, side, left, and right
    components; the correlation and phase terms average over left and right
    only, across every scale of ``cfg``. An optional pre-filter (``"k"`` or
    ``"a"``) is applied to both signals before any analysis. Each scale is one
    pass over blocks of left/right frames; the mid and side spectra are half
    their sum and difference. Every term is summed over frames on the frame
    grid, and the terms over scales and channels with ``math.fsum``, so the
    values depend neither on the block size nor on the order of left and right.

    Raises:
        ValueError: on arguments other than two AudioBuffers and a
            MultiScaleConfig or None, ``lambdas`` that are not three finite numbers,
            mono, mismatched or non-finite input, finite samples so large
            that a term overflows float64, signals shorter than the largest
            analysis window, or an invalid prefilter name.
    """
    cfg = MultiScaleConfig() if cfg is None else cfg
    _takes("composite_objective", (ref, AudioBuffer), (rec, AudioBuffer), (cfg, MultiScaleConfig))
    try:
        lam_mag, lam_corr, lam_phase = (float(v) for v in lambdas)
    except (TypeError, ValueError):
        raise ValueError(f"lambdas must be three numbers, got {lambdas!r}") from None
    if not np.isfinite((lam_mag, lam_corr, lam_phase)).all():
        raise ValueError(f"lambdas must be finite, got {lambdas!r}")
    _check_stereo_pair(ref, rec, "composite objective")
    _check_length(ref.num_samples, cfg)
    ref, rec = _prefilter_pair(prefilter, ref, rec)
    mag_terms, corr_terms, phase_terms = [], [], []
    for n in cfg.fft_sizes:
        mags = [_LogL1(_LOG_EPSILON) for _ in "msLR"]  # mid, side, left, right
        corrs, phases = [_CorrelationSums() for _ in "lr"], [_PhaseSums() for _ in "lr"]
        sums = _FrameSums(14)  # rows: 4 magnitude terms, 2 correlation terms, 2 x 4 phase sums

        def add_block(a_l, a_r, b_l, b_r):
            rows = np.empty((14, a_l.shape[0]))
            # the STFT is linear, so mid and side are (a_l +/- a_r) / 2; one such pair at a time
            mags[0].add(_half_abs(a_l + a_r), _half_abs(b_l + b_r), rows[0])
            mags[1].add(_half_abs(a_l - a_r), _half_abs(b_l - b_r), rows[1])
            for i, (a, b) in enumerate(((a_l, b_l), (a_r, b_r))):
                mag_a, mag_b = np.abs(a), np.abs(b)  # shared by the three terms
                mags[2 + i].add(mag_a, mag_b, rows[2 + i])
                corrs[i].add(a, b, mag_a, mag_b, rows[4 + i])
                del mag_b  # released before the phase term's buffers are made
                phases[i].add(a, b, mag_a, rows[6 + 4 * i : 10 + 4 * i])
                del mag_a
            sums.add(rows)

        _stft_blocks((*ref.samples, *rec.samples), cfg.stft_config(n), add_block)
        totals = sums.totals()
        mag_terms += [m.mean(t) for m, t in zip(mags, totals)]
        corr_terms += [c.loss(t) for c, t in zip(corrs, totals[4:])]
        phase_terms += [phases[i].loss(totals[6 + 4 * i : 10 + 4 * i]) for i in (0, 1)]
    # every component and scale weighs the same; fsum's exactly rounded sums do not depend on their order
    stft_mag, corr, phase = (fsum(terms) / len(terms) for terms in (mag_terms, corr_terms, phase_terms))
    total = lam_mag * stft_mag + lam_corr * corr + lam_phase * phase
    return ObjectiveBreakdown(
        stft_mag=stft_mag,
        corr=corr,
        phase=phase,
        weighted_total=total,
        lambda_stft_mag=lam_mag,
        lambda_corr=lam_corr,
        lambda_phase=lam_phase,
        prefilter=prefilter,
    )
