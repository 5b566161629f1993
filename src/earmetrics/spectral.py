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

import numpy as np

from . import audio
from .audio import AudioBuffer, StftConfig, _fft_size, _frozen, _overflow_named, _quarter_hop, _stft_blocks
from .phase import _CorrelationSums, _PhaseSums
from .stereo import _channel_pair, _check_stereo_pair
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
    conditioned at the smallest windows.
    """

    fft_sizes: tuple[int, ...] = (4096, 2048, 1024, 512, 256, 128)

    def __post_init__(self) -> None:
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


@lru_cache(maxsize=64, typed=True)  # typed: 8.0 must not hit the entry of 8
def mel_filterbank(n_mels: int, fft_size: int, rate: int) -> np.ndarray:
    """Triangular mel filterbank on the HTK scale, peak gain 1 per band.

    Band edges run from 0 Hz to Nyquist; returns shape
    ``(n_mels, fft_size // 2 + 1)``. Raises ValueError on fewer than one band, an
    ``fft_size`` that is not a power of two >= 2, or a ``rate`` that is not a positive integer.
    """
    if n_mels < 1:
        raise ValueError(f"n_mels must be >= 1, got {n_mels}")
    fft_size, rate = _fft_size(fft_size), audio._positive_rate(rate, "rate")
    edges = _mel_to_hz(np.linspace(0.0, float(_hz_to_mel(rate / 2.0)), n_mels + 2))
    freqs = np.arange(fft_size // 2 + 1) * (rate / fft_size)
    lower = edges[:-2][:, np.newaxis]
    center = edges[1:-1][:, np.newaxis]
    upper = edges[2:][:, np.newaxis]
    rising = (freqs - lower) / (center - lower)
    falling = (upper - freqs) / (upper - center)
    return _frozen(np.clip(np.minimum(rising, falling), 0.0, 1.0))


def _check_length(num_samples: int, cfg: MultiScaleConfig, what: str = "signals") -> None:
    if num_samples < max(cfg.fft_sizes):
        raise ValueError(
            f"{what} of {num_samples} samples too short for the largest analysis window "
            f"({max(cfg.fft_sizes)})"
        )


class _LogL1:
    """Running mean of ``|log(|A| + eps) - log(|B| + eps)|`` over every frame
    and bin of the magnitude blocks it is given, after the mel projection
    ``mel_fb`` if given."""

    def __init__(self, eps: float, mel_fb: np.ndarray | None = None) -> None:
        self.eps, self.mel_fb = eps, mel_fb
        self.total, self.count = 0.0, 0

    def add(self, mag_a: np.ndarray, mag_b: np.ndarray) -> None:
        if self.mel_fb is not None:
            mag_a, mag_b = mag_a @ self.mel_fb.T, mag_b @ self.mel_fb.T
        log_a, log_b = (np.log(x, out=x) for x in (mag_a + self.eps, mag_b + self.eps))
        log_a -= log_b
        self.total += float(np.sum(np.abs(log_a, out=log_a)))
        self.count += log_a.size

    def mean(self) -> float:
        return self.total / self.count


@_overflow_named()
def _multiscale_distance(
    ref_ch: np.ndarray, rec_ch: np.ndarray, cfg: MultiScaleConfig | None, mel_rate: int | None
) -> float:
    """Mean over scales of the log-magnitude L1 distance, through mel bands
    designed at ``mel_rate`` unless it is None."""
    cfg = cfg or MultiScaleConfig()
    pair = _channel_pair(ref_ch, rec_ch)
    _check_length(pair[0].shape[0], cfg)
    per_scale = []
    for i, n in enumerate(cfg.fft_sizes):
        mel_fb = None if mel_rate is None else mel_filterbank(cfg.mel_bins_for(i), n, mel_rate)
        dist = _LogL1(_LOG_EPSILON, mel_fb)
        _stft_blocks(pair, cfg.stft_config(n), lambda a, b: dist.add(np.abs(a), np.abs(b)))
        per_scale.append(dist.mean())
    return float(np.mean(per_scale))


def log_magnitude_distance(
    ref_ch: np.ndarray, rec_ch: np.ndarray, *, cfg: MultiScaleConfig | None = None
) -> float:
    """Mean over scales of the mean L1 distance between log magnitudes.

    Per scale the error is ``mean |log(|S_ref| + eps) - log(|S_rec| + eps)|``
    over all frames and bins, with ``eps = 1e-5``.
    """
    return _multiscale_distance(ref_ch, rec_ch, cfg, None)


def mel_distance(
    ref_ch: np.ndarray,
    rec_ch: np.ndarray,
    rate: int,
    cfg: MultiScaleConfig | None = None,
) -> float:
    """Multi-scale log distance with magnitudes projected through the mel bands of a positive integer ``rate``."""
    return _multiscale_distance(ref_ch, rec_ch, cfg, audio._positive_rate(rate, "rate"))


def _half_abs(x: np.ndarray) -> np.ndarray:
    """``np.abs(x) / 2``, halved in place."""
    mag = np.abs(x)
    mag /= 2
    return mag


@_overflow_named(lambda b: (b.stft_mag, b.corr, b.phase))
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
    their sum and difference, and every term is summed block by block.

    Raises:
        ValueError: on mono, mismatched or non-finite input, finite samples
            so large that a term overflows float64, signals shorter than the
            largest analysis window, or an invalid prefilter name.
    """
    cfg = cfg or MultiScaleConfig()
    _check_stereo_pair(ref, rec, "composite objective")
    _check_length(ref.num_samples, cfg)
    ref, rec = _prefilter_pair(prefilter, ref, rec)
    mag_terms: list[list[float]] = [[], [], [], []]  # mid, side, left, right
    lr_terms: list[list[float]] = [[], [], [], []]  # corr left, corr right, phase left, phase right
    for n in cfg.fft_sizes:
        mag_sums = [_LogL1(_LOG_EPSILON) for _ in mag_terms]
        lr_sums = [_CorrelationSums() for _ in "lr"] + [_PhaseSums() for _ in "lr"]

        def add_block(a_l, a_r, b_l, b_r):
            # the STFT is linear, so mid and side are (a_l +/- a_r) / 2; one such pair at a time
            mag_sums[0].add(_half_abs(a_l + a_r), _half_abs(b_l + b_r))
            mag_sums[1].add(_half_abs(a_l - a_r), _half_abs(b_l - b_r))
            for i, (a, b) in enumerate(((a_l, b_l), (a_r, b_r))):
                mag_a, mag_b = np.abs(a), np.abs(b)  # shared by the three terms
                mag_sums[2 + i].add(mag_a, mag_b)
                lr_sums[i].add(a, b, mag_a, mag_b)
                del mag_b  # released before the phase term's buffers are made
                lr_sums[2 + i].add(a, b, mag_a)
                del mag_a

        _stft_blocks((*ref.samples, *rec.samples), cfg.stft_config(n), add_block)
        for per_scale, sums in zip(mag_terms, mag_sums):
            per_scale.append(sums.mean())
        for per_scale, sums in zip(lr_terms, lr_sums):
            per_scale.append(sums.loss())
    # per component over scales, then over components; all left scales before all right
    stft_mag = float(np.mean([np.mean(v) for v in mag_terms]))
    corr, phase = (float(np.mean(lr_terms[k] + lr_terms[k + 1])) for k in (0, 2))
    lam_mag, lam_corr, lam_phase = (float(v) for v in lambdas)
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
