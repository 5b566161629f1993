"""STFT phase utilities and phase-domain losses.

Phases live in the half-open interval (-pi, pi]. Instantaneous frequency is
the wrapped first difference of phase along time; group delay is the negated
wrapped first difference along frequency. The correlation loss penalizes the
cosine of per-bin phase error, the phase loss the L1 error of both phase
derivatives.

Functions taking spectrograms accept either a
:class:`~earmetrics.audio.ComplexSpectrogram` or a plain complex matrix of
shape ``(frames, bins)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio import ComplexSpectrogram

__all__ = [
    "PhaseLossConfig",
    "wrap_phase",
    "phase_matrix",
    "instantaneous_frequency",
    "group_delay",
    "correlation_loss",
    "phase_loss",
]

_TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class PhaseLossConfig:
    """Options shared by the phase-domain losses.

    ``epsilon`` regularizes magnitude normalizations. With
    ``magnitude_weighting`` the phase loss weights each derivative error by
    the mean reference magnitude of the two bins it spans, normalized to sum
    to one per term.
    """

    epsilon: float = 1e-8
    magnitude_weighting: bool = True
    reduction: str = "mean"

    def __post_init__(self) -> None:
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon!r}")
        if self.reduction != "mean":
            raise ValueError(f"unsupported reduction {self.reduction!r}")


def wrap_phase(x: np.ndarray | float) -> np.ndarray | float:
    """Wrap angles into (-pi, pi]; the boundary -pi maps to +pi."""
    arr = np.asarray(x, dtype=np.float64)
    wrapped = np.asarray(arr - _TWO_PI * np.round(arr / _TWO_PI))
    # rounding can leave a result just outside the interval at either end
    np.add(wrapped, _TWO_PI, out=wrapped, where=wrapped <= -np.pi)
    np.subtract(wrapped, _TWO_PI, out=wrapped, where=wrapped > np.pi)
    if np.ndim(x) == 0:
        return float(wrapped)
    return wrapped


def _bins_of(*specs: ComplexSpectrogram | np.ndarray) -> list[np.ndarray]:
    """Bin matrices of the given spectrograms, which must share one 2-D shape."""
    bins = [s.bins if isinstance(s, ComplexSpectrogram) else np.asarray(s) for s in specs]
    if any(b.ndim != 2 for b in bins) or len({b.shape for b in bins}) != 1:
        raise ValueError(f"spectrograms must be 2-D and of one shape, got {[b.shape for b in bins]}")
    return bins


def phase_matrix(spec: ComplexSpectrogram | np.ndarray) -> np.ndarray:
    """Per-bin phase in (-pi, pi]; zero-magnitude bins read as phase 0."""
    return wrap_phase(np.angle(_bins_of(spec)[0]))


def instantaneous_frequency(phase: np.ndarray) -> np.ndarray:
    """Wrapped forward phase difference along time.

    Input is a ``(frames, bins)`` phase matrix; output has shape
    ``(frames - 1, bins)``.
    """
    phase = np.asarray(phase, dtype=np.float64)
    if phase.ndim != 2 or phase.shape[0] < 2:
        raise ValueError(f"need a 2-D phase matrix with >= 2 frames, got shape {phase.shape}")
    return wrap_phase(np.diff(phase, axis=0))


def group_delay(phase: np.ndarray) -> np.ndarray:
    """Negated wrapped forward phase difference along frequency.

    Input is a ``(frames, bins)`` phase matrix; output has shape
    ``(frames, bins - 1)``.
    """
    phase = np.asarray(phase, dtype=np.float64)
    if phase.ndim != 2 or phase.shape[1] < 2:
        raise ValueError(f"need a 2-D phase matrix with >= 2 bins, got shape {phase.shape}")
    return wrap_phase(-np.diff(phase, axis=1))


def correlation_loss(
    ref: ComplexSpectrogram | np.ndarray,
    rec: ComplexSpectrogram | np.ndarray,
    cfg: PhaseLossConfig | None = None,
) -> float:
    """Mean of ``1 - cos(phase error)`` over all bins, in [0, 2].

    Computed as ``1 - mean(Re(rec * conj(ref) / (|rec| |ref| + epsilon)))``
    so zero-magnitude bins contribute zero correlation rather than NaN.
    """
    cfg = cfg or PhaseLossConfig()
    a, b = _bins_of(ref, rec)
    num = np.real(b * np.conj(a))
    den = np.abs(b) * np.abs(a) + cfg.epsilon
    return float(1.0 - np.mean(num / den))


def _weighted_abs_mean(err: np.ndarray, weights: np.ndarray | None, eps: float) -> float:
    if weights is None:
        return float(np.mean(np.abs(err)))
    return float(np.sum(weights * np.abs(err)) / (np.sum(weights) + eps))


def phase_loss(
    ref: ComplexSpectrogram | np.ndarray,
    rec: ComplexSpectrogram | np.ndarray,
    cfg: PhaseLossConfig | None = None,
) -> float:
    """L1 error of instantaneous frequency plus L1 error of group delay.

    Both terms compare wrapped derivative differences, so the loss is exactly
    zero for identical inputs. It is invariant to a global phase rotation of
    either spectrogram in exact arithmetic; for float64 inputs rotated in
    float64 it is within a few ulp of pi, since the rotation rounds each bin
    and each angle is rounded again. Magnitude weighting (default) weights
    each derivative location by the mean reference magnitude of its two
    parent bins.
    """
    cfg = cfg or PhaseLossConfig()
    a, b = _bins_of(ref, rec)
    if a.shape[0] < 2 or a.shape[1] < 2:
        raise ValueError(f"need >= 2 frames and >= 2 bins, got shape {a.shape}")
    phi_ref = wrap_phase(np.angle(a))
    phi_rec = wrap_phase(np.angle(b))
    d_if = wrap_phase(instantaneous_frequency(phi_rec) - instantaneous_frequency(phi_ref))
    d_gd = wrap_phase(group_delay(phi_rec) - group_delay(phi_ref))
    w_if = w_gd = None
    if cfg.magnitude_weighting:
        mag = np.abs(a)
        w_if = (mag[:-1, :] + mag[1:, :]) / 2.0
        w_gd = (mag[:, :-1] + mag[:, 1:]) / 2.0
    return _weighted_abs_mean(d_if, w_if, cfg.epsilon) + _weighted_abs_mean(d_gd, w_gd, cfg.epsilon)
