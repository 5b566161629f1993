"""STFT phase utilities and phase-domain losses.

Phases live in the half-open interval (-pi, pi]. Instantaneous frequency is
the wrapped first difference of phase along time; group delay is the negated
wrapped first difference along frequency. The correlation loss penalizes the
cosine of per-bin phase error, the phase loss the L1 error of both phase
derivatives. Spectrograms are complex matrices of shape ``(frames, bins)``.
The losses here and ICPC/CCPC of spectra raise ValueError on non-finite
bins, and on finite bins so large that a result overflows float64.
"""

from __future__ import annotations

from functools import wraps

import numpy as np

__all__ = [
    "wrap_phase",
    "phase_matrix",
    "instantaneous_frequency",
    "group_delay",
    "correlation_loss",
    "phase_loss",
]

_TWO_PI = 2.0 * np.pi
_EPSILON = 1e-8  # regularizes the correlation loss's denominators and the phase loss's weight sums


def wrap_phase(x: np.ndarray | float) -> np.ndarray | float:
    """Wrap angles into (-pi, pi]; the boundary -pi maps to +pi, and NaN or inf to NaN."""
    arr = np.asarray(x, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        wrapped = np.asarray(arr - _TWO_PI * np.round(arr / _TWO_PI))
    # rounding can leave a result just outside the interval at either end
    np.add(wrapped, _TWO_PI, out=wrapped, where=wrapped <= -np.pi)
    np.subtract(wrapped, _TWO_PI, out=wrapped, where=wrapped > np.pi)
    if np.ndim(x) == 0:
        return float(wrapped)
    return wrapped


def _bins_of(*specs: np.ndarray) -> list[np.ndarray]:
    """The given spectrograms as arrays, checked numeric, finite and of one 2-D shape."""
    bins = [np.asarray(s) for s in specs]
    if any(b.ndim != 2 for b in bins) or len({b.shape for b in bins}) != 1:
        got = [b.shape if b.ndim else type(s).__name__ for b, s in zip(bins, specs)]
        raise ValueError(f"spectrograms must be 2-D arrays of one shape, got {got}")
    bad = [i for i, b in enumerate(bins, 1) if b.dtype.kind not in "biufc"]
    if bad:
        raise ValueError(f"spectrograms must hold numeric bins; those at positions {bad} do not")
    bad = [i for i, b in enumerate(bins, 1) if not np.isfinite(b).all()]
    if bad:
        raise ValueError(f"spectrograms must hold finite bins; those at positions {bad} do not")
    return bins


def _spectra_overflow_named(fn):
    """Decorator: run a metric of spectra checked by :func:`_bins_of` with numpy's
    overflow warnings off; a NaN or inf value can only be an overflow, so raise."""

    @wraps(fn)
    def checked(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore"):
            value = fn(*args, **kwargs)
        if not np.isfinite(value):
            raise ValueError("spectra are too large for the metrics to stay finite in float64")
        return value

    return checked


def phase_matrix(spec: np.ndarray) -> np.ndarray:
    """Per-bin phase in (-pi, pi]; zero-magnitude bins read as phase 0."""
    return wrap_phase(np.angle(_bins_of(spec)[0]))


def _wrapped_diff(x: np.ndarray, axis: int) -> np.ndarray:
    """Wrapped forward difference of a 2-D phase matrix along ``axis``; NaN where not finite."""
    if x.ndim != 2 or x.shape[axis] < 2:
        raise ValueError(f"need a 2-D phase matrix with >= 2 {('frames', 'bins')[axis]}, got shape {x.shape}")
    # what np.diff computes, without its per-call overhead (it runs once per block)
    with np.errstate(over="ignore", invalid="ignore"):
        return wrap_phase(x[1:] - x[:-1] if axis == 0 else x[:, 1:] - x[:, :-1])


def instantaneous_frequency(phase: np.ndarray) -> np.ndarray:
    """Wrapped forward phase difference along time.

    Input is a ``(frames, bins)`` phase matrix; output has shape
    ``(frames - 1, bins)``.
    """
    return _wrapped_diff(np.asarray(phase, dtype=np.float64), axis=0)


def group_delay(phase: np.ndarray) -> np.ndarray:
    """Negated wrapped forward phase difference along frequency.

    Input is a ``(frames, bins)`` phase matrix; output has shape
    ``(frames, bins - 1)``.
    """
    return _wrapped_diff(-np.asarray(phase, dtype=np.float64), axis=1)


class _CorrelationSums:
    """Running sum of ``Re(rec * conj(ref)) / (|rec| |ref| + epsilon)`` and its
    bin count over the blocks of frames and their magnitudes it is given."""

    def __init__(self) -> None:
        self.total, self.count = 0.0, 0

    def add(self, a: np.ndarray, b: np.ndarray, mag_a: np.ndarray, mag_b: np.ndarray) -> None:
        num = np.real(b * np.conj(a))
        den = mag_b * mag_a + _EPSILON
        self.total += float(np.sum(num / den))
        self.count += num.size

    def loss(self) -> float:
        return 1.0 - self.total / self.count


@_spectra_overflow_named
def correlation_loss(ref: np.ndarray, rec: np.ndarray) -> float:
    """Mean of ``1 - cos(phase error)`` over all bins, in [0, 2].

    Computed as ``1 - mean(Re(rec * conj(ref) / (|rec| |ref| + 1e-8)))``
    so zero-magnitude bins contribute zero correlation rather than NaN.
    Spectrograms without a bin, such as ``(0, bins)``, raise ValueError.
    """
    sums = _CorrelationSums()
    a, b = _bins_of(ref, rec)
    if not a.size:
        raise ValueError(f"correlation loss needs at least one bin, got empty spectrograms of shape {a.shape}")
    sums.add(a, b, np.abs(a), np.abs(b))
    return sums.loss()


def _abs_sums(d: np.ndarray, mag: np.ndarray, axis: int) -> tuple[float, float]:
    """Sum of ``w * |d|`` and of ``w``, where ``w`` is the mean magnitude of the
    two bins each difference along ``axis`` spans."""
    w = (mag[:-1, :] + mag[1:, :]) / 2.0 if axis == 0 else (mag[:, :-1] + mag[:, 1:]) / 2.0
    return float(np.sum(w * np.abs(d))), float(np.sum(w))


class _PhaseSums:
    """Sums behind :func:`phase_loss` over consecutive blocks of frames.

    Each block comes with its reference magnitudes, which weight the errors.
    The IF error of a block's first frame is taken against the last frame of
    the block before it, whose phase error and magnitude are carried over as
    a one-frame halo.
    """

    def __init__(self) -> None:
        self.sums = np.zeros(4)  # IF error, IF weight, GD error, GD weight
        self.halo: tuple[np.ndarray, np.ndarray] | None = None

    def add(self, a: np.ndarray, b: np.ndarray, mag_a: np.ndarray) -> None:
        # wrap(wrap(x) - wrap(y)) == wrap(x - y) and |wrap(-d)| == |wrap(d)|
        err = np.angle(b)
        err -= np.angle(a)
        err_if, mag_if = err, mag_a
        if self.halo is not None:
            err_if, mag_if = (np.concatenate(pair) for pair in zip(self.halo, (err, mag_a)))
        self.halo = (err[-1:].copy(), mag_a[-1:].copy())
        self.sums += (
            *_abs_sums(_wrapped_diff(err_if, axis=0), mag_if, 0),
            *_abs_sums(_wrapped_diff(err, axis=1), mag_a, 1),
        )

    def loss(self) -> float:
        if_err, if_weight, gd_err, gd_weight = self.sums
        return float(if_err / (if_weight + _EPSILON) + gd_err / (gd_weight + _EPSILON))


@_spectra_overflow_named
def phase_loss(ref: np.ndarray, rec: np.ndarray) -> float:
    """L1 error of instantaneous frequency plus L1 error of group delay.

    Both errors are wrapped first differences of the per-bin phase error
    ``angle(rec) - angle(ref)``, along frames and along bins, so the loss is
    exactly zero for identical inputs; a zero-magnitude bin reads as phase 0.
    It is invariant to a global phase rotation of either spectrogram in exact
    arithmetic, and within a few ulp of pi for float64 inputs rotated in
    float64. Each derivative error is weighted by the mean reference
    magnitude of the two bins it spans, and each term is normalized by the
    sum of its weights plus 1e-8.
    """
    sums = _PhaseSums()
    a, b = _bins_of(ref, rec)
    sums.add(a, b, np.abs(a))
    return sums.loss()
