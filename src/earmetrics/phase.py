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

import numpy as np

from ._inputs import _bins_of, _overflow_named, _sample_array

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


def _wrap(x: np.ndarray) -> np.ndarray:
    """Wrap ``x`` into (-pi, pi] as ``x - 2 pi round(x / 2 pi)`` in float64 and
    return it; NaN and inf become NaN. A float64 ``x`` is wrapped in place,
    any other is widened into a fresh array first."""
    x = x.astype(np.float64, copy=False)
    with np.errstate(invalid="ignore"):
        turns = np.divide(x, _TWO_PI, out=np.empty_like(x))
        np.round(turns, out=turns)
        turns *= _TWO_PI
        x -= turns
    del turns  # freed before the masks below are made
    # rounding can leave a result just outside the interval at either end
    np.add(x, _TWO_PI, out=x, where=x <= -np.pi)
    np.subtract(x, _TWO_PI, out=x, where=x > np.pi)
    return x


def wrap_phase(x: np.ndarray | float) -> np.ndarray | float:
    """Wrap angles into (-pi, pi]; the boundary -pi maps to +pi, and NaN or inf to NaN.
    Angles that are not bool, integer or float raise ValueError."""
    wrapped = _wrap(np.array(_sample_array(x, "angles"), dtype=np.float64))
    return float(wrapped) if np.ndim(x) == 0 else wrapped


def phase_matrix(spec: np.ndarray) -> np.ndarray:
    """Per-bin phase in (-pi, pi]; zero-magnitude bins read as phase 0."""
    # + 0.0 makes -0.0 parts +0.0: np.angle reads a zero bin with real part -0.0 as pi or -pi
    return _wrap(np.angle(_bins_of(spec)[0] + 0.0))


def _forward(op, x: np.ndarray, axis: int, before: np.ndarray | None = None) -> np.ndarray:
    """``op(later, earlier)`` of each two neighbours of the 2-D ``x`` along ``axis``, in one
    fresh array. ``before`` is a row that precedes ``x`` along axis 0, so the first row
    pairs with it: the values and layout of the same ``op`` over the stacked rows."""
    if before is None:
        # what np.diff computes, without its per-call overhead (it runs once per block)
        return op(x[1:], x[:-1]) if axis == 0 else op(x[:, 1:], x[:, :-1])
    out = np.empty_like(x)
    op(x[:1], before, out=out[:1])
    op(x[1:], x[:-1], out=out[1:])
    return out


def _wrapped_diff(x: np.ndarray, axis: int, before: np.ndarray | None = None) -> np.ndarray:
    """Wrapped forward difference of a 2-D phase matrix along ``axis``, after the
    row ``before`` if given (axis 0); NaN where not finite."""
    if x.ndim != 2 or x.shape[axis] + (before is not None) < 2:
        raise ValueError(f"need a 2-D phase matrix with >= 2 {('frames', 'bins')[axis]}, got shape {x.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        return _wrap(_forward(np.subtract, x, axis, before))


def instantaneous_frequency(phase: np.ndarray) -> np.ndarray:
    """Wrapped forward phase difference along time.

    Input is a real ``(frames, bins)`` phase matrix; output has shape
    ``(frames - 1, bins)``.
    """
    return _wrapped_diff(np.asarray(_sample_array(phase, "phases"), dtype=np.float64), axis=0)


def group_delay(phase: np.ndarray) -> np.ndarray:
    """Negated wrapped forward phase difference along frequency.

    Input is a real ``(frames, bins)`` phase matrix; output has shape
    ``(frames, bins - 1)``.
    """
    return _wrapped_diff(-np.asarray(_sample_array(phase, "phases"), dtype=np.float64), axis=1)


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``b * conj(a)`` in one fresh array, formed in place in ``conj(a)``: the bits of the product.
    It is complex, so real, integer and bool bins give the product of the complex128 bins
    that hold them, and large integers do not wrap."""
    prod = np.conjugate(a)
    prod = prod.astype(np.result_type(b, prod, 1j), copy=False)
    return np.multiply(b, prod, out=prod)


class _CorrelationSums:
    """Running sum of ``Re(rec * conj(ref)) / (|rec| |ref| + epsilon)`` and its
    bin count over the blocks of frames and their magnitudes it is given."""

    def __init__(self) -> None:
        self.total, self.count = 0.0, 0

    def add(self, a: np.ndarray, b: np.ndarray, mag_a: np.ndarray, mag_b: np.ndarray) -> None:
        # the operations of sum(Re(b * conj(a)) / (mag_b * mag_a + eps)), in two buffers
        prod = _cross(a, b)
        den = np.multiply(mag_b, mag_a, dtype=np.result_type(mag_b, mag_a, _EPSILON))  # integers do not wrap
        den += _EPSILON
        np.divide(prod.real, den, out=den)
        self.total += float(np.sum(den))
        self.count += den.size

    def loss(self) -> float:
        return 1.0 - self.total / self.count


@_overflow_named("spectra")
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


def _abs_sums(d: np.ndarray, mag: np.ndarray, axis: int, before: np.ndarray | None = None) -> tuple[float, float]:
    """Sum of ``w * |d|`` and of ``w``, where ``w`` is the mean magnitude of the
    two bins each difference along ``axis`` spans (the first of them ``before``,
    as in :func:`_forward`). ``d`` is overwritten."""
    w = _forward(np.add, mag, axis, before)
    w = w.astype(np.result_type(w, 2.0), copy=False)  # integer and bool weights widen, as w / 2.0 does
    w /= 2.0
    np.abs(d, out=d)
    d *= w
    return float(np.sum(d)), float(np.sum(w))


class _PhaseSums:
    """Sums behind :func:`phase_loss` over consecutive blocks of frames.

    Each block comes with its reference magnitudes, which weight the errors.
    The IF error of a block's first frame is taken against the last frame of
    the block before it, whose phase error and magnitude are carried over as
    a one-frame halo.
    """

    def __init__(self) -> None:
        self.sums = np.zeros(4)  # IF error, IF weight, GD error, GD weight
        self.halo: tuple[np.ndarray | None, np.ndarray | None] = (None, None)

    def add(self, a: np.ndarray, b: np.ndarray, mag_a: np.ndarray) -> None:
        # wrap(wrap(x) - wrap(y)) == wrap(x - y) and |wrap(-d)| == |wrap(d)|
        err = np.angle(b)
        err -= np.angle(a)
        if_sums = _abs_sums(_wrapped_diff(err, 0, self.halo[0]), mag_a, 0, self.halo[1])
        self.halo = (err[-1:].copy(), mag_a[-1:].copy())
        self.sums += (*if_sums, *_abs_sums(_wrapped_diff(err, 1), mag_a, 1))

    def loss(self) -> float:
        if_err, if_weight, gd_err, gd_weight = self.sums
        return float(if_err / (if_weight + _EPSILON) + gd_err / (gd_weight + _EPSILON))


@_overflow_named("spectra")
def phase_loss(ref: np.ndarray, rec: np.ndarray) -> float:
    """L1 error of instantaneous frequency plus L1 error of group delay.

    Both errors are wrapped first differences of the per-bin phase error
    ``angle(rec) - angle(ref)``, along frames and along bins, so the loss is
    exactly zero for identical inputs. A zero-magnitude bin reads as phase 0,
    unless its real part is -0.0, which reads as pi or -pi as ``np.angle``
    gives it (unlike :func:`phase_matrix`).
    It is invariant to a global phase rotation of either spectrogram in exact
    arithmetic, and within a few ulp of pi for float64 inputs rotated in
    float64. Each derivative error is weighted by the mean reference
    magnitude of the two bins it spans, and each term is normalized by the
    sum of its weights plus 1e-8. Spectrograms of fewer than two frames or
    two bins raise ValueError.
    """
    sums = _PhaseSums()
    a, b = _bins_of(ref, rec)
    if min(a.shape) < 2:
        raise ValueError(f"phase loss needs at least two frames and two bins, got spectrograms of shape {a.shape}")
    sums.add(a, b, np.abs(a))
    return sums.loss()
