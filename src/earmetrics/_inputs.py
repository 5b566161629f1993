"""The input rules of the public entry points, each defined once: argument
types, rates, FFT sizes, samples, channel pairs, stereo pairs, spectrograms and
the overflow of float64, each named in its ValueError. It imports nothing from
the package, so every layer can use it. ``tests/test_contract.py`` pins them.
"""

from __future__ import annotations

from functools import wraps

import numpy as np

# Columns the finite scan reads at a time, so that no mask grows with the signal.
_SCAN_SAMPLES = 2**17


def _takes(fn: str, *args: tuple[object, type | tuple[type, ...]]) -> None:
    """Raise a ValueError naming ``fn``, the types it takes and the types it got,
    unless each value of the ``(value, type)`` pairs ``args`` is of its type."""
    if not all(isinstance(value, kind) for value, kind in args):
        wanted, got = _listed([_a(kind) for _, kind in args]), _listed([type(v).__name__ for v, _ in args])
        raise ValueError(f"{fn} takes {wanted}, got {got}")


def _a(kind: type | tuple[type, ...]) -> str:
    """``a BiquadCascade``, ``an AudioBuffer``, ``a str or PathLike``."""
    name = " or ".join(k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,)))
    return ("an " if name[0] in "AEIOU" else "a ") + name


def _listed(words: list[str]) -> str:
    """``x``, ``x and y``, ``x, y and z``."""
    return " and ".join([", ".join(words[:-1]), words[-1]] if len(words) > 1 else words)


def _positive_rate(rate: int, name: str) -> int:
    """``rate`` as an int, checked to be a positive integer (a numpy integer passes)."""
    if not isinstance(rate, (int, np.integer)) or rate <= 0:
        raise ValueError(f"{name} must be a positive integer, got {rate!r}")
    return int(rate)


def _check_rate(rate: int, least: int) -> int:
    """A filter design rate as an int, checked to be an integer of at least ``least`` Hz."""
    if not isinstance(rate, (int, np.integer)) or rate < least:
        raise ValueError(f"design rate must be an integer >= {least} Hz, got {rate!r}")
    return int(rate)


def _fft_size(n: int) -> int:
    """``n`` as an int, checked to be a power of two >= 2 (a numpy integer passes)."""
    if not isinstance(n, (int, np.integer)) or n < 2 or n & (n - 1):
        raise ValueError(f"fft sizes must be powers of two >= 2, got {n!r}")
    return int(n)


def _sample_array(x, noun: str = "samples") -> np.ndarray:
    """``x`` as an array of real values: a float32 array as it is, any other bool,
    integer or float array as float64. Any other dtype (complex, string, object)
    raises, naming ``noun`` and the dtype."""
    arr = np.asarray(x)
    if arr.dtype.kind not in "biuf":
        raise ValueError(f"{noun} must be bool, integer or float, got dtype {arr.dtype}")
    return arr if arr.dtype == np.float32 else np.asarray(arr, dtype=np.float64)


def _check_finite(**arrays: np.ndarray) -> None:
    """Raise a ValueError naming the first of the ``name=samples`` arrays that holds
    a NaN or inf, scanning ``_SCAN_SAMPLES`` columns at a time."""
    for name, x in arrays.items():
        for start in range(0, x.shape[-1], _SCAN_SAMPLES):
            if not np.isfinite(x[..., start : start + _SCAN_SAMPLES]).all():
                raise ValueError(f"{name} holds non-finite samples (NaN or inf)")


def _too_large(noun: str) -> ValueError:
    """Finite ``noun`` (samples, spectra) whose filtered values or metrics overflow float64."""
    return ValueError(f"{noun} are too large for the metrics to stay finite in float64")


def _overflow_named(noun: str, values=lambda result: (result,)):
    """Decorator: run a function of checked-finite ``noun`` with numpy's overflow
    warnings off, and raise :func:`_too_large` if any of ``values(result)``
    other than None is NaN or inf, which only an overflow of its sums can give."""

    def decorate(fn):
        @wraps(fn)
        def checked(*args, **kwargs):
            with np.errstate(over="ignore", invalid="ignore"):
                result = fn(*args, **kwargs)
            if not all(np.isfinite(v).all() for v in values(result) if v is not None):
                raise _too_large(noun)
            return result

        return checked

    return decorate


def _channel_pair(
    ref_ch, rec_ch, what: str = "channels", names: tuple[str, str] = ("reference", "reconstruction")
) -> tuple[np.ndarray, np.ndarray]:
    """Both channels as sample arrays (float32 kept, anything else float64),
    checked to be equal-length, 1-D and finite; ``what`` and ``names`` name them."""
    a, b = _sample_array(ref_ch), _sample_array(rec_ch)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"{what} must be equal-length 1-D arrays, got {a.shape} and {b.shape}")
    _check_finite(**dict(zip(names, (a, b))))
    return a, b


def _check_stereo_pair(ref, rec, what: str) -> None:
    """Check two buffers to be stereo, of one rate and length, and finite."""
    if ref.channels != 2 or rec.channels != 2:
        raise ValueError(f"{what} requires stereo signals")
    if ref.sample_rate != rec.sample_rate:
        raise ValueError(f"sample rates differ: {ref.sample_rate} vs {rec.sample_rate}")
    if ref.num_samples != rec.num_samples:
        raise ValueError(f"lengths differ: {ref.num_samples} vs {rec.num_samples}")
    _check_finite(reference=ref.samples, reconstruction=rec.samples)


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
