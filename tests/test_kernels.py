"""The per-block kernels give, bit for bit, what their plain expressions give.

The objective's correlation and phase sums, ICPC's resultants and the
objective's mid/side magnitudes are computed in place, in as few buffers as
the operations allow. The functions here are the whole-array expressions they
replace, with the same operations in the same operand order; every value must
be equal, not close, on random bins, on silent bins and on bins of -0.0, and
on the other numeric bins that the spectrum-level functions accept.
"""
from __future__ import annotations

import numpy as np
import pytest

from earmetrics.coherence import _Icpc, icpc_from_spectra
from earmetrics.phase import _CorrelationSums, _PhaseSums, correlation_loss
from earmetrics.spectral import _half_abs
from helpers import exact_bits

EPS = 1e-8
FRAMES, BINS = 40, 33
# consecutive blocks of frames: one block, blocks of one frame after the first
# (each IF difference taken against the carried frame), and uneven cuts
CUTS = [(0, FRAMES), (0, 2, 3, 4, FRAMES), (0, 20, 39, FRAMES), tuple(range(0, FRAMES, 7)) + (FRAMES,)]


def _wrap(x):
    x = np.asarray(x, dtype=np.float64)
    wrapped = np.asarray(x - 2.0 * np.pi * np.round(x / (2.0 * np.pi)))
    np.add(wrapped, 2.0 * np.pi, out=wrapped, where=wrapped <= -np.pi)
    np.subtract(wrapped, 2.0 * np.pi, out=wrapped, where=wrapped > np.pi)
    return wrapped


def _abs_sums(d, mag, axis):
    w = (mag[:-1, :] + mag[1:, :]) / 2.0 if axis == 0 else (mag[:, :-1] + mag[:, 1:]) / 2.0
    return float(np.sum(w * np.abs(d))), float(np.sum(w))


def _phase_sums(blocks):
    sums, halo = np.zeros(4), None
    for a, b in blocks:
        mag = np.abs(a)
        err = np.angle(b)
        err -= np.angle(a)  # in the dtype of angle(b): float32 for complex64 bins
        err_if, mag_if = err, mag
        if halo is not None:
            err_if, mag_if = (np.concatenate(pair) for pair in zip(halo, (err, mag)))
        halo = (err[-1:].copy(), mag[-1:].copy())
        sums += (
            *_abs_sums(_wrap(err_if[1:] - err_if[:-1]), mag_if, 0),
            *_abs_sums(_wrap(err[:, 1:] - err[:, :-1]), mag, 1),
        )
    return sums


def _correlation_sums(blocks):
    total, count = 0.0, 0
    for a, b in blocks:
        num = np.real(b * np.conj(a))
        den = np.abs(b) * np.abs(a) + EPS
        total += float(np.sum(num / den))
        count += num.size
    return total, count


def _icpc_sums(blocks):
    resultants, energies = [], []
    for a, b in blocks:
        # in complex: integer and bool bins give the products of the complex128 bins that hold them
        weighted = b * np.conj(a).astype(np.result_type(a, b, 1j))
        resultants.append(np.abs(np.sum(weighted, axis=1)))
        energies.append(np.sum(np.abs(weighted), axis=1))
    return resultants, energies


def _bins(kind: str, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((FRAMES, BINS)) + 1j * rng.standard_normal((FRAMES, BINS))
    if kind == "silent":
        x[3:9] = 0.0
        x[:, 5] = 0.0
        x[rng.random(x.shape) < 0.2] = 0.0
    elif kind == "negative zero":
        signs = rng.integers(0, 2, (2, FRAMES, BINS)).astype(bool)
        zeros = np.where(signs[0], -0.0, 0.0) + 1j * np.where(signs[1], -0.0, 0.0)
        x[::3] = zeros[::3]
        x[:, 1::4] = zeros[:, 1::4]
    return x


PAIRS = {
    "random": (_bins("random", 0), _bins("random", 1)),
    "silent": (_bins("silent", 2), _bins("silent", 3)),
    "negative zero": (_bins("negative zero", 4), _bins("negative zero", 5)),
    "identical": (_bins("negative zero", 6), _bins("negative zero", 6)),
    "all silent": (np.zeros((FRAMES, BINS), complex), np.full((FRAMES, BINS), complex(-0.0, -0.0))),
}


_a, _b = PAIRS["silent"]
OTHER_DTYPES = {
    "complex64 and complex128": (_a.astype(np.complex64), _b),
    "complex128 and complex64": (_a, _b.astype(np.complex64)),
    "complex64": (_a.astype(np.complex64), _b.astype(np.complex64)),
    "complex128 and float32": (_a, _b.real.astype(np.float32)),
    "float64 and complex128": (_a.real, _b),
    "int64": (np.round(10 * _a.real).astype(np.int64), np.round(10 * _b.real).astype(np.int64)),
    "bool": (_a.real > 0, _b.real > 0),
}


def _blocks(pair, cuts):
    a, b = pair
    return [(a[lo:hi], b[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]


@pytest.fixture(params=list(PAIRS), ids=list(PAIRS))
def pair(request):
    return PAIRS[request.param]


@pytest.fixture(params=list(PAIRS) + list(OTHER_DTYPES), ids=list(PAIRS) + list(OTHER_DTYPES))
def any_pair(request):
    return (PAIRS | OTHER_DTYPES)[request.param]


@pytest.mark.parametrize("cuts", CUTS, ids=[f"{len(c) - 1}blocks" for c in CUTS])
class TestInPlaceKernels:
    def test_phase_sums(self, any_pair, cuts):
        sums = _PhaseSums()
        for a, b in _blocks(any_pair, cuts):
            sums.add(a, b, np.abs(a))
        assert exact_bits(sums.sums) == exact_bits(_phase_sums(_blocks(any_pair, cuts)))

    def test_correlation_sums(self, any_pair, cuts):
        sums = _CorrelationSums()
        for a, b in _blocks(any_pair, cuts):
            sums.add(a, b, np.abs(a), np.abs(b))
        assert exact_bits((sums.total, sums.count)) == exact_bits(_correlation_sums(_blocks(any_pair, cuts)))

    def test_icpc_resultants(self, any_pair, cuts):
        acc = _Icpc()
        for a, b in _blocks(any_pair, cuts):
            acc.add(a, b)
        assert exact_bits((acc.resultants, acc.energies)) == exact_bits(_icpc_sums(_blocks(any_pair, cuts)))


def test_mid_side_magnitudes(pair):
    a, b = pair
    for x in (a + b, a - b):
        assert exact_bits(_half_abs(x)) == exact_bits(np.abs(x) / 2)


def test_large_integer_bins_do_not_wrap():
    # 2**40 * 2**40 wraps in int64: ICPC read 100.0 and the correlation loss 1.0
    ref = np.full((4, 3), 2**40, np.int64)
    rec = ref.copy()
    rec[0, 0] = -rec[0, 0]
    held = ref.astype(complex), rec.astype(complex)
    assert icpc_from_spectra(ref, rec) == icpc_from_spectra(*held) == pytest.approx(100 * 10 / 12)
    assert correlation_loss(ref, rec) == correlation_loss(*held) == pytest.approx(2 / 12)
