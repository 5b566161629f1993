"""Exact metamorphic relations: a transform of both inputs with a known effect on every field.

Swapping left and right in both signals leaves every field of the objective
and of the eval report exactly as it was. Each field is a mean over channels
and scales, combined with ``math.fsum``, of frame-grid sums that do not depend
on the order of the channels; a mean that summed all left scales before all
right ones moved ``corr`` or ``phase`` by an ulp under the swap.
"""
from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from earmetrics import AudioBuffer, composite_objective, evaluate_pair
from helpers import exact_bits

RATE = 44100


def _buffer(x: np.ndarray, layout: str) -> AudioBuffer:
    """The ``(2, n)`` float64 samples ``x`` as rows, as a view of interleaved
    frames, or rounded to float32."""
    if layout == "interleaved":
        frames = np.ascontiguousarray(x.T)
        frames.flags.writeable = False  # kept without a copy, as a strided view
        return AudioBuffer(frames.T, RATE)
    return AudioBuffer(x.astype(np.float32) if layout == "float32" else x, RATE)


SWAP_CASES = dict(
    seed=st.integers(0, 2**32 - 1),
    num_samples=st.integers(4096, 30_000),
    layout=st.sampled_from(["rows", "interleaved", "float32"]),
    silent=st.booleans(),
)


def _pair_and_swapped(seed: int, num_samples: int, layout: str, silent: bool):
    rng = np.random.default_rng(seed)
    ref = 0.3 * rng.standard_normal((2, num_samples)) * np.array([[1.0], [0.6]])
    rec = 0.8 * ref + 0.05 * rng.standard_normal((2, num_samples))
    if silent:  # digital silence in both, whose zero bins read as phase 0
        ref[:, num_samples // 4 : num_samples // 2] = rec[:, num_samples // 4 : num_samples // 2] = 0.0
    pair = [_buffer(x, layout) for x in (ref, rec)]
    swapped = [_buffer(x[::-1].copy(), layout) for x in (ref, rec)]
    return pair, swapped


@given(**SWAP_CASES)
@settings(max_examples=12, deadline=None)
def test_objective_is_exact_under_a_left_right_swap(seed, num_samples, layout, silent):
    pair, swapped = _pair_and_swapped(seed, num_samples, layout, silent)
    assert exact_bits(composite_objective(*swapped)) == exact_bits(composite_objective(*pair))


@given(**SWAP_CASES)
@settings(max_examples=8, deadline=None)
def test_eval_report_is_exact_under_a_left_right_swap(seed, num_samples, layout, silent):
    pair, swapped = _pair_and_swapped(seed, num_samples, layout, silent)
    assert exact_bits(evaluate_pair(*swapped)) == exact_bits(evaluate_pair(*pair))
