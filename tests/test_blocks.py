"""Block-by-block analysis equals the whole-spectrogram analysis.

Every metric is reduced from blocks of STFT frames (``audio._stft_blocks``).
These tests compare the blocked path with the whole-array references in
``oracles.py`` at lengths that put block edges where they can go wrong, and
feed the per-metric accumulators the zero-bin toy in blocks of every size.
"""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from earmetrics import (
    AudioBuffer,
    apply_cascade,
    CoherenceConfig,
    MetricReport,
    MultiScaleConfig,
    PhaseLossConfig,
    StftConfig,
    ccpc_from_spectra,
    composite_objective,
    correlation_loss,
    design_k_weighting,
    evaluate_pair,
    icpc_from_spectra,
    phase_loss,
)
from earmetrics.audio import _BLOCK_SAMPLES
from earmetrics.coherence import _Ccpc, _Icpc
from earmetrics.phase import _CorrelationSums, _PhaseSums
from helpers import noise_stereo, toy_with_silent_bins
from oracles import evaluate_whole, objective_whole

RATE = 44100
REL = 1e-12
COHERENCE_FIELDS = ("mel_dist", "stft_dist", "icpc_percent", "ccpc_percent")


def _length_with_frames(fft_size: int, frames: int) -> int:
    """Shortest signal with ``frames`` centered frames at hop ``fft_size // 4``."""
    return (frames - 1) * (fft_size // 4)


def _edge_lengths() -> list[int]:
    """The largest FFT size, and frame counts one more and one less than a
    whole block at the 4096 and 128 scales. A block spans the same number
    of samples of hops at every scale, so the length one frame past a block
    is the same at all of them."""
    lengths = {4096}
    for n in (4096, 128):
        block = _BLOCK_SAMPLES // n
        lengths.update(_length_with_frames(n, block + d) for d in (1, -1))
    return sorted(lengths)


def _pair(num_samples: int, seed: int, ref_amp: float = 0.4) -> tuple[AudioBuffer, AudioBuffer]:
    rng = np.random.default_rng(seed)
    ref = ref_amp * rng.standard_normal((2, num_samples))
    rec = 0.9 * ref + 0.04 * rng.standard_normal((2, num_samples))
    return AudioBuffer(ref, RATE), AudioBuffer(rec, RATE)


def _assert_report_matches(report: MetricReport, want: dict) -> None:
    for name in COHERENCE_FIELDS:
        assert getattr(report, name) == pytest.approx(want[name], rel=REL, abs=0.0), name
    assert ("degenerate_coherence_input" in report.flags) == want["degenerate"]


def _check_eval(ref, rec, ms_cfg=None, coh_cfg=None) -> MetricReport:
    ms_cfg, coh_cfg = ms_cfg or MultiScaleConfig(), coh_cfg or CoherenceConfig()
    report = evaluate_pair(ref, rec, ms_cfg=ms_cfg, coh_cfg=coh_cfg)
    _assert_report_matches(report, evaluate_whole(ref.samples, rec.samples, RATE, ms_cfg, coh_cfg))
    return report


def _check_objective(ref, rec, cfg=None) -> None:
    cfg = cfg or MultiScaleConfig()
    got = composite_objective(ref, rec, cfg=cfg)
    want = objective_whole(ref.samples, rec.samples, cfg)
    for name, value in zip(("stft_mag", "corr", "phase"), want):
        assert getattr(got, name) == pytest.approx(value, rel=REL, abs=0.0), name


@pytest.mark.parametrize("num_samples", _edge_lengths())
def test_evaluate_pair_matches_whole_spectra(num_samples):
    _check_eval(*_pair(num_samples, seed=num_samples))


@pytest.mark.parametrize("num_samples", _edge_lengths())
def test_objective_matches_whole_spectra(num_samples):
    # one frame past a block, the last block of every scale is one frame,
    # whose only IF difference is the one against the carried halo frame
    _check_objective(*_pair(num_samples, seed=num_samples + 1))


@given(st.integers(min_value=4097, max_value=3 * _BLOCK_SAMPLES // 4))
@settings(max_examples=6, deadline=None)
def test_lengths_over_one_to_three_blocks(num_samples):
    bank = MultiScaleConfig(fft_sizes=(4096, 2048, 128))
    pair = _pair(num_samples, seed=num_samples)
    _check_eval(*pair, ms_cfg=bank)
    _check_objective(*pair, cfg=bank)


def test_reference_energy_weighting():
    _check_eval(*_pair(100_000, seed=3), coh_cfg=CoherenceConfig(weight_mode="reference_energy"))


def test_separate_coherence_config():
    _check_eval(*_pair(100_000, seed=4), coh_cfg=CoherenceConfig(StftConfig(1024, hop=512)))


def test_silent_reference_is_still_degenerate():
    report = _check_eval(*_pair(100_000, seed=5, ref_amp=1e-20))
    assert "degenerate_coherence_input" in report.flags
    assert report.icpc_percent == report.ccpc_percent == 100.0


def test_prefilter_and_chunks():
    ref, rec = _pair(150_000, seed=6)
    chunk = 70_000  # several blocks per chunk; the trailing 10,000 samples are dropped
    report = evaluate_pair(ref, rec, prefilter="k", chunk_seconds=chunk / RATE)
    k = design_k_weighting(RATE)
    ref_k, rec_k = (apply_cascade(k, buf).samples for buf in (ref, rec))
    rows = [
        evaluate_whole(ref_k[:, lo : lo + chunk], rec_k[:, lo : lo + chunk], RATE, MultiScaleConfig(), CoherenceConfig())
        for lo in (0, chunk)
    ]
    want = {name: float(np.mean([r[name] for r in rows])) for name in COHERENCE_FIELDS}
    _assert_report_matches(report, want | {"degenerate": False})
    assert "chunked" in report.flags


@pytest.mark.parametrize("block", range(1, 7))
@pytest.mark.parametrize("weighting", [True, False])
def test_accumulators_in_blocks_match_one_block_on_silent_bins(block, weighting):
    # the zero-bin toy fed as its first two frames, then blocks of ``block``
    # frames, equals the whole toy through the public functions (one block)
    a, b = toy_with_silent_bins()
    al, ar, bl, br = a, 0.8 * b * np.exp(0.31j), 1.1 * b, 0.9 * a * np.exp(-0.22j)
    phase_cfg = PhaseLossConfig(magnitude_weighting=weighting)
    coh_cfg = CoherenceConfig(weight_mode="product" if weighting else "reference_energy")
    phase, corr = _PhaseSums(phase_cfg), _CorrelationSums(phase_cfg)
    icpc, ccpc = _Icpc(coh_cfg), _Ccpc(coh_cfg)
    starts = [0, *range(2, a.shape[0], block)]
    for lo, hi in zip(starts, [*starts[1:], a.shape[0]]):
        rows = slice(lo, hi)
        phase.add(a[rows], b[rows])
        corr.add(a[rows], b[rows])
        icpc.add(a[rows], b[rows])
        ccpc.add(al[rows], ar[rows], bl[rows], br[rows])
    assert phase.loss() == pytest.approx(phase_loss(a, b, phase_cfg), rel=REL, abs=0.0)
    assert corr.loss() == pytest.approx(correlation_loss(a, b, phase_cfg), rel=REL, abs=0.0)
    assert icpc.percent()[0] == icpc_from_spectra(a, b, coh_cfg)
    assert ccpc.percent()[0] == ccpc_from_spectra(al, ar, bl, br, coh_cfg)


def _traced_peak(fn, *args) -> int:
    """Peak bytes that tracemalloc sees allocated while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _long_pair() -> tuple[AudioBuffer, AudioBuffer]:
    ref = noise_stereo(seconds=20.0, amp=0.4, seed=7)
    return ref, AudioBuffer(ref.samples + 0.05 * np.random.default_rng(8).standard_normal(ref.samples.shape), RATE)


def test_evaluate_pair_memory_is_bounded_by_its_inputs():
    # whole spectra of the four channels at one scale took about 6x the
    # inputs; a block of frames takes a fixed amount, whatever the length
    ref, rec = _long_pair()
    inputs = ref.samples.nbytes + rec.samples.nbytes
    peak = _traced_peak(evaluate_pair, ref, rec)
    assert peak < 2 * inputs, f"peak {peak / 1e6:.1f} MB above inputs of {inputs / 1e6:.1f} MB"


def test_composite_objective_memory_is_below_half_its_inputs():
    # time-domain mid/side signals took 1.21x the inputs and the four mid/side
    # blocks formed next to the four left/right ones 0.53x; forming one
    # derived pair at a time takes 0.35x
    ref, rec = _long_pair()
    inputs = ref.samples.nbytes + rec.samples.nbytes
    peak = _traced_peak(composite_objective, ref, rec)
    assert peak < inputs / 2, f"peak {peak / 1e6:.1f} MB against inputs of {inputs / 1e6:.1f} MB"
