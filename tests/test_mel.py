"""The banded mel projection against the dense product it replaces.

``spectral._MelBands`` multiplies each group of consecutive mel bands only
over the bins its weights span. The dense ``mag @ mel_filterbank(...).T`` stays
here and in ``oracles.py`` as the reference.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import earmetrics.coherence
import earmetrics.spectral
from earmetrics import (
    AudioBuffer,
    MultiScaleConfig,
    composite_objective,
    evaluate_pair,
    log_magnitude_distance,
    mel_distance,
    mel_filterbank,
)
from earmetrics.audio import _STFT_BLOCK_SAMPLES
from earmetrics.spectral import _mel_bands
from oracles import evaluate_whole

RATES = (22050, 44100, 48000, 96000)
CFG = MultiScaleConfig()
SCALES = list(enumerate(CFG.fft_sizes))
# relative distance of a banded band value from the dense one: the sums run over
# fewer zero products, in another order (at most 4.3 eps measured)
ULPS = 8 * np.finfo(np.float64).eps


def _dense_and_banded(rate: int, i: int, n: int, frames: int) -> tuple[np.ndarray, np.ndarray]:
    mag = np.abs(np.random.default_rng(n + frames).standard_normal((frames, n // 2 + 1)))
    (mel,) = _mel_bands(MultiScaleConfig((n,)), rate)
    return mag @ mel_filterbank(CFG.mel_bins_for(i), n, rate).T, mel.project(mag)


@pytest.mark.parametrize("rate", RATES)
@pytest.mark.parametrize("i,n", SCALES, ids=[str(n) for n in CFG.fft_sizes])
@pytest.mark.parametrize("frames", ["block", 1])
def test_banded_equals_dense_within_a_few_ulp(rate, i, n, frames):
    frames = _STFT_BLOCK_SAMPLES // n if frames == "block" else frames
    dense, banded = _dense_and_banded(rate, i, n, frames)
    assert banded.shape == dense.shape == (frames, CFG.mel_bins_for(i))
    np.testing.assert_allclose(banded, dense, rtol=ULPS, atol=0.0)


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_scales_below_the_default_bank_equal_dense(n):
    # 8 is the smallest size with a band: one band, one group
    mag = np.abs(np.random.default_rng(n).standard_normal((9, n // 2 + 1)))
    (mel,) = _mel_bands(MultiScaleConfig((n,)), 44100)
    dense = mag @ mel_filterbank(n // 8, n, 44100).T
    np.testing.assert_allclose(mel.project(mag), dense, rtol=ULPS, atol=0.0)


@pytest.mark.parametrize("rate", RATES)
@pytest.mark.parametrize("i,n", SCALES, ids=[str(n) for n in CFG.fft_sizes])
def test_every_empty_band_is_an_exact_zero_column(rate, i, n):
    empty = ~mel_filterbank(CFG.mel_bins_for(i), n, rate).any(axis=1)
    _, banded = _dense_and_banded(rate, i, n, 7)
    assert (banded[:, empty] == 0.0).all() and (banded[:, ~empty] > 0.0).all()


def test_empty_bands_at_96k():
    # seven empty bands at 1024, two of them in one group of eight; at 44.1 kHz one at 1024, 512 and 256
    empty = {n: list(np.flatnonzero(~mel_filterbank(CFG.mel_bins_for(i), n, 96000).any(axis=1))) for i, n in SCALES}
    assert empty[1024] == [0, 1, 4, 5, 8, 11, 18]
    assert empty[512] == [0, 1, 4, 7]
    for n in (1024, 512, 256):
        assert not mel_filterbank(min(128, n // 8), n, 44100)[0].any()


def test_a_group_of_empty_bands_writes_zeros():
    # at 384 kHz the 1024 scale's bin spacing (375 Hz) is wider than its first eight bands
    empty = ~mel_filterbank(128, 1024, 384000).any(axis=1)
    assert empty[:8].all() and not empty[8:].all()
    (mel,) = _mel_bands(MultiScaleConfig((1024,)), 384000)
    assert [g[0] for g in mel.groups] == list(range(8, 128, 8))
    dense, banded = _dense_and_banded(384000, 2, 1024, 5)
    assert (banded[:, empty] == 0.0).all()
    np.testing.assert_allclose(banded, dense, rtol=ULPS, atol=0.0)


def test_stored_weights_are_a_small_share_of_the_filterbank():
    # a group of 8 bands spans 9 of the 129 mel intervals, so 16 groups store about
    # 9/129 = 7% of the 4096 filterbank's entries; a dense product would store all of them
    (mel,) = _mel_bands(MultiScaleConfig((4096,)), 44100)
    stored = sum(w.size for *_, w in mel.groups)
    assert stored < 0.08 * mel_filterbank(128, 4096, 44100).size
    # each group's weights own their bytes, so no view keeps the dense bank alive
    assert all(w.shape[1] <= 8 and w.base is None and not w.flags.writeable for *_, w in mel.groups)


def test_plan_is_cached_and_built_on_first_use():
    # never at import, so importing the package costs no plan
    assert _mel_bands(CFG, 44100)[0] is _mel_bands(CFG, 44100)[0]
    code = "import earmetrics.cli, earmetrics.spectral as s; print(s._banded.cache_info().currsize)"
    env = {**os.environ, "PYTHONPATH": str(Path(earmetrics.spectral.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "0"


def _pair_at(rate: int, seconds: float = 0.5, seed: int = 3) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    ref = 0.3 * rng.standard_normal((2, int(seconds * rate)))
    return ref, 0.8 * ref + 0.05 * rng.standard_normal(ref.shape)


@pytest.mark.parametrize("rate", [44100, 96000])
def test_distances_match_the_dense_oracle(rate):
    ref, rec = _pair_at(rate)
    want = evaluate_whole(ref, rec, rate, CFG)["mel_dist"]
    report = evaluate_pair(AudioBuffer(ref, rate), AudioBuffer(rec, rate))
    assert report.mel_dist == pytest.approx(want, rel=1e-12, abs=0.0)
    per_channel = [mel_distance(a, b, rate) for a, b in zip(ref, rec)]
    assert np.mean(per_channel) == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("rate", [44100, 96000])
def test_identical_inputs_give_exactly_zero(rate):
    ref, _ = _pair_at(rate)
    assert mel_distance(ref[0], ref[0], rate) == 0.0
    assert evaluate_pair(AudioBuffer(ref, rate), AudioBuffer(ref, rate)).mel_dist == 0.0


class TestBankWithoutMelBands:
    @pytest.mark.parametrize("n", [4, 2])
    def test_named_before_any_work_on_the_samples(self, n, monkeypatch):
        def no_work(*args):
            raise AssertionError("the samples were worked on before the bank was checked")

        for module, name in [("spectral", "_stft_blocks"), ("coherence", "_stft_blocks"), ("coherence", "align_pair")]:
            monkeypatch.setattr(getattr(earmetrics, module), name, no_work)
        ref, rec = _pair_at(44100)
        message = f"mel bands need fft sizes >= 8, got {n}"
        with pytest.raises(ValueError, match=message):
            mel_distance(ref[0], rec[0], 44100, MultiScaleConfig((4096, n)))
        with pytest.raises(ValueError, match=message):
            evaluate_pair(AudioBuffer(ref, 44100), AudioBuffer(rec, 44100), MultiScaleConfig((4096, n)))

    @pytest.mark.parametrize("n", [4, 2])
    def test_distances_without_mel_bands_still_take_it(self, n):
        ref, rec = _pair_at(44100, seconds=0.05)
        cfg = MultiScaleConfig((n,))
        assert np.isfinite(log_magnitude_distance(ref[0], rec[0], cfg=cfg))
        assert np.isfinite(composite_objective(AudioBuffer(ref, 44100), AudioBuffer(rec, 44100), cfg).weighted_total)
