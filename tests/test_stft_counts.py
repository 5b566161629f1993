"""Every frame of every analyzed signal is transformed exactly once.

All STFT frames, whole spectrograms and blocks alike, are cut and
transformed by ``earmetrics.audio._frame_bins``. A counting wrapper records
the frame range of each call per (channel contents, StftConfig); each such
analysis must cover its frames ``0 .. num_frames - 1`` once, with no frame
analyzed twice, and the number of analyses is the number of distinct
(signal, channel, config) triples a call needs.
"""
from __future__ import annotations

import hashlib
from collections import defaultdict

import numpy as np
import pytest

import earmetrics.audio
from earmetrics import AudioBuffer, CoherenceConfig, StftConfig, composite_objective, evaluate_pair
from helpers import noise_stereo

SECONDS = 3.5  # several blocks of frames at every scale


def _digest(x: np.ndarray) -> str:
    return hashlib.sha1(x.tobytes()).hexdigest()


@pytest.fixture
def analyses(monkeypatch) -> dict[tuple[str, StftConfig], list[int]]:
    """Frame indices transformed, per (channel contents, config)."""
    frames: dict[tuple[str, StftConfig], list[int]] = defaultdict(list)
    frame_bins = earmetrics.audio._frame_bins

    def counting(x, config, start, stop):
        frames[(_digest(x), config)].extend(range(start, stop))
        return frame_bins(x, config, start, stop)

    monkeypatch.setattr(earmetrics.audio, "_frame_bins", counting)
    return frames


@pytest.fixture
def pair() -> tuple[AudioBuffer, AudioBuffer]:
    ref = noise_stereo(seconds=SECONDS, amp=0.4, seed=80)
    noise = 0.05 * np.random.default_rng(81).standard_normal(ref.samples.shape)
    return ref, AudioBuffer(ref.samples + noise, ref.sample_rate)


def _each_frame_once(analyses: dict, num_samples: int) -> None:
    for (_, config), frames in analyses.items():
        assert sorted(frames) == list(range(1 + num_samples // config.hop)), config


def test_evaluate_pair_shares_the_coherence_scale(analyses, pair):
    # six scales, two channels, two signals; coherence reuses the 2048 scale
    evaluate_pair(*pair)
    assert len(analyses) == 24
    _each_frame_once(analyses, pair[0].num_samples)


def test_separate_coherence_config_adds_four(analyses, pair):
    evaluate_pair(*pair, coh_cfg=CoherenceConfig(StftConfig(1024, hop=512)))
    assert len(analyses) == 28
    assert [config for _, config in analyses].count(StftConfig(1024, hop=512)) == 4
    _each_frame_once(analyses, pair[0].num_samples)


def test_composite_objective_one_stft_per_component_and_scale(analyses, pair):
    # left and right are the only components analyzed (six scales, two
    # channels, two signals): mid and side come from their spectra by linearity
    composite_objective(*pair)
    assert len(analyses) == 24
    assert {digest for digest, _ in analyses} == {_digest(x) for buf in pair for x in buf.samples}
    _each_frame_once(analyses, pair[0].num_samples)
