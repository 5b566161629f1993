"""Each channel is transformed once per STFT configuration.

Every module that imported :func:`earmetrics.stft` gets a counting wrapper,
so calls are seen whichever module makes them.
"""
from __future__ import annotations

import sys

import numpy as np
import pytest

from earmetrics import AudioBuffer, CoherenceConfig, StftConfig, composite_objective, evaluate_pair
from earmetrics.audio import stft
from helpers import noise_stereo


@pytest.fixture
def stft_calls(monkeypatch) -> list[StftConfig]:
    calls: list[StftConfig] = []

    def counting(channel, config, rate):
        calls.append(config)
        return stft(channel, config, rate)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "earmetrics" and getattr(module, "stft", None) is stft:
            monkeypatch.setattr(module, "stft", counting)
    return calls


@pytest.fixture
def pair() -> tuple[AudioBuffer, AudioBuffer]:
    ref = noise_stereo(seconds=1.0, amp=0.4, seed=80)
    noise = 0.05 * np.random.default_rng(81).standard_normal(ref.samples.shape)
    return ref, AudioBuffer(ref.samples + noise, ref.sample_rate)


def test_evaluate_pair_shares_the_coherence_scale(stft_calls, pair):
    # six scales, two channels, two signals; coherence reuses the 2048 scale
    evaluate_pair(*pair)
    assert len(stft_calls) == 24


def test_separate_coherence_config_adds_four(stft_calls, pair):
    evaluate_pair(*pair, coh_cfg=CoherenceConfig(StftConfig(1024, hop=512)))
    assert len(stft_calls) == 28
    assert stft_calls.count(StftConfig(1024, hop=512)) == 4


def test_composite_objective_one_stft_per_component_and_scale(stft_calls, pair):
    # six scales, four components, two signals
    composite_objective(*pair)
    assert len(stft_calls) == 48
