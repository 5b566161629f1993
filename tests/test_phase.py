from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from earmetrics import (
    PhaseLossConfig,
    StftConfig,
    correlation_loss,
    group_delay,
    instantaneous_frequency,
    phase_loss,
    phase_matrix,
    stft,
    wrap_phase,
)
from helpers import PHASE_ROTATION_BUDGET, toy_pair, toy_with_silent_bins
from oracles import correlation_loss_direct, phase_loss_direct, wrap_direct


def _noise_spec(seed: int, amp: float = 0.9, seconds: float = 1.0, n: int = 1024):
    rng = np.random.default_rng(seed)
    x = amp * rng.standard_normal(int(seconds * 44100))
    return stft(x, StftConfig(n), 44100).bins


class TestWrapPhase:
    @pytest.mark.parametrize(
        "x,expected",
        [
            (0.0, 0.0),
            (np.pi, np.pi),
            (-np.pi, np.pi),
            (3 * np.pi, np.pi),
            (2 * np.pi, 0.0),
            (1.5, 1.5),
            (-1.5, -1.5),
            (np.pi + 0.1, -np.pi + 0.1),
        ],
    )
    def test_known_values(self, x, expected):
        assert wrap_phase(x) == pytest.approx(expected, abs=1e-12)

    def test_scalar_in_scalar_out(self):
        assert isinstance(wrap_phase(7.0), float)

    def test_array_matches_scalar_oracle(self, rng):
        # odd multiples of pi and their nearest neighbours lie on the wrap
        # boundary, where one rounding decides between the two ends
        odd = np.pi * (2 * np.arange(-20, 21) + 1)
        edges = [odd, -odd]
        for direction in (np.inf, -np.inf):
            near = np.concatenate([odd, -odd])
            for _ in range(3):
                near = np.nextafter(near, direction)
                edges.append(near)
        random = rng.uniform(-20, 20, size=200)
        x = np.concatenate([random, *edges])
        got = wrap_phase(x)
        want = np.array([wrap_direct(v) for v in x])
        assert np.all((got > -np.pi) & (got <= np.pi))
        np.testing.assert_allclose(got[: random.size], want[: random.size], atol=1e-12)
        # the oracle shifts by 2*pi one step at a time and may round onto the
        # other end of the interval, so boundary inputs compare on the circle
        err = np.abs(got - want)
        np.testing.assert_allclose(np.minimum(err, 2 * np.pi - err), 0.0, atol=1e-12)

    @given(st.floats(min_value=-1e6, max_value=1e6))
    @settings(max_examples=200, deadline=None)
    def test_range_and_phasor_preservation(self, x):
        w = wrap_phase(x)
        assert -np.pi < w <= np.pi
        assert abs(np.exp(1j * w) - np.exp(1j * x)) < 1e-9


class TestDerivatives:
    def test_if_of_bin_centered_tone(self):
        # tone at bin 9 of a 1024-window: phase advances 2*pi*9/4 per hop,
        # which wraps to pi/2
        n, hop, rate, k = 1024, 256, 44100, 9
        t = np.arange(2 * rate)
        x = 0.8 * np.sin(2 * np.pi * k / n * t)
        spec = stft(x, StftConfig(n, hop=hop), rate)
        if_mat = instantaneous_frequency(phase_matrix(spec))
        interior = if_mat[4:-4, k]
        expected = wrap_phase(2 * np.pi * k * hop / n)
        err = np.abs(wrap_phase(interior - expected))
        assert np.max(err) < 1e-3

    def test_if_handles_wrap_boundary_bins(self):
        # bin 10 advances exactly pi per hop, the wrap boundary; circular
        # comparison must still see a tiny error
        n, hop, rate, k = 1024, 256, 44100, 10
        t = np.arange(2 * rate)
        x = 0.8 * np.sin(2 * np.pi * k / n * t)
        spec = stft(x, StftConfig(n, hop=hop), rate)
        if_mat = instantaneous_frequency(phase_matrix(spec))
        err = np.abs(wrap_phase(if_mat[4:-4, k] - np.pi))
        assert np.max(err) < 1e-3

    def test_gd_of_pure_delay(self):
        # analytic spectrogram of a delayed impulse: linear phase slope
        n0, n_bins = 7, 33
        f = np.arange(n_bins)
        bins = np.tile(np.exp(-2j * np.pi * f * n0 / 64), (4, 1))
        gd = group_delay(phase_matrix(bins))
        np.testing.assert_allclose(gd, 2 * np.pi * n0 / 64, atol=1e-12)

    def test_requires_two_frames_and_bins(self):
        with pytest.raises(ValueError):
            instantaneous_frequency(np.zeros((1, 8)))
        with pytest.raises(ValueError):
            group_delay(np.zeros((8, 1)))


class TestCorrelationLoss:
    def test_matches_direct_oracle_on_toys(self):
        for a, b in (toy_pair(), toy_with_silent_bins()):
            assert correlation_loss(a, b) == pytest.approx(correlation_loss_direct(a, b), abs=1e-12)

    def test_identity_on_broadband_input(self):
        spec = _noise_spec(seed=10)
        assert correlation_loss(spec, spec) <= 1e-6

    def test_global_rotation_gives_one_minus_cos(self):
        spec = _noise_spec(seed=11)
        for c in (0.3, -1.2, 2.9):
            got = correlation_loss(spec, spec * np.exp(1j * c))
            assert got == pytest.approx(1.0 - np.cos(c), abs=1e-6)

    def test_antiphase_reaches_two(self):
        spec = _noise_spec(seed=12)
        assert correlation_loss(spec, -spec) == pytest.approx(2.0, abs=1e-6)

    def test_zero_magnitude_bins_contribute_zero(self):
        a = np.zeros((4, 8), dtype=complex)
        b = np.zeros((4, 8), dtype=complex)
        # only silent bins: correlation is 0 everywhere, loss is 1
        assert correlation_loss(a, b) == pytest.approx(1.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            correlation_loss(np.zeros((4, 8), complex), np.zeros((4, 9), complex))


class TestPhaseLoss:
    def test_matches_direct_oracle_on_toys(self):
        for a, b in (toy_pair(), toy_with_silent_bins()):
            assert phase_loss(a, b) == pytest.approx(phase_loss_direct(a, b), abs=1e-12)

    def test_identical_inputs_exactly_zero(self):
        spec = _noise_spec(seed=13)
        assert phase_loss(spec, spec) == 0.0

    def test_global_rotation_cancels(self):
        spec = _noise_spec(seed=14)
        for c in (0.7, -2.1):
            assert phase_loss(spec, spec * np.exp(1j * c)) <= PHASE_ROTATION_BUDGET

    def test_magnitude_weighting_emphasizes_loud_bins(self):
        a, b = toy_pair()
        # corrupt the phase of the loudest frame only
        b2 = np.array(b)
        b2[-1] *= np.exp(1j * 1.5)
        weighted = phase_loss(a, b2) - phase_loss(a, b)
        cfg = PhaseLossConfig(magnitude_weighting=False)
        unweighted = phase_loss(a, b2, cfg) - phase_loss(a, b, cfg)
        assert weighted > unweighted > 0

    def test_unweighted_matches_plain_mean(self):
        cfg = PhaseLossConfig(magnitude_weighting=False)
        for a, b in (toy_pair(), toy_with_silent_bins()):
            pa, pb = phase_matrix(a), phase_matrix(b)
            d_if = wrap_phase(instantaneous_frequency(pb) - instantaneous_frequency(pa))
            d_gd = wrap_phase(group_delay(pb) - group_delay(pa))
            want = np.mean(np.abs(d_if)) + np.mean(np.abs(d_gd))
            assert phase_loss(a, b, cfg) == pytest.approx(want, abs=1e-12)

    def test_too_small_spectrogram_rejected(self):
        with pytest.raises(ValueError):
            phase_loss(np.ones((1, 4), complex), np.ones((1, 4), complex))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PhaseLossConfig(epsilon=0.0)
