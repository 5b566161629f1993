from __future__ import annotations

import re
import warnings

import numpy as np
import pytest
from scipy.signal import sosfreqz

from earmetrics import (
    AudioBuffer,
    BiquadCascade,
    apply_cascade,
    design_a_weighting,
    design_k_weighting,
    frequency_response,
)
from oracles import K_TABLE_48K, a_weight_analog_db


def _mag_db(cascade, freqs):
    return 20 * np.log10(np.abs(frequency_response(cascade, np.asarray(freqs, dtype=float))))


# float hex of the 44.1 kHz designs: a one-ulp drift of the design arithmetic fails
K_SOS_44K_HEX = [
    ["0x1.87e535fa6eb58p+0", "-0x1.53534ffec4873p+1", "0x1.2b48c43eb2e1ep+0",
     "0x1.0000000000000p+0", "-0x1.a9e54d2f41fe3p+0", "0x1.6cd94ed5b50e4p-1"],
    ["0x1.0000000000000p+0", "-0x1.0000000000000p+1", "0x1.0000000000000p+0",
     "0x1.0000000000000p+0", "-0x1.fd3a39466f5a0p+0", "0x1.fa784bc7e1508p-1"],
]
A_SOS_44K_HEX = [
    ["0x1.05b8d0472067fp-2", "0x1.05b8d0472067fp-1", "0x1.05b8d0472067fp-2",
     "0x1.0000000000000p+0", "-0x1.1fd161af3d433p-3", "0x1.4397244790c4fp-8"],
    ["0x1.0000000000000p+0", "-0x1.0000000000000p+1", "0x1.0000000000000p+0",
     "0x1.0000000000000p+0", "-0x1.e288e2dd0c186p+0", "0x1.c5d908ffd8624p-1"],
    ["0x1.0000000000000p+0", "-0x1.0000000000000p+1", "0x1.0000000000000p+0",
     "0x1.0000000000000p+0", "-0x1.fe7fe2beb88d6p+0", "0x1.fd00e5a954b1ep-1"],
]


class TestBiquadCascade:
    def test_rejects_unstable_section(self):
        # poles of z^2 - 2.1 z + 1.2 lie outside the unit circle
        with pytest.raises(ValueError, match="stab|pole"):
            BiquadCascade([[1.0, 0.0, 0.0, 1.0, -2.1, 1.2]], 48000)

    def test_rejects_pole_on_unit_circle(self):
        # z^2 - 1 has its poles at +1 and -1
        with pytest.raises(ValueError, match="unstable biquad section: pole magnitude 1.000000"):
            BiquadCascade([[1.0, 0.0, 0.0, 1.0, 0.0, -1.0]], 48000)

    def test_sos_row_layout(self):
        c = BiquadCascade([[0.5, 0.1, 0.2, 1.0, -0.3, 0.4]], 48000)
        assert c.sos.shape == (1, 6) and c.sos.dtype == np.float64
        assert np.allclose(c.sos[0], [0.5, 0.1, 0.2, 1.0, -0.3, 0.4])

    def test_rejects_no_rows(self):
        with pytest.raises(ValueError, match="at least one section"):
            BiquadCascade(np.zeros((0, 6)), 48000)

    @pytest.mark.parametrize("shape", [(1, 5), (1, 7), (6,), (1, 1, 6)])
    def test_rejects_row_width(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"sos must have shape (sections, 6), got {shape}")):
            BiquadCascade(np.ones(shape), 48000)

    @pytest.mark.parametrize(
        "row",
        [[np.nan, 0.0, 0.0, 1.0, 0.0, 0.0], [np.inf, 0.0, 0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 1.0, np.nan, 0.0]],
        ids=["nan_b0", "inf_b0", "nan_a1"],
    )
    def test_rejects_non_finite_coefficient(self, row):
        # a NaN or inf b0 used to be accepted, and a NaN a1 failed inside np.roots
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="sos coefficients must be finite"):
                BiquadCascade([row], 48000)

    def test_rejects_a0_other_than_one(self):
        with pytest.raises(ValueError, match="a0 == 1"):
            BiquadCascade([[1.0, 0.0, 0.0, 2.0, 0.0, 0.0]], 48000)

    @pytest.mark.parametrize("rate", [0, -48000, 48000.5])
    def test_rejects_design_rate_that_is_not_a_positive_integer(self, rate):
        with pytest.raises(ValueError, match=re.escape(f"design_rate must be a positive integer, got {rate!r}")):
            BiquadCascade([[1.0, 0.0, 0.0, 1.0, 0.0, 0.0]], rate)

    def test_design_rate_is_stored_as_int(self):
        c = BiquadCascade([[1.0, 0.0, 0.0, 1.0, 0.0, 0.0]], np.int64(48000))
        assert type(c.design_rate) is int and c.design_rate == 48000

    def test_sos_is_a_read_only_copy(self):
        rows = np.array([[0.5, 0.1, 0.2, 1.0, -0.3, 0.4]])
        c = BiquadCascade(rows, 48000)
        assert not c.sos.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            c.sos[0, 4] = -2.1
        rows[0, 4:] = (-2.1, 1.2)  # unstable, but the cascade holds its own copy
        assert np.array_equal(c.sos[0], [0.5, 0.1, 0.2, 1.0, -0.3, 0.4])

    def test_equality_is_identity(self):
        c = design_k_weighting(48000)
        assert c == c
        assert c != design_k_weighting(48000)

    @pytest.mark.parametrize(
        "design,want", [(design_k_weighting, K_SOS_44K_HEX), (design_a_weighting, A_SOS_44K_HEX)], ids=["k", "a"]
    )
    def test_44k_design_is_pinned_to_the_bit(self, design, want):
        assert [[float(x).hex() for x in row] for row in design(44100).sos] == want


class TestKWeighting:
    def test_reproduces_published_48k_coefficients(self):
        sos = design_k_weighting(48000).sos
        assert sos.shape == (2, 6)
        for row, (b0, b1, b2, a1, a2) in zip(sos, K_TABLE_48K):
            np.testing.assert_allclose(row[[0, 1, 2, 4, 5]], [b0, b1, b2, a1, a2], atol=1e-9)

    def test_shelf_stage_boosts_high_frequencies_4db(self):
        cascade = design_k_weighting(48000)
        shelf = BiquadCascade(cascade.sos[:1], 48000)
        plateau = _mag_db(shelf, [14000.0])[0]
        assert plateau == pytest.approx(4.0, abs=0.05)
        assert _mag_db(shelf, [50.0])[0] == pytest.approx(0.0, abs=0.05)

    def test_highpass_stage_cuts_lows(self):
        cascade = design_k_weighting(48000)
        hp = BiquadCascade(cascade.sos[1:], 48000)
        assert _mag_db(hp, [20.0])[0] < -6.0
        assert _mag_db(hp, [1000.0])[0] == pytest.approx(0.0, abs=0.05)

    def test_44k_design_tracks_48k_response(self):
        c44 = design_k_weighting(44100)
        c48 = design_k_weighting(48000)
        freqs = np.geomspace(20, 16000, 300)
        diff = np.abs(_mag_db(c44, freqs) - _mag_db(c48, freqs))
        assert np.max(diff) < 0.3

    def test_rejects_low_design_rate(self):
        with pytest.raises(ValueError):
            design_k_weighting(4000)


class TestAWeighting:
    def test_unity_gain_at_1khz(self):
        for rate in (44100, 48000, 96000):
            h = frequency_response(design_a_weighting(rate), np.array([1000.0]))
            assert abs(np.abs(h[0]) - 1.0) < 1e-10

    def test_matches_analog_curve_below_16khz(self):
        # designed at a high rate so bilinear cramping stays negligible
        cascade = design_a_weighting(192000)
        freqs = np.geomspace(20, 16000, 300)
        analog = np.array([a_weight_analog_db(f) for f in freqs])
        assert np.max(np.abs(_mag_db(cascade, freqs) - analog)) < 0.3

    def test_10khz_attenuation(self):
        got = _mag_db(design_a_weighting(192000), [10000.0])[0]
        assert got == pytest.approx(-2.5, abs=0.3)

    def test_low_frequency_rolloff(self):
        got = _mag_db(design_a_weighting(48000), [100.0])[0]
        assert got == pytest.approx(a_weight_analog_db(100.0), abs=0.1)


class TestResponseAndApply:
    def test_frequency_response_matches_scipy(self):
        cascade = design_k_weighting(48000)
        freqs = np.linspace(10, 20000, 50)
        _, h_scipy = sosfreqz(cascade.sos, worN=2 * np.pi * freqs / 48000)
        np.testing.assert_allclose(frequency_response(cascade, freqs), h_scipy, atol=1e-12)

    def test_apply_cascade_scales_a_tone_by_its_response(self):
        rate = 48000
        t = np.arange(2 * rate) / rate
        x = np.sin(2 * np.pi * 5000 * t)
        buf = AudioBuffer(np.stack([x, x]), rate)
        cascade = design_k_weighting(rate)
        out = apply_cascade(cascade, buf)
        expected = np.abs(frequency_response(cascade, np.array([5000.0])))[0]
        steady = out.samples[0, rate // 2 :]
        assert np.max(np.abs(steady)) == pytest.approx(expected, rel=1e-3)

    def test_apply_cascade_twice_gives_the_same_output(self, rng):
        buf = AudioBuffer(rng.standard_normal((2, 5000)), 44100)
        cascade = design_k_weighting(44100)
        first = apply_cascade(cascade, buf).samples
        assert np.array_equal(apply_cascade(cascade, buf).samples, first)

    def test_apply_cascade_rate_mismatch(self):
        buf = AudioBuffer(np.zeros((1, 1000)), 44100)
        with pytest.raises(ValueError, match="44100.*48000|48000.*44100"):
            apply_cascade(design_k_weighting(48000), buf)

    def test_apply_cascade_with_swapped_arguments_names_their_types(self):
        buf = AudioBuffer(np.zeros((1, 1000)), 44100)
        message = "apply_cascade takes a BiquadCascade and an AudioBuffer, got AudioBuffer and BiquadCascade"
        with pytest.raises(ValueError, match=re.escape(message)):
            apply_cascade(buf, design_k_weighting(44100))

    def test_apply_preserves_shape_and_rate(self, rng):
        buf = AudioBuffer(rng.standard_normal((2, 5000)), 44100)
        out = apply_cascade(design_a_weighting(44100), buf)
        assert out.samples.shape == buf.samples.shape
        assert out.sample_rate == 44100
