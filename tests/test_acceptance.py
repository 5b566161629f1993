"""Acceptance suite: ten numbered criteria, one printed verdict line each.

Each test prints ``criterion NN PASS/FAIL: ...`` and registers the same
line for the terminal summary, where pytest capture cannot hide it, then
asserts. Criterion 05 asserts that the phase loss of identical inputs is
exactly zero and bounds the loss against a float64 global rotation by
``PHASE_ROTATION_BUDGET`` (a few ulp of pi; the rotated bins are rounded, so
even the exact value is not zero), with a one-bin nudge as a control that
must exceed the budget. Criterion 01 prints its runtime but does not gate on
it; runtime is gated by the benchmark (``bench/``, workload ``eval_30s``,
metric ``op_s_p50``, a median over repeated runs).
"""
from __future__ import annotations

import time

import numpy as np
import pytest
from scipy.signal import lfilter

from earmetrics import (
    AudioBuffer,
    MultiScaleConfig,
    StftConfig,
    ccpc_from_spectra,
    composite_objective,
    correlation_loss,
    curate_batch,
    design_k_weighting,
    evaluate_pair,
    icpc_from_spectra,
    instantaneous_frequency,
    integrated_lufs,
    istft,
    log_magnitude_distance,
    merge_mslr,
    phase_loss,
    phase_matrix,
    split_mslr,
    stft,
    true_peak_dbtp,
    wrap_phase,
)
from helpers import ACCEPTANCE_LINES, PHASE_ROTATION_BUDGET, faded, noise_stereo, quarter_rate_sine_45, toy_pair
from oracles import (
    K_TABLE_48K,
    ccpc_direct,
    correlation_loss_direct,
    icpc_direct,
    phase_loss_direct,
)

RATE = 44100


def _criterion(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    ACCEPTANCE_LINES.append(line)
    assert ok, line


def _battery() -> list[AudioBuffer]:
    """Twenty 5-second stereo signals: tones, chirps, noise, mixtures."""
    n = 5 * RATE
    t = np.arange(n) / RATE
    rng = np.random.default_rng(2718)

    def tone(f, amp=0.5, phase=0.0):
        return amp * np.sin(2 * np.pi * f * t + phase)

    def chirp(f0, f1, amp=0.5):
        return amp * np.sin(2 * np.pi * (f0 * t + 0.5 * (f1 - f0) * t**2 / 5.0))

    white = rng.standard_normal((6, n))
    lowpassed = lfilter([0.05], [1.0, -0.95], white[2])
    signals = [
        np.stack([tone(440), tone(554.37)]),
        np.stack([tone(220), tone(330)]),
        np.stack([tone(1000), tone(1001)]),
        np.stack([tone(3000), tone(80)]),
        np.stack([chirp(200, 4000), chirp(4000, 200)]),
        np.stack([chirp(50, 10000), chirp(100, 8000)]),
        0.3 * white[:2],
        0.05 * white[3:5] + 0.001,
        np.stack([lowpassed, lowpassed + 0.01 * white[4]]),
        np.stack([white[2] - lowpassed, white[5]]) * 0.2,
        np.stack([0.8 * tone(440) + 0.1 * white[0], 0.2 * tone(440) + 0.5 * white[1]]) * 0.5,
        np.stack([0.7 * chirp(300, 900) + 0.2 * white[2], 0.3 * chirp(300, 900) + 0.4 * white[3]]) * 0.5,
        np.stack([(1 + 0.5 * np.sin(2 * np.pi * 3 * t)) * tone(500), (1 + 0.3 * np.sin(2 * np.pi * 5 * t)) * tone(750)]) * 0.5,
        np.stack([np.sin(2 * np.pi * (800 * t + 10 * np.sin(2 * np.pi * 2 * t))), np.sin(2 * np.pi * (600 * t + 6 * np.sin(2 * np.pi * 3 * t)))]) * 0.4,
        np.stack([sum(tone(110 * k, 1.0 / k) for k in range(1, 11)), sum(tone(110 * k, 1.0 / k, 0.4) for k in range(1, 11))]) * 0.2,
        np.stack([0.02 * white[0] + faded(tone(1200), RATE, 1.0), 0.02 * white[1] + faded(tone(900), RATE, 2.0)]),
        np.stack([0.5 * white[4], 0.05 * white[5]]),
        np.stack([0.4 * white[0] + tone(256, 0.3), 0.4 * white[1] + tone(384, 0.3)]),
        np.stack([0.3 * white[2], -0.3 * white[2]]),
        np.stack([0.2 * white[3] + chirp(100, 2000, 0.3) + tone(55, 0.2), 0.2 * white[4] + chirp(2000, 100, 0.3) + tone(66, 0.2)]),
    ]
    return [AudioBuffer(x, RATE) for x in signals]


def test_criterion_01_perfect_reconstruction_battery():
    start = time.perf_counter()
    worst: dict[str, float] = {}
    ok = True
    for buf in _battery():
        report = evaluate_pair(buf, buf)
        ok = ok and report.mel_dist <= 1e-6 and report.stft_dist <= 1e-6
        ok = ok and round(report.icpc_percent, 2) == 100.0
        ok = ok and round(report.ccpc_percent, 2) == 100.0
        ok = ok and report.si_sdr_db == 100.0 and report.dbtp_dist == 0.0
        worst["mel"] = max(worst.get("mel", 0.0), report.mel_dist)
        worst["stft"] = max(worst.get("stft", 0.0), report.stft_dist)
        worst["icpc"] = min(worst.get("icpc", 100.0), report.icpc_percent)
        worst["ccpc"] = min(worst.get("ccpc", 100.0), report.ccpc_percent)
    elapsed = time.perf_counter() - start
    _criterion(
        1,
        ok,
        f"20 identity pairs: worst mel {worst['mel']:.2e}, stft {worst['stft']:.2e}, "
        f"icpc {worst['icpc']:.6f}%, ccpc {worst['ccpc']:.6f}%, runtime {elapsed:.1f} s",
    )


def test_criterion_02_k_weighting_calibration():
    sos = design_k_weighting(48000).sos
    coef_err = max(
        abs(row[i] - want)
        for row, table in zip(sos, K_TABLE_48K)
        for i, want in zip((0, 1, 2, 4, 5), table)
    )
    from earmetrics import frequency_response

    freqs = np.geomspace(20, 16000, 400)
    mag44 = 20 * np.log10(np.abs(frequency_response(design_k_weighting(44100), freqs)))
    mag48 = 20 * np.log10(np.abs(frequency_response(design_k_weighting(48000), freqs)))
    resp_dev = float(np.max(np.abs(mag44 - mag48)))
    ok = coef_err < 1e-6 and resp_dev < 0.3
    _criterion(2, ok, f"48 kHz coefficients within {coef_err:.2e} of the published table, 44.1 kHz response within {resp_dev:.4f} dB below 16 kHz")


def test_criterion_03_lufs_calibration():
    t = np.arange(5 * 48000) / 48000
    x = np.stack([np.sin(2 * np.pi * 997 * t), np.zeros_like(t)])
    base = integrated_lufs(AudioBuffer(x, 48000)).lufs_i
    cal_ok = abs(base - (-3.01)) <= 0.1
    lin_err = 0.0
    for gain_db in (-10.0, -20.0, -30.0, -40.0):
        got = integrated_lufs(AudioBuffer(x * 10 ** (gain_db / 20), 48000)).lufs_i
        lin_err = max(lin_err, abs(got - (base + gain_db)))
    ok = cal_ok and lin_err <= 0.05
    _criterion(3, ok, f"997 Hz single channel reads {base:.4f} LUFS, linearity error {lin_err:.2e} LU over 40 dB")


def test_criterion_04_true_peak_intersample():
    x = faded(quarter_rate_sine_45(48000, 2.0), 48000)
    sample_peak_db = 20 * np.log10(np.max(np.abs(x)))
    dbtp = true_peak_dbtp(AudioBuffer(x, 48000)).dbtp
    ok = abs(dbtp) <= 0.1 and abs(sample_peak_db - (-3.01)) <= 0.05
    _criterion(4, ok, f"fs/4 sine at 45 degrees: sample peak {sample_peak_db:.2f} dBFS, true peak {dbtp:+.4f} dBTP")


def test_criterion_05_phase_loss_analytics():
    rng = np.random.default_rng(31)
    sig = 0.9 * rng.standard_normal(2 * RATE)
    spec = stft(sig, StftConfig(1024))

    identity_exact = phase_loss(spec, spec) == 0.0
    rotations = [spec * np.exp(1j * c) for c in rng.uniform(-np.pi, np.pi, 10)]
    rot_max = max(phase_loss(spec, rot) for rot in rotations)
    # control: one bin moved by 1e-9 rad must already exceed the budget
    nudged = rotations[-1].copy()
    nudged[100, 50] *= np.exp(1e-9j)
    control = phase_loss(spec, nudged)
    rotation_ok = rot_max <= PHASE_ROTATION_BUDGET < control

    corr_err = max(
        abs(correlation_loss(spec, spec * np.exp(1j * c)) - (1 - np.cos(c)))
        for c in np.linspace(-3.0, 3.0, 9)
    )

    n, hop, k = 1024, 256, 9
    tone = 0.8 * np.sin(2 * np.pi * k / n * np.arange(2 * RATE))
    if_mat = instantaneous_frequency(phase_matrix(stft(tone, StftConfig(n, hop=hop))))
    expected = wrap_phase(2 * np.pi * k * hop / n)
    if_err = float(np.max(np.abs(wrap_phase(if_mat[4:-4, k] - expected))))

    ok = identity_exact and rotation_ok and corr_err <= 1e-6 and if_err <= 1e-3
    ulp = np.spacing(np.pi)
    _criterion(
        5,
        ok,
        f"identity loss exactly 0: {identity_exact}, rotation loss max {rot_max / ulp:.2f} ulp(pi), "
        f"one-bin nudge {control / ulp:.1f} ulp(pi), budget {PHASE_ROTATION_BUDGET / ulp:.0f} ulp(pi), "
        f"correlation vs 1-cos error {corr_err:.2e}, tone IF error {if_err:.2e} rad",
    )


def test_criterion_06_coherence_statistics():
    rng = np.random.default_rng(41)
    ref = stft(0.5 * rng.standard_normal(3 * RATE), StftConfig(2048, hop=512))
    scrambled = np.abs(ref) * np.exp(1j * rng.uniform(-np.pi, np.pi, ref.shape))
    random_icpc = icpc_from_spectra(ref, scrambled)

    base = noise_stereo(rate=RATE, seconds=2.0, amp=0.4, seed=42)
    rec = AudioBuffer(base.samples + 0.1 * rng.standard_normal(base.samples.shape), RATE)
    cfg = StftConfig(2048, hop=512)
    al, ar = (stft(base.samples[c], cfg) for c in (0, 1))
    bl, br = (stft(rec.samples[c], cfg) for c in (0, 1))
    plain = ccpc_from_spectra(al, ar, bl, br)
    rotated = ccpc_from_spectra(al, ar, bl * np.exp(1.1j), br * np.exp(1.1j))
    rot_dev = abs(plain - rotated)

    ok = ref.size >= 1e5 and random_icpc <= 5.0 and rot_dev <= 0.01
    _criterion(
        6,
        ok,
        f"random-phase ICPC {random_icpc:.2f}% over {ref.size} bins, "
        f"CCPC common-rotation shift {rot_dev:.2e} pp",
    )


def test_criterion_07_brute_force_oracle_equivalence():
    a, b = toy_pair()
    a2, _ = toy_pair()
    al, ar = a, 0.8 * b * np.exp(0.31j)
    bl, br = 1.1 * b, 0.9 * a2 * np.exp(-0.22j)
    errs = {
        "correlation": abs(correlation_loss(a, b) - correlation_loss_direct(a, b)),
        "phase": abs(phase_loss(a, b) - phase_loss_direct(a, b)),
        "icpc": abs(icpc_from_spectra(a, b) - icpc_direct(a, b)),
        "ccpc": abs(ccpc_from_spectra(al, ar, bl, br) - ccpc_direct(al, ar, bl, br)),
    }
    worst = max(errs.values())
    ok = worst <= 1e-9
    _criterion(7, ok, "8x4 toy spectrograms vs direct summation: worst |delta| " f"{worst:.2e} ({max(errs, key=errs.get)})")


def test_criterion_08_composite_objective_identity():
    cfg = MultiScaleConfig()
    ref = noise_stereo(rate=RATE, seconds=0.6, amp=0.5, seed=51)
    rec = AudioBuffer(
        ref.samples + 0.05 * np.random.default_rng(52).standard_normal(ref.samples.shape),
        RATE,
    )
    out = composite_objective(ref, rec, cfg)

    # mid, side, left, right of each signal
    comps_ref, comps_rec = ((*split_mslr(buf), *buf.samples) for buf in (ref, rec))
    mags = [log_magnitude_distance(a, b, cfg=cfg) for a, b in zip(comps_ref, comps_rec)]
    corrs, phases = [], []
    for a, b in zip(ref.samples, rec.samples):
        for n in cfg.fft_sizes:
            sc = cfg.stft_config(n)
            sa = stft(a, sc)
            sb = stft(b, sc)
            corrs.append(correlation_loss(sa, sb))
            phases.append(phase_loss(sa, sb))
    hand_total = 50.0 * np.mean(mags) + 10.0 * np.mean(corrs) + 10.0 * np.mean(phases)
    total_err = abs(out.weighted_total - hand_total)

    # averaging-set check: swapping channels leaves mid and side magnitudes
    # untouched, so the magnitude term must halve the left/right distance
    swapped = AudioBuffer(ref.samples[::-1], RATE)
    swap_mag = composite_objective(ref, swapped, cfg).stft_mag
    d_lr = log_magnitude_distance(ref.samples[0], ref.samples[1], cfg=cfg)
    set_err = abs(swap_mag - d_lr / 2)

    lambdas_ok = (out.lambda_stft_mag, out.lambda_corr, out.lambda_phase) == (50.0, 10.0, 10.0)
    ok = total_err <= 1e-9 and set_err <= 1e-9 and lambdas_ok
    _criterion(
        8,
        ok,
        f"weighted total within {total_err:.2e} of hand-weighted components, "
        f"magnitude averaging set verified within {set_err:.2e}",
    )


def test_criterion_09_curation_pipeline(tmp_path, curation_corpus):
    out = tmp_path / "out"
    decisions, summary = curate_batch(curation_corpus["dir"], out, stage="all")
    got = {d.input_path.rsplit("/", 1)[-1]: d.reason for d in decisions}
    pattern_ok = got == curation_corpus["expected_reasons"] and summary.kept == 1
    first = (out / "decisions.jsonl").read_bytes()
    curate_batch(curation_corpus["dir"], out, stage="all", jobs=4)
    second = (out / "decisions.jsonl").read_bytes()
    ok = pattern_ok and first == second
    _criterion(
        9,
        ok,
        f"six-file corpus: kept {summary.kept}, rejects {dict(sorted(summary.rejected_by_reason.items()))}, "
        f"rerun manifest byte-identical: {first == second}",
    )


def test_criterion_10_roundtrip_dsp():
    rng = np.random.default_rng(61)
    x = 0.6 * rng.standard_normal(2 * RATE)
    stft_err = 0.0
    for n, hop in ((1024, 256), (2048, 512), (512, 128)):
        cfg = StftConfig(n, hop=hop)
        stft_err = max(stft_err, float(np.max(np.abs(istft(stft(x, cfg), cfg, x.shape[0]) - x))))

    buf = noise_stereo(rate=RATE, seconds=2.0, amp=0.5, seed=62)
    mid, side = split_mslr(buf)
    back = merge_mslr(mid, side, RATE)
    merge_err = float(np.max(np.abs(back.samples - buf.samples)))

    lr = float(np.sum(buf.samples[0] ** 2) + np.sum(buf.samples[1] ** 2))
    ms = 2.0 * float(np.sum(mid**2) + np.sum(side**2))
    energy_err = abs(lr - ms) / lr

    ok = stft_err <= 1e-6 and merge_err <= 1e-12 and energy_err <= 1e-9
    _criterion(
        10,
        ok,
        f"stft/istft max error {stft_err:.2e}, split/merge max error {merge_err:.2e}, "
        f"energy identity relative error {energy_err:.2e}",
    )
