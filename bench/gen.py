"""Seeded inputs for the benchmark workloads.

Everything here is built from numpy and the standard library only, so the
inputs do not depend on the code under test. The same seed always gives the
same samples.

- :func:`music_pair` builds a music-like stereo reference and a
  reconstruction with noise injected at a known SNR.
- :func:`write_corpus` writes the mixed-format curation corpus, where every
  file is designed to land on one known curation reason.
"""

from __future__ import annotations

import json
import os
import wave
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
from scipy.io import wavfile

RATE = 44100

# Loudness targets of the curation corpus, chosen with wide margins from the
# default gates [-22, -5] LUFS and +1.0 dBTP (see ``corpus_specs``).
_KEEP_LUFS = -15.0
_LOW_LUFS = -32.0
_TRUE_PEAK_BED_LUFS = -18.0
# Sample amplitude of the fs/4 bursts: samples sit at +-0.95 full scale, the
# waveform between them peaks at 0.95 * sqrt(2), i.e. +2.56 dBTP.
_BURST_SAMPLE_PEAK = 0.95
_TABLE = 2048  # wavetable length; linear reading error stays below 1e-4


def _seed_rng(*parts: int) -> np.random.Generator:
    return np.random.default_rng(list(parts))


def music(rng: np.random.Generator, seconds: float, rate: int, channels: int, voices: int = 3) -> np.ndarray:
    """Music-like signal: enveloped harmonic notes, panned and delayed per voice.

    Returns float64 of shape ``(channels, n)`` scaled so the mean square over
    all channels is 1. Partials stay below ``min(12 kHz, 0.45 * rate)``.
    """
    n = int(round(seconds * rate))
    out = np.zeros((channels, n))
    cap = min(12000.0, 0.45 * rate)
    for _ in range(voices):
        pan = rng.uniform(0.15, 0.85)
        gains = (np.cos(pan * np.pi / 2), np.sin(pan * np.pi / 2))
        delay = int(rng.integers(0, 24))  # inter-channel delay, < 0.6 ms at 44.1 kHz
        voice = np.zeros(n)
        start = 0
        while start < n:
            length = min(n - start, int(rng.uniform(0.25, 0.9) * rate))
            f0 = 440.0 * 2.0 ** ((rng.integers(40, 77) - 69) / 12.0)
            ks = np.arange(1, 9)
            ks = ks[ks * f0 < cap]
            amps = rng.uniform(0.6, 1.0, ks.size) / ks
            phases = rng.uniform(0.0, 2 * np.pi, ks.size)
            # one period of the note in a wavetable, read at the note's pitch
            grid = np.arange(_TABLE + 1)
            table = amps @ np.sin(2 * np.pi * ks[:, None] * grid / _TABLE + phases[:, None])
            t = np.arange(length) / rate
            tone = np.interp((f0 * t) % 1.0 * _TABLE, grid, table)
            env = np.exp(-t / rng.uniform(0.3, 0.8))
            ramp = min(length, int(0.01 * rate))
            env[:ramp] *= np.linspace(0.0, 1.0, ramp)
            env[length - ramp :] *= np.linspace(1.0, 0.0, ramp)
            voice[start : start + length] += tone * env
            start += length
        if channels == 1:
            out[0] += voice
        else:
            out[0] += gains[0] * voice
            out[1, delay:] += gains[1] * voice[: n - delay]
    out /= np.sqrt(np.mean(out**2))
    out += 10 ** (-45 / 20) * rng.standard_normal(out.shape)
    return out / np.sqrt(np.mean(out**2))


def _lowpass(x: np.ndarray, rate: int, f_pass: float = 15000.0, f_stop: float = 19000.0) -> np.ndarray:
    """Zero-phase low-pass with a raised-cosine roll-off, applied in the DFT."""
    spec = np.fft.rfft(x, axis=-1)
    freqs = np.fft.rfftfreq(x.shape[-1], 1.0 / rate)
    gain = np.clip((f_stop - freqs) / (f_stop - f_pass), 0.0, 1.0)
    spec *= 0.5 - 0.5 * np.cos(np.pi * gain)
    return np.fft.irfft(spec, n=x.shape[-1], axis=-1)


@dataclass(frozen=True)
class Pair:
    ref: np.ndarray  # float32, (2, n)
    rec: np.ndarray  # float32, (2, n)
    rate: int
    snr_db: float


def music_pair(seed: int, index: int, seconds: float, rate: int = RATE) -> Pair:
    """Reference/reconstruction pair number ``index`` of run ``seed``.

    The reference is :func:`music` at -20 dBFS RMS with one stretch of
    digital silence. The reconstruction is the reference, low-passed from
    15 kHz, plus white noise at an SNR drawn from [15, 25] dB. The noise is
    made orthogonal to the reference per channel and the low-pass removes
    almost no energy, so SI-SDR equals the injected SNR to well under 0.1 dB.
    """
    rng = _seed_rng(seed, index, 1)
    ref = 0.1 * music(rng, seconds, rate, 2)
    n = ref.shape[1]
    gap = int(rng.uniform(0.2, 0.7) * n)
    ref[:, gap : gap + rate // 2] = 0.0
    ref = ref.astype(np.float32).astype(np.float64)
    snr_db = float(rng.uniform(15.0, 25.0))
    rec = _lowpass(ref, rate)
    noise = rng.standard_normal(ref.shape)
    for ch in range(2):
        noise[ch] -= (noise[ch] @ ref[ch]) / (ref[ch] @ ref[ch]) * ref[ch]
        noise[ch] *= np.sqrt((ref[ch] @ ref[ch]) / (noise[ch] @ noise[ch]) / 10 ** (snr_db / 10))
    return Pair(ref.astype(np.float32), (rec + noise).astype(np.float32), rate, snr_db)


def write_wav(path: Path, x: np.ndarray, rate: int, fmt: str) -> None:
    """Write ``x`` of shape ``(channels, n)`` as ``pcm16``, ``pcm24`` or ``float32``.

    The file is synced to disk before returning, so its write-back does not
    run during the timed op that reads it.
    """
    frames = np.ascontiguousarray(x.T)
    if fmt == "float32":
        wavfile.write(path, rate, frames.astype(np.float32))
    else:
        bits = {"pcm16": 16, "pcm24": 24}[fmt]
        full = 2 ** (bits - 1)
        q = np.clip(np.rint(frames * full), -full, full - 1).astype("<i4")
        raw = np.frombuffer(q.tobytes(), np.uint8).reshape(-1, 4)[:, : bits // 8].tobytes()
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(x.shape[0])
            fh.setsampwidth(bits // 8)
            fh.setframerate(rate)
            fh.writeframes(raw)
    with open(path, "rb+") as fh:
        os.fsync(fh.fileno())


@dataclass(frozen=True)
class CorpusFile:
    name: str
    reason: str  # the curation reason the file is designed to get
    rate: int
    channels: int
    fmt: str
    seconds: float


# (reason, count); formats, channel counts and rates cycle within each reason
_CORPUS_PLAN = (
    ("none", 12),
    ("below_rate", 6),
    ("lufs_low", 7),
    ("lufs_high", 7),
    ("true_peak_exceeded", 7),
    ("decode_error", 1),
)
_FORMATS = ("pcm16", "pcm24", "float32")
_HIGH_RATES = (44100, 48000, 96000)


def corpus_specs() -> list[CorpusFile]:
    """The 40 files of the curation corpus, in name order.

    The layout is the same for every seed, so every batch does the same
    amount of work; the seed draws only the content (:func:`write_corpus`).
    Each length from 5 to 15 s in steps of 10/39 s occurs once.
    ``below_rate`` files are at 22.05 kHz; ``true_peak_exceeded`` files are
    at 44.1 kHz, because their inter-sample peaks are placed on that grid.
    """
    plan = [(reason, i) for reason, count in _CORPUS_PLAN for i in range(count)]
    order = np.random.default_rng(0).permutation(len(plan))  # interleaves the reasons
    specs = []
    for slot, k in enumerate(order):
        reason, i = plan[k]
        if reason == "below_rate":
            rate = 22050
        elif reason == "true_peak_exceeded":
            rate = 44100
        else:
            rate = _HIGH_RATES[i % 3]
        specs.append(
            CorpusFile(
                name=f"clip_{slot:02d}.wav",
                reason=reason,
                rate=rate,
                channels=1 + (i + slot) % 2,
                fmt=_FORMATS[(i // 2) % 3],
                seconds=round(5.0 + 10.0 * float(k * 17 % len(plan)) / (len(plan) - 1), 3),
            )
        )
    return specs


def _at_lufs(x: np.ndarray, lufs: float) -> np.ndarray:
    """Scale unit-mean-square ``x`` to an estimated integrated loudness.

    Estimate: -0.691 + 10 log10(sum of channel mean squares) with mono
    counted twice, as the curation pipeline duplicates mono to stereo. The
    K-weighting gain of the music-like content moves this by well under
    1 dB, far inside the margins the targets leave.
    """
    total_ms = 2.0 * np.mean(x**2)
    return x * np.sqrt(10 ** ((lufs + 0.691) / 10) / total_ms)


def corpus_signal(spec: CorpusFile, seed: int, slot: int) -> np.ndarray:
    """Samples of one corpus file, shaped to land on ``spec.reason``."""
    rng = _seed_rng(seed, slot, 3)
    ch, rate = spec.channels, spec.rate
    if spec.reason == "lufs_high":
        # A near full-scale steady tone at 2-4 kHz, where K-weighting adds
        # about +3 dB: roughly 0 LUFS, 5 LU above the upper gate.
        n = int(round(spec.seconds * rate))
        t = np.arange(n) / rate
        tone = 0.85 * np.sin(2 * np.pi * rng.uniform(2000.0, 4000.0) * t)
        return np.tile(tone, (ch, 1))
    if spec.reason == "lufs_low":
        return _at_lufs(music(rng, spec.seconds, rate, ch, voices=2), _LOW_LUFS)
    if spec.reason != "true_peak_exceeded":
        return _at_lufs(music(rng, spec.seconds, rate, ch, voices=2), _KEEP_LUFS)
    x = _at_lufs(music(rng, spec.seconds, rate, ch, voices=2), _TRUE_PEAK_BED_LUFS)
    width, ramp = int(0.05 * rate), int(0.005 * rate)
    env = np.ones(width)
    env[:ramp] = env[-ramp:][::-1] = 0.5 - 0.5 * np.cos(np.pi * np.arange(ramp) / ramp)
    burst = _BURST_SAMPLE_PEAK * np.sqrt(2) * np.sin(0.5 * np.pi * np.arange(width) + 0.25 * np.pi) * env
    for k in range(3):
        start = int((0.2 + 0.3 * k) * x.shape[1])
        x[:, start - ramp : start + width + ramp] = 0.0
        x[k % ch, start : start + width] = burst
    return x


def write_corpus(seed: int, directory: Path) -> list[CorpusFile]:
    """Write the corpus of ``seed`` into ``directory`` and record each file's
    designed reason in ``directory/../designed.json``."""
    directory.mkdir(parents=True, exist_ok=True)
    specs = corpus_specs()
    for slot, spec in enumerate(specs):
        path = directory / spec.name
        if spec.reason == "decode_error":
            # A WAV cut off inside its format chunk.
            write_wav(path, np.zeros((spec.channels, 16)), spec.rate, spec.fmt)
            path.write_bytes(path.read_bytes()[:30])
            continue
        write_wav(path, corpus_signal(spec, seed, slot), spec.rate, spec.fmt)
    (directory.parent / "designed.json").write_text(json.dumps([asdict(s) for s in specs], indent=1))
    return specs
