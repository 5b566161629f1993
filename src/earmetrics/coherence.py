"""Phase-coherence metrics, SI-SDR, and the full evaluation report.

ICPC (individual channel phase coherence) scores the stability of per-bin
phase error within a channel as an energy-weighted mean resultant length,
in percent. CCPC (cross channel phase coherence) applies the same statistic
to the preservation of the inter-channel phase difference. Both are taken
from 2048-point frames at hop 512 and score a constant phase offset as 100%
by construction; the correlation loss is the quantity that penalizes
constant offsets.

:func:`evaluate_pair` assembles the six-metric report (mel distance, STFT
log distance, ICPC, CCPC, SI-SDR, true-peak distance) for one
reference/reconstruction pair.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from itertools import zip_longest
from typing import Iterator

import numpy as np

from ._inputs import _bins_of, _channel_pair, _check_finite, _check_stereo_pair, _overflow_named, _takes
from .audio import _BLOCK_SAMPLES, AudioBuffer, StftConfig, _as_stereo, _stft_blocks, resample
from .loudness import dbtp_distance
from .phase import _cross
from .spectral import _LOG_EPSILON, MultiScaleConfig, _check_length, _LogL1, mel_filterbank
from .weighting import _prefilter_pair

__all__ = [
    "MetricReport",
    "SI_SDR_CAP_DB",
    "icpc",
    "ccpc",
    "icpc_from_spectra",
    "ccpc_from_spectra",
    "si_sdr",
    "align_pair",
    "evaluate_pair",
]

SI_SDR_CAP_DB = 100.0
_COHERENCE_STFT = StftConfig(fft_size=2048, hop=512)
_COHERENCE_EPSILON = 1e-8  # regularizes the per-frame and total weight normalizations


class _Resultants:
    """Per-frame resultant lengths and weights, gathered block by block.

    Each block adds, per frame, the length of the sum of every bin's weight
    times the unit phasor of its phase error, and the sum of those weights.
    """

    def __init__(self) -> None:
        self.resultants: list[np.ndarray] = []
        self.energies: list[np.ndarray] = []

    def _add(self, weighted: np.ndarray, weights: np.ndarray) -> None:
        self.resultants.append(np.abs(np.sum(weighted, axis=1)))
        self.energies.append(np.sum(weights, axis=1))

    def percent(self) -> tuple[float, bool]:
        """Energy-weighted mean resultant length over frames, as a percent.

        Returns the score and a degeneracy flag that is set when the total
        weight is below 1e-8 (silent input), in which case the score
        is 100 by convention rather than NaN.
        """
        eps = _COHERENCE_EPSILON
        resultant = np.concatenate(self.resultants)
        frame_energy = np.concatenate(self.energies)
        per_frame = resultant / (frame_energy + eps)
        total = float(np.sum(frame_energy))
        if total < eps:
            return 100.0, True
        score = 100.0 * float(np.sum(per_frame * frame_energy) / (total + eps))
        return float(np.clip(score, 0.0, 100.0)), False


class _Icpc(_Resultants):
    def add(self, a: np.ndarray, b: np.ndarray) -> None:
        # the weight |rec * conj(ref)| counts hallucinated and missing energy; its phase is the phase error
        weighted = _cross(a, b)
        self._add(weighted, np.abs(weighted))


class _Ccpc(_Resultants):
    def add(self, al: np.ndarray, ar: np.ndarray, bl: np.ndarray, br: np.ndarray) -> None:
        # P = (bl conj(br)) conj(al conj(ar)): phase = error of the inter-channel phase
        # difference, weight sqrt|P|. Built in place: each temporary adds to peak memory.
        # In the complex type of the four: real, integer and bool bins give the products of complex128 ones.
        kind = np.result_type(al, ar, bl, br, 1j)
        prod = np.conjugate(ar, dtype=kind)
        prod *= al
        np.conjugate(prod, out=prod)
        rec_ipd = np.conjugate(br, dtype=kind)
        rec_ipd *= bl
        prod *= rec_ipd
        del rec_ipd
        weights = np.sqrt(np.abs(prod))
        np.divide(prod, weights, out=prod, where=weights > 0)  # P == 0 stays 0
        self._add(prod, weights)


@_overflow_named("spectra")
def icpc_from_spectra(ref: np.ndarray, rec: np.ndarray) -> float:
    """ICPC in percent from two precomputed ``(frames, bins)`` single-channel spectrograms."""
    acc = _Icpc()
    acc.add(*_bins_of(ref, rec))
    return acc.percent()[0]


@_overflow_named("spectra")
def ccpc_from_spectra(
    ref_left: np.ndarray,
    ref_right: np.ndarray,
    rec_left: np.ndarray,
    rec_right: np.ndarray,
) -> float:
    """CCPC in percent from the four precomputed ``(frames, bins)`` channel spectrograms;
    real, integer or bool bins give the value of complex bins that hold their values."""
    acc = _Ccpc()
    acc.add(*_bins_of(ref_left, ref_right, rec_left, rec_right))
    return acc.percent()[0]


@_overflow_named("samples")
def icpc(ref_ch: np.ndarray, rec_ch: np.ndarray) -> float:
    """Individual channel phase coherence of one channel pair, in percent.

    Raises:
        ValueError: on length mismatch, non-finite samples, or finite samples
            so large that the statistic overflows float64.
    """
    acc = _Icpc()
    _stft_blocks(_channel_pair(ref_ch, rec_ch), _COHERENCE_STFT, acc.add)
    return acc.percent()[0]


@_overflow_named("samples")
def ccpc(ref: AudioBuffer, rec: AudioBuffer) -> float:
    """Cross channel phase coherence of a stereo pair, in percent.

    Raises:
        ValueError: on arguments that are not AudioBuffers, mono,
            mismatched or non-finite input, or finite samples so large that
            the statistic overflows float64.
    """
    _takes("ccpc", (ref, AudioBuffer), (rec, AudioBuffer))
    _check_stereo_pair(ref, rec, "ccpc")
    acc = _Ccpc()
    _stft_blocks((*ref.samples, *rec.samples), _COHERENCE_STFT, acc.add)
    return acc.percent()[0]


@_overflow_named("samples")
def si_sdr(ref: np.ndarray, rec: np.ndarray) -> float:
    """Scale-invariant signal-to-distortion ratio in dB, clamped to +/-100.

    The estimate is projected onto the reference (``alpha = <rec, ref> /
    <ref, ref>``) before the residual is measured. 2-D inputs of shape
    ``(channels, n)`` return the mean over channels.

    Raises:
        ValueError: on shape mismatch, no channels, channels that hold no
            samples, non-finite samples, an all-zero reference, or finite
            samples so large that a power overflows float64.
    """
    if np.ndim(ref) == 2 and np.shape(ref) == np.shape(rec):
        if not len(ref):
            raise ValueError(f"si_sdr needs at least one channel, got shape {np.shape(ref)}")
        return float(np.mean([si_sdr(a, b) for a, b in zip(ref, rec)]))
    a, b = _channel_pair(ref, rec)
    if not a.shape[0]:
        raise ValueError("si_sdr channels hold no samples")
    value = _si_sdr_channel(a, b)
    if value is None:
        raise ValueError("reference signal is all zeros")
    return value


def _float64_blocks(a: np.ndarray, b: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Consecutive ``_BLOCK_SAMPLES`` blocks of two equal-length channels, as float64."""
    for lo in range(0, a.shape[0], _BLOCK_SAMPLES):
        hi = lo + _BLOCK_SAMPLES
        yield np.asarray(a[lo:hi], np.float64), np.asarray(b[lo:hi], np.float64)


def _si_sdr_channel(a: np.ndarray, b: np.ndarray) -> float | None:
    """SI-SDR of one checked channel pair, or None when the reference is all zeros.

    Every power is summed over float64 blocks, so float32 channels are
    widened a block at a time and no full-length temporary is made."""
    ref_power = cross = 0.0
    for a_blk, b_blk in _float64_blocks(a, b):
        ref_power += float(np.dot(a_blk, a_blk))
        cross += float(np.dot(b_blk, a_blk))
    if ref_power == 0.0:
        return None
    alpha = cross / ref_power
    target_power = residual_power = 0.0
    for a_blk, b_blk in _float64_blocks(a, b):
        target = alpha * a_blk
        residual = b_blk - target
        target_power += float(np.dot(target, target))
        residual_power += float(np.dot(residual, residual))
    if not np.isfinite((ref_power, target_power, residual_power)).all():
        return float("nan")  # a power overflowed float64; the callers name the NaN
    if target_power == 0.0:
        return -SI_SDR_CAP_DB
    if residual_power == 0.0:
        return SI_SDR_CAP_DB
    value = 10.0 * np.log10(target_power / residual_power)
    return float(np.clip(value, -SI_SDR_CAP_DB, SI_SDR_CAP_DB))


@dataclass(frozen=True)
class MetricReport:
    """Six evaluation metrics plus configuration and input provenance.

    Serialized forms print percent and dB values with two decimals; the
    dataclass itself keeps full precision.
    """

    mel_dist: float
    stft_dist: float
    icpc_percent: float
    ccpc_percent: float
    si_sdr_db: float
    dbtp_dist: float
    config: dict = field(default_factory=dict)
    reference: str = "reference"
    reconstruction: str = "reconstruction"
    flags: tuple[str, ...] = ()

    METRIC_FIELDS = ("mel_dist", "stft_dist", "icpc_percent", "ccpc_percent", "si_sdr_db", "dbtp_dist")

    def __post_init__(self) -> None:
        for name in ("icpc_percent", "ccpc_percent"):
            v = getattr(self, name)
            if not 0.0 <= v <= 100.0:
                raise ValueError(f"{name} must be within [0, 100], got {v!r}")
        object.__setattr__(self, "flags", tuple(self.flags))

    def to_json(self) -> str:
        """One-line JSON document with metrics at two decimals."""
        metrics = ", ".join(f'"{k}": {getattr(self, k):.2f}' for k in self.METRIC_FIELDS)
        return (
            "{"
            f'"reference": {json.dumps(self.reference)}, '
            f'"reconstruction": {json.dumps(self.reconstruction)}, '
            f"{metrics}, "
            f'"flags": {json.dumps(list(self.flags))}, '
            f'"config": {json.dumps(self.config, sort_keys=True)}'
            "}"
        )

    @staticmethod
    def csv_header() -> str:
        return ",".join(MetricReport.METRIC_FIELDS + ("reference", "reconstruction", "flags"))

    def to_csv_row(self) -> str:
        """Metric fields in declaration order, then identifiers and flags."""
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="")
        writer.writerow(
            [f"{getattr(self, k):.2f}" for k in self.METRIC_FIELDS]
            + [self.reference, self.reconstruction, ";".join(self.flags)]
        )
        return out.getvalue()


def align_pair(ref: AudioBuffer, rec: AudioBuffer) -> tuple[AudioBuffer, AudioBuffer, list[str]]:
    """Normalize a pair for comparison: stereo, common rate, common length.

    Mono inputs are duplicated to stereo, a reconstruction at a different
    rate is resampled to the reference rate (the reference is never
    altered), and both are truncated to the shorter length. Every adjustment
    is recorded as a flag. Arguments that are not AudioBuffers, non-finite
    samples or no overlap raise ValueError.
    """
    _takes("align_pair", (ref, AudioBuffer), (rec, AudioBuffer))
    _check_finite(reference=ref.samples, reconstruction=rec.samples)
    flags: list[str] = []
    if ref.channels == 1:
        flags.append("mono_reference_duplicated")
    if rec.channels == 1:
        flags.append("mono_reconstruction_duplicated")
    if rec.sample_rate != ref.sample_rate:
        rec = resample(rec, ref.sample_rate)
        flags.append("reconstruction_resampled")
    ref, rec = _as_stereo(ref), _as_stereo(rec)
    if ref.num_samples != rec.num_samples:
        n = min(ref.num_samples, rec.num_samples)
        if n == 0:
            raise ValueError("signals have no overlapping samples")
        ref = AudioBuffer(ref.samples[:, :n], ref.sample_rate)
        rec = AudioBuffer(rec.samples[:, :n], rec.sample_rate)
        flags.append("truncated_to_common_length")
    return ref, rec, flags


@_overflow_named("samples", lambda out: out[0].values())
def _evaluate_aligned(
    ref: AudioBuffer,
    rec: AudioBuffer,
    ms_cfg: MultiScaleConfig,
) -> tuple[dict, list[str]]:
    """One pass over the scales, each a pass over blocks of frames with the
    channels inside. Each block's magnitudes feed the log and mel distances,
    and at the config equal to the coherence STFT the block feeds ICPC/CCPC;
    a bank without that config takes one more pass for it. One block of
    frames is alive at a time. Returns the metrics, SI-SDR None when every
    reference channel is silent, and the flags."""
    rate = ref.sample_rate
    _check_length(ref.num_samples, ms_cfg)
    dists = [
        [(_LogL1(_LOG_EPSILON), _LogL1(_LOG_EPSILON, mel_filterbank(ms_cfg.mel_bins_for(i), n, rate))) for _ in "lr"]
        for i, n in enumerate(ms_cfg.fft_sizes)
    ]
    configs = [ms_cfg.stft_config(n) for n in ms_cfg.fft_sizes]
    if _COHERENCE_STFT not in configs:
        configs.append(_COHERENCE_STFT)
    coh = (_Icpc(), _Icpc(), _Ccpc())
    channels = (ref.samples[0], rec.samples[0], ref.samples[1], rec.samples[1])
    for sc, scale_dists in zip_longest(configs, dists, fillvalue=()):

        def add_block(a_l, b_l, a_r, b_r):
            for (stft_d, mel_d), a, b in zip(scale_dists, (a_l, a_r), (b_l, b_r)):
                mag_a, mag_b = np.abs(a), np.abs(b)
                stft_d.add(mag_a, mag_b)
                mel_d.add(mag_a, mag_b)
                del mag_a, mag_b  # released before the next channel's, and before ICPC/CCPC's products
            if sc == _COHERENCE_STFT:
                coh[0].add(a_l, b_l)
                coh[1].add(a_r, b_r)
                coh[2].add(a_l, a_r, b_l, b_r)

        _stft_blocks(channels, sc, add_block)
    (icpc_l, deg_l), (icpc_r, deg_r), (ccpc_value, deg_c) = (c.percent() for c in coh)
    # align_pair checked the channels finite, and chunks are views of them
    sdr = [_si_sdr_channel(a, b) for a, b in zip(ref.samples, rec.samples)]
    heard = [v for v in sdr if v is not None]
    # per channel over scales, then over channels; SI-SDR over channels with a reference
    metrics = {
        "mel_dist": float(np.mean([np.mean([d[ch][1].mean() for d in dists]) for ch in (0, 1)])),
        "stft_dist": float(np.mean([np.mean([d[ch][0].mean() for d in dists]) for ch in (0, 1)])),
        "icpc_percent": float(np.mean([icpc_l, icpc_r])),
        "ccpc_percent": ccpc_value,
        "si_sdr_db": float(np.mean(heard)) if heard else None,
        "dbtp_dist": dbtp_distance(ref, rec),
    }
    flags = ["degenerate_coherence_input"] if deg_l or deg_r or deg_c else []
    return metrics, flags + (["silent_reference_channel"] if len(heard) < len(sdr) else [])


def evaluate_pair(
    ref: AudioBuffer,
    rec: AudioBuffer,
    ms_cfg: MultiScaleConfig | None = None,
    *,
    reference_id: str = "reference",
    reconstruction_id: str = "reconstruction",
    prefilter: str = "none",
    chunk_seconds: float | None = None,
) -> MetricReport:
    """Compute the full six-metric report for one pair.

    Inputs are aligned first (see :func:`align_pair`), then optionally
    pre-filtered (``"k"`` or ``"a"``) before all metrics. With
    ``chunk_seconds`` the aligned signals are cut into consecutive
    whole chunks of that duration, each chunk is evaluated, and the report
    carries the arithmetic mean of every metric over chunks. A chunk obeys
    the whole pair's length rule.

    Raises:
        ValueError: on arguments other than two AudioBuffers and a
            MultiScaleConfig or None, non-finite samples, finite samples so
            large that a metric overflows float64, empty overlap, a signal
            or chunk shorter than the largest window of the scale bank, a
            ``chunk_seconds`` that is not finite and positive, or an invalid
            prefilter.
    """
    if chunk_seconds is not None and not 0.0 < chunk_seconds < float("inf"):
        raise ValueError(f"chunk_seconds must be finite and positive, got {chunk_seconds!r}")
    ms_cfg = MultiScaleConfig() if ms_cfg is None else ms_cfg
    _takes("evaluate_pair", (ref, AudioBuffer), (rec, AudioBuffer), (ms_cfg, MultiScaleConfig))
    ref, rec, flags = align_pair(ref, rec)
    rate = ref.sample_rate
    ref, rec = _prefilter_pair(prefilter, ref, rec)
    config = {
        "sample_rate": rate,
        "fft_sizes": list(ms_cfg.fft_sizes),
        "hop_ratio": 0.25,
        "log_epsilon": _LOG_EPSILON,
        "mel_bins": [ms_cfg.mel_bins_for(i) for i in range(len(ms_cfg.fft_sizes))],
        "coherence_fft_size": _COHERENCE_STFT.fft_size,
        "coherence_hop": _COHERENCE_STFT.hop,
        "coherence_epsilon": _COHERENCE_EPSILON,
        "weight_mode": "product",
        "si_sdr_cap_db": SI_SDR_CAP_DB,
        "prefilter": prefilter,
        "chunk_seconds": chunk_seconds,
    }
    chunks, tail = [(ref, rec)], []
    if chunk_seconds is not None:
        n_chunks = 0
        # compared as a float first: a finite chunk_seconds * rate can overflow to inf
        if chunk_seconds * rate < ref.num_samples + 1:
            n_chunk = int(round(chunk_seconds * rate))
            _check_length(n_chunk, ms_cfg, "chunk")
            n_chunks = ref.num_samples // n_chunk
        tail = ["chunked" if n_chunks else "shorter_than_one_chunk"]
        if n_chunks:
            chunks = (
                tuple(AudioBuffer(buf.samples[:, lo : lo + n_chunk], rate) for buf in (ref, rec))
                for lo in range(0, n_chunks * n_chunk, n_chunk)
            )
    rows = []
    extra_flags: set[str] = set()
    for chunk_ref, chunk_rec in chunks:
        row, extra = _evaluate_aligned(chunk_ref, chunk_rec, ms_cfg)
        rows.append(row)
        extra_flags.update(extra)
    if all(r["si_sdr_db"] is None for r in rows):
        raise ValueError("reference signal is all zeros")
    metrics = {k: float(np.mean([r[k] for r in rows if r[k] is not None])) for k in rows[0]}
    flags += sorted(extra_flags) + tail
    return MetricReport(
        reference=reference_id,
        reconstruction=reconstruction_id,
        config=config,
        flags=tuple(flags),
        **metrics,
    )
