"""Phase-coherence metrics, SI-SDR, and the full evaluation report.

ICPC (individual channel phase coherence) scores the stability of per-bin
phase error within a channel as an energy-weighted mean resultant length,
in percent. CCPC (cross channel phase coherence) applies the same statistic
to the preservation of the inter-channel phase difference. Both score a
constant phase offset as 100% by construction; the correlation loss is the
quantity that penalizes constant offsets.

:func:`evaluate_pair` assembles the six-metric report (mel distance, STFT
log distance, ICPC, CCPC, SI-SDR, true-peak distance) for one
reference/reconstruction pair.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

import numpy as np

from .audio import AudioBuffer, ComplexSpectrogram, StftConfig, _as_stereo, resample, stft
from .loudness import dbtp_distance
from .phase import _bins_of
from .spectral import MultiScaleConfig, _check_length, _scale_distance, mel_filterbank
from .stereo import _channel_pair, _check_finite, _check_stereo_pair
from .weighting import _prefilter_pair

__all__ = [
    "CoherenceConfig",
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

_WEIGHT_MODES = ("product", "reference_energy")


@dataclass(frozen=True)
class CoherenceConfig:
    """STFT resolution, regularizer, and weighting mode for ICPC/CCPC.

    ``product`` weights bins by ``|S_ref| * |S_rec|`` (penalizing both
    hallucinated and missing energy); ``reference_energy`` uses
    ``|S_ref|**2``.
    """

    stft: StftConfig = StftConfig(fft_size=2048, hop=512)
    epsilon: float = 1e-8
    weight_mode: str = "product"

    def __post_init__(self) -> None:
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon!r}")
        if self.weight_mode not in _WEIGHT_MODES:
            raise ValueError(f"weight_mode must be one of {_WEIGHT_MODES}, got {self.weight_mode!r}")


def _resultant_percent(weighted: np.ndarray, weights: np.ndarray, eps: float) -> tuple[float, bool]:
    """Energy-weighted mean resultant length over frames, as a percent.

    ``weighted`` holds each bin's weight times the unit phasor of its phase
    error. Returns the score and a degeneracy flag that is set when the
    total weight is below ``eps`` (silent input), in which case the score is
    100 by convention rather than NaN.
    """
    resultant = np.abs(np.sum(weighted, axis=1))
    frame_energy = np.sum(weights, axis=1)
    per_frame = resultant / (frame_energy + eps)
    total = float(np.sum(frame_energy))
    if total < eps:
        return 100.0, True
    score = 100.0 * float(np.sum(per_frame * frame_energy) / (total + eps))
    return float(np.clip(score, 0.0, 100.0)), False


def _icpc_core(
    ref: ComplexSpectrogram | np.ndarray,
    rec: ComplexSpectrogram | np.ndarray,
    cfg: CoherenceConfig,
) -> tuple[float, bool]:
    a, b = _bins_of(ref, rec)
    if cfg.weight_mode == "product":
        # |rec * conj(ref)| is the weight and its phase the phase error
        weighted = b * np.conj(a)
        return _resultant_percent(weighted, np.abs(weighted), cfg.epsilon)
    # |ref| * conj(ref) * unit(rec); a silent rec bin reads as phase 0
    mag_a = np.abs(a)
    unit_b = np.divide(b, np.abs(b), out=np.ones_like(b), where=b != 0)
    return _resultant_percent(mag_a * np.conj(a) * unit_b, mag_a**2, cfg.epsilon)


def _ccpc_core(
    ref_left: ComplexSpectrogram | np.ndarray,
    ref_right: ComplexSpectrogram | np.ndarray,
    rec_left: ComplexSpectrogram | np.ndarray,
    rec_right: ComplexSpectrogram | np.ndarray,
    cfg: CoherenceConfig,
) -> tuple[float, bool]:
    al, ar, bl, br = _bins_of(ref_left, ref_right, rec_left, rec_right)
    # P = (bl conj(br)) conj(al conj(ar)): phase = error of the inter-channel phase
    # difference, weight sqrt|P|. Built in place: each full-size temporary adds to peak memory.
    prod = np.conjugate(ar)
    prod *= al
    np.conjugate(prod, out=prod)
    rec_ipd = np.conjugate(br)
    rec_ipd *= bl
    prod *= rec_ipd
    del rec_ipd
    weights = np.sqrt(np.abs(prod))
    np.divide(prod, weights, out=prod, where=weights > 0)  # P == 0 stays 0
    return _resultant_percent(prod, weights, cfg.epsilon)


def icpc_from_spectra(
    ref: ComplexSpectrogram | np.ndarray,
    rec: ComplexSpectrogram | np.ndarray,
    cfg: CoherenceConfig | None = None,
) -> float:
    """ICPC in percent from two precomputed single-channel spectrograms."""
    return _icpc_core(ref, rec, cfg or CoherenceConfig())[0]


def ccpc_from_spectra(
    ref_left: ComplexSpectrogram | np.ndarray,
    ref_right: ComplexSpectrogram | np.ndarray,
    rec_left: ComplexSpectrogram | np.ndarray,
    rec_right: ComplexSpectrogram | np.ndarray,
    cfg: CoherenceConfig | None = None,
) -> float:
    """CCPC in percent from the four precomputed channel spectrograms."""
    return _ccpc_core(ref_left, ref_right, rec_left, rec_right, cfg or CoherenceConfig())[0]


def icpc(
    ref_ch: np.ndarray,
    rec_ch: np.ndarray,
    rate: int,
    cfg: CoherenceConfig | None = None,
) -> float:
    """Individual channel phase coherence of one channel pair, in percent.

    Raises:
        ValueError: on length mismatch or non-finite samples.
    """
    cfg = cfg or CoherenceConfig()
    a, b = _channel_pair(ref_ch, rec_ch)
    return icpc_from_spectra(stft(a, cfg.stft, rate), stft(b, cfg.stft, rate), cfg)


def ccpc(ref: AudioBuffer, rec: AudioBuffer, cfg: CoherenceConfig | None = None) -> float:
    """Cross channel phase coherence of a stereo pair, in percent.

    Raises:
        ValueError: on mono, mismatched or non-finite input.
    """
    cfg = cfg or CoherenceConfig()
    _check_stereo_pair(ref, rec, "ccpc")
    rate = ref.sample_rate
    specs = (stft(buf.samples[ch], cfg.stft, rate) for buf in (ref, rec) for ch in range(2))
    return ccpc_from_spectra(*specs, cfg)


def si_sdr(ref: np.ndarray, rec: np.ndarray) -> float:
    """Scale-invariant signal-to-distortion ratio in dB, clamped to +/-100.

    The estimate is projected onto the reference (``alpha = <rec, ref> /
    <ref, ref>``) before the residual is measured. 2-D inputs of shape
    ``(channels, n)`` return the mean over channels.

    Raises:
        ValueError: on shape mismatch or an all-zero reference.
    """
    a = np.asarray(ref, dtype=np.float64)
    b = np.asarray(rec, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shapes differ: {a.shape} vs {b.shape}")
    if a.ndim == 2:
        return float(np.mean([si_sdr(a[i], b[i]) for i in range(a.shape[0])]))
    if a.ndim != 1:
        raise ValueError(f"expected 1-D or 2-D input, got {a.ndim}-D")
    ref_power = float(np.dot(a, a))
    if ref_power == 0.0:
        raise ValueError("reference signal is all zeros")
    alpha = float(np.dot(b, a)) / ref_power
    target = alpha * a
    residual = b - target
    target_power = float(np.dot(target, target))
    residual_power = float(np.dot(residual, residual))
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
    is recorded as a flag. Non-finite samples or no overlap raise ValueError.
    """
    _check_finite(ref.samples, rec.samples)
    flags: list[str] = []
    if ref.channels == 1:
        flags.append("mono_reference_duplicated")
    if rec.channels == 1:
        flags.append("mono_reconstruction_duplicated")
    ref, rec = _as_stereo(ref), _as_stereo(rec)
    if rec.sample_rate != ref.sample_rate:
        rec = resample(rec, ref.sample_rate)
        flags.append("reconstruction_resampled")
    if ref.num_samples != rec.num_samples:
        n = min(ref.num_samples, rec.num_samples)
        if n == 0:
            raise ValueError("signals have no overlapping samples")
        ref = AudioBuffer(ref.samples[:, :n], ref.sample_rate)
        rec = AudioBuffer(rec.samples[:, :n], rec.sample_rate)
        flags.append("truncated_to_common_length")
    return ref, rec, flags


def _coherence(
    specs: list[tuple[ComplexSpectrogram, ComplexSpectrogram]], cfg: CoherenceConfig
) -> tuple[float, float, bool]:
    """Mean ICPC, CCPC and the degeneracy flag from a ``(ref, rec)`` pair per channel."""
    (ref_l, rec_l), (ref_r, rec_r) = specs
    icpc_l, icpc_r = _icpc_core(ref_l, rec_l, cfg), _icpc_core(ref_r, rec_r, cfg)
    ccpc_value, degenerate = _ccpc_core(ref_l, ref_r, rec_l, rec_r, cfg)
    return float(np.mean([icpc_l[0], icpc_r[0]])), ccpc_value, icpc_l[1] or icpc_r[1] or degenerate


def _evaluate_aligned(
    ref: AudioBuffer,
    rec: AudioBuffer,
    ms_cfg: MultiScaleConfig,
    coh_cfg: CoherenceConfig,
) -> tuple[dict, list[str]]:
    """One pass over the scales, channels inside. Each spectrogram and its
    magnitude feed the log and mel distances, and at the scale equal to the
    coherence STFT also ICPC/CCPC. One scale's spectra are alive at a time."""
    rate = ref.sample_rate
    _check_length(ref.num_samples, ms_cfg)

    def spectra(sc: StftConfig) -> list[tuple[ComplexSpectrogram, ComplexSpectrogram]]:
        return [(stft(ref.samples[ch], sc, rate), stft(rec.samples[ch], sc, rate)) for ch in range(2)]

    stft_vals: list[list[float]] = [[], []]
    mel_vals: list[list[float]] = [[], []]
    coherence = None
    for i, n in enumerate(ms_cfg.fft_sizes):
        sc = ms_cfg.stft_config(n)
        mel_fb = mel_filterbank(ms_cfg.mel_bins_for(i), n, rate)
        specs = spectra(sc)
        if coherence is None and sc == coh_cfg.stft:
            coherence = _coherence(specs, coh_cfg)
        for ch, (a, b) in enumerate(specs):
            mag_a, mag_b = np.abs(a.bins), np.abs(b.bins)
            stft_vals[ch].append(_scale_distance(mag_a, mag_b, ms_cfg.log_epsilon))
            mel_vals[ch].append(_scale_distance(mag_a, mag_b, ms_cfg.log_epsilon, mel_fb))
        del specs, a, b, mag_a, mag_b
    if coherence is None:
        coherence = _coherence(spectra(coh_cfg.stft), coh_cfg)
    icpc_value, ccpc_value, degenerate = coherence
    metrics = {
        "mel_dist": float(np.mean([np.mean(v) for v in mel_vals])),
        "stft_dist": float(np.mean([np.mean(v) for v in stft_vals])),
        "icpc_percent": icpc_value,
        "ccpc_percent": ccpc_value,
        "si_sdr_db": si_sdr(ref.samples, rec.samples),
        "dbtp_dist": dbtp_distance(ref, rec),
    }
    return metrics, ["degenerate_coherence_input"] if degenerate else []


def evaluate_pair(
    ref: AudioBuffer,
    rec: AudioBuffer,
    ms_cfg: MultiScaleConfig | None = None,
    coh_cfg: CoherenceConfig | None = None,
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
    carries the arithmetic mean of every metric over chunks.

    Raises:
        ValueError: on non-finite samples, empty overlap, a signal or chunk
            shorter than the largest analysis window, a ``chunk_seconds`` that
            is not finite and positive, or an invalid prefilter.
    """
    if chunk_seconds is not None and not 0.0 < chunk_seconds < float("inf"):
        raise ValueError(f"chunk_seconds must be finite and positive, got {chunk_seconds!r}")
    ms_cfg = ms_cfg or MultiScaleConfig()
    coh_cfg = coh_cfg or CoherenceConfig()
    ref, rec, flags = align_pair(ref, rec)
    rate = ref.sample_rate
    ref, rec = _prefilter_pair(prefilter, ref, rec)
    min_len = max(max(ms_cfg.fft_sizes), coh_cfg.stft.fft_size)
    config = {
        "sample_rate": rate,
        "fft_sizes": list(ms_cfg.fft_sizes),
        "hop_ratio": ms_cfg.hop_ratio,
        "log_epsilon": ms_cfg.log_epsilon,
        "mel_bins": [ms_cfg.mel_bins_for(i) for i in range(len(ms_cfg.fft_sizes))],
        "coherence_fft_size": coh_cfg.stft.fft_size,
        "coherence_hop": coh_cfg.stft.hop,
        "coherence_epsilon": coh_cfg.epsilon,
        "weight_mode": coh_cfg.weight_mode,
        "si_sdr_cap_db": SI_SDR_CAP_DB,
        "prefilter": prefilter,
        "chunk_seconds": chunk_seconds,
    }
    chunks, tail = [(ref, rec)], []
    if chunk_seconds is not None:
        n_chunk = int(round(chunk_seconds * rate))
        if n_chunk < min_len:
            raise ValueError(
                f"chunk of {n_chunk} samples is shorter than the largest analysis window ({min_len})"
            )
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
        row, extra = _evaluate_aligned(chunk_ref, chunk_rec, ms_cfg, coh_cfg)
        rows.append(row)
        extra_flags.update(extra)
    metrics = {k: float(np.mean([r[k] for r in rows])) for k in rows[0]}
    flags += sorted(extra_flags) + tail
    return MetricReport(
        reference=reference_id,
        reconstruction=reconstruction_id,
        config=config,
        flags=tuple(flags),
        **metrics,
    )
