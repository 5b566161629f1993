"""Independent reference implementations used to cross-check the package.

Everything here is written as plain loops over scalars, directly from the
defining formulas, and deliberately shares no code with the package beyond
numpy scalars. Slow is fine; these run on tiny inputs.

The exceptions are the whole-array references at the end: they compute each
metric from one whole spectrogram per channel and scale, as numpy array
formulas, and check the package's block-by-block analysis on real signal
lengths. They take the mel filterbank from the package, which is not what
they check; likewise the resampling reference takes the package's filter
and sums it with ``scipy.signal.resample_poly``.
"""
from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def wrap_direct(x: float) -> float:
    """Map an angle into (-pi, pi] by repeated shifting."""
    a = float(x)
    while a > math.pi:
        a -= TWO_PI
    while a <= -math.pi:
        a += TWO_PI
    return a


def correlation_loss_direct(ref: np.ndarray, rec: np.ndarray, eps: float = 1e-8) -> float:
    """Mean of 1 - cos(phase error), one bin at a time."""
    total = 0.0
    count = 0
    for t in range(ref.shape[0]):
        for f in range(ref.shape[1]):
            a = complex(ref[t, f])
            b = complex(rec[t, f])
            num = (b * a.conjugate()).real
            den = abs(a) * abs(b) + eps
            total += 1.0 - num / den
            count += 1
    return total / count


def phase_loss_direct(ref: np.ndarray, rec: np.ndarray, eps: float = 1e-8) -> float:
    """Weighted L1 of IF error plus weighted L1 of GD error."""
    frames, bins = ref.shape
    pa = [[math.atan2(ref[t, f].imag, ref[t, f].real) for f in range(bins)] for t in range(frames)]
    pb = [[math.atan2(rec[t, f].imag, rec[t, f].real) for f in range(bins)] for t in range(frames)]
    mag = [[abs(complex(ref[t, f])) for f in range(bins)] for t in range(frames)]

    if_num = if_den = 0.0
    for t in range(frames - 1):
        for f in range(bins):
            da = wrap_direct(pa[t + 1][f] - pa[t][f])
            db = wrap_direct(pb[t + 1][f] - pb[t][f])
            w = 0.5 * (mag[t][f] + mag[t + 1][f])
            if_num += w * abs(wrap_direct(db - da))
            if_den += w

    gd_num = gd_den = 0.0
    for t in range(frames):
        for f in range(bins - 1):
            da = wrap_direct(-(pa[t][f + 1] - pa[t][f]))
            db = wrap_direct(-(pb[t][f + 1] - pb[t][f]))
            w = 0.5 * (mag[t][f] + mag[t][f + 1])
            gd_num += w * abs(wrap_direct(db - da))
            gd_den += w

    return if_num / (if_den + eps) + gd_num / (gd_den + eps)


def icpc_direct(ref: np.ndarray, rec: np.ndarray, eps: float = 1e-8) -> float:
    """Mean resultant length of per-bin phase errors, each weighted by
    ``|ref| * |rec|``."""
    frames, bins = ref.shape
    per_frame = []
    energies = []
    for t in range(frames):
        re_sum = im_sum = w_sum = 0.0
        for f in range(bins):
            a = complex(ref[t, f])
            b = complex(rec[t, f])
            d = wrap_direct(math.atan2(b.imag, b.real) - math.atan2(a.imag, a.real))
            w = abs(a) * abs(b)
            re_sum += w * math.cos(d)
            im_sum += w * math.sin(d)
            w_sum += w
        per_frame.append(math.hypot(re_sum, im_sum) / (w_sum + eps))
        energies.append(w_sum)
    total = sum(energies)
    if total < eps:
        return 100.0
    score = 100.0 * sum(c * e for c, e in zip(per_frame, energies)) / (total + eps)
    return min(max(score, 0.0), 100.0)


def ccpc_direct(
    ref_left: np.ndarray,
    ref_right: np.ndarray,
    rec_left: np.ndarray,
    rec_right: np.ndarray,
    eps: float = 1e-8,
) -> float:
    """Resultant-length statistic on inter-channel phase difference errors."""
    frames, bins = ref_left.shape
    per_frame = []
    energies = []
    for t in range(frames):
        re_sum = im_sum = w_sum = 0.0
        for f in range(bins):
            al, ar = complex(ref_left[t, f]), complex(ref_right[t, f])
            bl, br = complex(rec_left[t, f]), complex(rec_right[t, f])
            ipd_a = wrap_direct(math.atan2(al.imag, al.real) - math.atan2(ar.imag, ar.real))
            ipd_b = wrap_direct(math.atan2(bl.imag, bl.real) - math.atan2(br.imag, br.real))
            d = wrap_direct(ipd_b - ipd_a)
            w = math.sqrt(abs(al) * abs(ar) * abs(bl) * abs(br))
            re_sum += w * math.cos(d)
            im_sum += w * math.sin(d)
            w_sum += w
        per_frame.append(math.hypot(re_sum, im_sum) / (w_sum + eps))
        energies.append(w_sum)
    total = sum(energies)
    if total < eps:
        return 100.0
    score = 100.0 * sum(c * e for c, e in zip(per_frame, energies)) / (total + eps)
    return min(max(score, 0.0), 100.0)


def si_sdr_direct(ref: np.ndarray, rec: np.ndarray) -> float:
    """Scale-invariant SDR of a single channel, no caps."""
    a = np.asarray(ref, dtype=np.float64)
    b = np.asarray(rec, dtype=np.float64)
    alpha = float(np.dot(b, a) / np.dot(a, a))
    target = alpha * a
    residual = b - target
    return 10.0 * math.log10(float(np.dot(target, target)) / float(np.dot(residual, residual)))


def a_weight_analog_db(freq_hz: float) -> float:
    """IEC 61672 analog A-weighting magnitude, normalized to 0 dB at 1 kHz."""
    f1, f2, f3, f4 = 20.598997, 107.65265, 737.86223, 12194.217

    def response(f: float) -> float:
        f2_ = f * f
        return (f4**2 * f2_ * f2_) / (
            (f2_ + f1**2)
            * math.sqrt((f2_ + f2**2) * (f2_ + f3**2))
            * (f2_ + f4**2)
        )

    return 20.0 * math.log10(response(freq_hz) / response(1000.0))


# Published 48 kHz loudness pre-filter coefficients: shelving stage then
# high-pass stage, rows are (b0, b1, b2, a1, a2) with a0 == 1.
K_TABLE_48K = (
    (1.53512485958697, -2.69169618940638, 1.19839281085285, -1.69065929318241, 0.73248077421585),
    (1.0, -2.0, 1.0, -1.99004745483398, 0.99007225036621),
)


def integrated_lufs_direct(weighted: np.ndarray, rate: int) -> float:
    """Gated loudness from already K-weighted samples, straight from the
    gating equations. ``weighted`` is (channels, samples)."""
    block = int(round(0.4 * rate))
    step = block // 4
    num_blocks = (weighted.shape[1] - block) // step + 1
    loudness = []
    powers = []
    for j in range(num_blocks):
        seg = weighted[:, j * step : j * step + block]
        z = sum(float(np.mean(seg[c] ** 2)) for c in range(seg.shape[0]))
        powers.append(z)
        loudness.append(-0.691 + 10.0 * math.log10(z) if z > 0 else -math.inf)
    above_abs = [p for p, l in zip(powers, loudness) if l > -70.0]
    if not above_abs:
        return -math.inf
    relative_gate = -0.691 + 10.0 * math.log10(sum(above_abs) / len(above_abs)) - 10.0
    gated = [p for p, l in zip(powers, loudness) if l > -70.0 and l > relative_gate]
    if not gated:
        return -math.inf
    return -0.691 + 10.0 * math.log10(sum(gated) / len(gated))


def true_peak_direct(x: np.ndarray) -> float:
    """Largest absolute sample of the 4x oversampled channel ``x``.

    The interpolator is the published design, a 193-tap Kaiser (beta 12)
    low-pass at a quarter of the oversampled band with a DC gain of 4, and
    every output ``y[4i + j] = sum_l h[4l + j] * x[i - l]`` is summed one
    term at a time over the filter's full support.
    """
    from scipy.signal import firwin

    h = [4.0 * float(v) for v in firwin(193, 0.25, window=("kaiser", 12.0))]
    n = len(x)
    peak = 0.0
    for out in range(4 * (n - 1) + len(h)):
        total = 0.0
        for k in range(out % 4, len(h), 4):
            i = (out - k) // 4
            if 0 <= i < n:
                total += h[k] * float(x[i])
        peak = max(peak, abs(total))
    return peak


def _stft_whole(x: np.ndarray, n: int, hop: int) -> np.ndarray:
    """Hann-windowed one-sided STFT of a reflect-padded copy of ``x``."""
    from scipy.signal import get_window

    padded = np.pad(x, n // 2, mode="reflect")
    count = 1 + (padded.shape[0] - n) // hop
    frames = np.lib.stride_tricks.sliding_window_view(padded, n)[::hop][:count]
    return np.fft.rfft(frames * get_window("hann", n), axis=1)


def _wrap_whole(x: np.ndarray) -> np.ndarray:
    return x - TWO_PI * np.round(x / TWO_PI)


def _log_l1_whole(mag_a: np.ndarray, mag_b: np.ndarray, eps: float) -> float:
    return float(np.mean(np.abs(np.log(mag_a + eps) - np.log(mag_b + eps))))


def _resultant_whole(weighted: np.ndarray, weights: np.ndarray, eps: float) -> tuple[float, bool]:
    resultant = np.abs(weighted.sum(axis=1))
    energy = weights.sum(axis=1)
    total = float(energy.sum())
    if total < eps:
        return 100.0, True
    score = 100.0 * float(np.sum(resultant / (energy + eps) * energy) / (total + eps))
    return min(max(score, 0.0), 100.0), False


def _unit(z: np.ndarray, silent: float) -> np.ndarray:
    """``z / |z|``, and ``silent`` where ``z == 0``."""
    mag = np.abs(z)
    return np.divide(z, mag, out=np.full_like(z, silent), where=mag > 0)


def evaluate_whole(ref: np.ndarray, rec: np.ndarray, rate: int, ms_cfg) -> dict:
    """``mel_dist``, ``stft_dist``, ``icpc_percent``, ``ccpc_percent`` and the
    ``degenerate`` flag of an aligned ``(2, n)`` pair: quarter-window hops and
    log epsilon 1e-5 at every scale of ``ms_cfg``, coherence from 2048-point
    frames at hop 512 with epsilon 1e-8."""
    from earmetrics import mel_filterbank

    eps = 1e-5
    stft_d: list[list[float]] = [[], []]
    mel_d: list[list[float]] = [[], []]
    for i, n in enumerate(ms_cfg.fft_sizes):
        fb = mel_filterbank(ms_cfg.mel_bins_for(i), n, rate).T
        for ch in range(2):
            mag_a, mag_b = (np.abs(_stft_whole(x[ch], n, max(1, n // 4))) for x in (ref, rec))
            stft_d[ch].append(_log_l1_whole(mag_a, mag_b, eps))
            mel_d[ch].append(_log_l1_whole(mag_a @ fb, mag_b @ fb, eps))
    n, hop, c_eps = 2048, 512, 1e-8
    (al, ar), (bl, br) = ([_stft_whole(x[ch], n, hop) for ch in range(2)] for x in (ref, rec))
    icpcs = []
    for a, b in ((al, bl), (ar, br)):
        w = np.abs(a) * np.abs(b)
        icpcs.append(_resultant_whole(w * _unit(b, 1.0) * np.conj(_unit(a, 1.0)), w, c_eps))
    p = (bl * np.conj(br)) * np.conj(al * np.conj(ar))
    w = np.sqrt(np.abs(p))
    ccpc, ccpc_degenerate = _resultant_whole(w * _unit(p, 0.0), w, c_eps)
    return {
        "mel_dist": float(np.mean([np.mean(v) for v in mel_d])),
        "stft_dist": float(np.mean([np.mean(v) for v in stft_d])),
        "icpc_percent": (icpcs[0][0] + icpcs[1][0]) / 2.0,
        "ccpc_percent": ccpc,
        "degenerate": icpcs[0][1] or icpcs[1][1] or ccpc_degenerate,
    }


def objective_whole(ref: np.ndarray, rec: np.ndarray, cfg, eps: float = 1e-8) -> tuple[float, float, float]:
    """``(stft_mag, corr, phase)`` of the composite objective of a ``(2, n)``
    pair, with magnitude-weighted phase loss: quarter-window hops and log
    epsilon 1e-5 at every scale of ``cfg``."""
    comps = {
        "mid": lambda x: (x[0] + x[1]) / 2.0,
        "side": lambda x: (x[0] - x[1]) / 2.0,
        "left": lambda x: x[0],
        "right": lambda x: x[1],
    }
    mag_terms: dict[str, list[float]] = {c: [] for c in comps}
    corr_terms: list[float] = []
    phase_terms: list[float] = []
    for n in cfg.fft_sizes:
        for c, part in comps.items():
            a, b = (_stft_whole(part(x), n, max(1, n // 4)) for x in (ref, rec))
            mag_terms[c].append(_log_l1_whole(np.abs(a), np.abs(b), 1e-5))
            if c in ("left", "right"):
                corr_terms.append(1.0 - float(np.mean(np.real(b * np.conj(a)) / (np.abs(a) * np.abs(b) + eps))))
                err = np.angle(b) - np.angle(a)
                mag = np.abs(a)
                w_if, w_gd = (mag[:-1] + mag[1:]) / 2.0, (mag[:, :-1] + mag[:, 1:]) / 2.0
                d_if, d_gd = (np.abs(_wrap_whole(np.diff(err, axis=k))) for k in (0, 1))
                phase_terms.append(
                    float(np.sum(w_if * d_if) / (np.sum(w_if) + eps) + np.sum(w_gd * d_gd) / (np.sum(w_gd) + eps))
                )
    return (
        float(np.mean([np.mean(v) for v in mag_terms.values()])),
        float(np.mean(corr_terms)),
        float(np.mean(phase_terms)),
    )


def true_peak_whole(x: np.ndarray, taps: np.ndarray) -> float:
    """Largest absolute sample of the 4x oversampled channel ``x``, as the max
    of each polyphase branch ``taps[j::4]`` convolved with the whole channel."""
    return max(float(np.abs(np.convolve(x, taps[j::4])).max()) for j in range(4))


def load_wav_direct(path) -> tuple[int, np.ndarray]:
    """Rate and ``(channels, n)`` float64 samples of a WAV file: scipy's
    decode converted whole, integer formats divided by ``2**(bits - 1)``."""
    from scipy.io import wavfile

    rate, data = wavfile.read(str(path))
    x = data.astype(np.float64)
    if data.dtype.name == "int16":  # by name, so big-endian (RIFX) samples match too
        x = x / 2**15
    elif data.dtype.name == "int32":
        x = x / 2**31
    return rate, (x[np.newaxis, :] if x.ndim == 1 else x.T)


def resample_poly_direct(
    x: np.ndarray, up: int, down: int, n_out: int, taps: np.ndarray | None = None
) -> np.ndarray:
    """``x`` resampled by ``up / down`` along its last axis with the package's
    ``_resample_taps`` filter (or ``taps``, when that filter is already at
    hand), summed by ``scipy.signal.resample_poly``, and trimmed to ``n_out``
    samples."""
    from scipy import signal

    from earmetrics.audio import _resample_taps

    window = _resample_taps(up, down) if taps is None else taps
    return signal.resample_poly(x, up, down, axis=-1, window=window)[..., :n_out]
