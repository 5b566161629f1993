"""Audio I/O, sample-rate conversion, and STFT/ISTFT analysis.

All waveform data moves through :class:`AudioBuffer`, which holds samples as
a read-only float64 array of shape ``(channels, num_samples)`` at nominal
full scale of +/-1.0 (values beyond are permitted so inter-sample overs stay
representable). Spectral analysis uses a periodic Hann window and one-sided
real FFTs; every function here is pure and safe to call from many threads.
"""

from __future__ import annotations

import struct
import wave
from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np
from scipy.io import wavfile as _wavfile

__all__ = [
    "AudioBuffer",
    "StftConfig",
    "ComplexSpectrogram",
    "load_wav",
    "save_wav",
    "resample",
    "stft",
    "istft",
]


@dataclass(frozen=True, eq=False)
class AudioBuffer:
    """Multichannel PCM audio at a known sample rate.

    Args:
        samples: array of shape ``(channels, num_samples)``; a 1-D array is
            promoted to one channel. A read-only float64 array is kept as it
            is, without a copy, so ``samples`` may be a read-only view (a
            mono signal promoted to stereo is one row seen twice); any other
            input is converted to float64, a writeable caller array is
            copied, and the result is frozen.
        sample_rate: sampling rate in Hz, positive integer.

    Raises:
        ValueError: on more than two channels or a non-positive rate.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self) -> None:
        arr = np.asarray(self.samples, dtype=np.float64)
        arr = arr.copy() if arr is self.samples and arr.flags.writeable else arr
        if arr.ndim == 1:
            arr = arr[np.newaxis, :]
        if arr.ndim != 2:
            raise ValueError(f"samples must be 1-D or 2-D, got {arr.ndim}-D")
        if arr.shape[0] not in (1, 2):
            raise ValueError(f"unsupported channel count {arr.shape[0]}")
        rate = self.sample_rate
        if not isinstance(rate, (int, np.integer)) or rate <= 0:
            raise ValueError(f"sample_rate must be a positive integer, got {rate!r}")
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "sample_rate", int(rate))

    @property
    def channels(self) -> int:
        return self.samples.shape[0]

    @property
    def num_samples(self) -> int:
        return self.samples.shape[1]

    @property
    def duration(self) -> float:
        """Signal length in seconds."""
        return self.num_samples / self.sample_rate


def _frozen(arr: np.ndarray) -> np.ndarray:
    """``arr`` made read-only, so that :class:`AudioBuffer` keeps it without a copy."""
    arr.flags.writeable = False
    return arr


def _as_stereo(buf: AudioBuffer) -> AudioBuffer:
    """A mono buffer as a read-only two-channel view of its one channel, with
    no copy; a stereo buffer as it is."""
    if buf.channels == 2:
        return buf
    return AudioBuffer(np.broadcast_to(buf.samples, (2, buf.num_samples)), buf.sample_rate)


@dataclass(frozen=True)
class StftConfig:
    """Analysis configuration for :func:`stft` and :func:`istft`.

    ``hop`` defaults to one quarter of the window. ``center_pad`` reflects
    ``fft_size // 2`` samples at both ends so the first frame is centered on
    sample zero and the frame count is deterministic from the input length.
    """

    fft_size: int
    hop: int | None = None
    center_pad: bool = True

    def __post_init__(self) -> None:
        n = self.fft_size
        if not isinstance(n, (int, np.integer)) or n < 2 or n & (n - 1):
            raise ValueError(f"fft_size must be a power of two >= 2, got {n!r}")
        hop = self.hop if self.hop is not None else n // 4
        if not isinstance(hop, (int, np.integer)) or not 0 < hop <= n:
            raise ValueError(f"hop must satisfy 0 < hop <= fft_size, got {hop!r}")
        object.__setattr__(self, "fft_size", int(n))
        object.__setattr__(self, "hop", int(hop))

    @property
    def num_bins(self) -> int:
        return self.fft_size // 2 + 1


@dataclass(frozen=True, eq=False)
class ComplexSpectrogram:
    """One-sided STFT of a single channel.

    ``bins`` has shape ``(num_frames, fft_size // 2 + 1)``; ``num_samples``
    records the analyzed signal length so :func:`istft` can trim its output
    exactly.
    """

    bins: np.ndarray
    config: StftConfig
    source_rate: int
    num_samples: int

    def __post_init__(self) -> None:
        arr = np.asarray(self.bins, dtype=np.complex128)
        if arr.ndim != 2:
            raise ValueError(f"bins must be 2-D, got {arr.ndim}-D")
        if arr.shape[1] != self.config.num_bins:
            raise ValueError(
                f"bin count {arr.shape[1]} does not match "
                f"fft_size {self.config.fft_size} (expected {self.config.num_bins})"
            )
        arr = arr.copy() if arr is self.bins and arr.flags.writeable else arr
        arr.flags.writeable = False
        object.__setattr__(self, "bins", arr)

    @property
    def num_frames(self) -> int:
        return self.bins.shape[0]

    @property
    def num_bins(self) -> int:
        return self.bins.shape[1]


_INT_SCALE = {"int16": 2 ** 15, "int32": 2 ** 31}


def _check_data_chunk(path: str | Path) -> None:
    """Raise ValueError when the data chunk of a RIFF/RIFX file declares more
    bytes than the file holds. scipy only warns and returns the frames it
    found when such a file ends on a frame boundary."""
    with open(path, "rb") as fh:
        head = fh.read(12)
        if head[:4] not in (b"RIFF", b"RIFX") or head[8:] != b"WAVE":
            return  # scipy names the bad header
        order = "<" if head[:4] == b"RIFF" else ">"
        size, pos = fh.seek(0, 2), 12
        while pos + 8 <= size:
            fh.seek(pos)
            chunk, length = struct.unpack(order + "4sI", fh.read(8))
            if chunk == b"data":
                if pos + 8 + length > size:
                    raise ValueError(f"data chunk declares {length} bytes, the file holds {size - pos - 8}")
                return
            pos += 8 + length + (length & 1)  # chunks are padded to even length


def load_wav(path: str | Path) -> AudioBuffer:
    """Read a RIFF WAV file into an :class:`AudioBuffer`.

    Supports PCM 16/24/32-bit (24-bit arrives left-justified in 32 bits) and
    IEEE float32, one or two channels. Integer formats are scaled by
    ``1 / 2**(bits - 1)`` so full-scale negative maps to exactly -1.0.

    Raises:
        FileNotFoundError: missing file.
        ValueError: undecodable or truncated file (its data chunk declares
            more bytes than the file holds), unsupported format, or >2 channels.
    """
    try:
        _check_data_chunk(path)
        rate, data = _wavfile.read(str(path))
    except FileNotFoundError:
        raise
    except Exception as exc:
        raise ValueError(f"cannot decode {path}: {exc}") from exc
    if data.ndim == 2 and data.shape[1] > 2:
        raise ValueError(f"unsupported channel count {data.shape[1]}")
    name = data.dtype.name
    if name not in _INT_SCALE and name not in ("float32", "float64"):
        raise ValueError(f"unsupported sample format {data.dtype} in {path}")
    # converted in one pass straight into the buffer's (channels, n) layout:
    # the same arithmetic as astype(float64) / scale
    frames = data[:, np.newaxis] if data.ndim == 1 else data
    samples = np.empty(frames.shape[::-1])
    if name in _INT_SCALE:
        np.divide(frames.T, _INT_SCALE[name], out=samples)
    else:
        samples[...] = frames.T
    return AudioBuffer(_frozen(samples), int(rate))


def save_wav(path: str | Path, buf: AudioBuffer, sample_format: str = "float32") -> None:
    """Write an :class:`AudioBuffer` as a WAV file.

    ``sample_format`` is one of ``float32`` (default, lossless for curated
    output), ``pcm16``, ``pcm24``, ``pcm32``. PCM output is rounded and
    clipped to the integer range.
    """
    if sample_format == "float32":
        _wavfile.write(str(path), buf.sample_rate, buf.samples.T.astype(np.float32, order="C"))
        return
    if sample_format not in ("pcm16", "pcm24", "pcm32"):
        raise ValueError(f"unsupported sample format {sample_format!r}")
    interleaved = np.ascontiguousarray(buf.samples.T)
    bits = int(sample_format[3:])
    full = 2 ** (bits - 1)
    q = np.clip(np.rint(interleaved * full), -full, full - 1).astype(np.int64)
    if bits == 16:
        payload = q.astype("<i2").tobytes()
    elif bits == 32:
        payload = q.astype("<i4").tobytes()
    else:
        # 24-bit: keep the low three bytes of each little-endian 32-bit word
        raw = q.astype("<i4").tobytes()
        payload = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 4)[:, :3].tobytes()
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(buf.channels)
        fh.setsampwidth(bits // 8)
        fh.setframerate(buf.sample_rate)
        fh.writeframes(payload)


@lru_cache(maxsize=32)
def _resample_taps(up: int, down: int) -> np.ndarray:
    """Kaiser-windowed sinc for polyphase resampling.

    Designed for 100 dB stopband attenuation with the passband edge at 0.92
    of the lower Nyquist, keeping ripple below 0.1 dB through 0.9 Nyquist.
    """
    from scipy import signal

    m = max(up, down)
    pass_edge = 0.92 / m
    stop_edge = 1.0 / m
    numtaps, beta = signal.kaiserord(100.0, stop_edge - pass_edge)
    numtaps |= 1  # odd length gives an integer group delay
    taps = signal.firwin(numtaps, (pass_edge + stop_edge) / 2.0, window=("kaiser", beta))
    taps.flags.writeable = False
    return taps


def resample(buf: AudioBuffer, target_rate: int) -> AudioBuffer:
    """Band-limited sample-rate conversion via polyphase filtering.

    Output length is ``num_samples * target_rate / sample_rate`` rounded to
    nearest (ties to even). Returns the input unchanged when the rates match.
    """
    if not isinstance(target_rate, (int, np.integer)) or target_rate <= 0:
        raise ValueError(f"target_rate must be a positive integer, got {target_rate!r}")
    target_rate = int(target_rate)
    if target_rate == buf.sample_rate:
        return buf
    from scipy import signal

    g = gcd(buf.sample_rate, target_rate)
    up, down = target_rate // g, buf.sample_rate // g
    out = signal.resample_poly(buf.samples, up, down, axis=-1, window=_resample_taps(up, down))
    q, r = divmod(buf.num_samples * target_rate, buf.sample_rate)
    n_out = q + (1 if (2 * r > buf.sample_rate or (2 * r == buf.sample_rate and q % 2 == 1)) else 0)
    return AudioBuffer(_frozen(out[:, :n_out]), target_rate)


@lru_cache(maxsize=16)
def _hann_window(n: int) -> np.ndarray:
    """Periodic Hann window, summed term by term as ``scipy.signal.get_window``
    does, so it is bit-identical to ``get_window("hann", n)``."""
    w = (0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, n + 1)))[:-1]
    w.flags.writeable = False
    return w


# Windowed samples per block of STFT frames (frames * fft_size), the same at
# every scale: 1 MB of float64 frames and about as much of spectra per channel.
# Blocks this size stay in a core's cache and reuse freed heap memory; at
# 2**18 the objective's block temporaries were at times mapped afresh on
# every block (60k page faults per 5 s call) and ran about 17% slower.
_BLOCK_SAMPLES = 2**17


def _num_frames(num_samples: int, config: StftConfig) -> int:
    """Frame count of a ``num_samples`` signal; raises when it is too short to analyze."""
    n = config.fft_size
    if config.center_pad:
        if num_samples < n // 2 + 1:
            raise ValueError(
                f"signal too short: {num_samples} samples cannot be reflect-padded by {n // 2}"
            )
        return 1 + num_samples // config.hop
    if num_samples < n:
        raise ValueError(f"signal too short: {num_samples} samples < fft_size {n}")
    return 1 + (num_samples - n) // config.hop


def _frame_bins(x: np.ndarray, config: StftConfig, start: int, stop: int) -> np.ndarray:
    """Hann-windowed one-sided spectra of frames ``start`` to ``stop - 1`` of ``x``.

    Frames are cut from ``x`` itself. With center padding, a frame that
    reaches past either end gathers the reflected samples, so no padded copy
    of the channel is made.
    """
    n, hop = config.fft_size, config.hop
    lo = start * hop - (n // 2 if config.center_pad else 0)
    hi = lo + (stop - start - 1) * hop + n
    if lo < 0 or hi > x.shape[0]:
        idx = np.abs(np.arange(lo, hi))
        seg = x[np.minimum(idx, 2 * (x.shape[0] - 1) - idx)]
    else:
        seg = np.ascontiguousarray(x[lo:hi])
    # frame t is seg[t * hop : t * hop + n], as a strided view made in C: this
    # runs once per block, and sliding_window_view costs several times more
    step = seg.itemsize
    frames = np.ndarray((stop - start, n), seg.dtype, seg, strides=(hop * step, step))
    return np.fft.rfft(frames * _hann_window(n), axis=1)


def _stft_blocks(channels: Sequence[np.ndarray], config: StftConfig) -> Iterator[list[np.ndarray]]:
    """The STFTs of equal-length channels as consecutive blocks of frames.

    Each item holds the same block of frames of every channel, in the order
    given; stacking one channel's blocks gives its :func:`stft` bins. A block
    spans about ``_BLOCK_SAMPLES`` windowed samples, so only one block per
    channel is alive at a time, whatever the signal length.
    """
    total = _num_frames(channels[0].shape[0], config)
    step = max(1, _BLOCK_SAMPLES // config.fft_size)
    for start in range(0, total, step):
        stop = min(start + step, total)
        yield [_frame_bins(x, config, start, stop) for x in channels]


def stft(channel: np.ndarray, config: StftConfig, rate: int) -> ComplexSpectrogram:
    """Hann-windowed one-sided STFT of a single channel.

    Frame ``t`` covers samples ``[t * hop, t * hop + fft_size)`` of the
    (optionally center-padded) signal.

    Raises:
        ValueError: signal shorter than one frame (``center_pad=False``) or
            shorter than the reflective pad requires (``center_pad=True``).
    """
    x = np.asarray(channel, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"channel must be 1-D, got {x.ndim}-D")
    bins = _frame_bins(x, config, 0, _num_frames(x.shape[0], config))
    bins.flags.writeable = False  # read-only, so ComplexSpectrogram keeps it without a copy
    return ComplexSpectrogram(bins, config, int(rate), x.shape[0])


def istft(spec: ComplexSpectrogram) -> np.ndarray:
    """Inverse STFT by overlap-add with window-square normalization.

    Requires a constant-overlap-add configuration for the Hann window:
    ``hop <= fft_size / 2`` and ``fft_size % hop == 0``. Returns exactly
    ``spec.num_samples`` samples; positions never covered by a frame (only
    possible without center padding) come back as zeros.
    """
    cfg = spec.config
    n, hop = cfg.fft_size, cfg.hop
    if hop > n // 2 or n % hop != 0:
        raise ValueError(
            f"hop {hop} violates constant overlap-add for fft_size {n} "
            f"(need hop <= fft_size / 2 and fft_size % hop == 0)"
        )
    w = _hann_window(n)
    frames = np.fft.irfft(spec.bins, n=n, axis=1) * w
    total = hop * (spec.num_frames - 1) + n
    y = np.zeros(total)
    norm = np.zeros(total)
    wsq = w * w
    for i in range(spec.num_frames):
        start = i * hop
        y[start : start + n] += frames[i]
        norm[start : start + n] += wsq
    np.divide(y, norm, out=y, where=norm > 1e-12)
    start = n // 2 if cfg.center_pad else 0
    out = np.zeros(spec.num_samples)
    seg = y[start : start + spec.num_samples]
    out[: seg.shape[0]] = seg
    return out
