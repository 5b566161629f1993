"""Audio I/O, sample-rate conversion, and STFT/ISTFT analysis.

All waveform data moves through :class:`AudioBuffer`, which holds samples as
a read-only array of shape ``(channels, num_samples)`` at nominal full scale
of +/-1.0 (values beyond are permitted so inter-sample overs stay
representable). Samples keep their stored precision: a float32 array stays
float32, and any other input becomes float64, so float32, pcm16 and pcm24
files take half the memory of float64. Every float32 value is exact in
float64, and every consumer widens what it reads before any arithmetic, a
block at a time where it works in blocks, so each computation runs in
float64 on exactly the stored values.
Spectral analysis uses a periodic Hann window and one-sided real FFTs;
every function here is pure and safe to call from many threads.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence

import numpy as np

from ._inputs import _check_finite, _fft_size, _overflow_named, _positive_rate, _sample_array, _takes, _too_large

__all__ = [
    "AudioBuffer",
    "StftConfig",
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
            promoted to one channel. A float32 array stays float32, at its
            stored precision, and any other input is converted to float64.
            A read-only float32 or float64 array is kept as it is, without a
            copy, so ``samples`` may be a read-only view (a mono signal
            promoted to stereo is one row seen twice); a writeable caller
            array is copied, and the result is frozen.
        sample_rate: sampling rate in Hz, positive integer.

    Raises:
        ValueError: on more than two channels or a non-positive rate.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self) -> None:
        arr = _sample_array(self.samples)
        arr = arr.copy() if arr is self.samples and arr.flags.writeable else arr
        if arr.ndim == 1:
            arr = arr[np.newaxis, :]
        if arr.ndim != 2:
            raise ValueError(f"samples must be 1-D or 2-D, got {arr.ndim}-D")
        if arr.shape[0] not in (1, 2):
            raise ValueError(f"unsupported channel count {arr.shape[0]}")
        rate = _positive_rate(self.sample_rate, "sample_rate")
        object.__setattr__(self, "samples", _frozen(arr))
        object.__setattr__(self, "sample_rate", rate)

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
    """``arr`` made read-only: safe to share or cache, and kept uncopied by a buffer."""
    arr.flags.writeable = False
    return arr


def _stereo_rows(samples: np.ndarray) -> np.ndarray:
    """``(channels, k)`` samples as two rows; one row as a read-only stride-0 view, with no copy."""
    return samples if samples.shape[0] == 2 else np.broadcast_to(samples, (2, samples.shape[1]))


def _as_stereo(buf: AudioBuffer) -> AudioBuffer:
    """A mono buffer as the stereo buffer of :func:`_stereo_rows`; a stereo buffer as it is."""
    return buf if buf.channels == 2 else AudioBuffer(_stereo_rows(buf.samples), buf.sample_rate)


def _same_rows(block: np.ndarray) -> bool:
    """Whether the rows of ``block`` (its first axis) hold the same bits, as a stride-0 view
    does, so that work on the first row alone gives the result of every row."""
    bits = block.view(f"u{block.itemsize}")
    return block.strides[0] == 0 or all(np.array_equal(bits[0], row) for row in bits[1:])


def _quarter_hop(fft_size: int) -> int:
    """The default hop of every STFT: a quarter of the window, at least one sample."""
    return max(1, fft_size // 4)


@dataclass(frozen=True)
class StftConfig:
    """Analysis configuration for :func:`stft` and :func:`istft`.

    ``hop`` defaults to one quarter of the window, at least 1. Frames are
    centred: frame ``t`` is centred on sample ``t * hop`` of the signal
    reflected by ``fft_size // 2`` samples at both ends, so ``n`` samples
    give ``1 + n // hop``.
    """

    fft_size: int
    hop: int | None = None

    def __post_init__(self) -> None:
        n = _fft_size(self.fft_size)
        hop = self.hop if self.hop is not None else _quarter_hop(n)
        if not isinstance(hop, (int, np.integer)) or not 0 < hop <= n:
            raise ValueError(f"hop must satisfy 0 < hop <= fft_size, got {hop!r}")
        object.__setattr__(self, "fft_size", n)
        object.__setattr__(self, "hop", int(hop))

    @property
    def num_bins(self) -> int:
        return self.fft_size // 2 + 1


_PCM, _FLOAT, _EXTENSIBLE = 0x0001, 0x0003, 0xFFFE
# bytes 4..16 of a WAVE_FORMAT_EXTENSIBLE subformat GUID whose first four
# bytes hold a plain format tag (RFC 2361), as stored in RIFF and in RIFX
_GUID_TAIL = {
    "<": b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71",
    ">": b"\x00\x00\x00\x10\x80\x00\x00\xaa\x00\x38\x9b\x71",
}


def _read_fmt(body: bytes, size: int, order: str) -> tuple[int, int, np.dtype]:
    """Rate, channel count and stored sample dtype from a ``fmt `` chunk;
    24-bit PCM samples are stored as 3-byte voids.

    The sample container is ``block_align // channels`` bytes, whatever
    ``wBitsPerSample`` says, so 20-bit samples in 24-bit containers scale as
    24-bit.
    """
    if len(body) < min(size, 40):
        raise ValueError("fmt chunk is cut short")
    if size < 16:
        raise ValueError(f"fmt chunk of {size} bytes, at least 16 are needed")
    tag, channels, rate, byte_rate, block_align, bits = struct.unpack(order + "HHIIHH", body[:16])
    if tag == _EXTENSIBLE and size >= 18:
        if struct.unpack(order + "H", body[16:18])[0] < 22 or size < 40:
            raise ValueError("WAVE_FORMAT_EXTENSIBLE fmt chunk is too short for its subformat")
        if body[28:40] == _GUID_TAIL[order]:
            tag = struct.unpack(order + "I", body[24:28])[0]
    if tag not in (_PCM, _FLOAT):
        raise ValueError(f"unsupported format tag {tag:#06x}; only PCM and IEEE float are read")
    if tag == _PCM and byte_rate != rate * block_align:
        raise ValueError(
            f"nAvgBytesPerSec {byte_rate} is not nSamplesPerSec {rate} times nBlockAlign {block_align}"
        )
    if channels == 0:
        raise ValueError("fmt chunk declares no channels")
    if block_align % channels:
        raise ValueError(f"block align {block_align} is not whole bytes for each of {channels} channels")
    if channels > 2:
        raise ValueError(f"unsupported channel count {channels}")
    width = block_align // channels
    if tag == _PCM:
        if 1 <= bits <= 8:
            raise ValueError(f"unsupported {bits}-bit PCM: samples of 8 bits or fewer are unsigned")
        if bits > 64 or width not in (2, 3, 4):
            raise ValueError(f"unsupported {bits}-bit PCM in {width}-byte samples")
        dtype = np.dtype("V3") if width == 3 else np.dtype(f"{order}i{width}")
    else:
        if bits not in (32, 64) or width not in (4, 8):
            raise ValueError(f"unsupported {bits}-bit float in {width}-byte samples")
        dtype = np.dtype(f"{order}f{width}")
    return rate, channels, dtype


class _WavReader:
    """The samples of an open RIFF, RIFX or RF64 WAVE file, read a slice at a time.

    The constructor walks the chunks to the first ``data`` chunk, which must
    follow a ``fmt `` chunk, and sets ``rate``, ``channels``, ``frames`` and
    ``dtype``, the precision samples decode into: float32 for float32 files
    and PCM in 16- or 24-bit containers (at most 24 significant bits, so
    exact), float64 otherwise. It raises ValueError on a malformed header, a
    format :func:`load_wav` does not read, or a data chunk that declares more
    bytes than the file holds.
    """

    def __init__(self, fh: BinaryIO) -> None:
        self._fh = fh
        file_size = fh.seek(0, 2)
        fh.seek(0)
        head = fh.read(12)
        if head[:4] not in (b"RIFF", b"RIFX", b"RF64"):
            raise ValueError(f"file format {head[:4]!r} not understood; only RIFF, RIFX and RF64 are read")
        if head[8:] != b"WAVE":
            raise ValueError(f"not a WAV file, the RIFF form type is {head[8:]!r}")
        order = ">" if head[:4] == b"RIFX" else "<"
        if head[:4] == b"RF64":
            # the RIFF and data chunk sizes are 64-bit, in a ds64 chunk that comes first
            ds64 = fh.read(24)
            if len(ds64) < 24 or ds64[:4] != b"ds64":
                raise ValueError("RF64 file without a ds64 chunk")
            ds64_size, riff_size, data_size = struct.unpack("<IQQ", ds64[4:])
            pos = 20 + ds64_size
        else:
            riff_size, data_size, pos = struct.unpack(order + "I", head[4:8])[0], None, 12
        fmt = None
        while pos < riff_size + 8:
            fh.seek(pos)
            chunk = fh.read(8)
            if len(chunk) < 8:
                break
            name, size = struct.unpack(order + "4sI", chunk)
            if name == b"fmt ":
                fmt = _read_fmt(fh.read(min(size, 40)), size, order)
            elif name == b"data":
                if fmt is None:
                    raise ValueError("no fmt chunk before the data chunk")
                size = size if data_size is None else data_size
                if pos + 8 + size > file_size:
                    raise ValueError(f"data chunk declares {size} bytes, the file holds {file_size - pos - 8}")
                self.rate, self.channels, self._stored = fmt
                count = size // self._stored.itemsize
                if count % self.channels:
                    raise ValueError(f"data chunk holds {count} samples, not whole frames of {self.channels} channels")
                self.frames = count // self.channels
                exact32 = self._stored.itemsize < 4 or (self._stored.kind == "f" and self._stored.itemsize == 4)
                self.dtype = np.dtype(np.float32 if exact32 else np.float64)
                self._order, self._offset = order, pos + 8
                return
            pos += 8 + size + (size & 1)  # chunks are padded to even length
        raise ValueError("no data chunk")

    def slices(self, into: np.ndarray | None = None) -> Iterator[np.ndarray]:
        """Consecutive ``(channels, k)`` arrays of decoded samples, ``k`` at
        most ``_BLOCK_SAMPLES`` frames: each a new array the caller owns, or
        the next columns of ``into``, a ``(channels, frames)`` array.

        Integer samples are scaled by ``1 / 2**(container_bits - 1)``; 24-bit
        PCM is scaled as the high three bytes of 32-bit words.
        """
        self._fh.seek(self._offset)
        for start in range(0, self.frames, _BLOCK_SAMPLES):
            k = min(_BLOCK_SAMPLES, self.frames - start)
            # no local holds the slice while it is out, so it is freed when its consumer lets go
            yield self._decode(k, None if into is None else into[:, start : start + k])

    def _decode(self, k: int, out: np.ndarray | None) -> np.ndarray:
        """The next ``k`` frames, in ``out`` or in a new array, made after
        the 3-byte words of 24-bit PCM are let go."""
        raw = np.fromfile(self._fh, self._stored, k * self.channels)
        if raw.size < k * self.channels:
            raise ValueError(f"data chunk ends {k - raw.size // self.channels} frames early")
        if self._stored.kind == "V":
            # 24-bit PCM as the high three bytes of int32 words: each word is read at a 3-byte
            # stride from the bytes with one byte more before (RIFF) or after (RIFX), and the
            # neighbour's byte it takes in is masked off
            padded = np.zeros(raw.nbytes + 1, np.uint8)
            lead = self._order == "<"
            padded[lead : lead + raw.nbytes] = raw.view(np.uint8)
            raw = np.ndarray((raw.size,), self._order + "i4", padded, strides=(3,)) & np.int32(-256)
        frames = raw.reshape(k, self.channels)
        out = np.empty((self.channels, k), self.dtype) if out is None else out
        if frames.dtype.kind == "i":
            np.divide(frames.T, 2.0 ** (8 * frames.dtype.itemsize - 1), out=out)
        else:
            out[...] = frames.T
        return out


def load_wav(path: str | Path) -> AudioBuffer:
    """Read a WAV file into an :class:`AudioBuffer`.

    Reads RIFF (little-endian), RIFX (big-endian) and RF64 (64-bit sizes in
    a ``ds64`` chunk) files with one or two channels of PCM in 16, 24 or 32
    bit containers, or IEEE float32 or float64, also when the ``fmt `` chunk
    is ``WAVE_FORMAT_EXTENSIBLE`` with a PCM or float subformat. The
    container is ``block_align // channels`` bytes, and integer samples are
    scaled by ``1 / 2**(container_bits - 1)``, so full-scale negative maps to
    exactly -1.0. Chunks other than ``fmt `` and the first ``data`` chunk
    are skipped.

    float32 files and PCM in 16- or 24-bit containers decode into float32:
    their samples have at most 24 significant bits, so float32 holds them
    exactly, at half the memory of float64. PCM in 32-bit containers and
    float64 files decode into float64. The data chunk is read and decoded
    in slices of ``_BLOCK_SAMPLES`` frames, the slices curation streams, so
    the file's bytes are never held whole beside the buffer.

    Raises:
        FileNotFoundError: missing file.
        ValueError: naming the path, on a path that is not a str, bytes or
            path-like object, or a file that is not RIFF/RIFX/RF64 WAVE; has
            no ``fmt `` chunk before its ``data`` chunk or no ``data`` chunk;
            is truncated (its data chunk declares more bytes than the file
            holds); has zero or more than two channels, a block
            align that is not whole bytes per channel, or a data chunk that
            is not whole frames; or holds another format: PCM of 8 bits or
            fewer (unsigned), PCM in containers other than 2, 3 or 4 bytes,
            float other than 32 or 64 bits in 4- or 8-byte containers, A-law,
            mu-law or any other format tag, or PCM whose
            ``nAvgBytesPerSec`` is not ``rate * block_align``.
    """
    try:
        with open(path, "rb") as fh:
            wav = _WavReader(fh)
            samples = np.empty((wav.channels, wav.frames), wav.dtype)
            for _ in wav.slices(into=samples):
                pass
        return AudioBuffer(_frozen(samples), wav.rate)
    except FileNotFoundError:
        raise
    except (OSError, TypeError, ValueError) as exc:
        raise ValueError(f"cannot decode {path}: {exc}") from exc


def _wav_header(tag: int, channels: int, rate: int, width: int, frames: int) -> bytes:
    """Every byte of a WAV file before its samples: a 16-byte ``fmt `` chunk
    for PCM; for float an 18-byte one and a ``fact`` chunk with the frame
    count. RF64, with a ``ds64`` chunk, when the file outgrows 32-bit sizes."""
    block = channels * width
    size = frames * block
    fmt = struct.pack("<HHIIHH", tag, channels, rate, rate * block, block, 8 * width)
    if tag == _FLOAT:
        fmt += struct.pack("<H", 0)
    chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    if tag == _FLOAT:
        chunks += b"fact" + struct.pack("<II", 4, frames)
    riff_size = 4 + len(chunks) + 8 + size
    if riff_size <= 0xFFFFFFFF:
        return b"RIFF" + struct.pack("<I", riff_size) + b"WAVE" + chunks + b"data" + struct.pack("<I", size)
    ds64 = b"ds64" + struct.pack("<IQQQI", 28, riff_size + 36, size, frames, 0)
    return b"RF64" + b"\xff" * 4 + b"WAVE" + ds64 + chunks + b"data" + b"\xff" * 4


def _sample_format(name: str) -> tuple[int, int]:
    """Format tag and bytes per sample of a ``save_wav`` sample format."""
    if name == "float32":
        return _FLOAT, 4
    if name in ("pcm16", "pcm24", "pcm32"):
        return _PCM, int(name[3:]) // 8
    raise ValueError(f"unsupported sample format {name!r}")


class _WavWriter:
    """Writes a WAV file of ``frames`` frames a block at a time: the header
    when made, then each ``(channels, k)`` block of samples interleaved.

    ``sample_format`` is a :func:`save_wav` format; PCM is rounded and
    clipped to the integer range.
    """

    def __init__(self, fh: BinaryIO, channels: int, rate: int, frames: int, sample_format: str) -> None:
        self._fh, self._channels = fh, channels
        self._tag, self._width = _sample_format(sample_format)
        fh.write(_wav_header(self._tag, channels, rate, self._width, frames))

    def write(self, block: np.ndarray) -> None:
        """Writes a ``(channels, k)`` block. A finite sample beyond float32's
        range is stored as inf in float32, and clipped to full scale in PCM."""
        frames = np.empty((block.shape[1], self._channels), "<f4" if self._tag == _FLOAT else np.float64)
        full = 2 ** (8 * self._width - 1)
        with np.errstate(over="ignore"):
            for c in range(self._channels):  # a column at a time: a transposed copy is several times slower
                frames[:, c] = block[c]
            if self._tag == _FLOAT:
                self._fh.write(frames)
                return
            frames *= full  # rounded in float64: float32 cannot hold the pcm32 clip bound 2**31 - 1
        np.clip(np.rint(frames, out=frames), -full, full - 1, out=frames)
        ints = frames.astype(f"<i{4 if self._width == 3 else self._width}")
        del frames
        # 24-bit: keep the low three bytes of each little-endian 32-bit word
        self._fh.write(ints.view(np.uint8).reshape(-1, 4)[:, :3].copy() if self._width == 3 else ints)


def save_wav(path: str | Path, buf: AudioBuffer, sample_format: str = "float32") -> None:
    """Write an :class:`AudioBuffer` as a WAV file.

    ``sample_format`` is one of ``float32`` (default, lossless for curated
    output), ``pcm16``, ``pcm24``, ``pcm32``. PCM output is rounded and
    clipped to the integer range (+-inf to full scale), and a finite sample
    beyond float32's range is stored in float32 as inf; a NaN sample in PCM,
    like a bad format or a ``buf`` that is not an AudioBuffer, raises
    ValueError before the file is made. The samples go out
    ``_BLOCK_SAMPLES`` frames at a time through the writer curation uses,
    so no interleaved copy of the whole buffer is made.
    """
    _takes("save_wav", (buf, AudioBuffer))
    blocks = [buf.samples[:, start : start + _BLOCK_SAMPLES] for start in range(0, buf.num_samples, _BLOCK_SAMPLES)]
    if _sample_format(sample_format)[0] == _PCM and any(np.isnan(block).any() for block in blocks):
        raise ValueError(f"cannot write a NaN sample as {sample_format}")
    with open(path, "wb") as fh:
        writer = _WavWriter(fh, buf.channels, buf.sample_rate, buf.num_samples, sample_format)
        for block in blocks:
            writer.write(block)


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
    return _frozen(signal.firwin(numtaps, (pass_edge + stop_edge) / 2.0, window=("kaiser", beta)))


_Plan = tuple[int, int, tuple[tuple[int, int, np.ndarray], ...]]


def _polyphase_plan(taps: np.ndarray, up: int, down: int, half: int, gain: float = 1.0) -> _Plan:
    """The filter ``gain * taps`` cut into polyphase matrices: ``(outputs, inputs, groups)``.

    Output ``k`` is ``sum_n gain * taps[k * down - n * up + half] * x[n]``: ``x``
    stuffed with ``up - 1`` zeros after each sample, filtered, advanced by
    ``half`` samples and kept at every ``down``-th sample. ``half = 0``
    gives the full convolution from its first output. The outputs fall into
    rows of ``outputs`` (whole cycles of ``up``), and each row reads its
    inputs ``inputs`` samples later than the row before, so one matrix
    serves every row. Group ``(offset, phase, w)`` holds outputs ``phase``
    to ``phase + w.shape[1] - 1`` of row ``q``: they are
    ``x[q * inputs + offset :][: w.shape[0]] @ w``, ``x`` zero outside the
    signal.

    A group holds about ``taps / (2 * down)`` consecutive outputs, whose
    windows start within half the filter's length of each other, so ``w``
    is at most about 1.5 times the ``taps / up`` inputs one output reads,
    and the groups of one cycle hold about 1.5 times the filter's taps,
    however large ``up * down`` is. When ``up`` is smaller than a group,
    whole cycles are folded into one row, so that each product still has
    many columns; the plan then holds the filter once per folded cycle.
    """
    size = taps.shape[0]
    span = max(1, size // (2 * down))
    cycles = max(1, span // up)
    outputs = cycles * up
    count = -(-outputs // span)
    groups = []
    for g in range(count):
        p0, p1 = g * outputs // count, (g + 1) * outputs // count
        first = -((size - 1 - half - p0 * down) // up)
        last = ((p1 - 1) * down + half) // up
        j = np.arange(p0, p1) * down - np.arange(first, last + 1)[:, np.newaxis] * up + half
        inside = (j >= 0) & (j < size)
        w = np.where(inside, taps[np.where(inside, j, 0)], 0.0)
        w *= gain  # per group, so no scaled copy of a long filter is made
        groups.append((first, p0, _frozen(w)))
    return outputs, cycles * down, tuple(groups)


@lru_cache(maxsize=32)
def _resample_plan(up: int, down: int) -> _Plan:
    """The :func:`_resample_taps` filter scaled by ``up`` and centred, the
    sums ``scipy.signal.resample_poly`` forms."""
    taps = _resample_taps(up, down)
    return _polyphase_plan(taps, up, down, (taps.shape[0] - 1) // 2, up)


# Above this ratio term a filter has over 160 * 2**11 taps (2.6 MB), so its plan
# is not kept: 44101 -> 44100 Hz would pin 56.6 MB of taps and 1.5x that of plan.
_CACHED_RATIO_TERM = 2**11


# Fewest rows in one matrix product of rows that read only signal samples.
# BLAS picks its kernel by the size of a product, and its kernels sum in other
# orders: with OpenBLAS a row of a (33, 253) @ (253, 73) product rounded apart
# from the same row of a (63, 253) one. From this many rows up, every product
# of the plans here runs in the one kernel whose rows do not depend on each
# other, so no value depends on where the blocks are cut.
_MIN_ROWS = 256


def _reach(plan: _Plan) -> tuple[int, int]:
    """The inputs a row of ``plan`` reads, from its start: ``[lo, hi)``."""
    groups = plan[2]
    return groups[0][0], groups[-1][0] + groups[-1][2].shape[0]


def _polyphase_blocks(n: int, plan: _Plan, rows: int) -> list[tuple[int, int]]:
    """Rows ``0`` to ``rows - 1`` of a product with ``plan`` on an
    ``n``-sample signal, cut into blocks ``(r0, r1)`` that read about
    ``_BLOCK_SAMPLES`` values each. The few rows that read before the first
    sample or past the last are blocks of their own, so only they are taken
    from zero-padded copies. The rows between are cut into blocks of at least
    ``_MIN_ROWS`` rows: a shorter last block starts earlier instead, taking
    again rows of the block before it, so every row sums the same whatever
    ``_BLOCK_SAMPLES`` is."""
    _, inputs, groups = plan
    reach = _reach(plan)
    step = max(_MIN_ROWS, _BLOCK_SAMPLES // max(w.shape[0] for _, _, w in groups))
    head = min(rows, -(reach[0] // inputs))
    tail = max(head, min(rows, (n - reach[1]) // inputs + 1))
    inner = [(max(head, min(r0, tail - _MIN_ROWS)), min(r0 + step, tail)) for r0 in range(head, tail, step)]
    return [(r0, r1) for r0, r1 in [(0, head), *inner, (tail, rows)] if r0 < r1]


def _polyphase_rows(x: np.ndarray, plan: _Plan, r0: int, out: np.ndarray, start: int, scratch: np.ndarray) -> None:
    """Rows ``r0`` to ``r0 + out.shape[0] - 1`` of the product of a 1-D
    signal with ``plan`` (see :func:`_polyphase_plan`) into ``out``, as BLAS
    products of strided views of ``x``. ``x`` holds the signal from sample
    ``start`` on, and reads outside it are zeros, so it must hold every
    sample of the signal that the rows read. The rows are widened to float64
    in ``scratch``, a flat float64 array with room for every group's rows.
    Finite samples near the float64 limit may overflow, silently, as a
    direct sum would."""
    _, inputs, groups = plan
    n = x.shape[0]
    r1 = r0 + out.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for offset, phase, w in groups:
            lo = r0 * inputs + offset - start
            hi = (r1 - 1) * inputs + offset + w.shape[0] - start
            a = max(lo, 0)
            b = max(min(hi, n), a)
            seg = x[a:b]
            if lo < 0 or hi > n:
                seg = np.concatenate((np.zeros(a - lo), seg, np.zeros(hi - b)))
            rows = scratch[: (r1 - r0) * w.shape[0]].reshape(r1 - r0, w.shape[0])
            step = seg.itemsize
            np.copyto(rows, np.ndarray(rows.shape, seg.dtype, seg, strides=(inputs * step, step)))
            np.matmul(rows, w, out=out[:, phase : phase + w.shape[1]])


class _Polyphase:
    """The product of ``plan`` with an ``n``-sample signal that arrives a
    slice at a time, in the blocks of :func:`_polyphase_blocks`.

    :meth:`push` takes the next ``(channels, k)`` slice, and :meth:`ready`
    then yields each block ``(r0, r1)`` whose inputs have all arrived; while
    a block is out, :meth:`rows` computes its rows of one channel. The window keeps only the
    samples that blocks still to come read, about one block's inputs and one
    slice, and a whole signal pushed at once is used without a copy.
    """

    def __init__(self, plan: _Plan, n: int, rows: int) -> None:
        self._plan, self._n = plan, n
        blocks = _polyphase_blocks(n, plan, rows)
        self._blocks = iter(blocks)
        self._next = next(self._blocks, None)
        most = max((r1 - r0 for r0, r1 in blocks), default=0)
        self._scratch = np.empty(most * max(w.shape[0] for _, _, w in plan[2]))
        self._window: np.ndarray | None = None
        self._start = 0  # the signal sample in the window's first column

    def push(self, x: np.ndarray) -> None:
        """Append the next slice, of checked samples: a NaN or inf would spread over whole rows."""
        if self._window is None or not self._window.shape[1]:
            self._window = x
        else:
            self._window = np.concatenate((self._window, x), axis=1)

    def ready(self) -> Iterator[tuple[int, int]]:
        """The blocks whose inputs have all arrived, dropping from the window
        the samples no later block reads."""
        end = self._start + self._window.shape[1]
        inputs, reach = self._plan[1], _reach(self._plan)
        while self._next is not None and min(self._n, (self._next[1] - 1) * inputs + reach[1]) <= end:
            yield self._next
            self._next = next(self._blocks, None)
            if self._next is not None:
                drop = min(max(0, self._next[0] * inputs + reach[0]) - self._start, end - self._start)
                self._window = self._window[:, drop:]
                self._start += drop

    def same_inputs(self, r0: int, r1: int) -> bool:
        """Whether every channel holds the same samples where rows ``r0`` to
        ``r1 - 1`` of the block out now read, so that their rows are equal."""
        inputs, reach = self._plan[1], _reach(self._plan)
        lo = max(r0 * inputs + reach[0] - self._start, 0)
        return _same_rows(self._window[:, lo : (r1 - 1) * inputs + reach[1] - self._start])

    def rows(self, channel: int, r0: int, out: np.ndarray) -> None:
        """Rows ``r0`` on of ``channel`` of the block out now, into ``out``."""
        _polyphase_rows(self._window[channel], self._plan, r0, out, self._start, self._scratch)


def _resampled_length(num_samples: int, rate: int, target_rate: int) -> int:
    """``num_samples * target_rate / rate`` rounded to nearest, ties to even."""
    q, r = divmod(num_samples * target_rate, rate)
    return q + (1 if (2 * r > rate or (2 * r == rate and q % 2 == 1)) else 0)


def _resampled(slices: Iterable[np.ndarray], n: int, rate: int, target_rate: int) -> Iterator[np.ndarray]:
    """An ``n``-sample signal at ``rate`` that arrives as ``(channels, k)``
    slices, resampled to ``target_rate``: consecutive float64
    ``(channels, m)`` blocks, each made as soon as the samples it reads have
    arrived. Of checked slices, an overflow of float64 comes out as inf or NaN."""
    g = gcd(rate, target_rate)
    up, down = target_rate // g, rate // g
    plan = (_resample_plan if max(up, down) <= _CACHED_RATIO_TERM else _resample_plan.__wrapped__)(up, down)
    outputs = plan[0]
    n_out = _resampled_length(n, rate, target_rate)
    poly = _Polyphase(plan, n, -(-n_out // outputs))
    done = 0  # rows given out
    for x in slices:
        channels = x.shape[0]
        poly.push(x)
        del x  # the window holds what the rows still read
        for r0, r1 in poly.ready():
            y = np.empty((channels, r1 - r0, outputs))
            for c in range(channels):
                poly.rows(c, r0, y[c])
            yield y[:, done - r0 :].reshape(channels, -1)[:, : n_out - done * outputs]
            done = r1


def resample(buf: AudioBuffer, target_rate: int) -> AudioBuffer:
    """Band-limited sample-rate conversion via polyphase filtering.

    Output length is ``num_samples * target_rate / sample_rate`` rounded to
    nearest (ties to even). Returns the input unchanged when the rates match.
    The sums are dense matrix products (see :func:`_polyphase_rows`) over
    blocks of about ``_BLOCK_SAMPLES`` values, the blocks curation streams,
    so no temporary grows with the signal. The samples are checked finite
    first, so a NaN or inf block of output is an overflow.

    Raises:
        ValueError: on a ``buf`` that is not an AudioBuffer, a target rate
            that is not a positive integer, a buffer holding NaN or inf
            samples, or finite samples so large that the filtered values
            overflow float64.
    """
    _takes("resample", (buf, AudioBuffer))
    target_rate = _positive_rate(target_rate, "target_rate")
    if target_rate == buf.sample_rate:
        return buf
    _check_finite(buffer=buf.samples)
    out = np.empty((buf.channels, _resampled_length(buf.num_samples, buf.sample_rate, target_rate)))
    at = 0
    for block in _resampled([buf.samples], buf.num_samples, buf.sample_rate, target_rate):
        if not np.isfinite(block).all():
            raise _too_large("samples")
        out[:, at : at + block.shape[1]] = block
        at += block.shape[1]
    return AudioBuffer(_frozen(out), target_rate)


@lru_cache(maxsize=16)
def _hann_window(n: int) -> np.ndarray:
    """Periodic Hann window, summed term by term as ``scipy.signal.get_window``
    does, so it is bit-identical to ``get_window("hann", n)``."""
    return _frozen((0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, n + 1)))[:-1])


# Windowed samples per block of STFT frames (frames * fft_size), the same at
# every scale: 1 MB of float64 frames and about 1.05 MB of spectra per channel.
# A consumer of four channels holds one block of their spectra and its own
# per-block buffers: measured traced peaks are 6.93 MB for composite_objective
# and 6.4 MB for evaluate_pair, at any signal length.
# Blocks this size stay in a core's cache and reuse freed heap memory; at
# 2**18 the objective's block temporaries were at times mapped afresh on
# every block (60k page faults per 5 s call) and ran about 17% slower.
_BLOCK_SAMPLES = 2**17


def _num_frames(num_samples: int, config: StftConfig) -> int:
    """Frame count of a ``num_samples`` signal; raises when it is too short to analyze."""
    pad = config.fft_size // 2
    if num_samples < pad + 1:
        raise ValueError(f"signal too short: {num_samples} samples cannot be reflect-padded by {pad}")
    return 1 + num_samples // config.hop


def _frame_bins(x: np.ndarray, config: StftConfig, start: int, stop: int) -> np.ndarray:
    """Hann-windowed one-sided spectra of frames ``start`` to ``stop - 1`` of ``x``.

    Frames are cut from ``x`` itself. A frame that reaches past either end
    gathers the reflected samples, so no padded copy of the channel is made.
    """
    n, hop = config.fft_size, config.hop
    lo = start * hop - n // 2
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
    # the window is float64, so its product widens float32 samples exactly
    return np.fft.rfft(frames * _hann_window(n), axis=1)


def _stft_blocks(channels: Sequence[np.ndarray], config: StftConfig, add: Callable[..., None]) -> None:
    """Call ``add`` with each consecutive block of frames of the STFTs of equal-length channels.

    Each call gets the same block of frames of every channel, in the order
    given; stacking one channel's blocks gives its :func:`stft` bins. A block
    spans about ``_BLOCK_SAMPLES`` windowed samples, and it is released when
    ``add`` returns, before the next one is made, so only one block per
    channel is alive at a time, whatever the signal length.
    """
    total = _num_frames(channels[0].shape[0], config)
    step = max(1, _BLOCK_SAMPLES // config.fft_size)
    for start in range(0, total, step):
        stop = min(start + step, total)
        add(*[_frame_bins(x, config, start, stop) for x in channels])


@_overflow_named("samples")
def stft(channel: np.ndarray, config: StftConfig) -> np.ndarray:
    """Hann-windowed one-sided STFT of a single channel: a read-only complex128
    array of shape ``(1 + len(channel) // hop, fft_size // 2 + 1)``.

    Frame ``t`` covers samples ``[t * hop, t * hop + fft_size)`` of the
    signal reflect-padded by ``fft_size // 2`` at both ends.

    Raises:
        ValueError: on a ``config`` that is not a StftConfig, samples that
            are not bool, integer or float, a NaN or inf sample, finite
            samples so large that a bin overflows float64, or a signal of
            ``fft_size // 2`` samples or fewer, too short to reflect-pad.
    """
    _takes("stft", (config, StftConfig))
    x = _sample_array(channel)
    if x.ndim != 1:
        raise ValueError(f"channel must be 1-D, got {x.ndim}-D")
    _check_finite(channel=x)
    return _frozen(_frame_bins(x, config, 0, _num_frames(x.shape[0], config)))


def istft(bins: np.ndarray, config: StftConfig, num_samples: int) -> np.ndarray:
    """Inverse of :func:`stft` by overlap-add with window-square normalization.

    ``bins`` are the ``(frames, fft_size // 2 + 1)`` bins that :func:`stft`
    gives for a ``num_samples`` signal at ``config``. Requires a
    constant-overlap-add configuration for the Hann window:
    ``hop <= fft_size / 2`` and ``fft_size % hop == 0``, under which the
    centred frames cover every sample. Returns exactly ``num_samples`` samples.

    Raises:
        ValueError: on a ``num_samples`` that is not an integer (a bool is
            not), a ``config`` that is not a StftConfig, bins that are not
            numeric, or not 2-D with ``config.num_bins`` columns, a
            hop that breaks constant overlap-add, or a frame count other than
            the one ``num_samples`` samples give.
    """
    if not isinstance(num_samples, (int, np.integer)) or isinstance(num_samples, bool):
        raise ValueError(f"num_samples must be an integer, got {num_samples!r}")
    _takes("istft", (config, StftConfig))
    bins = np.asarray(bins)
    if bins.dtype.kind not in "biufc":
        raise ValueError(f"bins must be numeric, got dtype {bins.dtype}")
    bins = np.asarray(bins, dtype=np.complex128)
    n, hop = config.fft_size, config.hop
    if bins.ndim != 2:
        raise ValueError(f"bins must be 2-D, got {bins.ndim}-D")
    if bins.shape[1] != config.num_bins:
        raise ValueError(f"bin count {bins.shape[1]} does not match fft_size {n} (expected {config.num_bins})")
    if hop > n // 2 or n % hop != 0:
        raise ValueError(
            f"hop {hop} violates constant overlap-add for fft_size {n} "
            f"(need hop <= fft_size / 2 and fft_size % hop == 0)"
        )
    num_frames = bins.shape[0]
    if num_frames != _num_frames(num_samples, config):
        raise ValueError(f"{num_frames} frames do not cover {num_samples} samples at hop {hop}")
    w = _hann_window(n)
    frames = np.fft.irfft(bins, n=n, axis=1) * w
    total = hop * (num_frames - 1) + n
    y = np.zeros(total)
    norm = np.zeros(total)
    wsq = w * w
    for i in range(num_frames):
        start = i * hop
        y[start : start + n] += frames[i]
        norm[start : start + n] += wsq
    np.divide(y, norm, out=y, where=norm > 1e-12)
    return y[n // 2 : n // 2 + num_samples]
