"""``earmetrics eval`` reads a float WAV file through a read-only mapping of its
data chunk instead of a decoded copy. The mapped samples are an interleaved,
possibly unaligned view of the file's bytes, and every report, objective line
and error must be the one the decoded samples give, bit for bit, while the
traced peak no longer holds the inputs. Every other file is decoded as
``load_wav`` decodes it, and ``load_wav`` itself still decodes into memory."""

from __future__ import annotations

import mmap
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from earmetrics import AudioBuffer, cli, load_wav, save_wav
from earmetrics.audio import _FLOAT, _mapped_wav, _wav_header
from earmetrics.cli import main
from helpers import exact_bits, noise_stereo, traced_peak

# a chunk before the data chunk moves it from byte 58 of the float header: an
# odd 3-byte body and its pad byte to 70 (unaligned), a 6-byte body to 72 (aligned)
LIST3 = b"LIST" + struct.pack("<I", 3) + b"abc\0"
LIST6 = b"LIST" + struct.pack("<I", 6) + b"abcdef"
FILES = {
    "float32 stereo": ("<f4", 2, b""),
    "float64 stereo": ("<f8", 2, b""),
    "float32 mono": ("<f4", 1, b""),
    "float32 after an odd LIST chunk": ("<f4", 2, LIST3),
    "float64 aligned after a LIST chunk": ("<f8", 2, LIST6),
}
OPTIONS = {
    "json": [],
    "csv and objective": ["--format", "csv", "--objective"],
    "k prefilter": ["--prefilter", "k", "--objective"],
    "chunks": ["--chunk-seconds", "0.4"],
}


def _float_wav(path, x: np.ndarray, rate: int, dtype: str, before: bytes = b"", after: bytes = b"") -> None:
    """``x`` of shape ``(channels, n)`` as a float WAV file of ``dtype`` samples,
    with the chunk bytes ``before`` ahead of its data chunk and ``after`` behind it."""
    head = _wav_header(_FLOAT, x.shape[0], rate, np.dtype(dtype).itemsize, x.shape[1])
    at = head.rindex(b"data")
    body = head[12:at] + before + head[at:] + x.T.astype(dtype).tobytes() + after
    path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)


def _rifx_float32(path, x: np.ndarray, rate: int) -> None:
    """``x`` as a big-endian (RIFX) float32 WAV file."""
    fmt = struct.pack(">HHIIHH", 3, x.shape[0], rate, rate * 4 * x.shape[0], 4 * x.shape[0], 32)
    data = x.T.astype(">f4").tobytes()
    body = b"WAVE" + b"fmt " + struct.pack(">I", 16) + fmt + b"data" + struct.pack(">I", len(data)) + data
    path.write_bytes(b"RIFX" + struct.pack(">I", len(body)) + body)


def _pair(tmp_path, dtype: str, channels: int, before: bytes, rates=(44100, 44100), seconds: float = 1.0):
    ref = noise_stereo(rate=rates[0], seconds=seconds, amp=0.3, seed=97).samples[:channels]
    rec = noise_stereo(rate=rates[1], seconds=seconds, amp=0.05, seed=98).samples[:channels]
    if rates[0] == rates[1]:
        rec = rec + 0.8 * ref
    paths = [tmp_path / "ref.wav", tmp_path / "rec.wav"]
    for path, x, rate in zip(paths, (ref, rec), rates):
        _float_wav(path, x, rate, dtype, before)
    return [str(p) for p in paths]


def _mapping(arr: np.ndarray) -> mmap.mmap | None:
    """The mapping whose bytes ``arr`` views, if any."""
    while isinstance(arr, np.ndarray):
        arr = arr.base
    arr = arr.obj if isinstance(arr, memoryview) else arr
    return arr if isinstance(arr, mmap.mmap) else None


def _eval(monkeypatch, capsys, argv: list[str], load) -> tuple:
    """Exit code, stdout, stderr and the bits of the report and objective of
    ``earmetrics eval`` with its inputs read by ``load``, and the loaded buffers."""
    values, buffers = [], []
    monkeypatch.setattr(cli, "_mapped_wav", lambda path: buffers.append(load(path)) or buffers[-1])
    for name in ("evaluate_pair", "composite_objective"):
        fn = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, _fn=fn, **k: values.append(_fn(*a, **k)) or values[-1])
    code = main(["eval", *argv])
    monkeypatch.undo()
    return (code, *capsys.readouterr(), exact_bits(values)), buffers


def _same_as_decoded(monkeypatch, capsys, argv: list[str], mapped=(True, True)) -> tuple:
    """The eval outcome of ``argv``, checked equal with mapped and with decoded
    inputs; ``mapped`` tells which of the two inputs are mapped."""
    result, buffers = _eval(monkeypatch, capsys, argv, _mapped_wav)
    decoded, _ = _eval(monkeypatch, capsys, argv, load_wav)
    assert result == decoded
    assert tuple(_mapping(b.samples) is not None for b in buffers) == mapped
    return result


class TestMappedEval:
    @pytest.mark.parametrize("option", list(OPTIONS), ids=list(OPTIONS))
    @pytest.mark.parametrize("kind", list(FILES), ids=list(FILES))
    def test_output_is_the_decoded_output(self, tmp_path, monkeypatch, capsys, kind, option):
        paths = _pair(tmp_path, *FILES[kind])
        assert _same_as_decoded(monkeypatch, capsys, [*paths, *OPTIONS[option]])[0] == 0

    @pytest.mark.parametrize("dtype,channels", [("<f4", 2), ("<f8", 1)], ids=["float32 stereo", "float64 mono"])
    def test_48_khz_reconstruction_of_a_44_1_khz_reference(self, tmp_path, monkeypatch, capsys, dtype, channels):
        paths = _pair(tmp_path, dtype, channels, b"", rates=(44100, 48000))
        code, out, _, _ = _same_as_decoded(monkeypatch, capsys, [*paths, "--objective", "--prefilter", "k"])
        assert code == 0 and "reconstruction_resampled" in out

    @pytest.mark.parametrize("fmt", ["pcm16", "pcm24", "rifx"])
    def test_other_files_are_decoded(self, tmp_path, monkeypatch, capsys, fmt):
        paths = _pair(tmp_path, "<f4", 2, b"")
        for path in paths:
            buf = load_wav(path)
            if fmt == "rifx":
                _rifx_float32(Path(path), buf.samples, buf.sample_rate)
            else:
                save_wav(path, buf, sample_format=fmt)
            assert exact_bits(_mapped_wav(path)) == exact_bits(load_wav(path))
        assert _same_as_decoded(monkeypatch, capsys, [*paths, "--objective"], mapped=(False, False))[0] == 0

    def test_zero_frames_give_the_decoded_error(self, tmp_path, monkeypatch, capsys):
        paths = _pair(tmp_path, "<f4", 2, b"")
        _float_wav(tmp_path / "ref.wav", np.zeros((2, 0)), 44100, "<f4")
        assert exact_bits(_mapped_wav(paths[0])) == exact_bits(load_wav(paths[0]))
        code, out, err, _ = _same_as_decoded(monkeypatch, capsys, paths, mapped=(False, True))
        assert (code, out, err) == (1, "", "error: signals have no overlapping samples\n")

    def test_truncated_data_chunk_gives_the_decoded_error(self, tmp_path, monkeypatch, capsys):
        paths = _pair(tmp_path, "<f4", 2, b"")
        raw = open(paths[0], "rb").read()
        open(paths[0], "wb").write(raw[:-6])
        message = f"cannot decode {paths[0]}: data chunk declares 352800 bytes, the file holds 352794"
        with pytest.raises(ValueError, match=re.escape(message)):
            _mapped_wav(paths[0])
        code, out, err = _eval(monkeypatch, capsys, paths, _mapped_wav)[0][:3]
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert _eval(monkeypatch, capsys, paths, load_wav)[0][:3] == (code, out, err)


class TestMappedBuffer:
    @pytest.mark.parametrize("kind", list(FILES), ids=list(FILES))
    def test_read_only_interleaved_view_of_the_data_chunk(self, tmp_path, kind):
        dtype, channels, before = FILES[kind]
        path = tmp_path / "x.wav"
        x = noise_stereo(seconds=0.1, seed=99).samples[:channels]
        _float_wav(path, x, 44100, dtype, before, after=LIST3)
        buf = _mapped_wav(path)
        assert type(buf.samples) is np.ndarray and not buf.samples.flags.writeable
        assert buf.samples.strides == (np.dtype(dtype).itemsize, channels * np.dtype(dtype).itemsize)
        assert buf.samples.flags.aligned == (before == LIST6)
        assert exact_bits(buf) == exact_bits(load_wav(path))
        # the mapping ends where the data chunk does, before the chunk after it
        assert len(_mapping(buf.samples)) == path.stat().st_size - len(LIST3)

    def test_load_wav_still_decodes_so_a_file_can_be_saved_over_itself(self, tmp_path):
        path = tmp_path / "x.wav"
        save_wav(path, noise_stereo(seconds=0.5, seed=100), sample_format="float32")
        buf = load_wav(path)
        assert _mapping(buf.samples) is None and buf.samples.flags.c_contiguous
        save_wav(path, buf)
        assert exact_bits(load_wav(path)) == exact_bits(buf)


def test_traced_eval_peak_is_below_one_input(tmp_path, capsys):
    # a 30 s float32 stereo file holds 10.6 MB of samples: decoded, the two inputs
    # alone are 21.2 MB, and mapped the peak is the block working set of about 6.6 MB
    warm = _pair(tmp_path, "<f4", 2, b"")
    assert main(["eval", *warm]) == 0
    paths = [tmp_path / "ref30.wav", tmp_path / "rec30.wav"]
    ref = noise_stereo(seconds=30.0, amp=0.3, seed=101)
    save_wav(paths[0], ref, sample_format="float32")
    save_wav(paths[1], AudioBuffer(0.9 * ref.samples, 44100), sample_format="float32")
    one_input = ref.samples.size * 4
    del ref
    codes = []
    peak = traced_peak(lambda: codes.append(main(["eval", *map(str, paths)])))
    capsys.readouterr()
    assert codes == [0]
    assert peak < one_input, f"peak {peak / 1e6:.2f} MB, one input {one_input / 1e6:.2f} MB"
