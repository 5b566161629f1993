"""Two-stage dataset curation and deterministic batch processing.

Stage 1 standardizes format: files natively below 44.1 kHz are rejected
(never upsampled), higher rates are resampled down, mono is duplicated to
stereo, and integrated loudness must fall within [-22, -5] LUFS (inclusive);
kept files are written as 44.1 kHz stereo float32 WAV. Stage 2 keeps only
files whose true peak is strictly below +1.0 dBTP (a measurement exactly at
the limit is rejected). Every stage reads a file in slices and holds a few
blocks, never the whole file: stage 1 resamples, K-weights and writes each
block to a temporary file as it is made, and running both takes the true
peak of that file, read back, only when the loudness gate passes. A keep
renames the temporary file into place and a reject removes it.

Batch runs process files in a worker pool but always emit decisions ordered
by input path, so the JSONL log is byte-identical across runs and across
parallelism settings. Kept files and the log are written under a temporary
name and renamed into place, so an interrupted write never leaves a
truncated file at an output path.
"""

from __future__ import annotations

import json
import os
import shutil
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from math import inf
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from ._inputs import _takes
from .audio import _resampled, _resampled_length, _stereo_rows, _WavReader, _WavWriter
from .loudness import _gating_block, _Loudness, _TruePeak

__all__ = [
    "CurateDecision",
    "BatchSummary",
    "TARGET_RATE",
    "DEFAULT_LUFS_MIN",
    "DEFAULT_LUFS_MAX",
    "DEFAULT_DBTP_MAX",
    "curate_stage1",
    "curate_stage2",
    "curate_all",
    "collect_inputs",
    "run_batch",
    "curate_batch",
    "resolve_jobs",
]

TARGET_RATE = 44100
DEFAULT_LUFS_MIN = -22.0
DEFAULT_LUFS_MAX = -5.0
DEFAULT_DBTP_MAX = 1.0

REASONS = (
    "below_rate",
    "lufs_low",
    "lufs_high",
    "true_peak_exceeded",
    "decode_error",
    "write_error",
    "non_finite",
    "too_short",
    "duplicate_output",
    "none",
)

THREADS_ENV_VAR = "EARMETRICS_THREADS"


@dataclass(frozen=True)
class CurateDecision:
    """Keep/reject verdict for one input file.

    ``measured`` holds ``native_rate``, ``lufs_i``, and ``dbtp``; entries a
    stage did not measure are ``None``. ``verdict`` is ``"keep"`` iff
    ``reason`` is ``"none"``.
    """

    input_path: str
    verdict: str
    reason: str
    measured: dict
    output_path: str | None = None

    def __post_init__(self) -> None:
        if self.verdict not in ("keep", "reject"):
            raise ValueError(f"verdict must be keep or reject, got {self.verdict!r}")
        if self.reason not in REASONS:
            raise ValueError(f"unknown reason {self.reason!r}")
        if (self.verdict == "keep") != (self.reason == "none"):
            raise ValueError(f"verdict {self.verdict!r} inconsistent with reason {self.reason!r}")

    def to_json(self) -> str:
        """One-line JSON with stable key order and two-decimal measurements."""

        def fmt(value: float | None) -> float | None:
            if value is None or value != value or value in (float("inf"), float("-inf")):
                return None
            return round(float(value), 2)

        native = self.measured.get("native_rate")
        doc = {
            "input_path": self.input_path,
            "verdict": self.verdict,
            "reason": self.reason,
            "measured": {
                "native_rate": int(native) if native is not None else None,
                "lufs_i": fmt(self.measured.get("lufs_i")),
                "dbtp": fmt(self.measured.get("dbtp")),
            },
            "output_path": self.output_path,
        }
        return json.dumps(doc)


@dataclass(frozen=True)
class BatchSummary:
    """Totals of one batch run; ``total == kept + sum(rejected_by_reason)``."""

    total: int
    kept: int
    rejected_by_reason: dict
    manifest_path: str

    def __post_init__(self) -> None:
        if self.total != self.kept + sum(self.rejected_by_reason.values()):
            raise ValueError("batch totals are inconsistent")

    def to_json(self) -> str:
        doc = {
            "total": self.total,
            "kept": self.kept,
            "rejected_by_reason": {k: self.rejected_by_reason[k] for k in sorted(self.rejected_by_reason)},
            "manifest_path": self.manifest_path,
        }
        return json.dumps(doc)


def _reject(path: str, reason: str, measured: dict | None = None) -> CurateDecision:
    base = {"native_rate": None, "lufs_i": None, "dbtp": None}
    base.update(measured or {})
    return CurateDecision(str(path), "reject", reason, base)


def _output_path(path: str, out_dir: str | Path, stage: str) -> str:
    """Where a kept input is written: ``<stem>.wav`` for stage 1 and all
    (the file is re-encoded), the input's own file name for stage 2 (a copy)."""
    name = Path(path).name if stage == "stage2" else Path(path).stem + ".wav"
    return str(Path(out_dir) / name)


def _temporary(path: Path) -> Path:
    """A name beside ``path`` that no other writer in this process or another uses."""
    return path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")


@contextmanager
def _atomic_target(path: str | Path) -> Iterator[str]:
    """A temporary name beside ``path`` to write to. It replaces ``path`` when
    the block completes and is removed when the block or the rename raises."""
    path = Path(path)
    tmp = _temporary(path)
    try:
        yield str(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class _WriteError(OSError):
    """A kept file that could not be written; ``decision`` holds its measurements."""

    def __init__(self, decision: CurateDecision, cause: OSError) -> None:
        super().__init__(f"cannot write {decision.output_path}: {cause}")
        self.decision = decision


class _Staged:
    """A standardized file written under a temporary name beside its output
    path while its blocks are made. A failed write is kept, not raised, so
    the file is still measured: only a keep reports it (:meth:`commit`), and
    a reject removes the temporary file (:meth:`discard`)."""

    def __init__(self, path: str, frames: int) -> None:
        self._out, self.path = path, _temporary(Path(path))
        self._fh = None
        self._error: OSError | None = None
        try:
            self._fh = open(self.path, "wb")
            self._writer = _WavWriter(self._fh, 2, TARGET_RATE, frames, "float32")
        except OSError as exc:
            self._fail(exc)

    def flushed(self) -> bool:
        """Whether every block so far is in the temporary file at ``path``,
        flushed so that it can be read back."""
        if self._error is None:
            try:
                self._fh.flush()
            except OSError as exc:
                self._fail(exc)
        return self._error is None

    def write(self, block: np.ndarray) -> None:
        if self._error is None:
            try:
                self._writer.write(block)
            except OSError as exc:
                self._fail(exc)

    def _fail(self, exc: OSError) -> None:
        self._error = exc
        self.discard()

    def discard(self) -> None:
        fh, self._fh = self._fh, None
        if fh is not None:
            try:
                fh.close()
            except OSError:  # a flush that fails no longer matters: the file goes next
                pass
        self.path.unlink(missing_ok=True)

    def commit(self, decision: CurateDecision) -> CurateDecision:
        """``decision`` once the written file has replaced its output path;
        a failed write or rename raises :class:`_WriteError`."""
        try:
            if self._error is not None:
                raise self._error
            self._fh.close()
            self._fh = None
            os.replace(self.path, self._out)
        except OSError as exc:
            self.discard()
            raise _WriteError(decision, exc) from exc
        return decision


class _Unfit(Exception):
    """A file rejected part way through its samples as ``reason``."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


def _finite(x: np.ndarray) -> np.ndarray:
    if not np.isfinite(x).all():
        raise _Unfit("non_finite")
    return x


def _checked(wav: _WavReader) -> Iterator[np.ndarray]:
    """The slices of ``wav``, held by nothing here once given out; raises
    :class:`_Unfit` on a slice that cannot be read or holds a NaN or inf
    sample."""
    slices = wav.slices()
    while True:
        try:
            yield _finite(next(slices))
        except StopIteration:
            return
        except _Unfit:
            raise
        except Exception:
            raise _Unfit("decode_error") from None


def _curate(path: str, out_dir: str | Path | None, stage: str, gates: dict) -> CurateDecision:
    """One stage, or both, on the file at ``path``, reading it a slice at a
    time: each slice is checked and, for stage 1, resampled, K-weighted into
    gating-step sums, rounded to float32 and written to a temporary file as
    it is made. ``all`` then takes the true peak of that file, read back,
    only if the loudness gate keeps it; stage 2 takes the true peak of the
    slices themselves. A worker holds a few blocks, never the whole file.

    The reasons keep their order whatever the position of the sample that
    decides them: ``decode_error``, ``non_finite`` (every file is scanned to
    its end for one), ``below_rate``, ``too_short``, loudness, true peak.
    """
    try:
        fh = open(path, "rb")
    except OSError:
        return _reject(path, "decode_error")
    with fh:
        try:
            wav = _WavReader(fh)
        except Exception:
            return _reject(path, "decode_error")
        try:
            return _measure(path, out_dir, stage, gates, wav, _checked(wav))
        except _Unfit as exc:
            measured = {"native_rate": wav.rate} if exc.reason == "non_finite" else {}
            return _reject(path, exc.reason, measured)


def _measure(
    path: str, out_dir: str | Path | None, stage: str, gates: dict, wav: _WavReader, slices: Iterator[np.ndarray]
) -> CurateDecision:
    measured = {"native_rate": wav.rate, "lufs_i": None, "dbtp": None}
    if stage == "stage2":
        if not wav.frames:
            return _reject(path, "too_short", measured)
        out_path = None if out_dir is None else _output_path(path, out_dir, "stage2")
        dbtp = _peak_of(slices, wav.frames, wav.channels)
        decision = _peak_gate(path, dbtp, measured, gates["dbtp_max"], out_path)
        if decision.verdict == "keep" and out_path and os.path.abspath(out_path) != os.path.abspath(path):
            return _write_kept(decision, lambda tmp: shutil.copyfile(path, tmp))
        return decision
    frames = _resampled_length(wav.frames, wav.rate, TARGET_RATE)
    if wav.rate < TARGET_RATE or frames < _gating_block(TARGET_RATE):
        for _ in slices:
            pass
        return _reject(path, "below_rate" if wav.rate < TARGET_RATE else "too_short", measured)
    out_path = _output_path(path, out_dir, "stage1")
    staged = _Staged(out_path, frames)
    try:
        measured["lufs_i"] = _standardize(wav, slices, staged)
        if measured["lufs_i"] < gates["lufs_min"]:
            return _reject(path, "lufs_low", measured)
        # +inf is an overflow, whose staged file holds inf or NaN samples: beyond any bound
        if measured["lufs_i"] > gates["lufs_max"] or measured["lufs_i"] == inf:
            return _reject(path, "lufs_high", measured)
        decision = CurateDecision(path, "keep", "none", measured, output_path=out_path)
        if stage == "all":
            # a sample beyond float32's range is stored as inf, and reads back as an inf true peak
            decision = _peak_gate(path, _stored_peak(path, staged), measured, gates["dbtp_max"], out_path)
        return staged.commit(decision) if decision.verdict == "keep" else decision
    finally:
        staged.discard()


def _standardized(wav: _WavReader, slices: Iterator[np.ndarray]) -> Iterator[np.ndarray]:
    """The blocks of a file at or above 44.1 kHz converted to 44.1 kHz: its
    slices, or the blocks they resample to."""
    return slices if wav.rate == TARGET_RATE else _resampled(slices, wav.frames, wav.rate, TARGET_RATE)


def _standardize(wav: _WavReader, slices: Iterator[np.ndarray], staged: _Staged) -> float:
    """The integrated loudness of the file at 44.1 kHz stereo, with each block
    rounded to float32 and written to ``staged`` as it is made. The slices are
    checked, so a NaN or inf block is the resampler's overflow: +inf LUFS."""
    meter = _Loudness(TARGET_RATE, 2)
    for x in _standardized(wav, slices):
        x = _stereo_rows(x)
        meter.add(x)
        staged.write(x)  # rounded to float32: a sample beyond its range is stored as inf
    return meter.result().lufs_i


def _peak_of(blocks: Iterable[np.ndarray], frames: int, channels: int) -> float:
    """The true peak in dBTP of a signal of ``frames`` frames that arrives in blocks."""
    meter = _TruePeak(frames, channels)
    for x in blocks:
        meter.add(x)
    return max(meter.dbtp())


def _stored_peak(source: str, staged: _Staged) -> float:
    """The true peak of the standardized file as stored: read back from the
    temporary file, or, where that could not be written, from ``source``
    standardized again."""
    written = staged.flushed()
    with open(staged.path if written else source, "rb") as fh:
        wav = _WavReader(fh)
        blocks = wav.slices() if written else (x.astype(np.float32) for x in _standardized(wav, wav.slices()))
        return _peak_of(blocks, _resampled_length(wav.frames, wav.rate, TARGET_RATE), wav.channels)


def _peak_gate(path: str, dbtp: float, measured: dict, dbtp_max: float, out_path: str | None) -> CurateDecision:
    """Keep iff the true peak ``dbtp`` is strictly below ``dbtp_max``."""
    measured = {**measured, "dbtp": dbtp}
    if not dbtp < dbtp_max:
        return _reject(path, "true_peak_exceeded", measured)
    return CurateDecision(path, "keep", "none", measured, output_path=out_path)


def _write_kept(decision: CurateDecision, write: Callable[[str], object]) -> CurateDecision:
    """``decision`` once ``write`` has filled a temporary name that then replaced
    its output path; a failed write raises :class:`_WriteError`."""
    try:
        with _atomic_target(decision.output_path) as tmp:
            write(tmp)
    except OSError as exc:
        raise _WriteError(decision, exc) from exc
    return decision


def curate_stage1(
    path: str | Path,
    out_dir: str | Path,
    lufs_min: float = DEFAULT_LUFS_MIN,
    lufs_max: float = DEFAULT_LUFS_MAX,
) -> CurateDecision:
    """Format standardization and loudness gate.

    On keep, writes ``<out_dir>/<stem>.wav`` as 44.1 kHz stereo float32 and
    records its path. Files that decode but are shorter than one 400 ms
    gating block are rejected as ``too_short``. The file is read, resampled,
    measured and written a block at a time, to a temporary file that a keep
    renames into place and a reject removes.
    """
    return _curate(str(path), out_dir, "stage1", {"lufs_min": lufs_min, "lufs_max": lufs_max})


def curate_stage2(
    path: str | Path,
    out_dir: str | Path | None = None,
    dbtp_max: float = DEFAULT_DBTP_MAX,
) -> CurateDecision:
    """True-peak gate on an already standardized file.

    Keeps iff measured dBTP is strictly below ``dbtp_max``. When ``out_dir``
    is given, kept files are copied there byte-for-byte. A file without
    samples is rejected as ``too_short``. The file is read in slices.
    """
    return _curate(str(path), out_dir, "stage2", {"dbtp_max": dbtp_max})


def curate_all(
    path: str | Path,
    out_dir: str | Path,
    lufs_min: float = DEFAULT_LUFS_MIN,
    lufs_max: float = DEFAULT_LUFS_MAX,
    dbtp_max: float = DEFAULT_DBTP_MAX,
) -> CurateDecision:
    """Stage 1 followed by stage 2. The file is read, resampled and
    K-weighted a block at a time, and each block is rounded to float32 and
    written to a temporary file as it is made. If the loudness gate passes,
    the true peak is taken on that file, read back in slices, so it is the
    peak of exactly what is stored. The temporary file replaces the output
    only if both gates pass, and is removed otherwise. A worker holds a few
    blocks, never the whole file."""
    gates = {"lufs_min": lufs_min, "lufs_max": lufs_max, "dbtp_max": dbtp_max}
    return _curate(str(path), out_dir, "all", gates)


def collect_inputs(source: str | Path) -> list[str]:
    """Input paths from a directory (its ``.wav`` files) or a manifest file
    (one path per line). Always sorted, so downstream output is ordered.
    A ``source`` that is not a str or path-like raises ValueError."""
    _takes("collect_inputs", (source, (str, os.PathLike)))
    p = Path(source)
    if p.is_dir():
        return sorted(str(q) for q in p.iterdir() if q.is_file() and q.suffix.lower() == ".wav")
    if p.is_file():
        lines = [line.strip() for line in p.read_text().splitlines()]
        return sorted(line for line in lines if line)
    raise ValueError(f"input source {source} is neither a directory nor a manifest file")


def resolve_jobs(jobs: int | None = None) -> int:
    """Worker count: the ``EARMETRICS_THREADS`` env var wins over ``jobs``;
    default is 1. Either that is not an integer raises ValueError, naming it."""
    env = os.environ.get(THREADS_ENV_VAR)
    if env is not None and env.strip():
        return _count(env, THREADS_ENV_VAR)
    return 1 if jobs is None else _count(jobs, "jobs")


def _count(value: object, name: str) -> int:
    """``int(value)``, at least 1; a value ``int`` rejects raises ValueError naming ``name``."""
    try:
        return max(1, int(value))
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def run_batch(
    paths: Iterable[str],
    worker: Callable[[str], CurateDecision],
    log_path: str | Path,
    jobs: int | None = None,
) -> list[CurateDecision]:
    """Apply ``worker`` to every path in a bounded pool and write the JSONL log.

    Results are emitted in sorted input order regardless of completion
    order. A path listed more than once is processed once: its later entries
    are rejected as ``duplicate_output`` unread. A kept file that cannot be
    written is recorded as a ``write_error`` rejection with its measurements,
    any other worker exception as a ``decode_error`` rejection; neither
    aborts the batch.
    """
    ordered = sorted(str(p) for p in paths)

    def safe(i: int) -> CurateDecision:
        path = ordered[i]
        if i and ordered[i - 1] == path:
            return _reject(path, "duplicate_output")
        try:
            return worker(path)
        except _WriteError as exc:
            return _reject(path, "write_error", exc.decision.measured)
        except Exception:
            return _reject(path, "decode_error")

    with ThreadPoolExecutor(max_workers=resolve_jobs(jobs)) as pool:
        decisions = list(pool.map(safe, range(len(ordered))))
    with _atomic_target(log_path) as tmp, open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        for decision in decisions:
            fh.write(decision.to_json() + "\n")
    return decisions


def curate_batch(
    in_dir: str | Path,
    out_dir: str | Path,
    stage: str = "all",
    lufs_min: float = DEFAULT_LUFS_MIN,
    lufs_max: float = DEFAULT_LUFS_MAX,
    dbtp_max: float = DEFAULT_DBTP_MAX,
    jobs: int | None = None,
) -> tuple[list[CurateDecision], BatchSummary]:
    """Run one curation stage (or both) over a directory or manifest.

    Writes kept audio and ``decisions.jsonl`` into ``out_dir`` and returns
    the per-file decisions plus a summary whose counts always reconcile.
    When several inputs map to one output file, or one input is listed more
    than once, the first in sorted order claims it and the others are
    rejected as ``duplicate_output`` unread.
    """
    if stage not in ("stage1", "stage2", "all"):
        raise ValueError(f"stage must be stage1, stage2, or all, got {stage!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if stage == "stage1":
        worker = lambda p: curate_stage1(p, out, lufs_min=lufs_min, lufs_max=lufs_max)
    elif stage == "stage2":
        worker = lambda p: curate_stage2(p, out_dir=out, dbtp_max=dbtp_max)
    else:
        worker = lambda p: curate_all(p, out, lufs_min=lufs_min, lufs_max=lufs_max, dbtp_max=dbtp_max)
    paths = collect_inputs(in_dir)
    owner: dict[str, str] = {}
    for p in paths:
        owner.setdefault(_output_path(p, out, stage), p)

    def claimed(p: str) -> CurateDecision:
        if owner[_output_path(p, out, stage)] != p:
            return _reject(p, "duplicate_output")
        return worker(p)

    log_path = out / "decisions.jsonl"
    decisions = run_batch(paths, claimed, log_path, jobs=jobs)
    kept = sum(1 for d in decisions if d.verdict == "keep")
    rejected = dict(Counter(d.reason for d in decisions if d.verdict == "reject"))
    return decisions, BatchSummary(len(decisions), kept, rejected, str(log_path))
