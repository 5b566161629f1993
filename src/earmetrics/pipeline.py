"""Two-stage dataset curation and deterministic batch processing.

Stage 1 standardizes format: files natively below 44.1 kHz are rejected
(never upsampled), higher rates are resampled down, mono is duplicated to
stereo, and integrated loudness must fall within [-22, -5] LUFS (inclusive);
kept files are written as 44.1 kHz stereo float32 WAV. Stage 2 keeps only
files whose true peak is strictly below +1.0 dBTP (a measurement exactly at
the limit is rejected). Running both decides in memory and writes only files
that pass both gates.

Batch runs process files in a worker pool but always emit decisions ordered
by input path, so the JSONL log is byte-identical across runs and across
parallelism settings.
"""

from __future__ import annotations

import json
import os
import shutil
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .audio import AudioBuffer, _as_stereo, load_wav, resample, save_wav
from .loudness import integrated_lufs, true_peak_dbtp

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


def _load(path: str) -> AudioBuffer | CurateDecision:
    """The decoded file, or its ``decode_error`` / ``non_finite`` rejection."""
    try:
        buf = load_wav(path)
    except Exception:
        return _reject(path, "decode_error")
    if not np.isfinite(buf.samples).all():
        return _reject(path, "non_finite", {"native_rate": buf.sample_rate})
    return buf


def _stage1(
    path: str, out_dir: str | Path, lufs_min: float, lufs_max: float
) -> tuple[CurateDecision, AudioBuffer | None]:
    """Rate gate, standardization and loudness gate, without writing. A keep
    comes with the standardized buffer rounded to float32, as the file stores it."""
    buf = _load(path)
    if isinstance(buf, CurateDecision):
        return buf, None
    native = buf.sample_rate
    if native < TARGET_RATE:
        return _reject(path, "below_rate", {"native_rate": native}), None
    if native > TARGET_RATE:
        buf = resample(buf, TARGET_RATE)
    buf = _as_stereo(buf)
    try:
        loud = integrated_lufs(buf)
    except ValueError:  # shorter than one gating block
        return _reject(path, "too_short", {"native_rate": native}), None
    measured = {"native_rate": native, "lufs_i": loud.lufs_i, "dbtp": None}
    if loud.lufs_i < lufs_min:
        return _reject(path, "lufs_low", measured), None
    if loud.lufs_i > lufs_max:
        return _reject(path, "lufs_high", measured), None
    out_path = _output_path(path, out_dir, "stage1")
    stored = AudioBuffer(buf.samples.astype(np.float32), TARGET_RATE)
    return CurateDecision(path, "keep", "none", measured, output_path=out_path), stored


def _peak_gate(
    path: str, buf: AudioBuffer, measured: dict, dbtp_max: float, out_path: str | None
) -> CurateDecision:
    """Keep iff the true peak of ``buf`` is strictly below ``dbtp_max``."""
    measured = {**measured, "dbtp": true_peak_dbtp(buf).dbtp}
    if not measured["dbtp"] < dbtp_max:
        return _reject(path, "true_peak_exceeded", measured)
    return CurateDecision(path, "keep", "none", measured, output_path=out_path)


def curate_stage1(
    path: str | Path,
    out_dir: str | Path,
    lufs_min: float = DEFAULT_LUFS_MIN,
    lufs_max: float = DEFAULT_LUFS_MAX,
) -> CurateDecision:
    """Format standardization and loudness gate.

    On keep, writes ``<out_dir>/<stem>.wav`` as 44.1 kHz stereo float32 and
    records its path. Files that decode but are shorter than one 400 ms
    gating block are rejected as ``too_short``.
    """
    decision, stored = _stage1(str(path), out_dir, lufs_min, lufs_max)
    if stored is not None:
        save_wav(decision.output_path, stored, sample_format="float32")
    return decision


def curate_stage2(
    path: str | Path,
    out_dir: str | Path | None = None,
    dbtp_max: float = DEFAULT_DBTP_MAX,
) -> CurateDecision:
    """True-peak gate on an already standardized file.

    Keeps iff measured dBTP is strictly below ``dbtp_max``. When ``out_dir``
    is given, kept files are copied there byte-for-byte. A file without
    samples is rejected as ``too_short``.
    """
    path = str(path)
    buf = _load(path)
    if isinstance(buf, CurateDecision):
        return buf
    if buf.num_samples == 0:
        return _reject(path, "too_short", {"native_rate": buf.sample_rate})
    out_path = None if out_dir is None else _output_path(path, out_dir, "stage2")
    decision = _peak_gate(path, buf, {"native_rate": buf.sample_rate, "lufs_i": None}, dbtp_max, out_path)
    if decision.verdict == "keep" and out_path and os.path.abspath(out_path) != os.path.abspath(path):
        shutil.copyfile(path, out_path)
    return decision


def curate_all(
    path: str | Path,
    out_dir: str | Path,
    lufs_min: float = DEFAULT_LUFS_MIN,
    lufs_max: float = DEFAULT_LUFS_MAX,
    dbtp_max: float = DEFAULT_DBTP_MAX,
) -> CurateDecision:
    """Stage 1 followed by stage 2, decided in memory: the standardized file
    is written only if both gates pass, and nothing is read back."""
    decision, stored = _stage1(str(path), out_dir, lufs_min, lufs_max)
    if stored is None:
        return decision
    decision = _peak_gate(str(path), stored, decision.measured, dbtp_max, decision.output_path)
    if decision.verdict == "keep":
        save_wav(decision.output_path, stored, sample_format="float32")
    return decision


def collect_inputs(source: str | Path) -> list[str]:
    """Input paths from a directory (its ``.wav`` files) or a manifest file
    (one path per line). Always sorted, so downstream output is ordered."""
    p = Path(source)
    if p.is_dir():
        return sorted(str(q) for q in p.iterdir() if q.is_file() and q.suffix.lower() == ".wav")
    if p.is_file():
        lines = [line.strip() for line in p.read_text().splitlines()]
        return sorted(line for line in lines if line)
    raise ValueError(f"input source {source} is neither a directory nor a manifest file")


def resolve_jobs(jobs: int | None = None) -> int:
    """Worker count: the ``EARMETRICS_THREADS`` env var wins over ``jobs``;
    default is 1."""
    env = os.environ.get(THREADS_ENV_VAR)
    if env is not None and env.strip():
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(
                f"{THREADS_ENV_VAR} must be an integer, got {env!r}"
            ) from None
    if jobs is not None:
        return max(1, int(jobs))
    return 1


def run_batch(
    paths: Iterable[str],
    worker: Callable[[str], CurateDecision],
    log_path: str | Path,
    jobs: int | None = None,
) -> list[CurateDecision]:
    """Apply ``worker`` to every path in a bounded pool and write the JSONL log.

    Results are emitted in sorted input order regardless of completion
    order. A worker exception is recorded as a ``decode_error`` rejection
    for that file and never aborts the batch.
    """
    ordered = sorted(str(p) for p in paths)

    def safe(path: str) -> CurateDecision:
        try:
            return worker(path)
        except Exception:
            return _reject(path, "decode_error")

    workers = resolve_jobs(jobs)
    if workers == 1:
        decisions = [safe(p) for p in ordered]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            decisions = list(pool.map(safe, ordered))
    with open(log_path, "w", encoding="utf-8", newline="\n") as fh:
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
    When several inputs map to one output file, the first in sorted order
    claims it and the others are rejected as ``duplicate_output`` unread.
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
    summary = BatchSummary(
        total=len(decisions),
        kept=kept,
        rejected_by_reason=rejected,
        manifest_path=str(log_path),
    )
    return decisions, summary
