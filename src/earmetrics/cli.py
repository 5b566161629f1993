"""Command-line interface.

``earmetrics eval <ref> <rec>`` prints a six-metric report for one pair as
JSON (default) or CSV; ``--objective`` additionally prints the weighted
reconstruction objective as a JSON line. ``earmetrics curate
stage1|stage2|all <in> <out>`` filters a directory or manifest of WAV files
and writes kept audio plus a ``decisions.jsonl`` log.

Exit codes: 0 on success (including batch runs with rejections), 1 on a
hard error such as an undecodable input in single-file mode.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .audio import _mapped_wav
from .coherence import MetricReport, align_pair, evaluate_pair
from .pipeline import (
    DEFAULT_DBTP_MAX,
    DEFAULT_LUFS_MAX,
    DEFAULT_LUFS_MIN,
    curate_batch,
)
from .spectral import MultiScaleConfig, composite_objective
from .weighting import _PREFILTERS, _prefilter_pair

__all__ = ["build_parser", "main", "entry"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="earmetrics",
        description="Perceptual audio evaluation and dataset curation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="evaluate a reference/reconstruction pair")
    ev.add_argument("reference", help="reference WAV file")
    ev.add_argument("reconstruction", help="reconstruction WAV file")
    ev.add_argument("--format", choices=("json", "csv"), default="json", help="report format")
    ev.add_argument(
        "--prefilter",
        choices=_PREFILTERS,
        default="none",
        help="weighting filter applied to both signals before all metrics",
    )
    ev.add_argument(
        "--objective",
        action="store_true",
        help="additionally print the weighted reconstruction objective of the whole aligned pair (JSON line)",
    )
    ev.add_argument(
        "--fft-sizes",
        type=int,
        nargs="+",
        metavar="N",
        help="override the multi-scale FFT sizes (default: 4096 2048 1024 512 256 128)",
    )
    ev.add_argument(
        "--chunk-seconds",
        type=float,
        default=None,
        help="evaluate consecutive chunks of this duration and report per-metric means",
    )

    cu = sub.add_parser("curate", help="filter a directory or manifest of WAV files")
    cu.add_argument("stage", choices=("stage1", "stage2", "all"), help="which gate(s) to apply")
    cu.add_argument("input", help="input directory or manifest file")
    cu.add_argument("output", help="output directory for kept audio and decisions.jsonl")
    cu.add_argument("--lufs-min", type=float, default=DEFAULT_LUFS_MIN, help="lower loudness bound, inclusive")
    cu.add_argument("--lufs-max", type=float, default=DEFAULT_LUFS_MAX, help="upper loudness bound, inclusive")
    cu.add_argument("--dbtp-max", type=float, default=DEFAULT_DBTP_MAX, help="true-peak limit, exclusive")
    cu.add_argument(
        "--jobs",
        type=int,
        default=None,
        help=(
            "worker threads (default 1; the EARMETRICS_THREADS env var overrides). Each worker's BLAS "
            "may start threads of its own: set OPENBLAS_NUM_THREADS=1 when --jobs fills the cores"
        ),
    )
    return parser


def _cmd_eval(args: argparse.Namespace) -> int:
    try:
        ms_cfg = MultiScaleConfig(fft_sizes=tuple(args.fft_sizes)) if args.fft_sizes else MultiScaleConfig()
        # float inputs are read through a mapping of the file, without a decoded copy
        ref = _mapped_wav(args.reference)
        rec = _mapped_wav(args.reconstruction)
        # aligned (and resampled) and prefiltered once; the report and the objective share the pair
        ref, rec, flags = align_pair(ref, rec)
        ref, rec = _prefilter_pair(args.prefilter, ref, rec)
        report = evaluate_pair(
            ref,
            rec,
            ms_cfg=ms_cfg,
            reference_id=args.reference,
            reconstruction_id=args.reconstruction,
            chunk_seconds=args.chunk_seconds,
        )
        breakdown = composite_objective(ref, rec, cfg=ms_cfg) if args.objective else None
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # evaluate_pair got an aligned, prefiltered pair, so the flags and the prefilter come from here
    config = {**report.config, "prefilter": args.prefilter}
    report = replace(report, flags=(*flags, *report.flags), config=config)
    if args.format == "json":
        print(report.to_json())
    else:
        print(MetricReport.csv_header())
        print(report.to_csv_row())
    if breakdown is not None:
        print(json.dumps(replace(breakdown, prefilter=args.prefilter).as_dict()))
    return 0


def _cmd_curate(args: argparse.Namespace) -> int:
    try:
        decisions, summary = curate_batch(
            args.input,
            args.output,
            stage=args.stage,
            lufs_min=args.lufs_min,
            lufs_max=args.lufs_max,
            dbtp_max=args.dbtp_max,
            jobs=args.jobs,
        )
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(summary.to_json())
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "eval":
        return _cmd_eval(args)
    return _cmd_curate(args)


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
