"""The three benchmark workloads: their inputs, the op they time, and the
check of every op's output.

Each workload is a closed loop with one caller: the next op starts when the
previous one returns. ``prepare`` builds op ``i``'s input and ``cleanup``
removes what the op left behind; neither is timed. ``run`` is the timed op,
called through the public API looked up at call time, so the tracer's
wrappers are used when installed. ``check`` returns a list of problems; an
op fails if it raises, exits nonzero, or has a problem.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from pathlib import Path


import gen

EXPECTED_EVAL = Path(__file__).with_name("expected_eval.json")
METRIC_FIELDS = ("mel_dist", "stft_dist", "icpc_percent", "ccpc_percent", "si_sdr_db", "dbtp_dist")


def _cli(argv: list[str]) -> tuple[int, str]:
    """Run ``earmetrics.cli.main`` in-process with stdout and stderr captured."""
    import earmetrics.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = earmetrics.cli.main(argv)
    return code, out.getvalue()


class Workload:
    """Defaults: one job, nothing to set up, nothing to clean up."""

    jobs = 1

    def setup(self) -> None:
        pass

    def cleanup(self, inp: dict) -> None:
        pass


class EvalWorkload(Workload):
    """``earmetrics eval ref.wav rec.wav`` on distinct 30 s stereo pairs."""

    name = "eval_30s"
    seconds = 30.0

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.ref = work / "ref.wav"
        self.rec = work / "rec.wav"
        stored = json.loads(EXPECTED_EVAL.read_text())
        self.expected = stored["reports"] if stored["seed"] == seed else {}

    def prepare(self, i: int) -> dict:
        pair = gen.music_pair(self.seed, i, self.seconds)
        gen.write_wav(self.ref, pair.ref, pair.rate, "float32")
        gen.write_wav(self.rec, pair.rec, pair.rate, "float32")
        return {"i": i, "snr_db": pair.snr_db}

    def run(self, inp: dict) -> tuple[int, str]:
        return _cli(["eval", str(self.ref), str(self.rec)])

    def check(self, inp: dict, out: tuple[int, str]) -> list[str]:
        code, text = out
        if code != 0:
            return [f"exit code {code}"]
        report = json.loads(text)
        values = {k: report[k] for k in METRIC_FIELDS}
        problems = [f"{k} is not finite" for k, v in values.items() if not math.isfinite(v)]
        if abs(values["si_sdr_db"] - inp["snr_db"]) > 0.1:
            problems.append(f"si_sdr_db {values['si_sdr_db']} is not the injected {inp['snr_db']:.3f} dB")
        for k in ("icpc_percent", "ccpc_percent"):
            if not 0.0 <= values[k] <= 100.0:
                problems.append(f"{k} {values[k]} outside [0, 100]")
        want = self.expected.get(str(inp["i"]))
        if want is not None:
            for k in METRIC_FIELDS:
                if not math.isclose(values[k], want[k], rel_tol=1e-9, abs_tol=0.0):
                    problems.append(f"{k} {values[k]} differs from stored {want[k]}")
            if report["flags"] != want["flags"]:
                problems.append(f"flags {report['flags']} differ from stored {want['flags']}")
        return problems

    def audio_seconds(self) -> float:
        return self.seconds


class ObjectiveWorkload(Workload):
    """``composite_objective(ref, rec)`` on distinct 5 s stereo pairs, no I/O."""

    name = "objective_5s"
    seconds = 5.0

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed

    def prepare(self, i: int) -> dict:
        from earmetrics.audio import AudioBuffer

        pair = gen.music_pair(self.seed, i, self.seconds)
        return {"ref": AudioBuffer(pair.ref, pair.rate), "rec": AudioBuffer(pair.rec, pair.rate)}

    def run(self, inp: dict):
        import earmetrics.spectral

        return earmetrics.spectral.composite_objective(inp["ref"], inp["rec"])

    def check(self, inp: dict, out) -> list[str]:
        terms = out.as_dict()
        names = ("stft_mag", "corr", "phase", "weighted_total")
        problems = [f"{k} is not finite" for k in names if not math.isfinite(terms[k])]
        total = (
            terms["lambda_stft_mag"] * terms["stft_mag"]
            + terms["lambda_corr"] * terms["corr"]
            + terms["lambda_phase"] * terms["phase"]
        )
        if not math.isclose(terms["weighted_total"], total, rel_tol=1e-12):
            problems.append(f"weighted_total {terms['weighted_total']} is not the weighted sum {total}")
        return problems

    def audio_seconds(self) -> float:
        return self.seconds


class CurateWorkload(Workload):
    """``earmetrics curate all <in> <out> --jobs 2`` over the mixed corpus.

    The corpus is written once per run, because every op's
    ``decisions.jsonl`` is compared byte for byte with one ``--jobs 1``
    reference made at setup; the log names the output directory, so every op
    writes to the same path, made before and removed after the op.
    """

    name = "curate_mixed"
    jobs = 2

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.src = work / "in"
        self.out = work / "out"
        self.specs: list[gen.CorpusFile] = []
        self.reference = b""

    def _argv(self, jobs: int) -> list[str]:
        return ["curate", "all", str(self.src), str(self.out), "--jobs", str(jobs)]

    def setup(self) -> None:
        self.specs = gen.write_corpus(self.seed, self.src)
        self.prepare(-1)
        out = _cli(self._argv(1))
        self.reference = (self.out / "decisions.jsonl").read_bytes() if out[0] == 0 else b""
        problems = self._check_decisions(out, self.reference)
        self.cleanup({})
        if problems:
            raise RuntimeError("--jobs 1 reference run failed: " + "; ".join(problems))

    def prepare(self, i: int) -> dict:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir()
        return {}

    def run(self, inp: dict) -> tuple[int, str]:
        return _cli(self._argv(self.jobs))

    def _check_decisions(self, out: tuple[int, str], log: bytes) -> list[str]:
        code, text = out
        if code != 0:
            return [f"exit code {code}"]
        summary = json.loads(text)
        problems = [] if summary["total"] == len(self.specs) else [f"total {summary['total']}"]
        designed = {s.name: s.reason for s in self.specs}
        decisions = [json.loads(line) for line in log.decode().splitlines()]
        got = {Path(d["input_path"]).name: d["reason"] for d in decisions}
        if got != designed:
            wrong = sorted(k for k in designed if got.get(k) != designed[k])
            problems.append(f"reasons differ from the design for {wrong}")
        kept = sorted(p.name for p in self.out.glob("*.wav"))
        want_kept = sorted(Path(d["output_path"]).name for d in decisions if d["verdict"] == "keep")
        if kept != want_kept:
            problems.append(f"kept files {kept} differ from the log's {want_kept}")
        return problems

    def check(self, inp: dict, out: tuple[int, str]) -> list[str]:
        log = (self.out / "decisions.jsonl").read_bytes() if out[0] == 0 else b""
        problems = self._check_decisions(out, log)
        if log != self.reference:
            problems.append("decisions.jsonl differs from the --jobs 1 reference")
        return problems

    def cleanup(self, inp: dict) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def audio_seconds(self) -> float:
        return sum(s.seconds for s in self.specs if s.reason != "decode_error")

    def files(self) -> int:
        return len(self.specs)


WORKLOADS = {w.name: w for w in (EvalWorkload, ObjectiveWorkload, CurateWorkload)}
