from __future__ import annotations

import json
import os
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import earmetrics.audio
import earmetrics.pipeline
from earmetrics import (
    AudioBuffer,
    BatchSummary,
    CurateDecision,
    collect_inputs,
    curate_all,
    curate_batch,
    curate_stage1,
    curate_stage2,
    load_wav,
    resolve_jobs,
    save_wav,
    true_peak_dbtp,
)
from earmetrics.audio import _FLOAT, _wav_header
from earmetrics.pipeline import REASONS
from helpers import calibrated_burst_buffer, noise_stereo


class TestDecisionRecord:
    def test_keep_requires_reason_none(self):
        with pytest.raises(ValueError):
            CurateDecision("x.wav", "keep", "lufs_low", {})
        with pytest.raises(ValueError):
            CurateDecision("x.wav", "reject", "none", {})

    def test_json_rounds_and_nulls(self):
        d = CurateDecision(
            "x.wav",
            "reject",
            "lufs_low",
            {"native_rate": 44100, "lufs_i": -np.inf, "dbtp": None},
        )
        doc = json.loads(d.to_json())
        assert doc["measured"]["lufs_i"] is None
        assert doc["measured"]["dbtp"] is None
        assert doc["measured"]["native_rate"] == 44100
        assert doc["output_path"] is None

    def test_summary_counts_must_reconcile(self):
        with pytest.raises(ValueError):
            BatchSummary(total=3, kept=1, rejected_by_reason={"lufs_low": 1}, manifest_path="m")


class TestStage1:
    def test_keeps_compliant_file_and_writes_float32(self, tmp_path, curation_corpus):
        src = curation_corpus["dir"] / "f_ok.wav"
        decision = curate_stage1(src, tmp_path)
        assert decision.verdict == "keep"
        assert decision.reason == "none"
        out = load_wav(decision.output_path)
        assert out.sample_rate == 44100
        assert out.channels == 2

    def test_rejects_below_rate(self, tmp_path, curation_corpus):
        decision = curate_stage1(curation_corpus["dir"] / "a_lowrate.wav", tmp_path)
        assert (decision.verdict, decision.reason) == ("reject", "below_rate")
        assert decision.measured["native_rate"] == 32000
        assert decision.output_path is None

    @pytest.mark.parametrize("name,reason", [("b_quiet.wav", "lufs_low"), ("c_loud.wav", "lufs_high")])
    def test_rejects_out_of_range_loudness(self, tmp_path, curation_corpus, name, reason):
        decision = curate_stage1(curation_corpus["dir"] / name, tmp_path)
        assert (decision.verdict, decision.reason) == ("reject", reason)
        assert decision.measured["lufs_i"] is not None

    def test_bounds_are_inclusive(self, tmp_path, curation_corpus):
        # a file measured at L is kept when the gate sits exactly at L
        src = curation_corpus["dir"] / "f_ok.wav"
        lufs = curate_stage1(src, tmp_path).measured["lufs_i"]
        keep_low = curate_stage1(src, tmp_path, lufs_min=lufs, lufs_max=-5.0)
        keep_high = curate_stage1(src, tmp_path, lufs_min=-22.0, lufs_max=lufs)
        assert keep_low.verdict == keep_high.verdict == "keep"

    def test_downsamples_high_rate_input(self, tmp_path, rng):
        # extra headroom: downsampling discards the noise energy above
        # the target Nyquist and costs about 3.4 dB of loudness
        hi = AudioBuffer(0.08 * rng.standard_normal((2, 96000 * 2)), 96000)
        src = tmp_path / "hi.wav"
        save_wav(src, hi, sample_format="float32")
        decision = curate_stage1(src, tmp_path)
        assert decision.verdict == "keep"
        assert decision.measured["native_rate"] == 96000
        assert load_wav(decision.output_path).sample_rate == 44100

    def test_duplicates_mono_input(self, tmp_path, rng):
        mono = AudioBuffer(0.05 * rng.standard_normal(3 * 44100), 44100)
        src = tmp_path / "mono.wav"
        save_wav(src, mono, sample_format="float32")
        # the kept file has the bytes a stereo copy of the decoded channel gives
        save_wav(tmp_path / "copy.wav", AudioBuffer(np.vstack([load_wav(src).samples[0]] * 2), 44100))
        decision = curate_stage1(src, tmp_path)
        assert decision.verdict == "keep"
        out = load_wav(decision.output_path)
        assert out.channels == 2
        np.testing.assert_array_equal(out.samples[0], out.samples[1])
        assert Path(decision.output_path).read_bytes() == (tmp_path / "copy.wav").read_bytes()

    def test_undecodable_file_rejected(self, tmp_path):
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"not audio at all")
        decision = curate_stage1(bad, tmp_path)
        assert (decision.verdict, decision.reason) == ("reject", "decode_error")


class TestStage2:
    def test_rejects_true_peak_over_threshold(self, tmp_path, curation_corpus):
        for name in ("d_tp15.wav", "e_tp10.wav"):
            decision = curate_stage2(curation_corpus["dir"] / name)
            assert (decision.verdict, decision.reason) == ("reject", "true_peak_exceeded")
            assert decision.measured["dbtp"] >= 1.0

    def test_threshold_tie_rejects(self, tmp_path, curation_corpus):
        # keep requires strictly-below: a gate equal to the measured peak fails
        src = curation_corpus["dir"] / "f_ok.wav"
        peak = true_peak_dbtp(load_wav(src)).dbtp
        assert curate_stage2(src, dbtp_max=peak).verdict == "reject"
        assert curate_stage2(src, dbtp_max=peak + 1e-9).verdict == "keep"

    def test_copy_on_keep_when_out_dir_given(self, tmp_path, curation_corpus):
        src = curation_corpus["dir"] / "f_ok.wav"
        decision = curate_stage2(src, out_dir=tmp_path)
        assert decision.verdict == "keep"
        assert (tmp_path / "f_ok.wav").read_bytes() == src.read_bytes()


class TestCurateAll:
    def test_intermediate_deleted_on_stage2_reject(self, tmp_path, curation_corpus):
        decision = curate_all(curation_corpus["dir"] / "d_tp15.wav", tmp_path)
        assert (decision.verdict, decision.reason) == ("reject", "true_peak_exceeded")
        assert not (tmp_path / "d_tp15.wav").exists()
        # measurements from both stages are merged into the record
        assert decision.measured["lufs_i"] is not None
        assert decision.measured["dbtp"] is not None

    def test_keep_reports_both_measurements(self, tmp_path, curation_corpus):
        decision = curate_all(curation_corpus["dir"] / "f_ok.wav", tmp_path)
        assert decision.verdict == "keep"
        assert decision.measured["lufs_i"] == pytest.approx(-19.89, abs=0.05)
        assert decision.measured["dbtp"] < 1.0
        assert os.path.exists(decision.output_path)

    def test_truncated_file_rejected_before_any_write(self, tmp_path):
        # a data chunk cut on a frame boundary: scipy alone would load 20,000
        # of 44,100 frames, and this file would be kept at -19.9 LUFS
        src = tmp_path / "cut.wav"
        save_wav(src, noise_stereo(seconds=1.0, amp=0.05, seed=87), sample_format="pcm16")
        src.write_bytes(src.read_bytes()[:80044])
        out = tmp_path / "out"
        out.mkdir()
        decision = curate_all(src, out)
        assert (decision.verdict, decision.reason) == ("reject", "decode_error")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("spike,reason", [(0.0, "none"), (1.5, "true_peak_exceeded")])
    def test_matches_stage1_then_stage2(self, tmp_path, spike, reason):
        # 48 kHz mono: resampling, stereo promotion and float32 rounding all
        # apply, so the peak must be measured on what the file stores
        x = 0.05 * np.random.default_rng(7).standard_normal(3 * 48000)
        x[48000] = spike
        src = tmp_path / "mono48k.wav"
        save_wav(src, AudioBuffer(x, 48000), sample_format="float32")
        (tmp_path / "s1").mkdir()
        (tmp_path / "all").mkdir()
        first = curate_stage1(src, tmp_path / "s1")
        second = curate_stage2(first.output_path)
        both = curate_all(src, tmp_path / "all")
        assert first.verdict == "keep"
        assert both.reason == second.reason == reason
        assert both.measured == {
            "native_rate": 48000,
            "lufs_i": first.measured["lufs_i"],
            "dbtp": second.measured["dbtp"],
        }
        out_file = tmp_path / "all" / "mono48k.wav"
        if reason == "none":
            assert both.output_path == str(out_file)
            assert out_file.read_bytes() == Path(first.output_path).read_bytes()
        else:
            assert both.output_path is None
            assert not out_file.exists()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_reject_never_deletes_a_kept_file_of_the_same_stem(self, tmp_path, jobs):
        for sub, buf in (
            ("a", noise_stereo(seconds=5.0, amp=0.05, seed=81)),
            ("b", calibrated_burst_buffer(44100, 1.5, seed=82)),
        ):
            (tmp_path / sub).mkdir()
            save_wav(tmp_path / sub / "x.wav", buf, sample_format="float32")
        manifest = tmp_path / "files.txt"
        manifest.write_text(f"{tmp_path / 'a' / 'x.wav'}\n{tmp_path / 'b' / 'x.wav'}\n")
        decisions, _ = curate_batch(manifest, tmp_path / "out", stage="all", jobs=jobs)
        assert [d.reason for d in decisions] == ["none", "duplicate_output"]
        assert decisions[0].output_path == str(tmp_path / "out" / "x.wav")
        assert (tmp_path / "out" / "x.wav").read_bytes() == (tmp_path / "a" / "x.wav").read_bytes()

    def test_same_stem_outputs_claimed_in_sorted_order(self, tmp_path):
        # both inputs pass both gates; the first in sorted order claims out/x.wav
        for sub, seed in (("a", 84), ("b", 85)):
            (tmp_path / sub).mkdir()
            buf = noise_stereo(seconds=5.0, amp=0.05, seed=seed)
            save_wav(tmp_path / sub / "x.wav", buf, sample_format="float32")
        manifest = tmp_path / "files.txt"
        manifest.write_text(f"{tmp_path / 'b' / 'x.wav'}\n{tmp_path / 'a' / 'x.wav'}\n")
        (tmp_path / "alone").mkdir()
        alone = curate_all(tmp_path / "a" / "x.wav", tmp_path / "alone")
        logs = []
        for jobs in (1, 2):
            shutil.rmtree(tmp_path / "out", ignore_errors=True)
            decisions, summary = curate_batch(manifest, tmp_path / "out", stage="all", jobs=jobs)
            assert [(d.reason, d.output_path) for d in decisions] == [
                ("none", str(tmp_path / "out" / "x.wav")),
                ("duplicate_output", None),
            ]
            assert decisions[1].measured == {"native_rate": None, "lufs_i": None, "dbtp": None}
            assert summary.rejected_by_reason == {"duplicate_output": 1}
            assert (tmp_path / "out" / "x.wav").read_bytes() == Path(alone.output_path).read_bytes()
            logs.append((tmp_path / "out" / "decisions.jsonl").read_bytes())
        assert logs[0] == logs[1]


    def test_path_listed_twice_is_curated_once(self, tmp_path):
        save_wav(tmp_path / "x.wav", noise_stereo(seconds=5.0, amp=0.05, seed=87), sample_format="float32")
        manifest = tmp_path / "files.txt"
        manifest.write_text(f"{tmp_path / 'x.wav'}\n{tmp_path / 'x.wav'}\n")
        logs = []
        for jobs in (1, 2):
            shutil.rmtree(tmp_path / "out", ignore_errors=True)
            decisions, summary = curate_batch(manifest, tmp_path / "out", stage="all", jobs=jobs)
            assert [d.reason for d in decisions] == ["none", "duplicate_output"]
            assert decisions[1].measured == {"native_rate": None, "lufs_i": None, "dbtp": None}
            assert (summary.total, summary.kept) == (2, 1)
            assert summary.rejected_by_reason == {"duplicate_output": 1}
            logs.append((tmp_path / "out" / "decisions.jsonl").read_bytes())
        assert logs[0] == logs[1]


class TestAtomicWrites:
    def test_failed_wav_write_leaves_no_output_file(self, tmp_path, monkeypatch):
        src = tmp_path / "x.wav"
        save_wav(src, noise_stereo(seconds=5.0, amp=0.05, seed=88), sample_format="float32")

        def truncated_write(self, block):
            self._fh.write(b"RIFF\x00\x00")
            raise OSError("disk full")

        def truncated_copy(source, target):
            Path(target).write_bytes(b"RIFF\x00\x00")
            raise OSError("disk full")

        monkeypatch.setattr(earmetrics.audio._WavWriter, "write", truncated_write)
        monkeypatch.setattr(earmetrics.pipeline.shutil, "copyfile", truncated_copy)
        for curate in (curate_stage1, curate_stage2, curate_all):
            out = tmp_path / curate.__name__
            out.mkdir()
            with pytest.raises(OSError, match="disk full"):
                curate(src, out)
            assert list(out.iterdir()) == []

    def test_failed_log_write_keeps_the_previous_log(self, tmp_path, curation_corpus, monkeypatch):
        out = tmp_path / "out"
        curate_batch(curation_corpus["dir"], out, stage="stage2")
        before = (out / "decisions.jsonl").read_bytes()
        written = []

        def failing_to_json(self):
            written.append(self)
            if len(written) == 3:
                raise OSError("disk full")
            return json.dumps({"input_path": self.input_path})

        monkeypatch.setattr(CurateDecision, "to_json", failing_to_json)
        with pytest.raises(OSError, match="disk full"):
            curate_batch(curation_corpus["dir"], out, stage="stage2")
        assert (out / "decisions.jsonl").read_bytes() == before
        assert not [p for p in out.iterdir() if p.suffix == ".tmp"]


class TestWriteError:
    """A kept file whose output path is a directory cannot be renamed into place."""

    STAGES = {"stage1": curate_stage1, "stage2": curate_stage2, "all": curate_all}

    @pytest.fixture
    def src(self, tmp_path):
        path = tmp_path / "in" / "a.wav"
        path.parent.mkdir()
        save_wav(path, noise_stereo(seconds=5.0, amp=0.05, seed=88), sample_format="float32")
        save_wav(path.with_name("b.wav"), noise_stereo(seconds=5.0, amp=0.05, seed=89), sample_format="float32")
        return path

    @pytest.mark.parametrize("stage", STAGES)
    def test_single_file_raises_by_name_and_leaves_no_temporary(self, tmp_path, src, stage):
        out = tmp_path / "out"
        (out / "a.wav").mkdir(parents=True)
        with pytest.raises(OSError, match=f"^cannot write {re.escape(str(out / 'a.wav'))}: "):
            self.STAGES[stage](src, out)
        assert [p.name for p in out.iterdir()] == ["a.wav"]
        assert list((out / "a.wav").iterdir()) == []

    @pytest.mark.parametrize("stage", STAGES)
    def test_batch_logs_write_error_with_the_measurements(self, tmp_path, src, stage):
        clean, _ = curate_batch(src.parent, tmp_path / "clean", stage=stage)
        out = tmp_path / "out"
        (out / "a.wav").mkdir(parents=True)
        decisions, summary = curate_batch(src.parent, out, stage=stage)
        assert [d.reason for d in clean] == ["none", "none"]
        assert [d.reason for d in decisions] == ["write_error", "none"]
        assert decisions[0].measured == clean[0].measured
        assert decisions[0].output_path is None
        assert decisions[1] == CurateDecision(
            clean[1].input_path, "keep", "none", clean[1].measured, output_path=str(out / "b.wav")
        )
        assert (summary.total, summary.kept, summary.rejected_by_reason) == (2, 1, {"write_error": 1})
        logged = [json.loads(line)["reason"] for line in (out / "decisions.jsonl").read_text().splitlines()]
        assert logged == ["write_error", "none"]
        assert sorted(p.name for p in out.iterdir()) == ["a.wav", "b.wav", "decisions.jsonl"]


class TestCurationProperty:
    @settings(max_examples=80, deadline=None)
    @given(
        seconds=st.one_of(st.sampled_from([0.0, 0.4, 1.0, 2.0]), st.floats(0.0, 2.0)),
        rate=st.sampled_from([22050, 44100, 48000, 96000]),
        channels=st.integers(1, 2),
        fmt=st.sampled_from(["pcm16", "pcm24", "pcm32", "float32"]),
        amp=st.sampled_from([0.0, 0.003, 0.03, 0.3, 1.0]),
        cut=st.one_of(st.none(), st.floats(0.0, 1.0, exclude_max=True)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_file_ends_in_one_named_reason(self, seconds, rate, channels, fmt, amp, cut, seed):
        # a strict cut of a save_wav file always cuts its data chunk short
        x = amp * np.random.default_rng(seed).uniform(-1.0, 1.0, (channels, int(seconds * rate)))
        with tempfile.TemporaryDirectory() as tmp:
            src = Path(tmp) / "x.wav"
            save_wav(src, AudioBuffer(x, rate), sample_format=fmt)
            raw = src.read_bytes()
            if cut is not None:
                src.write_bytes(raw[: int(cut * len(raw))])
            decisions = []
            for curate in (curate_stage1, curate_stage2, curate_all):
                out = Path(tmp) / curate.__name__
                out.mkdir()
                decisions.append(d := curate(src, out))
                assert d.reason in REASONS
                assert [p.name for p in out.iterdir()] == (["x.wav"] if d.verdict == "keep" else [])
            s1, s2, both = decisions
            if cut is not None:
                assert {d.reason for d in decisions} == {"decode_error"}
                return
            if x.shape[1] == 0:
                assert s2.reason == "too_short"
            else:
                assert s2.reason in ("none", "true_peak_exceeded")
            standardized = x.shape[1] * 44100 / rate  # samples at 44.1 kHz
            assert s1.reason != "decode_error"
            if rate < 44100:
                assert s1.reason == "below_rate"
            elif standardized < 17639:  # one 400 ms gating block is 17640 samples
                assert s1.reason == "too_short"
            elif standardized > 17641:
                assert s1.reason != "too_short"
            # all is stage1 and then stage2 on what stage1 writes
            if s1.verdict == "reject":
                assert (both.reason, both.measured) == (s1.reason, s1.measured)
            else:
                assert both.reason == curate_stage2(s1.output_path).reason


class TestNonFinite:
    @pytest.fixture(params=[np.nan, np.inf], ids=["nan", "inf"])
    def src(self, request, tmp_path):
        # a file that passes both gates but for one non-finite sample
        samples = noise_stereo(seconds=5.0, amp=0.05, seed=83).samples.copy()
        samples[1, 1000] = request.param
        path = tmp_path / "in" / "bad.wav"
        path.parent.mkdir()
        save_wav(path, AudioBuffer(samples, 44100), sample_format="float32")
        return path

    @pytest.mark.parametrize("curate", [curate_stage1, curate_stage2, curate_all], ids=["stage1", "stage2", "all"])
    def test_rejected_as_non_finite(self, tmp_path, src, curate):
        out = tmp_path / "out"
        out.mkdir()
        decision = curate(src, out)
        assert (decision.verdict, decision.reason) == ("reject", "non_finite")
        assert decision.measured == {"native_rate": 44100, "lufs_i": None, "dbtp": None}
        assert decision.output_path is None
        assert list(out.iterdir()) == []


class TestHugeAmplitude:
    @pytest.mark.parametrize("amp", [1e300, 1.5e308])
    @pytest.mark.parametrize("curate", [curate_stage1, curate_all], ids=["stage1", "all"])
    def test_rejected_as_lufs_high(self, tmp_path, amp, curate):
        # finite float64 samples whose K-weighted power overflows measure +inf LUFS
        t = np.arange(2 * 44100) / 44100
        x = amp * np.sin(2 * np.pi * 1000.0 * t)
        src = tmp_path / "huge.wav"
        with open(src, "wb") as fh:
            fh.write(_wav_header(_FLOAT, 2, 44100, 8, t.size))
            fh.write(np.stack([x, x]).T.astype("<f8").tobytes())
        out = tmp_path / "out"
        out.mkdir()
        decision = curate(src, out)
        assert (decision.verdict, decision.reason) == ("reject", "lufs_high")
        assert decision.measured["lufs_i"] == np.inf
        assert json.loads(decision.to_json())["measured"]["lufs_i"] is None
        assert list(out.iterdir()) == []


class TestOverflowOutcomes:
    """Finite samples whose resampled or oversampled values overflow float64
    get the gate's outcome, as samples whose K-weighted power overflows do."""

    @staticmethod
    def _huge_wav(path: Path, rate: int, seconds: float = 2.0) -> None:
        x = np.clip(np.random.default_rng(0).standard_normal((2, int(seconds * rate))), -1, 1) * 1.7e308
        with open(path, "wb") as fh:
            fh.write(_wav_header(_FLOAT, 2, rate, 8, x.shape[1]))
            fh.write(x.T.astype("<f8").tobytes())

    def test_stage2_rejects_as_true_peak_exceeded(self, tmp_path):
        # true peak used to raise "buffer holds non-finite samples", logged as decode_error
        (tmp_path / "in").mkdir()
        self._huge_wav(tmp_path / "in" / "huge.wav", 44100)
        (decision,), _ = curate_batch(tmp_path / "in", tmp_path / "out", stage="stage2")
        assert (decision.reason, decision.measured["dbtp"]) == ("true_peak_exceeded", np.inf)
        assert json.loads(decision.to_json())["measured"] == {"native_rate": 44100, "lufs_i": None, "dbtp": None}
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["decisions.jsonl"]

    @pytest.mark.parametrize("rate", [44100, 96000])
    @pytest.mark.parametrize("stage", ["stage1", "all"])
    def test_stage1_rejects_as_lufs_high_at_any_rate(self, tmp_path, rate, stage):
        # at 96 kHz the resampled samples overflow, and this used to read too_short
        (tmp_path / "in").mkdir()
        self._huge_wav(tmp_path / "in" / "huge.wav", rate)
        (decision,), _ = curate_batch(tmp_path / "in", tmp_path / "out", stage=stage)
        assert (decision.reason, decision.measured["lufs_i"]) == ("lufs_high", np.inf)
        assert json.loads(decision.to_json())["measured"] == {"native_rate": rate, "lufs_i": None, "dbtp": None}

    def test_short_file_is_too_short_before_its_overflow(self, tmp_path):
        src = tmp_path / "short.wav"
        self._huge_wav(src, 96000, seconds=0.3)
        decision = curate_all(src, tmp_path)
        assert (decision.reason, decision.measured["native_rate"]) == ("too_short", 96000)


class TestTooShort:
    @pytest.mark.parametrize(
        "seconds,curate",
        [(0.1, curate_stage1), (0.1, curate_all), (0.0, curate_stage1), (0.0, curate_all), (0.0, curate_stage2)],
        ids=["0.1s-stage1", "0.1s-all", "empty-stage1", "empty-all", "empty-stage2"],
    )
    def test_rejected_as_too_short(self, tmp_path, seconds, curate):
        src = tmp_path / "short.wav"
        save_wav(src, noise_stereo(seconds=seconds, amp=0.05, seed=86), sample_format="float32")
        out = tmp_path / "out"
        out.mkdir()
        decision = curate(src, out)
        assert (decision.verdict, decision.reason) == ("reject", "too_short")
        assert decision.measured == {"native_rate": 44100, "lufs_i": None, "dbtp": None}
        assert list(out.iterdir()) == []


class TestInputsAndJobs:
    def test_directory_listing_is_sorted(self, tmp_path):
        for name in ("c.wav", "a.wav", "b.wav", "skip.txt"):
            (tmp_path / name).write_bytes(b"")
        got = collect_inputs(tmp_path)
        assert [os.path.basename(p) for p in got] == ["a.wav", "b.wav", "c.wav"]

    def test_manifest_file_listing(self, tmp_path):
        listing = tmp_path / "files.txt"
        listing.write_text("/x/b.wav\n\n/x/a.wav\n")
        assert collect_inputs(listing) == ["/x/a.wav", "/x/b.wav"]

    def test_missing_source_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            collect_inputs(tmp_path / "absent")

    def test_env_var_overrides_jobs(self, monkeypatch):
        monkeypatch.setenv("EARMETRICS_THREADS", "3")
        assert resolve_jobs(8) == 3

    def test_env_var_clamped_to_one(self, monkeypatch):
        monkeypatch.setenv("EARMETRICS_THREADS", "0")
        assert resolve_jobs() == 1

    def test_bad_env_var_rejected(self, monkeypatch):
        monkeypatch.setenv("EARMETRICS_THREADS", "many")
        with pytest.raises(ValueError, match="EARMETRICS_THREADS"):
            resolve_jobs()

    def test_defaults(self, monkeypatch):
        monkeypatch.delenv("EARMETRICS_THREADS", raising=False)
        assert resolve_jobs() == 1
        assert resolve_jobs(4) == 4


class TestBatch:
    def test_full_corpus_pattern(self, tmp_path, curation_corpus):
        decisions, summary = curate_batch(curation_corpus["dir"], tmp_path, stage="all")
        got = {os.path.basename(d.input_path): d.reason for d in decisions}
        assert got == curation_corpus["expected_reasons"]
        assert summary.total == 6
        assert summary.kept == 1
        assert summary.rejected_by_reason == {
            "below_rate": 1,
            "lufs_low": 1,
            "lufs_high": 1,
            "true_peak_exceeded": 2,
        }
        kept_files = sorted(p.name for p in tmp_path.glob("*.wav"))
        assert kept_files == ["f_ok.wav"]

    def test_manifest_is_deterministic_across_reruns_and_jobs(
        self, tmp_path, curation_corpus, monkeypatch
    ):
        out = tmp_path / "out"
        curate_batch(curation_corpus["dir"], out, stage="all", jobs=1)
        first = (out / "decisions.jsonl").read_bytes()
        curate_batch(curation_corpus["dir"], out, stage="all", jobs=4)
        second = (out / "decisions.jsonl").read_bytes()
        monkeypatch.setenv("EARMETRICS_THREADS", "2")
        curate_batch(curation_corpus["dir"], out, stage="all")
        third = (out / "decisions.jsonl").read_bytes()
        assert first == second == third
        assert len(first.splitlines()) == 6

    def test_manifest_lines_parse_in_sorted_order(self, tmp_path, curation_corpus):
        _, summary = curate_batch(curation_corpus["dir"], tmp_path, stage="all")
        lines = (tmp_path / "decisions.jsonl").read_text().splitlines()
        paths = [json.loads(line)["input_path"] for line in lines]
        assert paths == sorted(paths)
        assert summary.manifest_path == str(tmp_path / "decisions.jsonl")

    def test_stage1_only_batch(self, tmp_path, curation_corpus):
        decisions, summary = curate_batch(curation_corpus["dir"], tmp_path, stage="stage1")
        # the true-peak offenders pass the loudness gate
        assert summary.kept == 3
        assert summary.rejected_by_reason == {"below_rate": 1, "lufs_low": 1, "lufs_high": 1}

    def test_worker_exception_becomes_decode_error(self, tmp_path):
        src = tmp_path / "in"
        src.mkdir()
        (src / "junk.wav").write_bytes(b"RIFF???")
        ok = noise_stereo(seconds=5.0, amp=0.05, seed=80)
        save_wav(src / "ok.wav", ok, sample_format="float32")
        decisions, summary = curate_batch(src, tmp_path / "out", stage="all")
        reasons = {os.path.basename(d.input_path): d.reason for d in decisions}
        assert reasons["junk.wav"] == "decode_error"
        assert summary.total == 2

    def test_invalid_stage_rejected(self, tmp_path, curation_corpus):
        with pytest.raises(ValueError, match="stage"):
            curate_batch(curation_corpus["dir"], tmp_path, stage="stage3")
