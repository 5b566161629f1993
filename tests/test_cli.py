from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import earmetrics
import earmetrics.coherence
import earmetrics.weighting
from earmetrics import AudioBuffer, align_pair, composite_objective, evaluate_pair, load_wav, save_wav
from earmetrics.cli import main
from earmetrics.audio import _FLOAT, _wav_header
from helpers import HUGE_AMPLITUDES, huge_noise_pair, noise_stereo, overflowing_pair, traced_peak


def _traced_eval_peak(paths: list[Path], warm_pair: tuple[str, str], capsys) -> int:
    """Peak traced bytes of ``earmetrics eval`` on ``paths``, after one eval of
    ``warm_pair`` fills the per-process filterbank and window caches."""
    assert main(["eval", *warm_pair]) == 0
    codes = []
    peak = traced_peak(lambda: codes.append(main(["eval", *map(str, paths)])))
    assert codes == [0]
    capsys.readouterr()
    return peak


@pytest.fixture
def wav_pair(tmp_path):
    ref = noise_stereo(seconds=1.0, amp=0.4, seed=90)
    rec = AudioBuffer(ref.samples * 0.9, 44100)
    ref_path, rec_path = tmp_path / "ref.wav", tmp_path / "rec.wav"
    save_wav(ref_path, ref, sample_format="float32")
    save_wav(rec_path, rec, sample_format="float32")
    return str(ref_path), str(rec_path)


class TestEvalCommand:
    def test_json_report(self, wav_pair, capsys):
        assert main(["eval", *wav_pair]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["reference"] == wav_pair[0]
        assert set(doc) >= {"mel_dist", "stft_dist", "icpc_percent", "ccpc_percent", "si_sdr_db", "dbtp_dist"}
        # 0.9x scaling: scale-invariant metrics stay perfect, peak moves ~0.92 dB
        assert doc["si_sdr_db"] == 100.0
        assert doc["dbtp_dist"] == pytest.approx(0.92, abs=0.02)

    def test_csv_report(self, wav_pair, capsys):
        assert main(["eval", *wav_pair, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("mel_dist,stft_dist,")
        assert len(lines[1].split(",")) == len(lines[0].split(","))

    def test_fft_sizes_override(self, wav_pair, capsys):
        assert main(["eval", *wav_pair, "--fft-sizes", "512", "256"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["fft_sizes"] == [512, 256]

    def test_objective_line(self, wav_pair, capsys):
        assert main(["eval", *wav_pair, "--objective", "--prefilter", "k"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        breakdown = json.loads(lines[1])
        assert breakdown["prefilter"] == "k"
        assert breakdown["weighted_total"] == pytest.approx(
            50 * breakdown["stft_mag"] + 10 * breakdown["corr"] + 10 * breakdown["phase"],
            rel=1e-12,
        )

    def test_objective_aligns_once(self, tmp_path, monkeypatch, capsys):
        # a 48 kHz reconstruction is resampled once, for the report and the
        # objective alike, and both lines equal the library's values
        paths = [tmp_path / "ref.wav", tmp_path / "rec.wav"]
        save_wav(paths[0], noise_stereo(rate=44100, seconds=1.0, amp=0.4, seed=93), sample_format="float32")
        save_wav(paths[1], noise_stereo(rate=48000, seconds=1.2, amp=0.4, seed=94), sample_format="float32")
        ref, rec = (load_wav(p) for p in paths)
        ids = [str(p) for p in paths]
        report = evaluate_pair(ref, rec, reference_id=ids[0], reconstruction_id=ids[1], prefilter="k")
        objective = composite_objective(*align_pair(ref, rec)[:2], prefilter="k")
        calls = []
        resample = earmetrics.coherence.resample
        monkeypatch.setattr(earmetrics.coherence, "resample", lambda *a: calls.append(a) or resample(*a))
        assert main(["eval", *ids, "--objective", "--prefilter", "k"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == [report.to_json(), json.dumps(objective.as_dict())]
        assert report.flags == ("reconstruction_resampled", "truncated_to_common_length")
        assert len(calls) == 1

    @pytest.mark.parametrize("prefilter", ["k", "a"])
    def test_objective_prefilters_once(self, wav_pair, monkeypatch, capsys, prefilter):
        # the report and the objective share one filtered pair: 2 filter calls, not 4
        ref, rec = (load_wav(p) for p in wav_pair)
        report = evaluate_pair(ref, rec, reference_id=wav_pair[0], reconstruction_id=wav_pair[1], prefilter=prefilter)
        objective = composite_objective(ref, rec, prefilter=prefilter)
        calls = []
        apply_cascade = earmetrics.weighting.apply_cascade
        monkeypatch.setattr(earmetrics.weighting, "apply_cascade", lambda *a: calls.append(a) or apply_cascade(*a))
        assert main(["eval", *wav_pair, "--objective", "--prefilter", prefilter]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == [report.to_json(), json.dumps(objective.as_dict())]
        assert json.loads(lines[0])["config"]["prefilter"] == prefilter
        assert len(calls) == 2

    def test_peak_memory_is_two_buffers_and_a_block(self, tmp_path, wav_pair, capsys):
        # eval maps float inputs, so the peak is the block working set alone
        # (tests/test_mapped_eval.py holds it below one input); decoded float32
        # buffers made it 0.75x of the two 21.2 MB float64 buffers these files
        # would make if widened on load, which alone is 1.0x. 30 s, because the
        # working set does not grow with length.
        paths = [tmp_path / "ref30.wav", tmp_path / "rec30.wav"]
        ref = noise_stereo(seconds=30.0, amp=0.3, seed=95)
        save_wav(paths[0], ref, sample_format="float32")
        save_wav(paths[1], AudioBuffer(0.9 * ref.samples, 44100), sample_format="float32")
        buffers = 2 * ref.samples.nbytes
        del ref
        peak = _traced_eval_peak(paths, wav_pair, capsys)
        assert peak < 0.85 * buffers, f"peak {peak / buffers:.2f}x the two float64 buffers"

    def test_mono_peak_memory_is_below_two_mono_buffers(self, tmp_path, wav_pair, capsys):
        # a mono pair promoted to stereo by a view of each mapped file: the block
        # working set; decoded float32 buffers took 0.96x the two 10.6 MB float64
        # mono buffers, float64 buffers 1.5x, and copying each channel to stereo 3.0x
        paths = [tmp_path / "ref30.wav", tmp_path / "rec30.wav"]
        ref = noise_stereo(seconds=30.0, amp=0.3, seed=96).samples[0]
        save_wav(paths[0], AudioBuffer(ref, 44100), sample_format="float32")
        save_wav(paths[1], AudioBuffer(0.9 * ref, 44100), sample_format="float32")
        buffers = 2 * ref.nbytes
        del ref
        peak = _traced_eval_peak(paths, wav_pair, capsys)
        assert peak < 1.2 * buffers, f"peak {peak / buffers:.2f}x the two float64 mono buffers"

    def test_chunked(self, tmp_path, capsys):
        ref = noise_stereo(seconds=3.0, amp=0.4, seed=91)
        p = tmp_path / "long.wav"
        save_wav(p, ref, sample_format="float32")
        assert main(["eval", str(p), str(p), "--chunk-seconds", "1.0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "chunked" in doc["flags"]

    def test_non_finite_input_fails(self, wav_pair, tmp_path, capsys):
        samples = noise_stereo(seconds=1.0, amp=0.4, seed=92).samples.copy()
        samples[0, 500] = np.nan
        bad = tmp_path / "nan.wav"
        save_wav(bad, AudioBuffer(samples, 44100), sample_format="float32")
        assert main(["eval", wav_pair[0], str(bad)]) == 1
        assert "reconstruction holds non-finite samples" in capsys.readouterr().err

    @pytest.mark.parametrize("ref_amp,rec_amp", [*HUGE_AMPLITUDES, (1e70, 1e70)])
    def test_huge_finite_samples_fail_by_name(self, tmp_path, capsys, ref_amp, rec_amp):
        paths = [str(tmp_path / "ref.wav"), str(tmp_path / "rec.wav")]
        for path, buf in zip(paths, huge_noise_pair(ref_amp, rec_amp)):
            with open(path, "wb") as fh:  # float64 WAV: float32 cannot hold these amplitudes
                fh.write(_wav_header(_FLOAT, 2, 44100, 8, buf.num_samples))
                fh.write(buf.samples.T.astype("<f8").tobytes())
        code = main(["eval", *paths, "--fft-sizes", "512"])
        out, err = capsys.readouterr()
        if ref_amp == 1e70:  # the control: large, but every metric stays finite
            assert (code, err) == (0, "")
            assert json.loads(out)["icpc_percent"] <= 100.0
        else:
            assert code == 1
            assert err == "error: samples are too large for the metrics to stay finite in float64\n"

    @pytest.mark.parametrize("prefilter", ["none", "k", "a"])
    def test_overflow_fails_by_name_with_any_prefilter(self, tmp_path, capsys, prefilter):
        paths = [str(tmp_path / "ref.wav"), str(tmp_path / "rec.wav")]
        for path, buf in zip(paths, overflowing_pair()):
            with open(path, "wb") as fh:  # float64 WAV: float32 cannot hold these amplitudes
                fh.write(_wav_header(_FLOAT, 2, 44100, 8, buf.num_samples))
                fh.write(buf.samples.T.astype("<f8").tobytes())
        code = main(["eval", *paths, "--fft-sizes", "512", "--prefilter", prefilter, "--objective"])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err == "error: samples are too large for the metrics to stay finite in float64\n"

    def test_objective_overflow_past_the_last_chunk_fails_by_name(self, tmp_path, capsys):
        # the chunks leave out the tail, which only the whole-pair objective reads
        ref, rec = noise_stereo(seconds=2.5, amp=0.4, seed=91), noise_stereo(seconds=2.5, amp=0.4, seed=92)
        paths = [str(tmp_path / "ref.wav"), str(tmp_path / "rec.wav")]
        for path, buf, huge in zip(paths, (ref, rec), overflowing_pair()):
            x = np.array(buf.samples)
            x[:, 2 * 44100 :] = huge.samples[:, : x.shape[1] - 2 * 44100]
            with open(path, "wb") as fh:
                fh.write(_wav_header(_FLOAT, 2, 44100, 8, x.shape[1]))
                fh.write(x.T.astype("<f8").tobytes())
        argv = ["eval", *paths, "--fft-sizes", "512", "--chunk-seconds", "1"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main([*argv, "--objective"]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: samples are too large for the metrics to stay finite in float64\n")

    def test_missing_file_fails(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.wav")
        assert main(["eval", missing, missing]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_fft_size_fails_by_name(self, wav_pair, capsys):
        assert main(["eval", *wav_pair, "--fft-sizes", "1000"]) == 1
        assert capsys.readouterr().err == "error: fft sizes must be powers of two >= 2, got 1000\n"

    def test_bad_option_exits_two(self, wav_pair):
        with pytest.raises(SystemExit) as exc:
            main(["eval", *wav_pair, "--format", "xml"])
        assert exc.value.code == 2

    def test_bad_prefilter_exits_two(self, wav_pair):
        with pytest.raises(SystemExit) as exc:
            main(["eval", *wav_pair, "--prefilter", "x"])
        assert exc.value.code == 2

    def test_help_lists_the_prefilters(self, capsys):
        with pytest.raises(SystemExit):
            main(["eval", "--help"])
        assert "--prefilter {none,k,a}" in capsys.readouterr().out

    def test_huge_chunk_evaluates_whole(self, wav_pair, capsys):
        assert main(["eval", *wav_pair, "--chunk-seconds", "1e308"]) == 0
        assert "shorter_than_one_chunk" in json.loads(capsys.readouterr().out)["flags"]


_IMPORT_GUARD = """
import json, sys
import earmetrics.cli
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
loaded = [scipy_modules()]
for extra in ([], ["--objective"]):
    loaded += [earmetrics.cli.main(["eval", sys.argv[1], sys.argv[2], *extra]), scipy_modules()]
print(json.dumps(loaded))
"""


def test_eval_without_prefilter_never_imports_scipy_signal(wav_pair):
    # scipy.signal pulls in scipy.stats and dominates start-up, and scipy.io
    # pulls in scipy.sparse; only resampling and the weighting filters may
    # load scipy at all
    src = str(Path(earmetrics.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(
        [sys.executable, "-c", _IMPORT_GUARD, *wav_pair],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert json.loads(run.stdout.strip().splitlines()[-1]) == [[], 0, [], 0, []]


def _run_cli_module(*args: str) -> subprocess.CompletedProcess:
    """``python -m earmetrics.cli <args>`` in a fresh interpreter that imports this source tree."""
    src = str(Path(earmetrics.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-m", "earmetrics.cli", *args], env=env, capture_output=True, text=True, timeout=120
    )


class TestModuleRun:
    def test_help_prints_the_usage(self):
        run = _run_cli_module("--help")
        assert run.returncode == 0
        assert run.stdout.startswith("usage: earmetrics ")

    def test_eval_prints_the_line_of_main(self, wav_pair, capsys):
        run = _run_cli_module("eval", *wav_pair)
        assert main(["eval", *wav_pair]) == 0
        assert (run.returncode, run.stdout, run.stderr) == (0, capsys.readouterr().out, "")


class TestCurateCommand:
    def test_full_run_summary(self, tmp_path, curation_corpus, capsys):
        out = tmp_path / "out"
        code = main(["curate", "all", str(curation_corpus["dir"]), str(out)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["total"] == 6
        assert doc["kept"] == 1
        assert doc["rejected_by_reason"]["true_peak_exceeded"] == 2
        assert (out / "decisions.jsonl").exists()

    def test_custom_thresholds(self, tmp_path, curation_corpus, capsys):
        out = tmp_path / "out"
        code = main(
            [
                "curate", "all", str(curation_corpus["dir"]), str(out),
                "--lufs-min", "-40", "--lufs-max", "0", "--dbtp-max", "2.0",
                "--jobs", "2",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        # the rate gate has no threshold, and the loud file's true peak
        # (about +4 dBTP for noise at -3 LUFS) still exceeds 2.0
        assert doc["kept"] == 4
        assert doc["rejected_by_reason"] == {"below_rate": 1, "true_peak_exceeded": 1}

    def test_help_names_the_blas_thread_variable(self, capsys):
        with pytest.raises(SystemExit):
            main(["curate", "--help"])
        assert "OPENBLAS_NUM_THREADS=1" in " ".join(capsys.readouterr().out.split())

    def test_missing_input_fails(self, tmp_path, capsys):
        assert main(["curate", "all", str(tmp_path / "absent"), str(tmp_path / "o")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_stage_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["curate", "stage9", str(tmp_path), str(tmp_path)])
        assert exc.value.code == 2
