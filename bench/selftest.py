#!/usr/bin/env python3
"""Self-test of the benchmark's tracer and input generator.

Run from the repository root:

    python3 bench/selftest.py

The file name keeps it out of the package's pytest run. The STFT counts it
checks (52 calls on 24 distinct inputs per ``evaluate_pair``, 72 on 48 per
``composite_objective``) describe the library as it was when the benchmark
was defined; they are the figures a shared spectral plan is expected to move.
"""

from __future__ import annotations

import shutil
import sys
import threading
import time
import types
import unittest
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import earmetrics  # noqa: E402

import gen  # noqa: E402
from tracer import Span, Tracer, covered, layer_metrics, package_modules, self_times  # noqa: E402

MODULES = package_modules()

TOY = '''
import time
from concurrent.futures import ThreadPoolExecutor

def inner(x):
    time.sleep(0.01)
    return x

def outer():
    time.sleep(0.02)
    return inner(1) + inner(2)

def batch():
    with ThreadPoolExecutor(max_workers=2) as pool:
        return sum(pool.map(inner, range(4)))
'''


def toy_module() -> types.ModuleType:
    # a name under earmetrics. so the tracer treats its functions as the package's
    mod = types.ModuleType("earmetrics.selftest_toy")
    exec(TOY, mod.__dict__)
    return mod


def traced(fn, *args):
    tracer = Tracer()
    tracer.install(MODULES)
    tracer.begin_op(1)
    try:
        fn(*args)
    finally:
        tracer.end_op()
        tracer.uninstall()
    return layer_metrics(tracer, 1, jobs=1)


class SelfTimeTest(unittest.TestCase):
    def test_covered_merges_overlaps_and_clips(self):
        self.assertAlmostEqual(covered(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0), (9.0, 12.0)]), 4.0)
        self.assertAlmostEqual(covered(0.0, 10.0, []), 0.0)

    def test_self_time_subtracts_children_once(self):
        spans = [
            Span("a.root", 1, None, 1, 0, 0.0, 10.0),
            Span("a.kid", 2, 1, 1, 0, 1.0, 3.0),
            Span("a.kid", 3, 1, 1, 1, 2.0, 4.0),  # on another thread, overlapping
            Span("a.leaf", 4, 2, 1, 0, 1.5, 2.0),
        ]
        own = self_times(spans)
        self.assertAlmostEqual(own[1], 7.0)
        self.assertAlmostEqual(own[2], 1.5)
        self.assertAlmostEqual(own[3], 2.0)
        self.assertAlmostEqual(own[4], 0.5)


class TracerTest(unittest.TestCase):
    def test_nested_calls_and_worker_threads(self):
        mod = toy_module()
        originals = (mod.inner, mod.outer, mod.batch)
        tracer = Tracer()
        tracer.install([mod])
        tracer.begin_op(7)
        mod.outer()
        mod.batch()
        tracer.end_op()
        tracer.uninstall()
        self.assertEqual((mod.inner, mod.outer, mod.batch), originals)

        spans = tracer.op_spans(7)
        by_id = {s.id: s for s in spans}
        names = sorted(s.name for s in spans)
        self.assertEqual(names, ["selftest_toy.batch"] + ["selftest_toy.inner"] * 6 + ["selftest_toy.outer"])
        (batch,) = [s for s in spans if s.name == "selftest_toy.batch"]
        workers = [s for s in spans if s.name == "selftest_toy.inner" and s.thread != threading.get_ident()]
        self.assertEqual(len(workers), 4)
        self.assertTrue(all(by_id[s.parent] is batch for s in workers))

        self.assertEqual(layer_metrics(tracer, 7, jobs=2)["selftest_toy.inner.calls"], 6)
        own = self_times(spans)
        (outer,) = [s for s in spans if s.name == "selftest_toy.outer"]
        kids = [s for s in spans if s.parent == outer.id]
        self.assertEqual(len(kids), 2)
        self.assertAlmostEqual(own[outer.id], outer.end - outer.start - sum(k.end - k.start for k in kids), places=12)
        self.assertGreaterEqual(own[outer.id], 0.02)
        # the batch's own time excludes what its worker-thread children cover
        cover = covered(batch.start, batch.end, [(s.start, s.end) for s in workers])
        self.assertGreaterEqual(cover, 0.02)
        self.assertAlmostEqual(own[batch.id], batch.end - batch.start - cover, places=12)

    def test_stft_counts_of_evaluate_pair(self):
        pair = gen.music_pair(0, 0, 1.0)
        ref = earmetrics.AudioBuffer(pair.ref, pair.rate)
        rec = earmetrics.AudioBuffer(pair.rec, pair.rate)
        metrics = traced(lambda: earmetrics.coherence.evaluate_pair(ref, rec))
        self.assertEqual((metrics["audio.stft.calls"], metrics["audio.stft.distinct"]), (52, 24))

    def test_stft_counts_of_composite_objective(self):
        pair = gen.music_pair(0, 1, 1.0)
        ref = earmetrics.AudioBuffer(pair.ref, pair.rate)
        rec = earmetrics.AudioBuffer(pair.rec, pair.rate)
        metrics = traced(lambda: earmetrics.spectral.composite_objective(ref, rec))
        self.assertEqual((metrics["audio.stft.calls"], metrics["audio.stft.distinct"]), (72, 48))


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        a, b = gen.music_pair(5, 1, 2.0), gen.music_pair(5, 1, 2.0)
        self.assertTrue(np.array_equal(a.ref, b.ref) and np.array_equal(a.rec, b.rec))
        self.assertFalse(np.array_equal(a.ref, gen.music_pair(5, 2, 2.0).ref))
        self.assertFalse(np.array_equal(a.ref, gen.music_pair(6, 1, 2.0).ref))

    def test_pair_si_sdr_is_the_injected_snr(self):
        pair = gen.music_pair(2, 0, 5.0)
        ref, rec = pair.ref.astype(np.float64), pair.rec.astype(np.float64)
        values = []
        for a, b in zip(ref, rec):
            target = (b @ a) / (a @ a) * a
            values.append(10 * np.log10((target @ target) / ((b - target) @ (b - target))))
        self.assertLess(abs(np.mean(values) - pair.snr_db), 0.02)
        self.assertTrue(np.any(np.all(ref == 0.0, axis=0)), "no digital silence in the reference")

    def test_corpus_files_land_on_their_reasons_with_margin(self):
        from earmetrics.loudness import integrated_lufs, true_peak_dbtp

        work = ROOT / ".bench_out" / f"selftest-{time.time_ns()}"
        try:
            specs = gen.write_corpus(3, work / "in")
            self.assertEqual(len(specs), 40)
            self.assertEqual({s.rate for s in specs}, {22050, 44100, 48000, 96000})
            self.assertEqual({s.fmt for s in specs}, {"pcm16", "pcm24", "float32"})
            self.assertEqual({s.channels for s in specs}, {1, 2})
            for spec in specs:
                path = work / "in" / spec.name
                if spec.reason == "decode_error":
                    self.assertRaises(ValueError, earmetrics.load_wav, path)
                    continue
                buf = earmetrics.load_wav(path)
                if spec.reason == "below_rate":
                    self.assertLess(buf.sample_rate, 44100)
                    continue
                self.assertLessEqual(float(np.max(np.abs(buf.samples))), 1.0, spec)
                # as curation stage 1 standardizes: down to 44.1 kHz, mono to stereo
                std = earmetrics.resample(buf, 44100) if buf.sample_rate > 44100 else buf
                std = earmetrics.AudioBuffer(np.vstack([std.samples[0], std.samples[-1]]), std.sample_rate)
                lufs = integrated_lufs(std).lufs_i
                if spec.reason == "lufs_low":
                    self.assertLess(lufs, -25.0, spec)
                elif spec.reason == "lufs_high":
                    self.assertGreater(lufs, -2.0, spec)
                else:
                    self.assertTrue(-19.0 < lufs < -8.0, (spec, lufs))
                    dbtp = true_peak_dbtp(std).dbtp
                    if spec.reason == "true_peak_exceeded":
                        self.assertGreater(dbtp, 2.0, spec)
                    else:
                        self.assertLess(dbtp, 0.0, spec)
        finally:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
