"""No report or objective field depends on the STFT block size.

Every sum over frames is a frame-grid sum (``phase._FrameSums``): fixed groups
of frames counted from the signal's first frame, whatever blocks
``audio._stft_blocks`` cuts. These tests run ``evaluate_pair`` and
``composite_objective`` with ``audio._STFT_BLOCK_SAMPLES`` at three sizes and
assert every field equal, not close. ``test_under_other_kernels`` reruns them in
child processes under another BLAS kernel and without numpy's AVX-512 loops.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import earmetrics.audio
from earmetrics import AudioBuffer, composite_objective, evaluate_pair
from helpers import exact_bits

RATE = 44100
# at 2**13 samples the 128 scale's blocks are 64 frames, so a group of frames spans blocks
BLOCKS = (2**13, 2**16, 2**17)


def _pair(num_samples: int, seed: int, silent: slice | None = None) -> tuple[AudioBuffer, AudioBuffer]:
    rng = np.random.default_rng(seed)
    ref = 0.4 * rng.standard_normal((2, num_samples))
    rec = 0.9 * ref + 0.04 * rng.standard_normal((2, num_samples))
    if silent is not None:
        ref[:, silent] = rec[:, silent] = -0.0
    return AudioBuffer(ref, RATE), AudioBuffer(rec, RATE)


PAIRS = {
    # the largest window of the default bank: one block at every size
    "4096": lambda: _pair(4096, seed=1),
    # one frame past a 2**16 block at every scale
    "16384": lambda: _pair(16384, seed=2),
    # exactly 2 x 2**15 samples: the reflected tail reads before the last block's start;
    # 2049 frames at the 128 scale, past 8 groups of frames
    "65536": lambda: _pair(2 * 2**15, seed=3),
    # digital silence stored as -0.0 in both signals, across block and group edges
    "negative zero": lambda: _pair(50_000, seed=4, silent=slice(10_000, 30_000)),
}

CALLS = {
    "evaluate_pair": evaluate_pair,
    "evaluate_pair k": lambda ref, rec: evaluate_pair(ref, rec, prefilter="k"),
    # two or more chunks, each one signal with reflected ends of its own
    "evaluate_pair chunked": lambda ref, rec: evaluate_pair(
        ref, rec, chunk_seconds=max(4096, ref.num_samples // 2) / RATE
    ),
    "composite_objective": composite_objective,
    "composite_objective k": lambda ref, rec: composite_objective(ref, rec, prefilter="k"),
}


@pytest.mark.parametrize("pair", list(PAIRS))
@pytest.mark.parametrize("call", list(CALLS))
def test_every_field_is_the_same_at_every_block_size(call, pair, monkeypatch):
    ref, rec = PAIRS[pair]()
    results = []
    for block in BLOCKS:
        monkeypatch.setattr(earmetrics.audio, "_STFT_BLOCK_SAMPLES", block)
        results.append(CALLS[call](ref, rec))
    assert all(exact_bits(r) == exact_bits(results[0]) for r in results[1:]), [repr(r) for r in results]


def _dynamic_openblas() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "openblas" in str(blas.get("name")).lower() and "DYNAMIC_ARCH" in str(blas.get("openblas configuration"))


def _avx512_loops() -> bool:
    return "X86_V4" in np.show_config(mode="dicts")["SIMD Extensions"]["found"]


KERNELS = {
    # another GEMM kernel, two threads: the banded mel products run there
    "haswell, two threads": (
        {"OPENBLAS_CORETYPE": "Haswell", "OPENBLAS_NUM_THREADS": "2"},
        _dynamic_openblas,
        "the BLAS is not a DYNAMIC_ARCH OpenBLAS, so OPENBLAS_CORETYPE picks no other kernel",
    ),
    "no avx-512 loops": (
        {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
        _avx512_loops,
        "numpy found no AVX-512 loops on this machine to turn off",
    ),
}


@pytest.mark.parametrize("kernel", list(KERNELS))
def test_under_other_kernels(kernel):
    env, available, reason = KERNELS[kernel]
    if not available():
        pytest.skip(reason)
    root = Path(__file__).resolve().parents[1]
    src = str(root / "src")
    child_env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__, "-k", "not under_other_kernels"]
    out = subprocess.run(argv, cwd=root, env=child_env, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stdout[-4000:] + out.stderr[-2000:]
