#!/usr/bin/env python3
"""Benchmark of earmetrics: seeded inputs, three workloads, every output checked.

Run from the repository root:

    python3 bench/run.py --workload eval_30s --seed 0 --seconds 24 --trace 0

Workloads are ``eval_30s``, ``objective_5s`` and ``curate_mixed`` (see
``workloads.py`` and ``BENCHMARK.json``). With ``--trace 0`` the run reports
the end-to-end metrics, measured untraced; with ``--trace 1`` it reports the
per-layer metrics from ops run under the tracer, alternating with untraced
ops to give the tracing overhead. The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it holds run details and the environment. Results and spans are also
written to ``.bench_out/`` in the repository root.
"""

from __future__ import annotations

import os
import sys

# Set before numpy loads: one BLAS/OpenMP thread, so ``--jobs 2`` means two
# threads, and no EARMETRICS_THREADS, which would override ``--jobs``.
os.environ.pop("EARMETRICS_THREADS", None)
_PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in _PINNED:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from tracer import Tracer, layer_metrics, package_modules  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 3


def load_package() -> None:
    """Import earmetrics from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "earmetrics" / "__init__.py").is_file():
        raise SystemExit(f"error: no earmetrics package under {SRC}")
    sys.path.insert(0, str(SRC))
    import earmetrics

    if Path(earmetrics.__file__).resolve().parent != (SRC / "earmetrics").resolve():
        raise SystemExit(f"error: imported earmetrics from {earmetrics.__file__}, not {SRC}")


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "pinned_threads": {v: os.environ[v] for v in _PINNED},
    }


def measure_setup() -> list[float]:
    """Wall times of fresh interpreters running ``import earmetrics.cli``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import earmetrics.cli"], env=env, cwd=ROOT, check=True)
        times.append(perf_counter() - t0)
    return times


class Runner:
    """Runs one workload's ops, checks each, and keeps the tallies."""

    def __init__(self, workload, modules: list, tracer=None) -> None:
        self.wl = workload
        self.modules = modules
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, i: int, traced: bool = False) -> tuple[float, int]:
        """Prepare, time, check and clean up op ``i``; returns seconds and
        the tracemalloc peak in bytes."""
        inp = self.wl.prepare(i)
        if traced:
            self.tracer.install(self.modules)
            self.tracer.begin_op(i)
        tracemalloc.start()
        t0 = perf_counter()
        try:
            out, error = self.wl.run(inp), None
        except Exception as exc:  # a failed op is counted, not fatal
            out, error = None, f"raised {exc!r}"
        dt = perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        if traced:
            self.tracer.end_op()
            self.tracer.uninstall()
        if error is None:
            try:
                problems = self.wl.check(inp, out)
            except Exception as exc:
                problems = [f"check raised {exc!r}"]
        else:
            problems = [error]
        self.wl.cleanup(inp)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"op {i}: " + "; ".join(problems))
        return dt, peak


def run_untraced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    setup = measure_setup()
    wl = runner.wl
    wl.setup()
    runner.op(0)  # warm-up, untimed: the first op in a process runs slower
    times, peaks = [], []
    i = 1
    while sum(times) < seconds:
        dt, peak = runner.op(i)
        times.append(dt)
        peaks.append(peak)
        i += 1
    metrics = {
        "setup_s": statistics.median(setup),
        "op_s_p50": statistics.median(times),
        "peak_mb": statistics.median(peaks) / 1e6,
    }
    info = {"setup_s": setup, "op_s": times, "peak_mb": [p / 1e6 for p in peaks]}
    # Every op of a run does the same work, so throughput is a fixed
    # multiple of op_s_p50; it is reported here, not as a gated metric.
    info["audio_s_per_s"] = wl.audio_seconds() / metrics["op_s_p50"]
    if hasattr(wl, "files"):
        info["files_per_s"] = wl.files() / metrics["op_s_p50"]
    return metrics, info


def run_traced(runner: Runner, seconds: float, names: list[str], spans_path: Path) -> tuple[dict, dict]:
    wl, tracer = runner.wl, runner.tracer
    t0 = perf_counter()
    wl.setup()
    runner.op(0)
    plain, traced, layers = [], [], []
    i = 1
    while sum(plain) + sum(traced) < seconds or not traced:
        if i % 2:
            plain.append(runner.op(i)[0])
        else:
            traced.append(runner.op(i, traced=True)[0])
            layers.append(layer_metrics(tracer, i, wl.jobs))
        i += 1
    metrics = {n: statistics.median(op.get(n, 0) for op in layers) for n in names}
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    tracer.write(spans_path, t0)
    return metrics, {"op_s": plain, "traced_op_s": traced, "spans": str(spans_path.relative_to(ROOT))}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="input seed (default 0, which has stored results)")
    parser.add_argument("--seconds", type=float, default=24.0, help="time to measure ops for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    args = parser.parse_args(argv)

    load_package()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    modules = package_modules()
    out_dir = ROOT / ".bench_out"
    work = out_dir / f"work-{os.getpid()}"
    runner = Runner(WORKLOADS[args.workload](args.seed, work), modules, Tracer() if args.trace else None)
    work.mkdir(parents=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            names = [n for n in units if n != "trace.overhead_ratio"]
            metrics, info = run_traced(runner, args.seconds, names, out_dir / f"spans-{tag}.jsonl")
        else:
            metrics, info = run_untraced(runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(metrics) != set(units):
        raise SystemExit(f"error: measured {sorted(metrics)}, BENCHMARK.json names {sorted(units)}")

    info.update(workload=args.workload, seed=args.seed, problems=runner.problems, env=environment())
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    }
    (out_dir / f"result-{tag}.json").write_text(json.dumps({"info": info, "result": result}, indent=1))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
